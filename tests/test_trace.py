import io
import os
import random
import re
import subprocess
import sys
import tracemalloc

import pytest

from vzor import cli, netsim, sig
from vzor import trace as trace_mod
from vzor.oracle import observation_message
from vzor.packets import OraclePacket
from vzor.scenario import GovernanceItem, ScenarioConfig, canonical_text
from vzor.trace import (
    TRACE_HEADER,
    ms_to_s_text,
    parse_trace,
    render_block,
    render_head,
    verify_trace_file,
    verify_trace_text,
)
from vzor.vrf import ReporterSecret

from conftest import finished_run

BASE = ScenarioConfig(seed=7, epochs=12)


@pytest.fixture(scope="module")
def honest_trace():
    return finished_run(BASE)


@pytest.fixture(scope="module")
def fraud_trace():
    return finished_run(
        BASE._replace(
            adversary_behavior="wrong_median_packet",
            fraud_period=5,
            governance=(GovernanceItem("f_min", 11, 1),),
        )
    )


def _swap_line(text: str, needle: str, old: str, new: str, occurrence: int = 0) -> str:
    lines = text.split("\n")
    hits = [i for i, line in enumerate(lines) if needle in line and old in line]
    assert hits, f"no line matching {needle!r} with {old!r}"
    index = hits[occurrence]
    lines[index] = lines[index].replace(old, new, 1)
    return "\n".join(lines)


# -- formatting helpers -----------------------------------------------------------


@pytest.mark.parametrize(
    ("ms", "text"),
    [
        (0, "0.000"),
        (1, "0.001"),
        (830, "0.830"),
        (1000, "1.000"),
        (15_830, "15.830"),
        (19_999, "19.999"),
        (-1_500, "-1.500"),
    ],
)
def test_ms_to_s_text(ms, text):
    assert ms_to_s_text(ms) == text


# -- render and parse ---------------------------------------------------------------


def test_parse_round_trip(fraud_trace):
    text = fraud_trace.text
    lines = iter(io.StringIO(text))
    config_text, head, line = parse_trace(lines)
    blocks = list(trace_mod._blocks(line, lines))  # read on from the same iterator
    assert head + "".join(block for _, block in blocks) + "[end]\n" == text
    assert config_text == canonical_text(fraud_trace.totals.config)
    assert head == render_head(netsim.Simulator(fraud_trace.totals.config))
    assert [epoch for epoch, _ in blocks] == list(range(12))
    assert head.count("\ngovernance effective=") == 1


def test_csv_shape(fraud_trace):
    lines = fraud_trace.csv.rstrip("\n").split("\n")
    assert lines[0] == (
        "epoch,committee_ids,median,accepted_sepolia,accepted_scroll,"
        "gas_sepolia,gas_scroll,e2e_latency_s,fraud_injected,slash_latency_s,slashed_ids"
    )
    assert len(lines) == 1 + 12
    honest = lines[1].split(",")
    assert honest[3] == honest[4] == "1"
    assert honest[8] == "0"
    assert honest[9] == honest[10] == ""
    fraud = lines[5].split(",")  # epoch 4 carries the first injected fraud
    assert fraud[3] == fraud[4] == "0"
    assert fraud[7] == ""  # no end-to-end latency without acceptance
    assert fraud[8] == "1"
    assert len(fraud[10].split(";")) == 15


def test_written_files_round_trip(tmp_path, honest_trace):
    cli._write_run_outputs(netsim.Simulator(BASE), str(tmp_path))
    assert (tmp_path / "trace.txt").read_text() == honest_trace.text
    assert (tmp_path / "epochs.csv").read_text() == honest_trace.csv


def _assert_streamed(out, run_trace):
    """The files vzor wrote as each epoch closed are the rendered whole run's."""
    assert (out / "config.txt").read_text() == canonical_text(run_trace.totals.config)
    assert (out / "trace.txt").read_text() == run_trace.text
    assert (out / "epochs.csv").read_text() == run_trace.csv
    assert (out / "metrics.txt").read_text() == run_trace.metrics.to_text()
    assert not list(out.glob("*.tmp"))


def test_streamed_outputs_equal_the_rendered_run(tmp_path, fraud_trace, capsys):
    # fraud every fifth epoch, slashing, and a governance update
    config = tmp_path / "scenario.txt"
    config.write_text(canonical_text(fraud_trace.totals.config))
    assert cli.main(["run", "--config", str(config), "--out", str(tmp_path / "run")]) == 0
    _assert_streamed(tmp_path / "run", fraud_trace)
    sweep = ["sweep", "--config", str(config), "--param", "n", "--values", "11,15"]
    assert cli.main(sweep + ["--out", str(tmp_path / "sweep")]) == 0
    rows = (tmp_path / "sweep" / "sweep.csv").read_text().splitlines()[1:]
    for n, row in zip((11, 15), rows):
        run_trace = finished_run(fraud_trace.totals.config._replace(committee_size=n))
        _assert_streamed(tmp_path / "sweep" / f"n_{n}", run_trace)
        summary = run_trace.metrics
        liveness = run_trace.liveness
        assert row.split(",")[2:10] == [
            str(cell) for cell in (
                summary.epochs, summary.accepted_epochs, summary.throughput_pps,
                summary.mean_e2e_s, summary.stdev_e2e_s, summary.slash_count,
                summary.mean_slash_latency_s, len(liveness.violations),
            )
        ]


# -- structural corruption (exit 2) ---------------------------------------------------


@pytest.mark.parametrize(
    "damage",
    [
        lambda text: "",
        lambda text: text.replace(TRACE_HEADER, "xzor-trace v1", 1),
        lambda text: text.replace("ledger start total=", "ledger start totel=", 1),
        lambda text: text.replace("chains sepolia,scroll", "chains", 1),
        lambda text: text.replace(TRACE_HEADER, "vzor-trace v2", 1),
        lambda text: text.replace("[/config]", "", 1),
        lambda text: text.replace("[/epoch]", "", 1),
        lambda text: text.replace("\n[end]\n", "\n", 1),
        lambda text: text + "[end]\n",
        lambda text: text.rstrip("\n"),
    ],
)
def test_verify_exits_2_on_corruption(honest_trace, damage):
    text = damage(honest_trace.text)
    check = verify_trace_text(text)
    assert check.exit_code == 2
    assert not check.ok


def test_verify_exits_2_on_missing_file(tmp_path):
    check = verify_trace_file(str(tmp_path / "no-such-trace.txt"))
    assert check.exit_code == 2


def test_verify_exits_2_on_tampered_config(honest_trace):
    # config keys are validated before replay
    trace_text = honest_trace.text
    text = _swap_line(trace_text, "registry_size", "registry_size", "registry_sise")
    assert verify_trace_text(text).exit_code == 2
    # so is a config that parses but fails validation, with validate's message
    for old, new, message in [
        ("quorum = 10", "quorum = 16", "need 1 <= quorum (16) <= committee (15) <= registry (50)"),
        ("seed = 7", "seed = -7", "seed must fit in 64 bits"),
        ("governance = ", "governance = n:99@0",
         "governance at epoch 0 breaks quorum/committee bounds"),
    ]:
        text = _swap_line(trace_text, old, old, new)
        check = verify_trace_text(text)
        assert (check.exit_code, check.problems) == (2, (f"corrupt trace: {message}",))


def _verify_piped(text: str) -> subprocess.CompletedProcess:
    """``vzor verify-trace /dev/stdin`` in a fresh interpreter, with ``text`` piped in."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(trace_mod.__file__)))
    command = [sys.executable, "-m", "vzor.cli", "verify-trace", "/dev/stdin"]
    return subprocess.run(command, input=text, capture_output=True, text=True, env=env)


def test_verify_reads_a_trace_from_a_pipe():
    # a pipe cannot seek: the trace is read in one pass
    text = finished_run(ScenarioConfig(seed=3, epochs=6)).text
    clean = _verify_piped(text)
    assert (clean.returncode, clean.stderr) == (0, "")
    edited = _verify_piped(_swap_line(text, "receipt chain=scroll", "gas=88029", "gas=88028"))
    assert edited.returncode == 4
    assert edited.stderr == "epoch 0: receipt gas: recorded 88028, deterministic replay 88029\n"


def test_verdict_order_across_sites():
    # an epoch-0 block mismatch and one more edit: damage anywhere comes
    # first, then the epoch numbers, then the head, then the first block;
    # damage comes before a config that fails validation, too
    text = finished_run(ScenarioConfig(seed=3, epochs=6)).text
    gas = _swap_line(text, "receipt chain=scroll", "gas=88029", "gas=88028")
    start = next(line for line in text.split("\n") if line.startswith("ledger start "))
    quorum = _swap_line(text, "quorum = 10", "quorum = 10", "quorum = 16")
    end = quorum.rindex("[/epoch]\n")  # the last block's end line
    cases = [
        (gas + "x\n", 2, "corrupt trace: missing end marker, or text after it"),
        (
            gas.replace("[epoch 4]", "[epoch 9]", 1),
            4,
            "trace covers epochs [0, 1, 2]..[3, 9, 5] but config says 0..5",
        ),
        (
            _swap_line(gas, "ledger start", "burned=0", "burned=00"),
            4,
            f"line 29 diverges from deterministic replay: recorded {start + '0'!r}, "
            f"replay {start!r}",
        ),
        (
            quorum[:end] + quorum[end + len("[/epoch]\n") :],
            2,
            "corrupt trace: unterminated block for epoch 5",
        ),
    ]
    for edited, exit_code, problem in cases:
        assert verify_trace_text(edited) == trace_mod.TraceCheck(exit_code, (problem,))


# -- clean traces (exit 0) --------------------------------------------------------------


def test_verify_accepts_honest_trace(honest_trace):
    check = verify_trace_text(honest_trace.text)
    assert check.exit_code == 0
    assert check.ok
    assert check.problems == ()


def test_verify_accepts_fraud_trace(fraud_trace):
    assert verify_trace_text(fraud_trace.text).exit_code == 0


def test_verdict_is_checked_under_the_epochs_governed_params(fraud_trace):
    # f_min:11@1 is in force from epoch 3, and epoch 5's packet commits to
    # quorum 11: re-verified under genesis parameters it would not match
    head, start, rest = fraud_trace.text.partition("[epoch 5]\n")
    rest = rest.replace("receipt chain=sepolia accepted=1", "receipt chain=sepolia accepted=0", 1)
    check = verify_trace_text(head + start + rest)
    assert check.exit_code == 4
    assert check.problems == ("epoch 5: chain sepolia recorded accepted=0 but replay says ok",)


# -- outcome mismatches (exit 4) ----------------------------------------------------------


def test_governed_cut_slashes_from_its_effective_epoch():
    # frauds at odd epochs; the cut proposed at epoch 2 is in force from 4 on
    new_cut = 3 * BASE.slash_cut_wei
    config = BASE._replace(
        adversary_behavior="wrong_median_packet",
        fraud_period=2,
        governance=(GovernanceItem("s_cut", new_cut, 2),),
    )
    run_trace = finished_run(config)
    slashes = [
        (rec.epoch, line)
        for rec in run_trace.records
        for line in render_block(rec).split("\n")
        if line.startswith("slash origin=")
    ]
    assert [epoch for epoch, _ in slashes] == [1, 3, 5, 7, 9, 11]
    for epoch, line in slashes:
        assert f" cut={new_cut if epoch >= 4 else BASE.slash_cut_wei} " in line
    assert verify_trace_text(run_trace.text).exit_code == 0


@pytest.mark.parametrize("old, new", [("value=11", "value=12"), ("effective=3", "effective=4")])
def test_edited_governance_line_exits_4(tmp_path, capsys, fraud_trace, old, new):
    text = fraud_trace.text
    line = text.split("\n").index("governance effective=3 param=f_min value=11") + 1
    edited = _swap_line(text, "governance effective=", old, new)
    check = verify_trace_text(edited)
    assert check.exit_code == 4
    assert check.problems[0].startswith(f"line {line} diverges from deterministic replay")
    path = tmp_path / "trace.txt"
    path.write_text(edited, encoding="utf-8")
    assert cli.main(["verify-trace", str(path)]) == 4
    assert "Traceback" not in capsys.readouterr().err


def test_verify_catches_flipped_accept_bit(honest_trace):
    text = _swap_line(
        honest_trace.text, "receipt chain=sepolia", "accepted=1", "accepted=0"
    )
    check = verify_trace_text(text)
    assert check.exit_code == 4
    assert any("epoch 0" in problem for problem in check.problems)


def test_verify_catches_gas_edit(honest_trace):
    text = _swap_line(
        honest_trace.text, "receipt chain=scroll", "gas=88029", "gas=88028"
    )
    assert verify_trace_text(text).exit_code == 4


def test_verify_catches_median_edit(honest_trace):
    original = str(honest_trace.records[0].median)
    text = _swap_line(honest_trace.text, "median ", original, original[:-1] + "9")
    assert verify_trace_text(text).exit_code == 4


def test_verify_catches_e2e_edit(honest_trace):
    original = f"e2e_ms {honest_trace.records[0].e2e_ms}"
    text = honest_trace.text.replace(original, "e2e_ms 1", 1)
    assert verify_trace_text(text).exit_code == 4


def test_verify_catches_offmax_finality_edit(honest_trace):
    # scroll never sets the end-to-end maximum here, so only the replay
    # comparison can notice its finality time drifting
    final = next(
        r.final_ms for r in honest_trace.records[0].receipts if r.chain_id == "scroll"
    )
    text = _swap_line(
        honest_trace.text,
        "receipt chain=scroll",
        f"final_ms={final}",
        f"final_ms={final + 1}",
    )
    check = verify_trace_text(text)
    assert check.exit_code == 4
    assert any("deterministic replay" in problem for problem in check.problems)


def test_verify_catches_slash_tampering(fraud_trace):
    fraud = next(r for r in fraud_trace.records if r.slash is not None)
    ids = ";".join(str(i) for i in fraud.slash.slashed)
    shorter = ";".join(str(i) for i in fraud.slash.slashed[:-1])
    text = _swap_line(fraud_trace.text, "slash origin=", f"ids={ids}", f"ids={shorter}")
    assert verify_trace_text(text).exit_code == 4


def test_verify_accepts_cuts_larger_than_the_stake_left():
    # a 20 ETH cut empties a 32 ETH stake on its second slash, which then
    # burns only the 12 ETH left; which slash gets the short cut is the
    # hub's application order, so only the run's total burn is exact
    config = ScenarioConfig(
        seed=3, epochs=6, adversary_behavior="wrong_median_packet", fraud_period=1,
        slash_cut_wei=20 * 10**18,
    )
    trace = finished_run(config)
    slashes = [r.slash for r in trace.records if r.slash is not None]
    assert any(s.total_cut < s.per_reporter_cut * len(s.slashed) for s in slashes)
    assert verify_trace_text(trace.text).exit_code == 0


def test_verify_catches_ledger_tampering(fraud_trace):
    burned = fraud_trace.totals.final_burned
    text = _swap_line(
        fraud_trace.text,
        "ledger total=",
        f"burned={burned}",
        f"burned={burned - 1}",
        occurrence=-1,
    )
    assert verify_trace_text(text).exit_code == 4


def test_verify_catches_missing_epoch(honest_trace):
    lines = honest_trace.text.split("\n")
    start = lines.index("[epoch 3]")
    end = lines.index("[/epoch]", start)
    text = "\n".join(lines[:start] + lines[end + 1 :])
    check = verify_trace_text(text)
    assert check.exit_code == 4
    assert any("covers epochs" in problem for problem in check.problems)


def test_claimed_epoch_count_does_not_size_memory():
    # a one-epoch trace edited to claim two million epochs is found short in
    # memory that follows the file, not the epoch count it claims
    text = finished_run(BASE._replace(epochs=1)).text
    edited = text.replace("\nepochs = 1\n", "\nepochs = 2000000\n", 1)
    assert edited != text
    tracemalloc.start()
    try:
        check = verify_trace_text(edited)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert check.exit_code == 4
    assert "covers epochs" in check.problems[0]
    assert peak < 1 << 20


def test_divergence_names_its_epoch_and_field(honest_trace):
    # edits that decode are found by the replay: the report names the epoch,
    # kind and field of an edited block line, and the number of another line
    text = honest_trace.text
    lines = text.split("\n")
    e2e = honest_trace.records[0].e2e_ms
    final = next(r.final_ms for r in honest_trace.records[0].receipts if r.chain_id == "scroll")
    at = lines.index("[epoch 1]") + 1  # its pulse line, then its committee line
    start = next(k for k, line in enumerate(lines) if line.startswith("ledger start"))
    packet = next(line for line in lines if line.startswith("packet "))[len("packet ") :]
    hexa = next(k for k, digit in enumerate(packet) if digit in "abcdef")  # its first a-f digit
    upper = packet[:hexa] + packet[hexa].upper() + packet[hexa + 1 :]
    cases = [
        (
            _swap_line(text, "receipt chain=scroll", f"final_ms={final}", f"final_ms={final + 1}"),
            f"epoch 0: receipt final_ms: recorded {final + 1}, deterministic replay {final}",
        ),
        (
            text.replace(f"e2e_ms {e2e}", "e2e_ms 1", 1),
            f"epoch 0: e2e_ms: recorded 1, deterministic replay {e2e}",
        ),
        (
            "\n".join(lines[:at] + [lines[at + 1], lines[at]] + lines[at + 2 :]),
            f"epoch 1: pulse line at offset 0: recorded {lines[at + 1][:16]}, "
            f"deterministic replay {lines[at][:16]}",
        ),
        (
            _swap_line(text, "ledger start", "burned=0", "burned=00"),
            f"line {start + 1} diverges from deterministic replay: "
            f"recorded {lines[start] + '0'!r}, replay {lines[start]!r}",
        ),
        (
            # decodes to the same packet: only its text differs from the replay's
            text.replace(packet, upper, 1),
            f"epoch 0: packet at offset {hexa}: recorded {upper[hexa : hexa + 16]}, "
            f"deterministic replay {packet[hexa : hexa + 16]}",
        ),
    ]
    for edited, problem in cases:
        assert verify_trace_text(edited) == trace_mod.TraceCheck(exit_code=4, problems=(problem,))


# -- fixed-seed fuzzing ---------------------------------------------------------------


def test_verify_rejects_every_single_byte_edit():
    # 400 seeded single-byte printable edits of a short fraud trace: every
    # edit that changes the text is corruption (2) or a mismatch (4) that
    # names its epoch or line, and verification never raises
    text = finished_run(
        ScenarioConfig(seed=3, epochs=6, adversary_behavior="wrong_median_packet", fraud_period=2)
    ).text
    rng = random.Random(2026)
    for _ in range(400):
        pos = rng.randrange(len(text))
        edited = text[:pos] + chr(rng.randrange(32, 127)) + text[pos + 1 :]
        if edited != text:
            check = verify_trace_text(edited)
            assert check.exit_code in (2, 4), (pos, edited[pos])
            if check.exit_code == 4:
                first = check.problems[0]
                assert re.match(r"(epoch \d+:|line \d+ )", first) or first.startswith(
                    "trace covers epochs"
                ), first


# -- checks first, then one replay ------------------------------------------------------

SHORT = ScenarioConfig(seed=3, epochs=6, adversary_behavior="wrong_median_packet", fraud_period=2)


@pytest.fixture()
def seam(monkeypatch):
    """The memo seam in its default mode, restored for later tests."""
    monkeypatch.delenv(sig.REAL_VERIFY_ENV, raising=False)
    sig.reset()
    yield monkeypatch
    monkeypatch.undo()
    sig.reset()


def _verify_fresh(text: str):
    """verify-trace as a new process runs it: empty memo, zero counters."""
    sig.reset()
    return verify_trace_text(text), sig.counters()


def _verify_both_modes(text: str, seam):
    check, _ = _verify_fresh(text)
    seam.setenv(sig.REAL_VERIFY_ENV, "1")
    real, counts = _verify_fresh(text)
    seam.delenv(sig.REAL_VERIFY_ENV)
    sig.reset()
    assert counts.memo_hits == 0
    assert real == check
    return check


def _edit_witness(text: str, epoch: int, edit) -> str:
    """Re-encode epoch ``epoch``'s packet after ``edit`` rewrote its entries."""
    lines = text.split("\n")
    start = lines.index(f"[epoch {epoch}]")
    index = next(i for i in range(start, len(lines)) if lines[i].startswith("packet "))
    packet = OraclePacket.from_bytes(bytes.fromhex(lines[index][len("packet ") :]))
    entries = list(packet.witness.entries)
    edit(entries)
    witness = packet.witness._replace(entries=tuple(entries))
    lines[index] = "packet " + packet._replace(witness=witness).to_bytes().hex()
    return "\n".join(lines)


@pytest.mark.parametrize("behavior", ["honest", "wrong_median_packet"])
def test_clean_trace_needs_no_real_verify(seam, behavior):
    text = finished_run(SHORT._replace(adversary_behavior=behavior)).text
    check, counts = _verify_fresh(text)
    assert check.exit_code == 0
    assert counts.real_verifies == 0
    assert counts.memo_hits > 0


def test_overlapping_epochs_need_no_real_verify(seam):
    # a packet is built 2.83 s after its pulse, so epochs 1 s apart overlap
    config = SHORT._replace(epoch_interval_s=1.0)
    assert config.delta_net_max_ms + config.t_prove_ms > 2 * config.epoch_interval_ms
    check, counts = _verify_fresh(finished_run(config).text)
    assert check.exit_code == 0
    assert counts.real_verifies == 0


def _swap_signatures(entries):
    first, second = entries[0], entries[1]
    entries[0] = first._replace(signature=second.signature)
    entries[1] = second._replace(signature=first.signature)


def _flip_signature_bit(entries):
    last = entries[-1]
    flipped = bytes([last.signature[0] ^ 1]) + last.signature[1:]
    entries[-1] = last._replace(signature=flipped)


@pytest.mark.parametrize(
    ("epoch", "edit"),
    [(2, _swap_signatures), (SHORT.epochs - 1, _flip_signature_bit)],
    ids=["swapped", "flipped_bit_last_epoch"],
)
def test_altered_witness_signature_exits_4(seam, epoch, edit):
    text = _edit_witness(finished_run(SHORT).text, epoch, edit)
    check = _verify_both_modes(text, seam)
    assert check.exit_code == 4
    assert f"epoch {epoch}:" in check.problems[0]
    assert "BadSignature" in check.problems[0]


def test_mismatch_reverifies_only_the_diverging_block(seam, monkeypatch):
    # the replay's own chains verify every packet it builds, so only the
    # one recorded block that differs from the replay is verified again
    text = finished_run(SHORT._replace(epochs=48)).text
    text = _edit_witness(text, 3, _flip_signature_bit)
    calls = []
    real = trace_mod.verify
    monkeypatch.setattr(trace_mod, "verify", lambda *args: calls.append(1) or real(*args))
    check = verify_trace_text(text)
    assert check.exit_code == 4
    assert len(calls) == 1
    assert check.problems[0].startswith("epoch 3:")
    assert "BadSignature" in check.problems[0]


def test_valid_signature_over_another_value_exits_4(seam):
    epoch = 2
    forged = []

    def resign(entries):
        entry = entries[0]
        rid = entry.reporter_id
        secret = ReporterSecret(rid, netsim.reporter_key_seed(SHORT.seed, rid))
        message = observation_message(entry.value + 1, epoch, rid)
        forged.append((secret.public_key, message, secret.sign(message)))
        entries[0] = entry._replace(signature=forged[0][2])

    text = _edit_witness(finished_run(SHORT).text, epoch, resign)
    assert sig.verify(*forged[0])  # a genuine signature by the member, for value + 1
    check = _verify_both_modes(text, seam)
    assert check.exit_code == 4
    assert f"epoch {epoch}:" in check.problems[0]
    assert "BadSignature" in check.problems[0]
