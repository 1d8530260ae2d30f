import dataclasses
import io
import itertools
import random
import re

import pytest

from vzor import cli, netsim, sig
from vzor import trace as trace_mod
from vzor.errors import TraceCorruption
from vzor.oracle import observation_message
from vzor.packets import OraclePacket
from vzor.scenario import GovernanceItem, ScenarioConfig, canonical_text
from vzor.trace import (
    TRACE_HEADER,
    ms_to_s_text,
    parse_trace,
    render_csv,
    render_head,
    render_trace,
    verify_trace_file,
    verify_trace_text,
)
from vzor.vrf import vrf_keygen

BASE = ScenarioConfig(seed=7, epochs=12)


@pytest.fixture(scope="module")
def honest_trace():
    return netsim.run(BASE)


@pytest.fixture(scope="module")
def fraud_trace():
    return netsim.run(
        dataclasses.replace(
            BASE,
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
    text = render_trace(fraud_trace)
    lines = io.StringIO(text)
    parsed = parse_trace(lines)
    lines.seek(0)  # the second pass, as verify-trace makes it
    blocks = trace_mod._blocks(itertools.islice(lines, parsed.head.count("\n"), None))
    assert parsed.head + "".join(blocks) + "[end]\n" == text
    assert parsed.config_text == canonical_text(fraud_trace.config)
    assert parsed.head == render_head(fraud_trace.config)
    assert list(parsed.epochs) == list(range(12))
    assert parsed.head.count("\ngovernance effective=") == 1


def test_csv_shape(fraud_trace):
    lines = render_csv(fraud_trace).rstrip("\n").split("\n")
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
    assert (tmp_path / "trace.txt").read_text() == render_trace(honest_trace)
    assert (tmp_path / "epochs.csv").read_text() == render_csv(honest_trace)


def _assert_streamed(out, run_trace):
    """The files vzor wrote as each epoch closed are the rendered whole run's."""
    assert (out / "config.txt").read_text() == canonical_text(run_trace.config)
    assert (out / "trace.txt").read_text() == render_trace(run_trace)
    assert (out / "epochs.csv").read_text() == render_csv(run_trace)
    assert (out / "metrics.txt").read_text() == netsim.metrics(run_trace).to_text()
    assert not list(out.glob("*.tmp"))


def test_streamed_outputs_equal_the_rendered_run(tmp_path, fraud_trace, capsys):
    # fraud every fifth epoch, slashing, and a governance update
    config = tmp_path / "scenario.txt"
    config.write_text(canonical_text(fraud_trace.config))
    assert cli.main(["run", "--config", str(config), "--out", str(tmp_path / "run")]) == 0
    _assert_streamed(tmp_path / "run", fraud_trace)
    sweep = ["sweep", "--config", str(config), "--param", "n", "--values", "11,15"]
    assert cli.main(sweep + ["--out", str(tmp_path / "sweep")]) == 0
    rows = (tmp_path / "sweep" / "sweep.csv").read_text().splitlines()[1:]
    for n, row in zip((11, 15), rows):
        run_trace = netsim.run(dataclasses.replace(fraud_trace.config, committee_size=n))
        _assert_streamed(tmp_path / "sweep" / f"n_{n}", run_trace)
        summary = netsim.metrics(run_trace)
        liveness = netsim.check_liveness(run_trace)
        assert row.split(",")[2:10] == [
            str(cell) for cell in (
                summary.epochs, summary.accepted_epochs, summary.throughput_pps,
                summary.mean_e2e_s, summary.stdev_e2e_s, summary.slash_count,
                summary.mean_slash_latency_s, len(liveness.violations),
            )
        ]


# -- structural corruption (exit 2) ---------------------------------------------------


def test_parse_rejects_structure_damage(honest_trace):
    text = render_trace(honest_trace)
    with pytest.raises(TraceCorruption):
        parse_trace(io.StringIO(""))
    with pytest.raises(TraceCorruption):
        parse_trace(io.StringIO(text.replace(TRACE_HEADER, "vzor-trace v2", 1)))
    with pytest.raises(TraceCorruption):
        parse_trace(io.StringIO(text.replace("[/config]", "", 1)))
    with pytest.raises(TraceCorruption):
        parse_trace(io.StringIO(text.replace("\n[end]\n", "\n", 1)))
    with pytest.raises(TraceCorruption):
        parse_trace(io.StringIO(text.replace("[/epoch]", "", 1)))
    with pytest.raises(TraceCorruption):
        parse_trace(io.StringIO(text + "[end]\n"))
    with pytest.raises(TraceCorruption):
        parse_trace(io.StringIO(text.rstrip("\n")))


@pytest.mark.parametrize(
    "damage",
    [
        lambda text: "",
        lambda text: text.replace(TRACE_HEADER, "xzor-trace v1", 1),
        lambda text: text.replace("ledger start total=", "ledger start totel=", 1),
        lambda text: text.replace("chains sepolia,scroll", "chains", 1),
    ],
)
def test_verify_exits_2_on_corruption(honest_trace, damage):
    text = damage(render_trace(honest_trace))
    check = verify_trace_text(text)
    assert check.exit_code == 2
    assert not check.ok


def test_verify_exits_2_on_missing_file(tmp_path):
    check = verify_trace_file(str(tmp_path / "no-such-trace.txt"))
    assert check.exit_code == 2


def test_verify_exits_2_on_tampered_config(honest_trace):
    # config keys are validated before replay
    text = _swap_line(render_trace(honest_trace), "registry_size", "registry_size", "registry_sise")
    assert verify_trace_text(text).exit_code == 2


class _RewrittenBetweenPasses(io.StringIO):
    """A trace file that ``rewrite`` replaces when verify-trace seeks back to
    its start for the second pass, as a copy over the file would."""

    def __init__(self, text, rewrite):
        super().__init__(text)
        self.rewrite = rewrite

    def seek(self, *args):
        text = self.rewrite(self.getvalue())
        super().seek(0)
        self.truncate()
        self.write(text)
        return super().seek(*args)


def _grow(text):
    last = text[text.rindex("[epoch ") : -len("[end]\n")]
    return text[: -len("[end]\n")] + last + "[end]\n"


@pytest.mark.parametrize(
    ("rewrite", "exit_code"),
    [
        (lambda text: text, 0),
        (lambda text: text[: text.rindex("[epoch ")], 2),
        (lambda text: text[: len(text) // 2], 2),
        (_grow, 2),
    ],
    ids=["unchanged", "last-block-cut", "cut-mid-block", "block-added"],
)
def test_verify_exits_2_when_the_trace_changes_between_passes(honest_trace, rewrite, exit_code):
    check = verify_trace_text(_RewrittenBetweenPasses(render_trace(honest_trace), rewrite))
    assert check.exit_code == exit_code, check.problems


# -- clean traces (exit 0) --------------------------------------------------------------


def test_verify_accepts_honest_trace(honest_trace):
    check = verify_trace_text(render_trace(honest_trace))
    assert check.exit_code == 0
    assert check.ok
    assert check.problems == ()


def test_verify_accepts_fraud_trace(fraud_trace):
    assert verify_trace_text(render_trace(fraud_trace)).exit_code == 0


# -- outcome mismatches (exit 4) ----------------------------------------------------------


def test_verify_catches_flipped_accept_bit(honest_trace):
    text = _swap_line(
        render_trace(honest_trace), "receipt chain=sepolia", "accepted=1", "accepted=0"
    )
    check = verify_trace_text(text)
    assert check.exit_code == 4
    assert any("epoch 0" in problem for problem in check.problems)


def test_verify_catches_gas_edit(honest_trace):
    text = _swap_line(
        render_trace(honest_trace), "receipt chain=scroll", "gas=88029", "gas=88028"
    )
    assert verify_trace_text(text).exit_code == 4


def test_verify_catches_median_edit(honest_trace):
    original = str(honest_trace.records[0].median)
    text = _swap_line(render_trace(honest_trace), "median ", original, original[:-1] + "9")
    assert verify_trace_text(text).exit_code == 4


def test_verify_catches_e2e_edit(honest_trace):
    original = f"e2e_ms {honest_trace.records[0].e2e_ms}"
    text = render_trace(honest_trace).replace(original, "e2e_ms 1", 1)
    assert verify_trace_text(text).exit_code == 4


def test_verify_catches_offmax_finality_edit(honest_trace):
    # scroll never sets the end-to-end maximum here, so only the replay
    # comparison can notice its finality time drifting
    final = next(
        r.final_ms for r in honest_trace.records[0].receipts if r.chain_id == "scroll"
    )
    text = _swap_line(
        render_trace(honest_trace),
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
    text = _swap_line(render_trace(fraud_trace), "slash origin=", f"ids={ids}", f"ids={shorter}")
    assert verify_trace_text(text).exit_code == 4


def test_verify_accepts_cuts_larger_than_the_stake_left():
    # a 20 ETH cut empties a 32 ETH stake on its second slash, which then
    # burns only the 12 ETH left; which slash gets the short cut is the
    # hub's application order, so only the run's total burn is exact
    config = ScenarioConfig(
        seed=3, epochs=6, adversary_behavior="wrong_median_packet", fraud_period=1,
        slash_cut_wei=20 * 10**18,
    )
    trace = netsim.run(config)
    slashes = [r.slash for r in trace.records if r.slash is not None]
    assert any(s.total_cut < s.per_reporter_cut * len(s.slashed) for s in slashes)
    assert verify_trace_text(render_trace(trace)).exit_code == 0


def test_verify_catches_ledger_tampering(fraud_trace):
    burned = fraud_trace.final_burned
    text = _swap_line(
        render_trace(fraud_trace),
        "ledger total=",
        f"burned={burned}",
        f"burned={burned - 1}",
        occurrence=-1,
    )
    assert verify_trace_text(text).exit_code == 4


def test_verify_catches_missing_epoch(honest_trace):
    lines = render_trace(honest_trace).split("\n")
    start = lines.index("[epoch 3]")
    end = lines.index("[/epoch]", start)
    text = "\n".join(lines[:start] + lines[end + 1 :])
    check = verify_trace_text(text)
    assert check.exit_code == 4
    assert any("covers epochs" in problem for problem in check.problems)


def test_divergence_names_its_epoch_and_field(honest_trace):
    # edits that decode are found by the replay: the report names the epoch,
    # kind and field of an edited block line, and the number of another line
    text = render_trace(honest_trace)
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
    text = render_trace(
        netsim.run(
            ScenarioConfig(
                seed=3, epochs=6, adversary_behavior="wrong_median_packet", fraud_period=2
            )
        )
    )
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
    witness = dataclasses.replace(packet.witness, entries=tuple(entries))
    lines[index] = "packet " + dataclasses.replace(packet, witness=witness).to_bytes().hex()
    return "\n".join(lines)


@pytest.mark.parametrize("behavior", ["honest", "wrong_median_packet"])
def test_clean_trace_needs_no_real_verify(seam, behavior):
    text = render_trace(netsim.run(dataclasses.replace(SHORT, adversary_behavior=behavior)))
    check, counts = _verify_fresh(text)
    assert check.exit_code == 0
    assert counts.real_verifies == 0
    assert counts.memo_hits > 0


def test_overlapping_epochs_need_no_real_verify(seam):
    # a packet is built 2.83 s after its pulse, so epochs 1 s apart overlap
    config = dataclasses.replace(SHORT, epoch_interval_s=1.0)
    assert config.delta_net_max_ms + config.t_prove_ms > 2 * config.epoch_interval_ms
    check, counts = _verify_fresh(render_trace(netsim.run(config)))
    assert check.exit_code == 0
    assert counts.real_verifies == 0


def _swap_signatures(entries):
    first, second = entries[0], entries[1]
    entries[0] = dataclasses.replace(first, signature=second.signature)
    entries[1] = dataclasses.replace(second, signature=first.signature)


def _flip_signature_bit(entries):
    last = entries[-1]
    flipped = bytes([last.signature[0] ^ 1]) + last.signature[1:]
    entries[-1] = dataclasses.replace(last, signature=flipped)


@pytest.mark.parametrize(
    ("epoch", "edit"),
    [(2, _swap_signatures), (SHORT.epochs - 1, _flip_signature_bit)],
    ids=["swapped", "flipped_bit_last_epoch"],
)
def test_altered_witness_signature_exits_4(seam, epoch, edit):
    text = _edit_witness(render_trace(netsim.run(SHORT)), epoch, edit)
    check = _verify_both_modes(text, seam)
    assert check.exit_code == 4
    assert f"epoch {epoch}:" in check.problems[0]
    assert "BadSignature" in check.problems[0]


def test_mismatch_reverifies_only_the_diverging_block(seam, monkeypatch):
    # the replay's own chains verify every packet it builds, so only the
    # one recorded block that differs from the replay is verified again
    text = render_trace(netsim.run(dataclasses.replace(SHORT, epochs=48)))
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
        secret = vrf_keygen(netsim.reporter_key_seed(SHORT.seed, rid), rid)[1]
        message = observation_message(entry.value + 1, epoch, rid)
        forged.append((secret.public_key(), message, secret.sign(message)))
        entries[0] = dataclasses.replace(entry, signature=forged[0][2])

    text = _edit_witness(render_trace(netsim.run(SHORT)), epoch, resign)
    assert sig.verify(*forged[0])  # a genuine signature by the member, for value + 1
    check = _verify_both_modes(text, seam)
    assert check.exit_code == 4
    assert f"epoch {epoch}:" in check.problems[0]
    assert "BadSignature" in check.problems[0]
