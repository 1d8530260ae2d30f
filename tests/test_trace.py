import dataclasses
import random

import pytest

from vzor import netsim
from vzor.errors import TraceCorruption
from vzor.scenario import GovernanceItem, ScenarioConfig
from vzor.trace import (
    TRACE_HEADER,
    ms_to_s_text,
    parse_trace,
    render_csv,
    render_trace,
    verify_trace_file,
    verify_trace_text,
    write_csv,
    write_trace,
)

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
    parsed = parse_trace(text)
    assert parsed.text == text
    assert parsed.config_text == fraud_trace.config_text
    assert parsed.chain_ids == fraud_trace.chain_ids
    assert parsed.initial_total == fraud_trace.initial_total
    assert [epoch for epoch, _ in parsed.epochs] == list(range(12))
    assert len(parsed.governance_lines) == 1


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
    trace_path = tmp_path / "trace.txt"
    csv_path = tmp_path / "epochs.csv"
    write_trace(honest_trace, str(trace_path))
    write_csv(honest_trace, str(csv_path))
    assert trace_path.read_text() == render_trace(honest_trace)
    assert csv_path.read_text() == render_csv(honest_trace)


# -- structural corruption (exit 2) ---------------------------------------------------


def test_parse_rejects_structure_damage(honest_trace):
    text = render_trace(honest_trace)
    with pytest.raises(TraceCorruption):
        parse_trace("")
    with pytest.raises(TraceCorruption):
        parse_trace(text.replace(TRACE_HEADER, "vzor-trace v2", 1))
    with pytest.raises(TraceCorruption):
        parse_trace(text.replace("[/config]", "", 1))
    with pytest.raises(TraceCorruption):
        parse_trace(text.replace("\n[end]\n", "\n", 1))
    with pytest.raises(TraceCorruption):
        parse_trace(text.replace("[/epoch]", "", 1))


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


# -- fixed-seed fuzzing ---------------------------------------------------------------


def test_verify_rejects_every_single_byte_edit():
    # 400 seeded single-byte printable edits of a short fraud trace: every
    # edit that changes the text is corruption (2) or a mismatch (4), and
    # verification never raises
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
            assert verify_trace_text(edited).exit_code in (2, 4), (pos, edited[pos])
