"""Acceptance gate: one test per protocol guarantee.

Each test prints a single pass/fail line (run with ``pytest -s`` to see
them inline) and then asserts, so the suite both reports and enforces.
The heavyweight 480-epoch scenarios are shared module fixtures.
"""

import random
import statistics
import time

import pytest

from vzor.beacon import BeaconParams, make_chain
from vzor.chains import (
    CHAIN_PRESETS,
    GAS_CEILING,
    OP_FRAUD,
    OP_GOVERNANCE,
    OP_VERIFY,
    Chain,
    scroll,
    sepolia,
)
from vzor.cli import main as cli_main
from vzor.hub import DEFAULT_MIN_STAKE, DEFAULT_SLASH_CUT, GovernedParams, Hub
from vzor.oracle import AggregationParams, median, sign_observation
from vzor.packets import OraclePacket, build_packet
from vzor.proofs import verify
from vzor.scenario import ScenarioConfig
from vzor.vrf import evaluate_registry, select_committee

from conftest import MUTATION_KINDS, finished_run, mutate_packet

# 99.9% critical value of the chi-square distribution with 49 degrees of
# freedom (uniformity test over 50 reporters)
CHI2_99_9_DF49 = 85.35056460859305


def _report(number: int, name: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {number:02d} {name}: {verdict}{suffix}")
    assert ok, f"criterion {number:02d} {name} failed{suffix}"


def _flip_bit(data: bytes, bit: int) -> bytes:
    byte, offset = divmod(bit, 8)
    return data[:byte] + bytes([data[byte] ^ (1 << offset)]) + data[byte + 1 :]


# -- shared 480-epoch scenarios --------------------------------------------------


@pytest.fixture(scope="module")
def fraud480():
    return finished_run(ScenarioConfig(adversary_behavior="wrong_median_packet"))


@pytest.fixture(scope="module")
def honest480():
    return finished_run(ScenarioConfig())


@pytest.fixture(scope="module")
def safety480():
    return finished_run(ScenarioConfig(adversary_behavior="wrong_value", adversary_count=5))


@pytest.fixture(scope="module")
def twin_runs(tmp_path_factory):
    root = tmp_path_factory.mktemp("twin-runs")
    config = root / "scenario.txt"
    config.write_text("seed = 9\nepochs = 60\n")
    dirs = (root / "a", root / "b")
    for out in dirs:
        assert cli_main(["run", "--config", str(config), "--out", str(out)]) == 0
    return dirs


# -- criteria ----------------------------------------------------------------------


def test_criterion_01_gas_model(make_packet, agg_params):
    started = time.monotonic()
    l1, l2 = sepolia(), scroll()
    c1, c2 = Chain(config=l1), Chain(config=l2)
    table_ok = (
        c1.charge(OP_VERIFY) == 296_112
        and c2.charge(OP_VERIFY) == 88_029
        and c1.charge(OP_FRAUD) == 52_341
        and c2.charge(OP_FRAUD) == 17_904
        and c1.charge(OP_GOVERNANCE) == 38_220
        and c2.charge(OP_GOVERNANCE) == 11_706
    )
    ceiling_ok = l1.gas_table[OP_VERIFY] <= GAS_CEILING and l2.gas_table[OP_VERIFY] <= GAS_CEILING
    packet, committee = make_packet(epoch=1)
    charged = []
    for config in (l1, l2):
        chain = Chain(config=config)
        receipt = chain.submit_packet(packet, committee, agg_params, 30_000)
        charged.append(receipt.gas_used == config.gas_table[OP_VERIFY])
    elapsed = time.monotonic() - started
    _report(
        1,
        "gas model fidelity",
        table_ok and ceiling_ok and all(charged) and elapsed < 1.0,
        f"six constants exact, ceiling {GAS_CEILING}, {elapsed:.2f}s",
    )


def test_criterion_02_verification_soundness(key_pool, draw_committee, agg_params):
    started = time.monotonic()
    committee = draw_committee(0, 15)
    ids = committee.member_ids()
    rng = random.Random(0xACCE97)

    accepted = 0
    pool = []
    for _ in range(1000):
        values = [rng.randint(1, 10**12) for _ in ids]
        observations = [
            sign_observation(key_pool[rid], value, 0, agg_params)
            for rid, value in zip(ids, values)
        ]
        packet = build_packet(observations, committee, agg_params)
        if verify(packet, committee, agg_params):
            accepted += 1
        if len(pool) < 50:
            pool.append(packet)

    rejected = 0
    total_mutations = 1000
    for i in range(total_mutations):
        kind = MUTATION_KINDS[i % len(MUTATION_KINDS)]
        mutated = mutate_packet(pool[i % len(pool)], kind, rng)
        if not verify(mutated, committee, agg_params):
            rejected += 1

    elapsed = time.monotonic() - started
    _report(
        2,
        "verification soundness",
        accepted == 1000 and rejected == total_mutations and elapsed < 30.0,
        f"1000/1000 honest accepted, {rejected}/{total_mutations} mutations rejected, "
        f"{elapsed:.1f}s",
    )


def test_criterion_03_median_equivalence():
    rng = random.Random(0x3ED1A4)
    mismatches = 0
    for _ in range(10_000):
        values = [rng.randint(-(10**6), 10**6) for _ in range(rng.randint(1, 31))]
        if median(values) != statistics.median_low(values):
            mismatches += 1
    _report(3, "median equivalence", mismatches == 0, "10000 lists vs statistics.median_low")


def test_criterion_04_sortition_fairness(key_pool):
    started = time.monotonic()
    epochs = 10_000
    pulses = make_chain(BeaconParams(seed=b"\x11" * 32), epochs)
    counts = {rid: 0 for rid in range(50)}
    for epoch in range(epochs):
        scored = evaluate_registry(key_pool, pulses[epoch], epoch)
        for rid in select_committee(pulses[epoch], epoch, scored, 15).member_ids():
            counts[rid] += 1
    frequencies = [counts[rid] / epochs for rid in range(50)]
    freq_ok = all(0.28 <= f <= 0.32 for f in frequencies)
    expected = epochs * 15 / 50
    chi2 = sum((counts[rid] - expected) ** 2 / expected for rid in range(50))
    elapsed = time.monotonic() - started
    _report(
        4,
        "sortition fairness",
        freq_ok and chi2 < CHI2_99_9_DF49 and elapsed < 60.0,
        f"freq in [{min(frequencies):.3f}, {max(frequencies):.3f}], "
        f"chi2 {chi2:.1f} < {CHI2_99_9_DF49:.1f}, {elapsed:.1f}s",
    )


def test_criterion_05_pulse_sensitivity(key_pool):
    trials = 1000
    pulses = make_chain(BeaconParams(seed=b"\x13" * 32), trials)
    changed = 0
    for trial in range(trials):
        pulse = pulses[trial]
        flipped = pulse._replace(value=_flip_bit(pulse.value, trial % 512))
        base = select_committee(pulse, trial, evaluate_registry(key_pool, pulse, trial), 15)
        other = select_committee(flipped, trial, evaluate_registry(key_pool, flipped, trial), 15)
        if set(base.member_ids()) != set(other.member_ids()):
            changed += 1
    _report(
        5,
        "pulse bit sensitivity",
        changed >= 950,
        f"{changed}/{trials} single-bit flips changed the committee",
    )


def test_criterion_06_slashing_biconditional(fraud480):
    slash_records = [r for r in fraud480.records if r.slash is not None]
    count_ok = len(slash_records) == 8
    expected_epochs = [59 + 60 * k for k in range(8)]
    epochs_ok = [r.epoch for r in slash_records] == expected_epochs

    membership_ok = True
    for record in slash_records:
        witness = OraclePacket.from_bytes(record.packet_bytes).witness
        if set(record.slash.slashed) != {e.reporter_id for e in witness.entries}:
            membership_ok = False

    honest_ledger_ok = True
    initial_total = fraud480.totals.config.registry_size * fraud480.totals.config.initial_stake_wei
    previous = (initial_total, 0)
    for record in fraud480.records:
        current = (record.ledger_total, record.ledger_burned)
        if record.slash is None and current != previous:
            honest_ledger_ok = False
        previous = current

    conservation_ok = (
        fraud480.totals.final_total + fraud480.totals.final_burned == initial_total
        and fraud480.totals.final_burned == sum(r.slash.total_cut for r in slash_records)
    )
    _report(
        6,
        "slashing biconditional",
        count_ok and epochs_ok and membership_ok and honest_ledger_ok and conservation_ok,
        f"8 slash events, witness-bound, conservation exact "
        f"(burned {fraud480.totals.final_burned} wei)",
    )


def test_criterion_07_liveness_bound(honest480):
    report = honest480.liveness
    all_accepted = all(
        record.receipts and all(r.accepted for r in record.receipts)
        for record in honest480.records
    )
    _report(
        7,
        "liveness bound",
        report.ok and report.checked_epochs == 480 and all_accepted,
        f"bound {report.bound_ms} ms (slack {report.slack_ms} ms), "
        f"0 violations in {report.checked_epochs} epochs",
    )


def test_criterion_08_honest_majority_safety(safety480):
    controlled = safety480.totals.config.controlled_ids()
    safe_epochs = 0
    for record in safety480.records:
        if not (record.receipts and all(r.accepted for r in record.receipts)):
            continue
        witness = OraclePacket.from_bytes(record.packet_bytes).witness
        honest_values = [
            e.value for e in witness.entries if e.reporter_id not in controlled
        ]
        if honest_values and min(honest_values) <= record.median <= max(honest_values):
            safe_epochs += 1
    _report(
        8,
        "honest majority safety",
        safe_epochs == 480,
        f"median inside the honest range in {safe_epochs}/480 epochs with b=5",
    )


def test_criterion_09_run_determinism(twin_runs):
    a, b = twin_runs
    trace_ok = (a / "trace.txt").read_bytes() == (b / "trace.txt").read_bytes()
    csv_ok = (a / "epochs.csv").read_bytes() == (b / "epochs.csv").read_bytes()
    _report(
        9,
        "run determinism",
        trace_ok and csv_ok,
        "byte-identical trace.txt and epochs.csv across twin runs",
    )


def test_criterion_10_governance_delay():
    cases = {
        "f_min": 12,
        "s_cut": 2 * DEFAULT_SLASH_CUT,
        "n": 21,
        "S_min": 2 * DEFAULT_MIN_STAKE,
    }
    attribute = {"f_min": "f_min", "s_cut": "s_cut", "n": "n", "S_min": "s_min"}
    delayed_ok = True
    for parameter, value in cases.items():
        genesis = GovernedParams(
            f_min=10, s_cut=DEFAULT_SLASH_CUT, n=15, s_min=DEFAULT_MIN_STAKE
        )
        hub = Hub(genesis, governance_delay=2)
        baseline = getattr(hub.effective_params(0), attribute[parameter])
        hub.propose_update(parameter, value, at_epoch=7)
        before = getattr(hub.effective_params(8), attribute[parameter])
        at = getattr(hub.effective_params(9), attribute[parameter])
        if not (before == baseline and at == value):
            delayed_ok = False
    _report(
        10,
        "governance delay",
        delayed_ok,
        "every governed parameter flips exactly two epochs after proposal",
    )


def test_criterion_11_trace_self_verification(
    honest480, fraud480, safety480, twin_runs, tmp_path
):
    clean_ok = True
    for name, trace in (
        ("honest", honest480),
        ("fraud", fraud480),
        ("safety", safety480),
    ):
        path = tmp_path / f"{name}.txt"
        path.write_text(trace.text)
        if cli_main(["verify-trace", str(path)]) != 0:
            clean_ok = False
    if cli_main(["verify-trace", str(twin_runs[0] / "trace.txt")]) != 0:
        clean_ok = False

    # single-bit mutations inside receipt lines must exit 4
    text = honest480.text
    receipt_line = next(
        line for line in text.split("\n") if line.startswith("receipt chain=scroll")
    )
    mutation_ok = True
    for field in ("accepted=", "reason=", "gas=", "block=", "final_ms="):
        start = receipt_line.index(field) + len(field)
        flipped_char = chr(ord(receipt_line[start]) ^ 1)  # one ASCII bit apart
        mutated_line = receipt_line[:start] + flipped_char + receipt_line[start + 1 :]
        mutated_path = tmp_path / f"bitflip-{field.rstrip('=')}.txt"
        mutated_path.write_text(text.replace(receipt_line, mutated_line, 1))
        if cli_main(["verify-trace", str(mutated_path)]) != 4:
            mutation_ok = False
    _report(
        11,
        "trace self-verification",
        clean_ok and mutation_ok,
        "4 clean traces verify, 5 single-bit receipt mutations exit 4",
    )
