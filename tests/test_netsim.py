import tracemalloc

import pytest

from vzor import sig
from vzor.chains import OP_FRAUD, OP_GOVERNANCE, OP_VERIFY
from vzor.netsim import Simulator, latency_bound_ms, reporter_key_seed
from vzor.packets import OraclePacket
from vzor.proofs import Witness
from vzor.scenario import GovernanceItem, ScenarioConfig
from vzor.trace import verify_trace_text

from conftest import finished_run

BASE = ScenarioConfig(seed=7, epochs=12, registry_size=50)


def _scenario(**overrides):
    return BASE._replace(**overrides)


def test_key_seed_is_deterministic_and_distinct():
    assert reporter_key_seed(7, 3) == reporter_key_seed(7, 3)
    assert reporter_key_seed(7, 3) != reporter_key_seed(7, 4)
    assert reporter_key_seed(8, 3) != reporter_key_seed(7, 3)
    assert len(reporter_key_seed(7, 3)) == 32


def test_same_seed_same_trace():
    assert finished_run(_scenario()) == finished_run(_scenario())


def test_different_seed_different_trace():
    assert finished_run(_scenario()) != finished_run(_scenario(seed=8))


def test_honest_run_lifecycle():
    trace = finished_run(_scenario())
    assert len(trace.records) == 12
    for record in trace.records:
        assert len(record.committee) == 15
        ids = record.committee_ids()
        assert ids == tuple(sorted(ids))
        assert record.packet_bytes is not None
        assert record.median is not None
        assert {r.chain_id for r in record.receipts} == {"sepolia", "scroll"}
        assert all(r.accepted and r.reason == "ok" for r in record.receipts)
        assert record.e2e_ms is not None
        assert not record.fraud_injected
        assert record.slash is None
        assert record.t0_ms == record.epoch * 30_000
    assert trace.totals.final_burned == 0
    initial_total = trace.totals.config.registry_size * trace.totals.config.initial_stake_wei
    assert trace.totals.initial_total == trace.totals.final_total == initial_total == 50 * 32 * 10**18


@pytest.mark.parametrize(
    "overrides",
    [
        dict(
            adversary_behavior="wrong_median_packet",
            fraud_period=3,
            governance=(GovernanceItem("n", 21, 2), GovernanceItem("f_min", 11, 1)),
        ),
        dict(epoch_interval_s=1.0),  # a packet is built 2.83 s after its pulse
    ],
    ids=["fraud-governance", "overlapping-epochs"],
)
def test_epochs_hand_on_each_record_as_it_closes(overrides):
    config = _scenario(**overrides)
    simulator = Simulator(config)
    streamed, queued = [], []
    for record in simulator.epochs():
        # this epoch's state and every earlier one are dropped; later ones are not
        assert all(epoch > record.epoch for epoch in simulator._states)
        queued.append(len(simulator._heap))
        streamed.append(record)
    assert tuple(streamed) == finished_run(config).records
    assert queued[0] > 0  # epoch 0 was handed on while the loop still ran


def test_committee_changes_across_epochs():
    trace = finished_run(_scenario())
    distinct = {record.committee_ids() for record in trace.records}
    assert len(distinct) > 1


def test_latency_bound_formula():
    assert latency_bound_ms(ScenarioConfig()) == 15_000 + 2_000 + 830 + 2_000


def test_honest_run_meets_liveness_bound():
    trace = finished_run(_scenario())
    report = trace.liveness
    assert report.ok
    assert report.bound_ms == 19_830
    assert report.checked_epochs == 12
    for record in trace.records:
        assert record.e2e_ms <= report.bound_ms


def test_zero_network_delay_pins_latency():
    trace = finished_run(_scenario(delta_net_min_s=0.0, delta_net_max_s=0.0))
    for record in trace.records:
        # proving time plus the slowest chain's finality, nothing else
        assert record.e2e_ms == 830 + 15_000
        final_by_chain = {r.chain_id: r.final_ms for r in record.receipts}
        assert final_by_chain["scroll"] == record.t0_ms + 830 + 2_000
        assert final_by_chain["sepolia"] == record.t0_ms + 830 + 15_000


@pytest.mark.parametrize(
    "overrides",
    [
        {"t_prove_s": 0.0, "delta_net_min_s": 2.0},  # every arrival ties with the build
        {"delta_net_min_s": 0.0, "delta_net_max_s": 0.0},
        {"adversary_behavior": "withhold", "adversary_count": 5},
    ],
)
def test_every_observation_is_in_by_the_build(overrides):
    # an observation's delay is at most delta_net_max, so the packet built at
    # t0 + delta_net_max + t_prove holds every member that did not withhold
    config = _scenario(**overrides)
    trace = finished_run(config)
    for record in trace.records:
        witness = OraclePacket.from_bytes(record.packet_bytes).witness
        observed = [rid for rid in record.committee_ids() if rid not in config.controlled_ids()]
        assert [entry.reporter_id for entry in witness.entries] == observed
    assert verify_trace_text(trace.text).exit_code == 0


def test_single_chain_run():
    trace = finished_run(_scenario(chains=("scroll",)))
    assert tuple(trace.totals.config.chains) == ("scroll",)
    for record in trace.records:
        assert [r.chain_id for r in record.receipts] == ["scroll"]
    gas_ops = {(chain, op) for chain, op, _ in trace.totals.gas_totals}
    assert gas_ops == {("scroll", OP_VERIFY)}


def test_withholding_minority_cannot_stall():
    trace = finished_run(_scenario(adversary_behavior="withhold", adversary_count=5))
    for record in trace.records:
        assert record.packet_bytes is not None
        assert all(r.accepted for r in record.receipts)
    assert trace.liveness.ok


def test_withholding_majority_starves_quorum():
    trace = finished_run(_scenario(adversary_behavior="withhold", adversary_count=45))
    for record in trace.records:
        assert record.packet_bytes is None
        assert record.median is None
        assert record.receipts == ()
        assert record.e2e_ms is None
    summary = trace.metrics
    assert summary.accepted_epochs == 0
    assert summary.throughput_pps == 0.0


def test_wrong_value_minority_cannot_move_median():
    trace = finished_run(_scenario(adversary_behavior="wrong_value", adversary_count=5))
    config = trace.totals.config
    for record in trace.records:
        assert all(r.accepted for r in record.receipts)
        # median stays pinned to the honest walk, far from the forged extreme
        assert abs(record.median - config.value_base) <= (
            config.value_walk_max * config.epochs + config.noise_max
        )
        assert record.median < config.value_max


def test_fraud_epochs_are_rejected_and_slashed():
    trace = finished_run(_scenario(adversary_behavior="wrong_median_packet", fraud_period=5))
    fraud_epochs = [r.epoch for r in trace.records if r.fraud_injected]
    assert fraud_epochs == [4, 9]
    slashed_total = 0
    for record in trace.records:
        if not record.fraud_injected:
            assert record.slash is None
            assert all(r.accepted for r in record.receipts)
            continue
        assert record.e2e_ms is None
        assert all(not r.accepted for r in record.receipts)
        assert all(r.reason == "WrongMedian" for r in record.receipts)
        slash = record.slash
        assert slash is not None
        assert sorted(slash.slashed) == list(record.committee_ids())
        assert slash.total_cut == 15 * trace.totals.config.slash_cut_wei
        assert slash.latency_ms == slash.applied_ms - slash.emitted_ms >= 0
        assert slash.applied_ms % 2_000 == 0  # hub ticks with the fastest chain
        slashed_total += slash.total_cut
    assert trace.totals.final_burned == slashed_total
    assert trace.totals.final_total + trace.totals.final_burned == (
        trace.totals.config.registry_size * trace.totals.config.initial_stake_wei
    )
    assert trace.records[-1].ledger_total == trace.totals.final_total
    assert trace.records[-1].ledger_burned == trace.totals.final_burned


def test_fraud_charges_fraud_gas_on_origin_chain():
    trace = finished_run(_scenario(adversary_behavior="wrong_median_packet", fraud_period=5))
    gas = {(chain, op): total for chain, op, total in trace.totals.gas_totals}
    fraud_count = sum(1 for r in trace.records if r.slash is not None)
    assert fraud_count == 2
    fraud_gas = gas.get(("sepolia", OP_FRAUD), 0) + gas.get(("scroll", OP_FRAUD), 0)
    assert fraud_gas in (
        fraud_count * 52_341,
        fraud_count * 17_904,
        52_341 + 17_904,
    )


def test_each_packet_is_serialized_once(monkeypatch):
    # the trace's packet line and the hub's packet digest of a fraud epoch
    # share one serialization
    calls = []
    to_bytes = Witness.to_bytes
    monkeypatch.setattr(Witness, "to_bytes", lambda witness: calls.append(1) or to_bytes(witness))
    trace = finished_run(_scenario(adversary_behavior="wrong_median_packet", fraud_period=5))
    assert sum(r.slash is not None for r in trace.records) == 2
    assert len(calls) == sum(r.packet_bytes is not None for r in trace.records) == 12


def test_governance_resizes_committee_mid_run():
    trace = finished_run(
        _scenario(
            governance=(GovernanceItem("n", 21, 2),),  # effective at epoch 4
        )
    )
    for record in trace.records:
        expected = 21 if record.epoch >= 4 else 15
        assert len(record.committee) == expected
    assert [(u.effective_epoch, u.parameter, u.value) for u in trace.totals.governance_records] == [
        (4, "n", 21)
    ]
    gas = {(chain, op): total for chain, op, total in trace.totals.gas_totals}
    assert gas[("sepolia", OP_GOVERNANCE)] == 38_220
    assert gas[("scroll", OP_GOVERNANCE)] == 11_706


def test_governance_quorum_change_applies():
    trace = finished_run(_scenario(governance=(GovernanceItem("f_min", 14, 1),)))
    # every epoch still clears the stiffer quorum: all 15 members observe
    for record in trace.records:
        assert all(r.accepted for r in record.receipts)


def test_metrics_summary_consistency():
    trace = finished_run(_scenario(adversary_behavior="wrong_median_packet", fraud_period=5))
    summary = trace.metrics
    assert summary.epochs == 12
    assert summary.accepted_epochs == 10
    assert summary.throughput_pps == 10 / (12 * 30.0)
    assert summary.slash_count == 2
    assert summary.mean_slash_latency_s is not None
    assert summary.mean_e2e_s is not None and summary.stdev_e2e_s is not None
    total_selected = sum(count for _, count in summary.selection_counts)
    assert total_selected == sum(len(r.committee) for r in trace.records)
    text = summary.to_text()
    assert "throughput_pps" in text
    assert f"gas_sepolia_{OP_VERIFY}" in text


def test_gas_totals_cover_verify_on_every_chain():
    trace = finished_run(_scenario())
    gas = {(chain, op): total for chain, op, total in trace.totals.gas_totals}
    assert gas[("sepolia", OP_VERIFY)] == 12 * 296_112
    assert gas[("scroll", OP_VERIFY)] == 12 * 88_029


# 5 reporters drawn 3 at a time, reported to one chain: an epoch is cheap
SMALL = ScenarioConfig(seed=7, registry_size=5, committee_size=3, quorum=2, chains=("scroll",))


def test_no_event_fires_at_a_pulse_ms_before_that_pulse(monkeypatch):
    # pulses 1 ms apart: epoch e's build lands on pulse e + 2,830's ms
    config = SMALL._replace(epochs=2_900, epoch_interval_s=0.001)
    assert config.delta_net_max_ms + config.t_prove_ms == 2_830
    pulsed, early = [], []

    def watch(name, fn):
        def wrapper(self, epoch, *args):
            if name == "_on_pulse":
                pulsed.append(epoch)
            elif self._now < config.epochs and len(pulsed) <= self._now:
                early.append((name, epoch, self._now))
            return fn(self, epoch, *args)

        return wrapper

    for name, fn in list(vars(Simulator).items()):
        if name.startswith("_on_"):
            monkeypatch.setattr(Simulator, name, watch(name, fn))
    trace = finished_run(config)
    assert pulsed == list(range(config.epochs))
    assert sum(record.packet_bytes is not None for record in trace.records) == config.epochs
    assert early == []


def _traced_peak(build, config):
    """The traced peak of ``build(config)``, the verdict memo empty at its start."""
    sig.reset()
    tracemalloc.start()
    try:
        build(config)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        sig.reset()


def test_construction_does_not_follow_the_epoch_count():
    assert _traced_peak(Simulator, ScenarioConfig(epochs=100_000)) < 2**20


def null_sink_run(config):
    Simulator(config).run(lambda record: None)


def test_run_memory_does_not_follow_the_epoch_count():
    peaks = [
        _traced_peak(null_sink_run, SMALL._replace(epochs=epochs))
        for epochs in (480, 1_920)
    ]
    assert abs(peaks[1] - peaks[0]) < 2**19
