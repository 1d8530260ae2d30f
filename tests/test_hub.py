import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from vzor.errors import (
    AlreadyRegistered,
    InsufficientStake,
    MalformedFraudProof,
    UnknownParameter,
)
from vzor.hub import (
    DEFAULT_GOVERNANCE_DELAY,
    DEFAULT_MIN_STAKE,
    DEFAULT_SLASH_CUT,
    GOVERNED_PARAMETERS,
    WEI_PER_ETH,
    FraudProof,
    GovernedParams,
    Hub,
    StakeLedger,
    accuse_all_signers,
    collusion_bound,
    economic_check,
    eth_to_wei,
    wei_to_eth_text,
)
from vzor.proofs import verify

STAKE = 32 * WEI_PER_ETH
# the scenario defaults' quorum and committee size, the protocol's cut and minimum stake
GENESIS = GovernedParams(f_min=10, s_cut=DEFAULT_SLASH_CUT, n=15, s_min=DEFAULT_MIN_STAKE)


# -- wei arithmetic -------------------------------------------------------------


def test_eth_to_wei_exact():
    assert eth_to_wei(1) == 10**18
    assert eth_to_wei("0.15") == 150_000_000_000_000_000
    assert eth_to_wei("0.000000000000000001") == 1
    assert DEFAULT_SLASH_CUT == eth_to_wei("0.15")
    assert DEFAULT_MIN_STAKE == eth_to_wei(1)


def test_eth_to_wei_rejects_sub_wei():
    with pytest.raises(ValueError):
        eth_to_wei("0.0000000000000000015")


def test_wei_to_eth_text():
    assert wei_to_eth_text(150_000_000_000_000_000) == "0.15"
    assert wei_to_eth_text(32 * WEI_PER_ETH) == "32"


# -- stake ledger ----------------------------------------------------------------


def test_ledger_register_and_boundaries():
    ledger = StakeLedger()
    ledger.register(1, DEFAULT_MIN_STAKE, DEFAULT_MIN_STAKE)  # exactly the minimum
    assert ledger.entries.get(1, 0) == DEFAULT_MIN_STAKE
    assert ledger.is_active(1)
    with pytest.raises(AlreadyRegistered):
        ledger.register(1, STAKE, DEFAULT_MIN_STAKE)
    with pytest.raises(InsufficientStake):
        ledger.register(2, DEFAULT_MIN_STAKE - 1, DEFAULT_MIN_STAKE)
    assert not ledger.is_active(2)


def test_ledger_slash_floors_at_zero():
    ledger = StakeLedger()
    ledger.register(1, 100, 1)
    assert ledger.slash(1, 30) == 30
    assert ledger.slash(1, 90) == 70  # only 70 left
    assert ledger.entries.get(1, 0) == 0
    assert not ledger.is_active(1)
    assert ledger.slash(1, 10) == 0
    assert ledger.slash(99, 10) == 0  # unknown reporter
    assert ledger.burned_total == 100
    assert ledger.total_staked() == 0


def test_ledger_conservation():
    ledger = StakeLedger()
    for rid in range(5):
        ledger.register(rid, STAKE, DEFAULT_MIN_STAKE)
    before = ledger.total_staked() + ledger.burned_total
    ledger.slash(0, DEFAULT_SLASH_CUT)
    ledger.slash(3, 2 * DEFAULT_SLASH_CUT)
    assert ledger.total_staked() + ledger.burned_total == before


# -- governed parameters -----------------------------------------------------------


def test_governed_set():
    assert GOVERNED_PARAMETERS == ("f_min", "s_cut", "n", "S_min")


def test_with_update_each_parameter():
    base = GovernedParams(f_min=10, s_cut=DEFAULT_SLASH_CUT, n=15, s_min=DEFAULT_MIN_STAKE)
    assert base.with_update("f_min", 12).f_min == 12
    assert base.with_update("s_cut", 7).s_cut == 7
    assert base.with_update("n", 21).n == 21
    assert base.with_update("S_min", 5).s_min == 5
    with pytest.raises(UnknownParameter):
        base.with_update("tau", 1)


# -- economic arguments -------------------------------------------------------------


def test_economic_check_is_strict():
    gain = WEI_PER_ETH  # 1 ETH to be made by lying
    assert economic_check(eth_to_wei("0.15"), gain, 10)  # 1.5 > 1.0
    assert not economic_check(eth_to_wei("0.1"), gain, 10)  # 1.0 > 1.0 fails
    assert not economic_check(eth_to_wei("0.05"), gain, 10)
    with pytest.raises(ValueError):
        economic_check(1, 1, 0)


def test_collusion_bound_reference_value():
    # lam * stake = 10 over a 480 epoch horizon
    bound = collusion_bound(0.01, 1000.0, 128, 480)
    expected = 480 * (math.exp(-10.0) + 2.0**-128)
    assert bound == pytest.approx(expected, rel=1e-12)
    assert bound == pytest.approx(0.02179196628599273, rel=1e-9)


def test_collusion_bound_clamps_and_validates():
    assert collusion_bound(0.0, 0.0, 1, 10) == 1.0  # 10 * (1 + 0.5) clamped
    assert collusion_bound(1.0, 10_000.0, 256, 1) == pytest.approx(2.0**-256)
    with pytest.raises(ValueError):
        collusion_bound(-1.0, 1.0, 128, 480)
    with pytest.raises(ValueError):
        collusion_bound(1.0, 1.0, 128, 0)


def test_collusion_bound_monotone_in_stake():
    bounds = [collusion_bound(0.001, s, 128, 480) for s in (100.0, 1_000.0, 10_000.0)]
    assert bounds == sorted(bounds, reverse=True)


# -- hub registration and governance -------------------------------------------------


def _hub_with_pool(ids, stake=STAKE):
    hub = Hub(GENESIS, DEFAULT_GOVERNANCE_DELAY)
    for rid in ids:
        hub.register(rid, stake)
    return hub


def test_register_uses_effective_minimum():
    hub = Hub(GENESIS, DEFAULT_GOVERNANCE_DELAY)
    hub.register(1, DEFAULT_MIN_STAKE)
    with pytest.raises(InsufficientStake):
        hub.register(2, DEFAULT_MIN_STAKE - 1)
    hub.propose_update("S_min", 2 * DEFAULT_MIN_STAKE, at_epoch=0)  # effective at 2
    hub.register(3, DEFAULT_MIN_STAKE, at_epoch=1)  # old minimum still in force
    with pytest.raises(InsufficientStake):
        hub.register(4, DEFAULT_MIN_STAKE, at_epoch=2)


def test_propose_update_validation():
    hub = Hub(GENESIS, DEFAULT_GOVERNANCE_DELAY)
    with pytest.raises(UnknownParameter):
        hub.propose_update("tau", 1, at_epoch=0)
    with pytest.raises(ValueError):
        hub.propose_update("f_min", 0, at_epoch=0)


def test_update_effective_after_delay():
    hub = Hub(GENESIS, governance_delay=2)
    update = hub.propose_update("f_min", 12, at_epoch=3)
    assert update.effective_epoch == 5
    assert hub.effective_params(3).f_min == 10
    assert hub.effective_params(4).f_min == 10
    assert hub.effective_params(5).f_min == 12
    assert hub.effective_params(400).f_min == 12


def test_same_epoch_proposals_later_wins():
    hub = Hub(GENESIS, DEFAULT_GOVERNANCE_DELAY)
    hub.propose_update("f_min", 11, at_epoch=1)
    hub.propose_update("f_min", 13, at_epoch=1)
    assert hub.effective_params(3).f_min == 13


def test_updates_apply_by_effective_epoch_not_proposal_order():
    hub = Hub(GENESIS, governance_delay=2)
    hub.propose_update("f_min", 13, at_epoch=4)
    hub.propose_update("f_min", 11, at_epoch=1)
    hub.propose_update("n", 20, at_epoch=4)
    assert [u.effective_epoch for u in hub.updates] == [3, 6, 6]
    steps = [(params.f_min, params.n) for params in hub.timeline()]
    assert steps == [(10, 15), (11, 15), (13, 15), (13, 20)]
    assert hub.effective_params(5).f_min == 11
    assert (hub.effective_params(6).f_min, hub.effective_params(6).n) == (13, 20)


@given(
    steps=st.lists(
        st.one_of(
            st.tuples(
                st.sampled_from(GOVERNED_PARAMETERS), st.integers(1, 40), st.integers(0, 6)
            ),
            st.integers(0, 12),
        ),
        max_size=24,
    ),
    delay=st.integers(0, 3),
)
def test_effective_params_fold_the_updates_due(steps, delay):
    # proposals (parameter, value, epoch) out of order and tied at one
    # effective epoch, interleaved with reads (an epoch); every read must see
    # each update proposed before it, however many reads came before
    hub = Hub(GENESIS, governance_delay=delay)
    proposed = []  # (effective epoch, proposal order, parameter, value)
    for step in steps:
        if isinstance(step, tuple):
            parameter, value, at_epoch = step
            hub.propose_update(parameter, value, at_epoch)
            proposed.append((at_epoch + delay, len(proposed), parameter, value))
            continue
        expected = hub.genesis
        for effective_epoch, _, parameter, value in sorted(proposed):
            if effective_epoch <= step:
                expected = expected.with_update(parameter, value)
        assert hub.effective_params(step) == expected


def test_independent_parameters_compose():
    hub = Hub(GENESIS, DEFAULT_GOVERNANCE_DELAY)
    hub.propose_update("f_min", 12, at_epoch=0)
    hub.propose_update("n", 21, at_epoch=1)
    params = hub.effective_params(3)
    assert params.f_min == 12
    assert params.n == 21
    assert params.s_cut == DEFAULT_SLASH_CUT


# -- adjudication ----------------------------------------------------------------------


def _fraud_case(make_packet, epoch=4):
    packet, committee = make_packet(epoch=epoch, claimed=None)
    lying, _ = make_packet(epoch=epoch, claimed=packet.median + 1)
    return lying, committee


def test_adjudicate_slashes_every_signer(make_packet, agg_params):
    lying, committee = _fraud_case(make_packet)
    hub = _hub_with_pool(range(50))
    before_total, before_burned = hub.snapshot()
    report = hub.adjudicate(accuse_all_signers(lying, "sepolia"), committee, agg_params)
    assert report.rejected_reason is None
    assert sorted(report.slashed) == sorted(e.reporter_id for e in lying.witness.entries)
    assert report.per_reporter_cut == DEFAULT_SLASH_CUT
    assert report.total_cut == len(lying.witness.entries) * DEFAULT_SLASH_CUT
    after_total, after_burned = hub.snapshot()
    assert after_total == before_total - report.total_cut
    assert after_burned == before_burned + report.total_cut
    for rid in report.slashed:
        assert hub.ledger.entries.get(rid, 0) == STAKE - DEFAULT_SLASH_CUT


def test_adjudicate_is_idempotent(make_packet, agg_params):
    lying, committee = _fraud_case(make_packet)
    hub = _hub_with_pool(range(50))
    first = hub.adjudicate(accuse_all_signers(lying, "sepolia"), committee, agg_params)
    snapshot = hub.snapshot()
    again = hub.adjudicate(accuse_all_signers(lying, "scroll"), committee, agg_params)
    assert again == first
    assert hub.snapshot() == snapshot


def test_tampered_copy_of_an_accepted_packet_is_checked_in_full(make_packet, agg_params):
    # the accepted packet stores its verdict; a fraud proof carrying an altered
    # copy of it must not read that verdict, and is handled as any lying packet
    packet, committee = make_packet(epoch=4)
    assert verify(packet, committee, agg_params)
    lying = packet._replace(median=packet.median + 1)
    hub = _hub_with_pool(range(50))
    report = hub.adjudicate(accuse_all_signers(lying, "sepolia"), committee, agg_params)
    assert report.rejected_reason is None
    assert sorted(report.slashed) == sorted(e.reporter_id for e in packet.witness.entries)
    assert report.total_cut == len(packet.witness.entries) * DEFAULT_SLASH_CUT
    assert verify(lying, committee, agg_params).reason() == "WrongMedian"
    # the accepted packet itself is still no fraud
    again = hub.adjudicate(accuse_all_signers(packet, "scroll"), committee, agg_params)
    assert again.rejected_reason == "NotFraud" and again.slashed == ()


def test_adjudicate_not_fraud(make_packet, agg_params):
    packet, committee = make_packet(epoch=4)
    hub = _hub_with_pool(range(50))
    before = hub.snapshot()
    report = hub.adjudicate(accuse_all_signers(packet, "sepolia"), committee, agg_params)
    assert report.rejected_reason == "NotFraud"
    assert report.slashed == ()
    assert report.total_cut == 0
    assert hub.snapshot() == before


def test_adjudicate_rejects_malformed_proofs(make_packet, agg_params):
    lying, committee = _fraud_case(make_packet)
    proof = accuse_all_signers(lying, "sepolia")
    hub = _hub_with_pool(range(50))
    with pytest.raises(MalformedFraudProof):
        hub.adjudicate(
            FraudProof(lying, lying.epoch + 1, proof.inclusion, "sepolia"),
            committee,
            agg_params,
        )
    with pytest.raises(MalformedFraudProof):
        hub.adjudicate(FraudProof(lying, lying.epoch, (), "sepolia"), committee, agg_params)


def test_unproven_accusation_is_skipped(make_packet, agg_params):
    lying, committee = _fraud_case(make_packet)
    proof = accuse_all_signers(lying, "sepolia")
    entry, path = proof.inclusion[0]
    framed = entry._replace(value=entry.value + 1)  # path no longer verifies
    tampered = FraudProof(
        lying, lying.epoch, ((framed, path),) + proof.inclusion[1:], "sepolia"
    )
    hub = _hub_with_pool(range(50))
    report = hub.adjudicate(tampered, committee, agg_params)
    assert entry.reporter_id not in report.slashed
    assert len(report.slashed) == len(lying.witness.entries) - 1
    assert hub.ledger.entries.get(entry.reporter_id, 0) == STAKE


def test_unregistered_reporter_is_skipped(make_packet, agg_params):
    lying, committee = _fraud_case(make_packet)
    absent = lying.witness.entries[0].reporter_id
    hub = _hub_with_pool(rid for rid in range(50) if rid != absent)
    report = hub.adjudicate(accuse_all_signers(lying, "sepolia"), committee, agg_params)
    assert absent not in report.slashed
    assert report.total_cut == (len(lying.witness.entries) - 1) * DEFAULT_SLASH_CUT


def test_duplicate_accusations_slash_once(make_packet, agg_params):
    lying, committee = _fraud_case(make_packet)
    proof = accuse_all_signers(lying, "sepolia")
    doubled = FraudProof(
        lying, lying.epoch, proof.inclusion + proof.inclusion[:1], "sepolia"
    )
    hub = _hub_with_pool(range(50))
    report = hub.adjudicate(doubled, committee, agg_params)
    assert len(report.slashed) == len(set(report.slashed)) == len(lying.witness.entries)
    assert report.total_cut == len(lying.witness.entries) * DEFAULT_SLASH_CUT


def test_slash_floors_at_zero_stake(make_packet, agg_params):
    genesis = GovernedParams(
        f_min=10, s_cut=2 * WEI_PER_ETH, n=15, s_min=DEFAULT_MIN_STAKE
    )
    hub = Hub(genesis, DEFAULT_GOVERNANCE_DELAY)
    for rid in range(50):
        hub.register(rid, DEFAULT_MIN_STAKE)  # 1 ETH staked, 2 ETH cut
    lying, committee = _fraud_case(make_packet)
    report = hub.adjudicate(accuse_all_signers(lying, "sepolia"), committee, agg_params)
    assert report.per_reporter_cut == 2 * WEI_PER_ETH
    assert report.total_cut == len(report.slashed) * DEFAULT_MIN_STAKE  # capped by stake
    for rid in report.slashed:
        assert hub.ledger.entries.get(rid, 0) == 0
        assert not hub.ledger.is_active(rid)


def test_adjudication_uses_cut_in_force_at_packet_epoch(make_packet, agg_params):
    hub = _hub_with_pool(range(50))
    hub.propose_update("s_cut", 3 * DEFAULT_SLASH_CUT, at_epoch=1)  # effective at 3
    lying, committee = _fraud_case(make_packet, epoch=4)
    report = hub.adjudicate(accuse_all_signers(lying, "sepolia"), committee, agg_params)
    assert report.per_reporter_cut == 3 * DEFAULT_SLASH_CUT


def test_total_cut_bounded_by_witness_width(make_packet, agg_params):
    lying, committee = _fraud_case(make_packet)
    hub = _hub_with_pool(range(50))
    report = hub.adjudicate(accuse_all_signers(lying, "sepolia"), committee, agg_params)
    assert report.total_cut <= len(lying.witness.entries) * report.per_reporter_cut
