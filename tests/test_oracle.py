import pytest
from hypothesis import given
from hypothesis import strategies as st

from vzor.errors import (
    DuplicateObservation,
    EmptyInput,
    EpochMismatch,
    NonMember,
    QuorumNotMet,
    ValueOutOfRange,
)
from vzor.oracle import (
    VALUE_SCALE,
    AggregationParams,
    median,
    sign_observation,
    verify_observation,
)
from vzor.packets import build_packet, collect_witness
from vzor.proofs import Failure, verify


def test_value_scale():
    assert VALUE_SCALE == 10**8


@pytest.mark.parametrize(
    ("values", "expected"),
    [
        ([3], 3),
        ([1, 2], 1),
        ([2, 1], 1),
        ([1, 2, 3], 2),
        ([5, 1, 4, 2], 2),
        ([7, 7, 7], 7),
        ([-5, 0, 5], 0),
        ([10, -10], -10),
    ],
)
def test_median_examples(values, expected):
    assert median(values) == expected


def test_median_empty_raises():
    with pytest.raises(EmptyInput):
        median([])


@given(st.lists(st.integers(-(2**62), 2**62), min_size=1, max_size=40))
def test_median_is_lower_middle_element(values):
    m = median(values)
    assert m in values
    ordered = sorted(values)
    assert m == ordered[(len(ordered) - 1) // 2]
    below = sum(1 for v in values if v < m)
    above = sum(1 for v in values if v > m)
    assert below <= len(values) // 2
    assert above <= len(values) // 2


def test_sign_verify_round_trip(key_pool, agg_params):
    obs = sign_observation(key_pool[4], 123_456, 9, agg_params)
    assert obs.reporter_id == 4
    assert verify_observation(key_pool[4].public_key, obs, agg_params)


def test_verify_rejects_wrong_key(key_pool, agg_params):
    obs = sign_observation(key_pool[4], 123_456, 9, agg_params)
    assert not verify_observation(key_pool[5].public_key, obs, agg_params)


@pytest.mark.parametrize("field", ["value", "epoch", "reporter_id"])
def test_verify_rejects_field_tamper(key_pool, agg_params, field):
    obs = sign_observation(key_pool[4], 123_456, 9, agg_params)
    tampered = obs._replace(**{field: getattr(obs, field) + 1})
    assert not verify_observation(key_pool[4].public_key, tampered, agg_params)


def test_verify_rejects_flipped_signature(key_pool, agg_params):
    obs = sign_observation(key_pool[4], 123_456, 9, agg_params)
    bad = obs.signature[:10] + bytes([obs.signature[10] ^ 1]) + obs.signature[11:]
    assert not verify_observation(key_pool[4].public_key, obs._replace(signature=bad), agg_params)


def test_sign_rejects_out_of_range(key_pool, agg_params):
    with pytest.raises(ValueOutOfRange):
        sign_observation(key_pool[0], agg_params.value_min - 1, 0, agg_params)
    with pytest.raises(ValueOutOfRange):
        sign_observation(key_pool[0], agg_params.value_max + 1, 0, agg_params)


def test_verify_rejects_out_of_range_value(key_pool):
    wide = AggregationParams(value_min=-(10**12))
    narrow = AggregationParams()
    obs = sign_observation(key_pool[0], -5, 0, wide)
    assert verify_observation(key_pool[0].public_key, obs, wide)
    assert not verify_observation(key_pool[0].public_key, obs, narrow)


def test_aggregation_params_validation():
    with pytest.raises(ValueError):
        AggregationParams(quorum=0)
    with pytest.raises(ValueError):
        AggregationParams(quorum=16, committee_size=15)
    with pytest.raises(ValueError):
        AggregationParams(value_min=10, value_max=9)


def test_aggregation_params_digest_binds_fields(agg_params):
    assert agg_params.digest() != AggregationParams(quorum=11).digest()
    assert agg_params.digest() == AggregationParams().digest()


def _observe_all(key_pool, committee, params, epoch, values=None):
    ids = committee.member_ids()
    if values is None:
        values = [1_000 + i for i in range(len(ids))]
    return [
        sign_observation(key_pool[rid], value, epoch, params)
        for rid, value in zip(ids, values)
    ]


def test_collect_witness_canonical_order(key_pool, draw_committee, agg_params):
    committee = draw_committee(1)
    observations = _observe_all(key_pool, committee, agg_params, 1)
    observations.reverse()  # arrival order must not matter
    witness = collect_witness(observations, committee, agg_params)
    assert witness.epoch == 1
    assert tuple(e.reporter_id for e in witness.entries) == tuple(sorted(committee.member_ids()))
    assert witness.committee_digest == committee.digest()


def test_collect_witness_epoch_mismatch(key_pool, draw_committee, agg_params):
    committee = draw_committee(1)
    observations = _observe_all(key_pool, committee, agg_params, 2)
    with pytest.raises(EpochMismatch):
        collect_witness(observations, committee, agg_params)


def test_collect_witness_non_member(key_pool, draw_committee, agg_params):
    committee = draw_committee(1)
    observations = _observe_all(key_pool, committee, agg_params, 1)
    outsider = next(rid for rid in range(len(key_pool)) if rid not in committee.member_ids())
    observations.append(sign_observation(key_pool[outsider], 99, 1, agg_params))
    with pytest.raises(NonMember):
        collect_witness(observations, committee, agg_params)


def test_collect_witness_duplicate(key_pool, draw_committee, agg_params):
    committee = draw_committee(1)
    observations = _observe_all(key_pool, committee, agg_params, 1)
    observations.append(observations[0])
    with pytest.raises(DuplicateObservation):
        collect_witness(observations, committee, agg_params)


def test_collect_witness_drops_bad_signature(key_pool, draw_committee, agg_params):
    committee = draw_committee(1)
    observations = _observe_all(key_pool, committee, agg_params, 1)
    sig = observations[3].signature
    observations[3] = observations[3]._replace(signature=sig[:-1] + bytes([sig[-1] ^ 1]))
    witness = collect_witness(observations, committee, agg_params)
    assert len(witness.entries) == len(committee.members) - 1
    assert observations[3].reporter_id not in {e.reporter_id for e in witness.entries}


def test_collect_witness_drops_out_of_range(key_pool, draw_committee):
    wide = AggregationParams(value_max=10**15)
    narrow = AggregationParams(value_max=10**12)
    committee = draw_committee(1)
    values = [1_000 + i for i in range(len(committee.members))]
    values[0] = 10**13  # in range for the signer, rejected by the verifier
    observations = _observe_all(key_pool, committee, wide, 1, values)
    witness = collect_witness(observations, committee, narrow)
    assert len(witness.entries) == len(committee.members) - 1


def test_collect_witness_quorum_not_met(key_pool, draw_committee, agg_params):
    committee = draw_committee(1)
    observations = _observe_all(key_pool, committee, agg_params, 1)[: agg_params.quorum - 1]
    with pytest.raises(QuorumNotMet):
        collect_witness(observations, committee, agg_params)


def test_build_packet_honest(key_pool, draw_committee, agg_params):
    committee = draw_committee(2)
    values = [500 + 3 * i for i in range(len(committee.members))]
    observations = _observe_all(key_pool, committee, agg_params, 2, values)
    packet = build_packet(observations, committee, agg_params)
    assert packet.epoch == 2
    assert packet.median == median(values)
    assert verify(packet, committee, agg_params)


def test_build_packet_claimed_median_is_rejected(key_pool, draw_committee, agg_params):
    committee = draw_committee(2)
    observations = _observe_all(key_pool, committee, agg_params, 2)
    honest = build_packet(observations, committee, agg_params)
    lying = build_packet(observations, committee, agg_params, claimed_median=honest.median + 1)
    assert lying.median == honest.median + 1
    result = verify(lying, committee, agg_params)
    assert not result
    assert result.failure is Failure.WRONG_MEDIAN
