import pytest
from hypothesis import given, strategies as st

from vzor.beacon import (
    BeaconParams,
    joint_entropy_lower_bound,
    make_chain,
    next_pulse,
    pulse_value,
    verify_chain,
)
from vzor.encoding import ZERO_DIGEST

PARAMS = BeaconParams(seed=b"\x11" * 32)


def test_defaults_match_protocol_constants():
    assert PARAMS.period_seconds == 60
    assert PARAMS.min_entropy_bits == 256


def test_genesis_links_to_zero():
    g = make_chain(PARAMS, 1)[0]
    assert g.index == 0
    assert g.timestamp == 0
    assert g.prev_digest == ZERO_DIGEST
    assert len(g.value) == 64


def test_chain_is_deterministic():
    assert make_chain(PARAMS, 32) == make_chain(PARAMS, 32)


def test_different_seeds_differ():
    other = BeaconParams(seed=b"\x22" * 32)
    assert make_chain(PARAMS, 4)[3].value != make_chain(other, 4)[3].value


def test_timestamps_step_by_period():
    chain = make_chain(PARAMS, 10)
    for prev, cur in zip(chain, chain[1:]):
        assert cur.timestamp - prev.timestamp == PARAMS.period_seconds
        assert cur.prev_digest == prev.chain_digest


def test_long_chain_verifies_with_and_without_params():
    chain = make_chain(PARAMS, 480)
    assert verify_chain(chain)
    assert verify_chain(chain, PARAMS)


@pytest.mark.parametrize("field_name", ["value", "prev_digest", "chain_digest"])
def test_tampered_pulse_detected(field_name):
    chain = make_chain(PARAMS, 8)
    victim = chain[5]
    original = getattr(victim, field_name)
    tampered = bytes([original[0] ^ 1]) + original[1:]
    chain[5] = victim._replace(**{field_name: tampered})
    check = verify_chain(chain)
    assert not check
    assert "5" in check.failure


def test_tampered_timestamp_detected():
    chain = make_chain(PARAMS, 6)
    chain[3] = chain[3]._replace(timestamp=chain[3].timestamp + 1)
    assert not verify_chain(chain)


def test_index_gap_detected():
    chain = make_chain(PARAMS, 6)
    del chain[2]
    assert not verify_chain(chain)


def test_foreign_seed_rejected_only_with_params():
    foreign = make_chain(BeaconParams(seed=b"\x33" * 32), 4)
    assert verify_chain(foreign)  # internally consistent
    check = verify_chain(foreign, PARAMS)  # not from this seed
    assert not check


def test_next_pulse_extends_verifiably():
    chain = make_chain(PARAMS, 3)
    chain.append(next_pulse(PARAMS, chain[-1], pulse_value(PARAMS.seed, 3)))
    assert chain == make_chain(PARAMS, 4)
    assert verify_chain(chain, PARAMS)


def test_joint_entropy_lower_bound():
    assert joint_entropy_lower_bound(1, PARAMS) == 256
    assert joint_entropy_lower_bound(4, PARAMS) == 1024
    with pytest.raises(ValueError):
        joint_entropy_lower_bound(0, PARAMS)


@given(st.integers(min_value=1, max_value=64), st.integers(min_value=0, max_value=63))
def test_any_single_value_corruption_detected(length, position):
    chain = make_chain(PARAMS, 8)
    victim = chain[length % 8]
    corrupted = bytearray(victim.value)
    corrupted[position] ^= 0xFF
    chain[length % 8] = victim._replace(value=bytes(corrupted))
    assert not verify_chain(chain)


def test_params_validation():
    with pytest.raises(ValueError):
        BeaconParams(period_seconds=0)
    with pytest.raises(ValueError):
        BeaconParams(min_entropy_bits=0)
    with pytest.raises(ValueError):
        BeaconParams(min_entropy_bits=513)
    with pytest.raises(ValueError):
        BeaconParams(seed=b"short")
