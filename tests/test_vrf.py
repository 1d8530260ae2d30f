import dataclasses

import pytest

from vzor.errors import RegistryTooSmall, UnverifiableScore
from vzor.vrf import (
    VRF_ORDER,
    Committee,
    SortitionParams,
    evaluate_registry,
    prediction_bound,
    select_committee,
    sortition_input,
    vrf_evaluate,
    vrf_keygen,
    vrf_verify,
)


def test_evaluate_is_deterministic(key_pool):
    secret = key_pool[3]
    a = vrf_evaluate(secret, b"input")
    b = vrf_evaluate(secret, b"input")
    assert a == b
    assert 0 <= a.value < VRF_ORDER


def test_verify_accepts_honest_output(key_pool):
    secret = key_pool[0]
    out = vrf_evaluate(secret, b"epoch-7")
    assert vrf_verify(secret.public_key(), b"epoch-7", out)


def test_verify_rejects_wrong_input(key_pool):
    out = vrf_evaluate(key_pool[0], b"epoch-7")
    assert not vrf_verify(key_pool[0].public_key(), b"epoch-8", out)


def test_verify_rejects_wrong_key(key_pool):
    out = vrf_evaluate(key_pool[0], b"x")
    assert not vrf_verify(key_pool[1].public_key(), b"x", out)


def test_verify_rejects_tampered_proof(key_pool):
    out = vrf_evaluate(key_pool[0], b"x")
    forged = dataclasses.replace(out, proof=bytes(64))
    assert not vrf_verify(key_pool[0].public_key(), b"x", forged)


def test_verify_rejects_forged_value(key_pool):
    out = vrf_evaluate(key_pool[0], b"x")
    forged = dataclasses.replace(out, value=(out.value + 1) % VRF_ORDER)
    assert not vrf_verify(key_pool[0].public_key(), b"x", forged)


def test_keygen_deterministic():
    a1, s1 = vrf_keygen(b"\x09" * 32, 9)
    a2, s2 = vrf_keygen(b"\x09" * 32, 9)
    assert a1 == a2
    assert s1.sign(b"m") == s2.sign(b"m")


def test_committee_draw_is_deterministic(key_pool, pulses):
    scored = evaluate_registry(key_pool, pulses[1], 1)
    params = SortitionParams(committee_size=15)
    a = select_committee(pulses[1], 1, scored, params)
    b = select_committee(pulses[1], 1, scored, params)
    assert a.member_ids() == b.member_ids()
    assert a.size == 15


def test_committee_sorted_by_score(key_pool, pulses):
    scored = evaluate_registry(key_pool, pulses[2], 2)
    committee = select_committee(pulses[2], 2, scored, SortitionParams(committee_size=15))
    values = [out.value for _, out in committee.members]
    assert values == sorted(values)
    # the selected scores are the n smallest overall
    cutoff = max(values)
    outside = [out.value for _, out in scored if out.value not in values]
    assert all(v >= cutoff for v in outside)


def test_registry_too_small(key_pool, pulses):
    scored = evaluate_registry(key_pool[:10], pulses[0], 0)
    with pytest.raises(RegistryTooSmall):
        select_committee(pulses[0], 0, scored, SortitionParams(committee_size=15))


def test_duplicate_ids_rejected(key_pool, pulses):
    scored = evaluate_registry(key_pool, pulses[0], 0)
    with pytest.raises(ValueError):
        select_committee(pulses[0], 0, scored + scored[:1], SortitionParams(committee_size=15))


def test_forged_low_score_is_caught(key_pool, pulses):
    scored = evaluate_registry(key_pool, pulses[3], 3)
    cheater_ident, cheater_out = scored[7]
    scored[7] = (cheater_ident, dataclasses.replace(cheater_out, value=0))
    with pytest.raises(UnverifiableScore):
        select_committee(pulses[3], 3, scored, SortitionParams(committee_size=15))


def test_committee_digest_ignores_member_order(key_pool, pulses):
    scored = evaluate_registry(key_pool, pulses[4], 4)
    committee = select_committee(pulses[4], 4, scored, SortitionParams(committee_size=15))
    shuffled = Committee(epoch=4, members=tuple(reversed(committee.members)))
    assert committee.digest() == shuffled.digest()


def test_committee_digest_binds_members(key_pool, pulses):
    c4 = select_committee(
        pulses[4], 4, evaluate_registry(key_pool, pulses[4], 4), SortitionParams()
    )
    c5 = select_committee(
        pulses[5], 5, evaluate_registry(key_pool, pulses[5], 5), SortitionParams()
    )
    if c4.member_ids() != c5.member_ids():
        assert c4.digest() != c5.digest()


def test_sortition_input_binds_epoch(pulses):
    assert sortition_input(pulses[0].value, 1) != sortition_input(pulses[0].value, 2)
    assert sortition_input(pulses[0].value, 1) != sortition_input(pulses[1].value, 1)


def test_prediction_bound_values():
    assert prediction_bound(0, 15, 128) == pytest.approx(2.0**-128)
    assert prediction_bound(1, 15, 128) == pytest.approx(1 / 15 + 2.0**-128)
    assert prediction_bound(5, 15, 128) == pytest.approx(1 / 3, rel=1e-12)
    # the adversarial advantage is monotone in b
    bounds = [prediction_bound(b, 15, 128) for b in range(6)]
    assert bounds == sorted(bounds)


def test_sortition_params_validation():
    with pytest.raises(ValueError):
        SortitionParams(committee_size=0)
