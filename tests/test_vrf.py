import pytest

from vzor.errors import RegistryTooSmall, UnverifiableScore
from vzor.vrf import (
    VRF_ORDER,
    Committee,
    ReporterIdentity,
    ReporterSecret,
    evaluate_registry,
    prediction_bound,
    select_committee,
    sortition_input,
)


def test_evaluate_is_deterministic(key_pool, pulses):
    a = evaluate_registry(key_pool, pulses[1], 1)
    b = evaluate_registry(key_pool, pulses[1], 1)
    assert a == b
    assert all(0 <= out.value < VRF_ORDER for _, out in a)


def test_identity_rejects_a_negative_id_and_a_short_key():
    ReporterIdentity(0, bytes(32))
    with pytest.raises(ValueError):
        ReporterIdentity(-1, bytes(32))
    with pytest.raises(ValueError):
        ReporterIdentity(0, bytes(31))
    with pytest.raises(ValueError):  # a copy is checked as well
        ReporterIdentity(0, bytes(32))._replace(public_key=bytes(31))


def test_verify_accepts_honest_output(key_pool, pulses):
    # a committee of the whole registry verifies every reporter's proof
    scored = evaluate_registry(key_pool, pulses[1], 1)
    committee = select_committee(pulses[1], 1, scored, len(key_pool))
    assert sorted(committee.member_ids()) == list(range(len(key_pool)))


def test_verify_rejects_wrong_key(key_pool, pulses):
    # member 8's whole score, value included, offered under member 7's key:
    # only the signature check can tell
    scored = evaluate_registry(key_pool, pulses[1], 1)
    scored[7] = (scored[7][0], scored[8][1])
    with pytest.raises(UnverifiableScore):
        select_committee(pulses[1], 1, scored, len(key_pool))


def test_keygen_deterministic():
    s1 = ReporterSecret(9, b"\x09" * 32)
    s2 = ReporterSecret(9, b"\x09" * 32)
    assert s1.identity == s2.identity
    assert s1.sign(b"m") == s2.sign(b"m")


def test_committee_draw_is_deterministic(key_pool, pulses):
    scored = evaluate_registry(key_pool, pulses[1], 1)
    a = select_committee(pulses[1], 1, scored, 15)
    b = select_committee(pulses[1], 1, scored, 15)
    assert a.member_ids() == b.member_ids()
    assert len(a.members) == 15


def test_committee_sorted_by_score(key_pool, pulses):
    scored = evaluate_registry(key_pool, pulses[2], 2)
    committee = select_committee(pulses[2], 2, scored, 15)
    # the members are the identities of the n smallest scores, in ascending
    # (score, id) order
    ranked = sorted((out.value, ident.id, ident) for ident, out in scored)
    assert committee.members == tuple(ident for _, _, ident in ranked[:15])


def test_registry_too_small(key_pool, pulses):
    scored = evaluate_registry(key_pool[:10], pulses[0], 0)
    with pytest.raises(RegistryTooSmall):
        select_committee(pulses[0], 0, scored, 15)


def test_duplicate_ids_rejected(key_pool, pulses):
    scored = evaluate_registry(key_pool, pulses[0], 0)
    with pytest.raises(ValueError):
        select_committee(pulses[0], 0, scored + scored[:1], 15)


def test_forged_low_score_is_caught(key_pool, pulses):
    scored = evaluate_registry(key_pool, pulses[3], 3)
    cheater_ident, cheater_out = scored[7]
    scored[7] = (cheater_ident, cheater_out._replace(value=0))
    with pytest.raises(UnverifiableScore):
        select_committee(pulses[3], 3, scored, 15)


def test_verify_rejects_forged_value(key_pool, pulses):
    # a value off by one from the proof's hash, not a conspicuous 0
    scored = evaluate_registry(key_pool, pulses[3], 3)
    cheater_ident, cheater_out = scored[7]
    forged = cheater_out._replace(value=(cheater_out.value + 1) % VRF_ORDER)
    scored[7] = (cheater_ident, forged)
    with pytest.raises(UnverifiableScore):
        select_committee(pulses[3], 3, scored, 15)


# edits of a cheater's epoch-3 score besides its value, given its own score,
# another member's score and its own epoch-2 score; the edited score is then
# forced to 0 as in test_forged_low_score_is_caught
SCORE_EDITS = {
    "zeroed_proof": lambda own, other, earlier: own._replace(proof=bytes(64)),
    "other_members_key": lambda own, other, earlier: own._replace(proof=other.proof),
    "other_epochs_proof": lambda own, other, earlier: earlier,
}


@pytest.mark.parametrize("edit", SCORE_EDITS.values(), ids=SCORE_EDITS.keys())
def test_edited_low_score_is_caught(key_pool, pulses, edit):
    scored = evaluate_registry(key_pool, pulses[3], 3)
    earlier = evaluate_registry(key_pool, pulses[2], 2)[7][1]
    cheater_ident, cheater_out = scored[7]
    forged = edit(cheater_out, scored[8][1], earlier)
    scored[7] = (cheater_ident, forged._replace(value=0))
    with pytest.raises(UnverifiableScore):
        select_committee(pulses[3], 3, scored, 15)


def test_committee_digest_ignores_member_order(key_pool, pulses):
    scored = evaluate_registry(key_pool, pulses[4], 4)
    committee = select_committee(pulses[4], 4, scored, 15)
    shuffled = Committee(epoch=4, members=tuple(reversed(committee.members)))
    assert committee.digest() == shuffled.digest()


def test_committee_digest_binds_members(key_pool, pulses):
    c4 = select_committee(pulses[4], 4, evaluate_registry(key_pool, pulses[4], 4), 15)
    c5 = select_committee(pulses[5], 5, evaluate_registry(key_pool, pulses[5], 5), 15)
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


def test_committee_size_below_one_rejected(key_pool, pulses):
    scored = evaluate_registry(key_pool, pulses[0], 0)
    with pytest.raises(ValueError):
        select_committee(pulses[0], 0, scored, 0)
