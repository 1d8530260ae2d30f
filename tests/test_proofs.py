import dataclasses
import random

import pytest

from vzor.errors import MalformedWitness
from vzor.oracle import AggregationParams, sign_observation
from vzor.packets import OraclePacket, build_packet
from vzor.proofs import (
    Failure,
    InclusionProof,
    ProofObject,
    Witness,
    WitnessEntry,
    _leaf,
    _node,
    inclusion_proofs,
    prove,
    statement_digest,
    verify,
    verify_inclusion,
    witness_root,
)

from conftest import MUTATION_KINDS, mutate_packet


def _entry(rid: int, value: int = 100) -> WitnessEntry:
    return WitnessEntry(reporter_id=rid, value=value, signature=bytes(64))


def _witness(ids, epoch: int = 0) -> Witness:
    return Witness(
        epoch=epoch,
        committee_digest=bytes(32),
        entries=tuple(_entry(rid) for rid in ids),
    )


# -- serialization -------------------------------------------------------------


def test_entry_bytes_round_trip():
    entry = WitnessEntry(reporter_id=9, value=-42, signature=bytes(range(64)))
    buf = entry.to_bytes()
    assert len(buf) == WitnessEntry.RECORD_BYTES == 80
    assert WitnessEntry.from_bytes(buf) == entry
    with pytest.raises(ValueError):
        WitnessEntry.from_bytes(buf + b"\x00")


def test_witness_bytes_round_trip():
    witness = _witness([1, 4, 9], epoch=5)
    assert Witness.from_bytes(witness.to_bytes()) == witness
    with pytest.raises(ValueError):
        Witness.from_bytes(witness.to_bytes()[:-3])


def test_proof_object_round_trip():
    proof = ProofObject(statement=bytes(32), witness_root=bytes(range(32)))
    assert len(proof.to_bytes()) == ProofObject.RECORD_BYTES == 64
    assert ProofObject.from_bytes(proof.to_bytes()) == proof
    with pytest.raises(ValueError):
        ProofObject.from_bytes(bytes(63))


def test_packet_bytes_round_trip(make_packet):
    packet, _ = make_packet(epoch=1)
    assert OraclePacket.from_bytes(packet.to_bytes()) == packet
    with pytest.raises(ValueError):
        OraclePacket.from_bytes(packet.to_bytes()[:-1])


# -- Merkle commitment ---------------------------------------------------------


def test_single_entry_root_duplicates_leaf():
    witness = _witness([3])
    leaf = _leaf(witness.entries[0].to_bytes())
    assert witness_root(witness) == _node(leaf, leaf)


def test_odd_count_pads_with_last_leaf():
    leaves = [_leaf(_entry(rid).to_bytes()) for rid in (1, 2, 3)]
    expected = _node(_node(leaves[0], leaves[1]), _node(leaves[2], leaves[2]))
    assert witness_root(_witness([1, 2, 3])) == expected


@pytest.mark.parametrize("count", range(1, 10))
def test_inclusion_proofs_verify_for_all_indices(count):
    witness = _witness(range(count))
    root = witness_root(witness)
    width = 2
    while width < count:
        width *= 2
    proofs = inclusion_proofs(witness)
    assert [proof.index for proof in proofs] == list(range(count))
    for entry, proof in zip(witness.entries, proofs):
        assert len(proof.siblings) == width.bit_length() - 1
        assert verify_inclusion(root, entry, proof)


def test_inclusion_rejects_wrong_entry_root_or_index():
    witness = _witness(range(6))
    root = witness_root(witness)
    proofs = inclusion_proofs(witness)
    assert len(proofs) == 6
    proof = proofs[2]
    assert not verify_inclusion(root, witness.entries[3], proof)
    assert not verify_inclusion(bytes(32), witness.entries[2], proof)
    assert not verify_inclusion(root, witness.entries[2], InclusionProof(3, proof.siblings))
    # an over-long index cannot escape the tree
    assert not verify_inclusion(root, witness.entries[2], InclusionProof(99, proof.siblings))


def test_root_changes_with_any_entry():
    base = _witness([1, 2, 3, 4])
    bumped = dataclasses.replace(
        base,
        entries=base.entries[:2]
        + (dataclasses.replace(base.entries[2], value=101),)
        + base.entries[3:],
    )
    assert witness_root(base) != witness_root(bumped)


# -- statement and prove -------------------------------------------------------


def test_statement_binds_every_field():
    base = statement_digest(5, 1, bytes(32), bytes(32))
    assert statement_digest(6, 1, bytes(32), bytes(32)) != base
    assert statement_digest(5, 2, bytes(32), bytes(32)) != base
    assert statement_digest(5, 1, b"\x01" + bytes(31), bytes(32)) != base
    assert statement_digest(5, 1, bytes(32), b"\x01" + bytes(31)) != base


@pytest.mark.parametrize(
    ("ids", "problem"),
    [
        ([], "no entries"),
        ([3, 1], "increasing"),
        ([2, 2], "increasing"),
    ],
)
def test_prove_rejects_malformed_witness(draw_committee, agg_params, ids, problem):
    committee = draw_committee(0)
    with pytest.raises(MalformedWitness, match=problem):
        prove(_witness(ids), 100, committee, agg_params)


def test_prove_rejects_bad_signature_width(draw_committee, agg_params):
    witness = Witness(
        epoch=0,
        committee_digest=bytes(32),
        entries=(WitnessEntry(reporter_id=1, value=5, signature=bytes(63)),),
    )
    with pytest.raises(MalformedWitness, match="signature width"):
        prove(witness, 5, draw_committee(0), agg_params)


# -- verify result formatting --------------------------------------------------


def test_verify_accepts_honest_packet(make_packet, agg_params):
    packet, committee = make_packet(epoch=1)
    result = verify(packet, committee, agg_params)
    assert result
    assert result.reason() == "ok"
    assert result.failure is None


def test_stage_malformed_out_of_order(make_packet, agg_params):
    packet, committee = make_packet(epoch=1)
    entries = list(packet.witness.entries)
    entries[0], entries[1] = entries[1], entries[0]
    bad = dataclasses.replace(
        packet, witness=dataclasses.replace(packet.witness, entries=tuple(entries))
    )
    assert verify(bad, committee, agg_params).failure is Failure.MALFORMED


def test_stage_malformed_empty_witness(make_packet, agg_params):
    packet, committee = make_packet(epoch=1)
    bad = dataclasses.replace(
        packet, witness=dataclasses.replace(packet.witness, entries=())
    )
    assert verify(bad, committee, agg_params).failure is Failure.MALFORMED


def test_stage_epoch_mismatch(make_packet, agg_params):
    packet, committee = make_packet(epoch=1)
    bad = dataclasses.replace(packet, epoch=2)
    assert verify(bad, committee, agg_params).failure is Failure.EPOCH_MISMATCH


def test_stage_epoch_mismatch_foreign_committee(make_packet, draw_committee, agg_params):
    packet, _ = make_packet(epoch=1)
    assert verify(packet, draw_committee(2), agg_params).failure is Failure.EPOCH_MISMATCH


def test_stage_quorum_not_met(make_packet, agg_params):
    packet, committee = make_packet(epoch=1)
    trimmed = packet.witness.entries[: agg_params.quorum - 1]
    bad = dataclasses.replace(
        packet, witness=dataclasses.replace(packet.witness, entries=trimmed)
    )
    result = verify(bad, committee, agg_params)
    assert result.failure is Failure.QUORUM_NOT_MET


def test_stage_non_member_names_culprit(make_packet, agg_params):
    packet, committee = make_packet(epoch=1)
    entries = list(packet.witness.entries)
    entries[-1] = dataclasses.replace(entries[-1], reporter_id=4294967296)
    bad = dataclasses.replace(
        packet, witness=dataclasses.replace(packet.witness, entries=tuple(entries))
    )
    result = verify(bad, committee, agg_params)
    assert result.failure is Failure.NON_MEMBER
    assert result.culprit == 4294967296
    assert result.reason() == "NonMember(4294967296)"


def test_stage_bad_signature_names_culprit(make_packet, agg_params):
    packet, committee = make_packet(epoch=1)
    entries = list(packet.witness.entries)
    sig = entries[2].signature
    entries[2] = dataclasses.replace(entries[2], signature=sig[:5] + bytes([sig[5] ^ 1]) + sig[6:])
    bad = dataclasses.replace(
        packet, witness=dataclasses.replace(packet.witness, entries=tuple(entries))
    )
    result = verify(bad, committee, agg_params)
    assert result.failure is Failure.BAD_SIGNATURE
    assert result.culprit == entries[2].reporter_id


def test_stage_range_violation(key_pool, draw_committee):
    wide = AggregationParams(value_max=10**15)
    narrow = AggregationParams()
    committee = draw_committee(3)
    ids = committee.member_ids()
    values = [1_000 + i for i in range(len(ids))]
    values[-1] = 10**13  # in range under wide params, out of range under narrow
    observations = [
        sign_observation(key_pool[rid], value, 3, wide) for rid, value in zip(ids, values)
    ]
    packet = build_packet(observations, committee, wide)
    assert verify(packet, committee, wide)
    result = verify(packet, committee, narrow)
    assert result.failure is Failure.RANGE_VIOLATION
    assert result.culprit == ids[-1]


def test_stage_wrong_median(make_packet, agg_params):
    packet, committee = make_packet(epoch=1)
    bad = dataclasses.replace(packet, median=packet.median + 1)
    assert verify(bad, committee, agg_params).failure is Failure.WRONG_MEDIAN


@pytest.mark.parametrize("kind", ["committee_digest", "witness_root", "statement"])
def test_stage_commitment_mismatch(make_packet, agg_params, kind):
    packet, committee = make_packet(epoch=1)
    bad = mutate_packet(packet, kind, random.Random(0))
    assert verify(bad, committee, agg_params).failure is Failure.COMMITMENT_MISMATCH


@pytest.mark.parametrize("kind", MUTATION_KINDS)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_any_single_mutation_is_rejected(make_packet, agg_params, kind, seed):
    packet, committee = make_packet(epoch=1)
    mutated = mutate_packet(packet, kind, random.Random(seed))
    assert not verify(mutated, committee, agg_params)
    assert mutated.digest() != packet.digest()
    # rejection survives a serialization round trip
    rehydrated = OraclePacket.from_bytes(mutated.to_bytes())
    assert not verify(rehydrated, committee, agg_params)
