"""Shared fixtures: a reusable key pool, committee and packet builders,
and the single-field packet mutation engine used by soundness tests."""

from __future__ import annotations

import random

import pytest
from hypothesis import settings

from vzor.beacon import BeaconParams, make_chain
from vzor.oracle import AggregationParams, sign_observation
from vzor.packets import OraclePacket, build_packet
from vzor.proofs import ProofObject, Witness, WitnessEntry
from vzor.vrf import ReporterSecret, evaluate_registry, select_committee

settings.register_profile("suite", deadline=None, max_examples=60)
settings.load_profile("suite")

POOL_SIZE = 50


@pytest.fixture(scope="session")
def key_pool():
    """Deterministic reporter secrets for ids 0..49."""
    return [ReporterSecret(rid, bytes([rid]) * 32) for rid in range(POOL_SIZE)]


@pytest.fixture(scope="session")
def pulses():
    return make_chain(BeaconParams(seed=b"\x07" * 32), 64)


@pytest.fixture(scope="session")
def agg_params():
    return AggregationParams()


@pytest.fixture(scope="session")
def draw_committee(key_pool, pulses):
    def _draw(epoch: int = 0, n: int = 15):
        scored = evaluate_registry(key_pool, pulses[epoch % len(pulses)], epoch)
        return select_committee(pulses[epoch % len(pulses)], epoch, scored, n)

    return _draw


@pytest.fixture(scope="session")
def make_packet(key_pool, draw_committee, agg_params):
    """Build an honest packet for an epoch; values default to a spread
    around the configured base so medians are interesting."""

    def _make(epoch: int = 0, values=None, committee=None, params=None, claimed=None):
        params = params or agg_params
        committee = committee or draw_committee(epoch, params.committee_size)
        ids = committee.member_ids()
        if values is None:
            values = [10_000 + 13 * i for i in range(len(ids))]
        observations = [
            sign_observation(key_pool[rid], value, epoch, params)
            for rid, value in zip(ids, values)
        ]
        return build_packet(observations, committee, params, claimed_median=claimed), committee

    return _make


# -- single-field packet mutations ------------------------------------------------


def _flip_byte(data: bytes, index: int) -> bytes:
    return data[:index] + bytes([data[index] ^ 0x5A]) + data[index + 1 :]


def _with_witness(packet: OraclePacket, witness: Witness) -> OraclePacket:
    return packet._replace(witness=witness)


def _with_entry(packet: OraclePacket, index: int, entry: WitnessEntry) -> OraclePacket:
    entries = list(packet.witness.entries)
    entries[index] = entry
    return _with_witness(packet, packet.witness._replace(entries=tuple(entries)))


MUTATION_KINDS = (
    "median",
    "packet_epoch",
    "witness_epoch",
    "entry_value",
    "entry_signature",
    "entry_id",
    "witness_root",
    "statement",
    "committee_digest",
    "drop_entry",
    "duplicate_entry",
)


def mutate_packet(packet: OraclePacket, kind: str, rng: random.Random) -> OraclePacket:
    """Return a copy of ``packet`` with exactly one field corrupted."""
    witness = packet.witness
    index = rng.randrange(len(witness.entries))
    entry = witness.entries[index]
    if kind == "median":
        return packet._replace(median=packet.median + rng.choice([-1, 1, 7]))
    if kind == "packet_epoch":
        return packet._replace(epoch=packet.epoch + rng.randint(1, 5))
    if kind == "witness_epoch":
        return _with_witness(packet, witness._replace(epoch=witness.epoch + rng.randint(1, 5)))
    if kind == "entry_value":
        return _with_entry(packet, index, entry._replace(value=entry.value + rng.randint(1, 99)))
    if kind == "entry_signature":
        flipped = _flip_byte(entry.signature, rng.randrange(64))
        return _with_entry(packet, index, entry._replace(signature=flipped))
    if kind == "entry_id":
        return _with_entry(packet, index, entry._replace(reporter_id=entry.reporter_id + 1000))
    if kind == "witness_root":
        proof = ProofObject(
            statement=packet.proof.statement,
            witness_root=_flip_byte(packet.proof.witness_root, rng.randrange(32)),
        )
        return packet._replace(proof=proof)
    if kind == "statement":
        proof = ProofObject(
            statement=_flip_byte(packet.proof.statement, rng.randrange(32)),
            witness_root=packet.proof.witness_root,
        )
        return packet._replace(proof=proof)
    if kind == "committee_digest":
        flipped = _flip_byte(witness.committee_digest, rng.randrange(32))
        return _with_witness(packet, witness._replace(committee_digest=flipped))
    if kind == "drop_entry":
        entries = list(witness.entries)
        del entries[index]
        return _with_witness(packet, witness._replace(entries=tuple(entries)))
    if kind == "duplicate_entry":
        entries = list(witness.entries)
        entries.insert(index, entry)
        return _with_witness(packet, witness._replace(entries=tuple(entries)))
    raise ValueError(f"unknown mutation kind {kind!r}")
