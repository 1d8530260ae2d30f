"""Proof-carrying oracle packets: assembly and serialization.

The aggregator collects signed observations from the epoch's committee,
keeps the valid ones, takes their median, and emits a packet carrying
the value, the proof object, and the full witness.  Verifiers on each
destination chain re-check the packet with :func:`vzor.proofs.verify`.
"""

from __future__ import annotations

import functools
from typing import Iterable, NamedTuple, Optional

from .encoding import be_i64, be_u64, read_i64, read_u64, tagged_digest
from .errors import DuplicateObservation, EpochMismatch, NonMember, QuorumNotMet
from .oracle import AggregationParams, SignedObservation, median, verify_observation
from .proofs import ProofObject, Witness, WitnessEntry, prove
from .vrf import Committee

_PACKET_TAG = "VZOR/packet/v1"


class _OraclePacket(NamedTuple):
    epoch: int
    median: int
    proof: ProofObject
    witness: Witness


class OraclePacket(_OraclePacket):
    """One epoch's aggregated value with its proof and witness."""

    def to_bytes(self) -> bytes:
        return self._bytes

    @functools.cached_property
    def _bytes(self) -> bytes:  # made once per packet, then only read
        witness_bytes = self.witness.to_bytes()
        return (
            be_u64(self.epoch)
            + be_i64(self.median)
            + self.proof.to_bytes()
            + be_u64(len(witness_bytes))
            + witness_bytes
        )

    @classmethod
    def from_bytes(cls, buf: bytes) -> "OraclePacket":
        head = 8 + 8 + ProofObject.RECORD_BYTES + 8
        if len(buf) < head:
            raise ValueError("packet header truncated")
        epoch = read_u64(buf, 0)
        med = read_i64(buf, 8)
        proof = ProofObject.from_bytes(buf[16 : 16 + ProofObject.RECORD_BYTES])
        witness_len = read_u64(buf, 16 + ProofObject.RECORD_BYTES)
        if len(buf) != head + witness_len:
            raise ValueError("packet length does not match witness length")
        return cls(epoch=epoch, median=med, proof=proof, witness=Witness.from_bytes(buf[head:]))

    def digest(self) -> bytes:
        return tagged_digest(_PACKET_TAG, self.to_bytes())


def collect_witness(
    observations: Iterable[SignedObservation], committee: Committee, params: AggregationParams
) -> Witness:
    """Filter observations down to a canonical witness for one epoch.

    Raises on aggregator-side misuse (wrong epoch, unknown reporter,
    duplicate reporter).  Observations with bad signatures or out-of-range
    values are Byzantine input and are silently dropped; if fewer than the
    quorum survive, raises :class:`QuorumNotMet`.
    """
    keys = committee.public_keys
    seen: set[int] = set()
    entries = []
    for obs in observations:
        if obs.epoch != committee.epoch:
            raise EpochMismatch(f"observation for epoch {obs.epoch}, committee is {committee.epoch}")
        if obs.reporter_id not in keys:
            raise NonMember(f"reporter {obs.reporter_id} not on the committee")
        if obs.reporter_id in seen:
            raise DuplicateObservation(f"reporter {obs.reporter_id} observed twice")
        seen.add(obs.reporter_id)
        if not verify_observation(keys[obs.reporter_id], obs, params):
            continue
        entries.append(
            WitnessEntry(reporter_id=obs.reporter_id, value=obs.value, signature=obs.signature)
        )
    if len(entries) < params.quorum:
        raise QuorumNotMet(f"{len(entries)} valid observations, quorum is {params.quorum}")
    entries.sort(key=lambda e: e.reporter_id)
    return Witness(
        epoch=committee.epoch, committee_digest=committee.digest(), entries=tuple(entries)
    )


def build_packet(
    observations: Iterable[SignedObservation],
    committee: Committee,
    params: AggregationParams,
    claimed_median: Optional[int] = None,
) -> OraclePacket:
    """Aggregate one epoch's observations into a proof-carrying packet.

    ``claimed_median`` overrides the honestly computed median; it exists so
    dishonest-aggregator behavior can be exercised end to end.  The proof
    binds whatever is claimed, and verification rejects the lie downstream.
    """
    witness = collect_witness(observations, committee, params)
    value = median(witness.values()) if claimed_median is None else claimed_median
    proof = prove(witness, value, committee, params)
    return OraclePacket(epoch=committee.epoch, median=value, proof=proof, witness=witness)
