"""Witness commitments and proof-carrying packet verification.

A witness is the ordered list of signed observations behind one
aggregated value.  It is committed to with a binary Merkle tree so a
verifier can later demand inclusion proofs for individual signatures,
and the whole claim ("this median was correctly derived from a quorum
of committee signatures over in-range values for this epoch") is bound
into a single statement digest carried by the packet.

``verify`` is the adversarial-input side: it never raises on malformed
or hostile packets, it returns a :class:`VerifyResult` naming the first
check that failed.  ``prove`` is the honest builder side and raises on
programmer error instead.
"""

from __future__ import annotations

import enum
import functools
from typing import TYPE_CHECKING, NamedTuple, Optional

from . import sig
from .encoding import DIGEST_BYTES, be_i64, be_u64, read_i64, read_u64, tagged_digest
from .errors import MalformedWitness
from .oracle import AggregationParams, median, observation_message
from .vrf import SIGNATURE_BYTES, Committee

if TYPE_CHECKING:
    from .packets import OraclePacket

_LEAF_TAG = "VZOR/leaf/v1"
_NODE_TAG = "VZOR/node/v1"
_STMT_TAG = "VZOR/stmt/v1"


class WitnessEntry(NamedTuple):
    """One committee member's attested value inside a witness.

    Canonical 80-byte record: reporter_id u64, value i64, signature 64B.
    """

    reporter_id: int
    value: int
    signature: bytes

    RECORD_BYTES = 8 + 8 + SIGNATURE_BYTES

    def to_bytes(self) -> bytes:
        return be_u64(self.reporter_id) + be_i64(self.value) + self.signature

    @classmethod
    def from_bytes(cls, buf: bytes) -> "WitnessEntry":
        if len(buf) != cls.RECORD_BYTES:
            raise ValueError(f"witness entry must be {cls.RECORD_BYTES} bytes")
        return cls(reporter_id=read_u64(buf, 0), value=read_i64(buf, 8), signature=buf[16:])


class _Witness(NamedTuple):
    epoch: int
    committee_digest: bytes
    entries: tuple[WitnessEntry, ...]


class Witness(_Witness):
    """All signatures behind one packet, sorted by reporter id."""

    def values(self) -> list[int]:
        return [e.value for e in self.entries]

    @functools.cached_property
    def _tree(self) -> list[list[bytes]]:  # built once per witness, then only read
        return _levels(self)

    def to_bytes(self) -> bytes:
        head = be_u64(self.epoch) + self.committee_digest + be_u64(len(self.entries))
        return head + b"".join(e.to_bytes() for e in self.entries)

    @classmethod
    def from_bytes(cls, buf: bytes) -> "Witness":
        if len(buf) < 8 + DIGEST_BYTES + 8:
            raise ValueError("witness header truncated")
        count = read_u64(buf, 8 + DIGEST_BYTES)
        offset, size = 8 + DIGEST_BYTES + 8, WitnessEntry.RECORD_BYTES
        if len(buf) != offset + count * size:
            raise ValueError("witness length does not match entry count")
        entries = (WitnessEntry.from_bytes(buf[i : i + size]) for i in range(offset, len(buf), size))
        return cls(read_u64(buf, 0), buf[8 : 8 + DIGEST_BYTES], tuple(entries))


def _structural_problem(witness: Witness) -> Optional[str]:
    """Reason the witness is not in canonical form, or None if it is."""
    if len(witness.committee_digest) != DIGEST_BYTES:
        return "committee digest width"
    if not witness.entries:
        return "no entries"
    prev = -1
    for e in witness.entries:
        if not 0 <= e.reporter_id < 2**64:
            return "reporter id out of range"
        if e.reporter_id <= prev:
            return "entries not strictly increasing by reporter id"
        if len(e.signature) != SIGNATURE_BYTES:
            return "signature width"
        if not -(2**63) <= e.value < 2**63:
            return "value not a 64-bit integer"
        prev = e.reporter_id
    return None


# -- Merkle commitment over witness entries ---------------------------------


def _leaf(entry_bytes: bytes) -> bytes:
    return tagged_digest(_LEAF_TAG, entry_bytes)


def _node(left: bytes, right: bytes) -> bytes:
    return tagged_digest(_NODE_TAG, left, right)


def _levels(witness: Witness) -> list[list[bytes]]:
    """Every level of the padded tree, leaves first and the root last."""
    # pad to the next power of two (minimum 2) by repeating the last leaf
    level = [_leaf(e.to_bytes()) for e in witness.entries]
    width = max(2, 1 << (len(level) - 1).bit_length())
    level.extend([level[-1]] * (width - len(level)))
    levels = [level]
    while len(level) > 1:
        level = [_node(level[i], level[i + 1]) for i in range(0, len(level), 2)]
        levels.append(level)
    return levels


def witness_root(witness: Witness) -> bytes:
    return witness._tree[-1][0]


class InclusionProof(NamedTuple):
    """Sibling path from one witness entry up to the witness root."""

    index: int
    siblings: tuple[bytes, ...]


def inclusion_proofs(witness: Witness) -> list[InclusionProof]:
    """The inclusion proof of every witness entry, in entry order."""
    levels = witness._tree[:-1]
    return [
        InclusionProof(
            index=index,
            siblings=tuple(level[(index >> depth) ^ 1] for depth, level in enumerate(levels)),
        )
        for index in range(len(witness.entries))
    ]


def verify_inclusion(root: bytes, entry: WitnessEntry, proof: InclusionProof) -> bool:
    digest = _leaf(entry.to_bytes())
    pos = proof.index
    for sibling in proof.siblings:
        digest = _node(sibling, digest) if pos % 2 else _node(digest, sibling)
        pos //= 2
    return pos == 0 and digest == root


# -- statement digest and proof object ---------------------------------------


def statement_digest(
    median_value: int, epoch: int, committee_digest: bytes, params_digest: bytes
) -> bytes:
    """Digest binding the claimed median to epoch, committee, and parameters."""
    return tagged_digest(
        _STMT_TAG, be_i64(median_value), be_u64(epoch), committee_digest, params_digest
    )


class ProofObject(NamedTuple):
    """Succinct commitment a packet carries: statement plus witness root.

    Canonical binary form is the 64-byte concatenation of the two digests.
    """

    statement: bytes
    witness_root: bytes

    RECORD_BYTES = 2 * DIGEST_BYTES

    def to_bytes(self) -> bytes:
        return self.statement + self.witness_root

    @classmethod
    def from_bytes(cls, buf: bytes) -> "ProofObject":
        if len(buf) != cls.RECORD_BYTES:
            raise ValueError(f"proof object must be {cls.RECORD_BYTES} bytes")
        return cls(statement=buf[:DIGEST_BYTES], witness_root=buf[DIGEST_BYTES:])


def prove(
    witness: Witness, median_value: int, committee: Committee, params: AggregationParams
) -> ProofObject:
    """Commit to a witness and its claimed median.

    Builder side: the witness must already be canonical (sorted, sized),
    a malformed one raises :class:`MalformedWitness`.  The claimed median
    is bound into the statement as-is; a dishonest claim is caught by
    ``verify`` on the other end, not here.
    """
    problem = _structural_problem(witness)
    if problem is not None:
        raise MalformedWitness(problem)
    statement = statement_digest(median_value, witness.epoch, committee.digest(), params.digest())
    return ProofObject(statement=statement, witness_root=witness_root(witness))


# -- verification -------------------------------------------------------------


class Failure(enum.Enum):
    """First check a rejected packet failed, in evaluation order."""

    MALFORMED = "Malformed"
    EPOCH_MISMATCH = "EpochMismatch"
    QUORUM_NOT_MET = "QuorumNotMet"
    NON_MEMBER = "NonMember"
    BAD_SIGNATURE = "BadSignature"
    RANGE_VIOLATION = "RangeViolation"
    WRONG_MEDIAN = "WrongMedian"
    COMMITMENT_MISMATCH = "CommitmentMismatch"


class VerifyResult(NamedTuple):
    """Outcome of packet verification; truthy iff the packet is accepted."""

    accepted: bool
    failure: Optional[Failure] = None
    culprit: Optional[int] = None

    def __bool__(self) -> bool:
        return self.accepted

    def reason(self) -> str:
        if self.accepted:
            return "ok"
        assert self.failure is not None
        if self.culprit is None:
            return self.failure.value
        return f"{self.failure.value}({self.culprit})"


def _reject(failure: Failure, culprit: Optional[int] = None) -> VerifyResult:
    return VerifyResult(accepted=False, failure=failure, culprit=culprit)


def verify(
    packet: "OraclePacket", committee: Committee, params: AggregationParams
) -> VerifyResult:
    """Check a packet against its committee; never raises on hostile input.

    Checks run cheapest first and stop at the first failure:

    1. witness structure (canonical ordering, field widths)
    2. epoch binding between witness, packet, and committee
    3. quorum count
    4. committee membership of every signer
    5. every signature, against the member's registered key
    6. every value inside the configured range
    7. claimed median equals the median of the witnessed values
    8. commitments: committee digest, witness root, statement digest

    The packet keeps the verdict of its last full check, with the committee
    and parameters it checked.  A call with those three objects, compared by
    identity (no field of any can be reassigned), returns that verdict: a
    second chain or the hub's re-check adds no work.  Any other object, such
    as a decoded or altered copy, ``_replace`` copies included, is checked in full.
    """
    last = getattr(packet, "_verdict", None)
    if last is not None and last[0] is committee and last[1] is params:
        return last[2]
    result = _check(packet, committee, params)
    packet._verdict = (committee, params, result)
    return result


def _check(packet: "OraclePacket", committee: Committee, params: AggregationParams) -> VerifyResult:
    witness = packet.witness
    if _structural_problem(witness) is not None:
        return _reject(Failure.MALFORMED)

    if witness.epoch != packet.epoch or committee.epoch != packet.epoch:
        return _reject(Failure.EPOCH_MISMATCH)

    if len(witness.entries) < params.quorum:
        return _reject(Failure.QUORUM_NOT_MET)

    keys = committee.public_keys
    for entry in witness.entries:
        if entry.reporter_id not in keys:
            return _reject(Failure.NON_MEMBER, entry.reporter_id)

    for entry in witness.entries:
        message = observation_message(entry.value, packet.epoch, entry.reporter_id)
        if not sig.verify(keys[entry.reporter_id], message, entry.signature):
            return _reject(Failure.BAD_SIGNATURE, entry.reporter_id)

    for entry in witness.entries:
        if not params.in_range(entry.value):
            return _reject(Failure.RANGE_VIOLATION, entry.reporter_id)

    if median(witness.values()) != packet.median:
        return _reject(Failure.WRONG_MEDIAN)

    if witness.committee_digest != committee.digest() or packet.proof != ProofObject(
        statement_digest(packet.median, packet.epoch, witness.committee_digest, params.digest()),
        witness_root(witness),
    ):
        return _reject(Failure.COMMITMENT_MISMATCH)

    return VerifyResult(accepted=True)
