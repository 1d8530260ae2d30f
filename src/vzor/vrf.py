"""Verifiable random function and per-epoch committee sortition.

The VRF is built from a deterministic signature: the proof is an Ed25519
signature over the domain-separated input, and the output value is a
256-bit digest of that signature and the input's digest.  Ed25519 signing
is deterministic (RFC 8032), so the construction yields a unique, publicly
verifiable value per (key, input) pair.  The construction is a stand-in
with the standard VRF contract — determinism, uniqueness, verifiability —
not an interchange-compatible ECVRF.

Sortition follows the lowest-score rule: every reporter scores the
epoch's entropy pulse, and the ``n`` smallest scores form the committee,
``n`` being the governed size.  A score is checked against its own epoch.
"""

from __future__ import annotations

import functools
from typing import NamedTuple, Optional, Sequence

from . import sig
from .beacon import Pulse
from .encoding import be_u64, domain_message, tagged_digest
from .errors import RegistryTooSmall, UnverifiableScore

VRF_ORDER = 1 << 256  # q: output values lie in [0, q)
PUBLIC_KEY_BYTES = 32
SIGNATURE_BYTES = 64

_VRF_SIGN_TAG = "VZOR/vrf/v1"
_VRF_INPUT_TAG = "VZOR/vrf-in/v1"
_VRF_OUTPUT_TAG = "VZOR/vrf-out/v1"
_SORTITION_TAG = "VZOR/sortition/v1"
_COMMITTEE_TAG = "VZOR/committee/v1"


class _ReporterIdentity(NamedTuple):
    id: int
    public_key: bytes


class ReporterIdentity(_ReporterIdentity):
    """Public half of a reporter: small integer id plus verification key."""

    _make = classmethod(lambda cls, values: cls(*values))  # _replace checks too

    def __new__(cls, *args, **kwargs) -> "ReporterIdentity":
        self = super().__new__(cls, *args, **kwargs)
        if self.id < 0:
            raise ValueError("reporter id must be non-negative")
        if len(self.public_key) != PUBLIC_KEY_BYTES:
            raise ValueError("public key must be 32 bytes")
        return self


class ReporterSecret(sig.Signer):
    """A reporter's signer from its 256-bit seed, with its id and public identity."""

    __slots__ = ("id", "identity")

    def __init__(self, reporter_id: int, seed: bytes) -> None:
        super().__init__(seed)
        self.id = reporter_id
        self.identity = ReporterIdentity(reporter_id, self.public_key)


class VrfOutput(NamedTuple):
    """Sortition score with its verifiability proof.

    ``value`` is the 256-bit score, ``proof`` the deterministic signature
    it was derived from; the scored input is the epoch's and is not carried.
    """

    value: int
    proof: bytes


def _output_value(proof: bytes, input_digest: bytes) -> int:
    return int.from_bytes(tagged_digest(_VRF_OUTPUT_TAG, proof, input_digest), "big")


def _verify(public_key: bytes, message: bytes, input_digest: bytes, out: VrfOutput) -> bool:
    if len(out.proof) != SIGNATURE_BYTES or not 0 <= out.value < VRF_ORDER:
        return False
    if not sig.verify(public_key, message, out.proof):
        return False
    return _output_value(out.proof, input_digest) == out.value


def sortition_input(pulse_value: bytes, epoch: int) -> bytes:
    """Canonical committee-draw input: tag, pulse value, big-endian epoch."""
    return domain_message(_SORTITION_TAG, pulse_value, be_u64(epoch))


class _Committee(NamedTuple):
    epoch: int
    members: tuple[ReporterIdentity, ...]


class Committee(_Committee):
    """Epoch committee: the selected identities in score order, id as tiebreak.
    :func:`select_committee` checks the scores and drops them."""

    def member_ids(self) -> tuple[int, ...]:
        return tuple(ident.id for ident in self.members)

    @functools.cached_property
    def public_keys(self) -> dict[int, bytes]:
        """Member id -> public key: one map per committee, which callers only read."""
        return {ident.id: ident.public_key for ident in self.members}

    def digest(self) -> bytes:
        """Digest of the member set: (id, public key) pairs sorted by id."""
        return self._digest

    @functools.cached_property
    def _digest(self) -> bytes:
        parts = [be_u64(i.id) + i.public_key for i in sorted(self.members, key=lambda i: i.id)]
        return tagged_digest(_COMMITTEE_TAG, *parts)


@functools.lru_cache(maxsize=1)  # a draw's scorer, scoring and selection share it
def sortition_message(pulse_value: bytes, epoch: int) -> tuple[bytes, bytes]:
    """(signed message, input digest) of the epoch's committee draw."""
    input_bytes = sortition_input(pulse_value, epoch)
    return domain_message(_VRF_SIGN_TAG, input_bytes), tagged_digest(_VRF_INPUT_TAG, input_bytes)


def evaluate_registry(
    secrets: list[ReporterSecret],
    pulse: Pulse,
    epoch: int,
    proofs: Optional[Sequence[bytes]] = None,
) -> list[tuple[ReporterIdentity, VrfOutput]]:
    """Score every reporter against the epoch's sortition input.

    ``proofs``, when given, holds the epoch's proof of every registered
    reporter, indexed by id, signed ahead with the same keys and not yet
    recorded; without it each proof is signed here.  Every proof is
    recorded with :func:`sig.record_own`.
    """
    message, input_digest = sortition_message(pulse.value, epoch)
    scored = []
    for s in secrets:
        proof = s.sign_unrecorded(message) if proofs is None else proofs[s.id]
        sig.record_own(s.public_key, message, proof)
        value = _output_value(proof, input_digest)
        scored.append((s.identity, VrfOutput(value=value, proof=proof)))
    return scored


def select_committee(
    pulse: Pulse,
    epoch: int,
    scored: list[tuple[ReporterIdentity, VrfOutput]],
    committee_size: int,
) -> Committee:
    """Draw the epoch committee of ``n = committee_size`` from scored reporters.

    Takes the ``n`` smallest scores, ties broken by smaller id; raises
    ValueError when ``n < 1`` and RegistryTooSmall when fewer than ``n``
    reporters are scored.  Each selected proof must sign this epoch's
    sortition message and hash, with the epoch's input digest, to its value,
    or UnverifiableScore is raised.  Scores that do not select their owner
    cannot change the outcome (an inflated score only excludes its owner),
    so only selected proofs are checked.
    """
    if committee_size < 1:
        raise ValueError("committee size must be >= 1")
    ids = [ident.id for ident, _ in scored]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate reporter ids in registry")
    ranked = sorted(scored, key=lambda m: (m[1].value, m[0].id))
    if len(ranked) < committee_size:
        raise RegistryTooSmall(
            f"registry has {len(ranked)} reporters, committee needs {committee_size}"
        )
    selected = ranked[:committee_size]
    message, input_digest = sortition_message(pulse.value, epoch)
    for ident, out in selected:
        if not _verify(ident.public_key, message, input_digest, out):
            raise UnverifiableScore(f"reporter {ident.id} offered an unverifiable score")
    return Committee(epoch=epoch, members=tuple(ident for ident, _ in selected))


def prediction_bound(b: int, n: int, kappa: int) -> float:
    """Adversarial committee-prediction probability bound: b/n + 2^-kappa."""
    if not 0 <= b <= n:
        raise ValueError("need 0 <= b <= n")
    if kappa < 1:
        raise ValueError("kappa must be >= 1")
    return b / n + 2.0 ** (-kappa)
