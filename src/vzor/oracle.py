"""Signed observations and deterministic median aggregation.

Observation values are 64-bit fixed-point integers scaled by 10^8
(quote-asset minor units), which keeps aggregation exact and
cross-platform deterministic.  Signatures are Ed25519 over a
domain-separated (value, epoch, reporter_id) tuple so an observation
cannot be replayed into another epoch or under another reporter's id.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from . import sig
from .encoding import be_i64, be_u64, domain_message, tagged_digest
from .errors import EmptyInput, ValueOutOfRange
from .vrf import SIGNATURE_BYTES, ReporterSecret

VALUE_SCALE = 10**8  # fixed-point ticks per quote-asset unit

_OBS_TAG = "VZOR/obs/v1"
_PARAMS_TAG = "VZOR/aggparams/v1"


@dataclass(frozen=True)
class AggregationParams:
    """Quorum, committee size, and accepted value range for one epoch."""

    quorum: int = 10
    committee_size: int = 15
    value_min: int = 1
    value_max: int = 10**12

    def __post_init__(self) -> None:
        if not 1 <= self.quorum <= self.committee_size:
            raise ValueError("need 1 <= quorum <= committee size")
        if self.value_min > self.value_max:
            raise ValueError("empty value range")

    def digest(self) -> bytes:
        return self._digest

    @functools.cached_property
    def _digest(self) -> bytes:  # made once per object
        return tagged_digest(
            _PARAMS_TAG, be_u64(self.quorum), be_u64(self.committee_size),
            be_i64(self.value_min), be_i64(self.value_max),
        )

    def in_range(self, value: int) -> bool:
        return self.value_min <= value <= self.value_max


def observation_message(value: int, epoch: int, reporter_id: int) -> bytes:
    """Domain-separated message an observation signature covers."""
    return domain_message(_OBS_TAG, be_i64(value), be_u64(epoch), be_u64(reporter_id))


@dataclass(frozen=True)
class SignedObservation:
    """One reporter's value for one epoch, with its signature."""

    reporter_id: int
    value: int
    epoch: int
    signature: bytes


def sign_observation(
    secret: ReporterSecret, value: int, epoch: int, params: AggregationParams
) -> SignedObservation:
    """Sign a value for an epoch; rejects values outside the configured range."""
    if not params.in_range(value):
        raise ValueOutOfRange(f"value {value} outside [{params.value_min}, {params.value_max}]")
    signature = secret.sign(observation_message(value, epoch, secret.id))
    return SignedObservation(reporter_id=secret.id, value=value, epoch=epoch, signature=signature)


def verify_observation(public_key: bytes, obs: SignedObservation, params: AggregationParams) -> bool:
    """True iff the signature is valid under ``public_key`` and the value in range."""
    if not params.in_range(obs.value):
        return False
    if len(obs.signature) != SIGNATURE_BYTES:
        return False
    return sig.verify(
        public_key, observation_message(obs.value, obs.epoch, obs.reporter_id), obs.signature
    )


def median(values: list[int]) -> int:
    """Deterministic lower median: for even counts, the smaller middle element.

    The result is always an element of the input, so an aggregated value is
    always one of the attested observations.
    """
    if not values:
        raise EmptyInput("median of empty list")
    ordered = sorted(values)
    return ordered[(len(ordered) - 1) // 2]
