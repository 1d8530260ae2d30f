"""Hash-chained entropy beacon.

Emits a deterministic, tamper-evident pulse sequence: each pulse carries a
512-bit value derived from the beacon seed, a link to the previous pulse's
digest, and a digest over its own canonical serialization.  The sequence
emulates a public randomness log (NIST Beacon 2.0 style) without any
network dependency, so runs are reproducible bit-for-bit from the seed.
"""

from __future__ import annotations

from typing import NamedTuple

from .encoding import ZERO_DIGEST, be_u64, tagged_digest

VALUE_BYTES = 64  # 512-bit pulse value

_CHAIN_TAG = "VZOR/pulse/v1"
_VALUE_TAG_A = "VZOR/pulse-val/v1/a"
_VALUE_TAG_B = "VZOR/pulse-val/v1/b"


class _BeaconParams(NamedTuple):
    period_seconds: int = 60
    min_entropy_bits: int = 256
    seed: bytes = b"\x00" * 32


class BeaconParams(_BeaconParams):
    """Beacon emission parameters: period, declared min-entropy, and seed.

    ``min_entropy_bits`` is a declared property of the source, not a
    measured quantity; it only feeds the joint-entropy lower bound.
    """

    _make = classmethod(lambda cls, values: cls(*values))  # _replace checks too

    def __new__(cls, *args, **kwargs) -> "BeaconParams":
        self = super().__new__(cls, *args, **kwargs)
        if self.period_seconds <= 0:
            raise ValueError("beacon period must be positive")
        if not 0 < self.min_entropy_bits <= 8 * VALUE_BYTES:
            raise ValueError("min entropy must be in (0, 512] bits")
        if len(self.seed) != 32:
            raise ValueError("beacon seed must be 32 bytes")
        return self


class Pulse(NamedTuple):
    """One beacon emission.

    ``chain_digest`` covers the canonical serialization of the other four
    fields; ``prev_digest`` equals the previous pulse's chain digest (the
    genesis pulse links to the all-zeros digest).
    """

    index: int
    timestamp: int
    value: bytes
    prev_digest: bytes
    chain_digest: bytes


def pulse_value(seed: bytes, index: int) -> bytes:
    """512-bit pulse value: two domain-separated keyed digests of (seed, index)."""
    half_a = tagged_digest(_VALUE_TAG_A, seed, be_u64(index))
    half_b = tagged_digest(_VALUE_TAG_B, seed, be_u64(index))
    return half_a + half_b


def chain_digest(index: int, timestamp: int, value: bytes, prev_digest: bytes) -> bytes:
    return tagged_digest(_CHAIN_TAG, be_u64(index), be_u64(timestamp), value, prev_digest)


def next_pulse(params: BeaconParams, prev: Pulse | None, value: bytes) -> Pulse:
    """The pulse after ``prev``, one period on, carrying ``value``; with no
    ``prev``, pulse 0, which links to the all-zeros digest at timestamp 0."""
    index = 0 if prev is None else prev.index + 1
    prev_digest = ZERO_DIGEST if prev is None else prev.chain_digest
    timestamp = index * params.period_seconds
    digest = chain_digest(index, timestamp, value, prev_digest)
    return Pulse(index, timestamp, value, prev_digest, digest)


def make_chain(params: BeaconParams, count: int) -> list[Pulse]:
    """Generate ``count`` pulses from pulse 0, each value derived from the seed."""
    if count < 1:
        raise ValueError("chain needs at least one pulse")
    pulses = [next_pulse(params, None, pulse_value(params.seed, 0))]
    for index in range(1, count):
        pulses.append(next_pulse(params, pulses[-1], pulse_value(params.seed, index)))
    return pulses


class ChainCheck(NamedTuple):
    """Boolean verdict plus a diagnostic naming the first broken pulse."""

    ok: bool
    failure: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def verify_chain(pulses: list[Pulse], params: BeaconParams | None = None) -> ChainCheck:
    """Check pulse invariants and consecutive chaining over an ordered list.

    Structural checks need no secrets: field widths, digest recomputation,
    prev-digest links, index sequence, and a constant positive timestamp
    period.  With ``params`` the period and the seed-derived values are
    additionally checked.
    """
    if not pulses:
        return ChainCheck(False, "empty chain")
    period = None
    for k, p in enumerate(pulses):
        if len(p.value) != VALUE_BYTES or len(p.prev_digest) != 32 or len(p.chain_digest) != 32:
            return ChainCheck(False, f"broken chain at index {k}: bad field width")
        if chain_digest(p.index, p.timestamp, p.value, p.prev_digest) != p.chain_digest:
            return ChainCheck(False, f"broken chain at index {k}: chain digest mismatch")
        if k == 0:
            if p.index == 0 and p.prev_digest != ZERO_DIGEST:
                return ChainCheck(False, "broken chain at index 0: genesis must link to zero digest")
        else:
            prev = pulses[k - 1]
            if p.index != prev.index + 1:
                return ChainCheck(False, f"broken chain at index {k}: index gap")
            if p.prev_digest != prev.chain_digest:
                return ChainCheck(False, f"broken chain at index {k}: previous digest mismatch")
            delta = p.timestamp - prev.timestamp
            if delta <= 0:
                return ChainCheck(False, f"broken chain at index {k}: non-increasing timestamp")
            if period is None:
                period = delta
            elif delta != period:
                return ChainCheck(False, f"broken chain at index {k}: irregular period")
        if params is not None:
            if k > 0 and p.timestamp - pulses[k - 1].timestamp != params.period_seconds:
                return ChainCheck(False, f"broken chain at index {k}: period != {params.period_seconds}")
            if p.value != pulse_value(params.seed, p.index):
                return ChainCheck(False, f"broken chain at index {k}: value not derived from seed")
    return ChainCheck(True)


def joint_entropy_lower_bound(k: int, params: BeaconParams) -> int:
    """Lower bound, in bits, on the joint entropy of k consecutive pulses."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return k * params.min_entropy_bits
