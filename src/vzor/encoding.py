"""Canonical byte encodings and domain-separated digests.

All protocol digests are SHA-256 over an ASCII context tag, a NUL
separator, and the concatenation of fixed-width big-endian fields in
declaration order.  Fixed widths make the encoding prefix-free without
per-field length framing.
"""

from __future__ import annotations

import functools
import hashlib
import struct

DIGEST_BYTES = 32
ZERO_DIGEST = b"\x00" * DIGEST_BYTES

be_u64 = struct.Struct(">Q").pack  # x -> 8 big-endian bytes; raises struct.error out of range
be_i64 = struct.Struct(">q").pack


def read_u64(buf: bytes, offset: int) -> int:
    return struct.unpack_from(">Q", buf, offset)[0]


def read_i64(buf: bytes, offset: int) -> int:
    return struct.unpack_from(">q", buf, offset)[0]


@functools.cache  # one entry per tag; every tag is a module constant
def _prefixed(tag: str) -> "hashlib._Hash":
    return hashlib.sha256(tag.encode("ascii") + b"\x00")


def tagged_digest(tag: str, *parts: bytes) -> bytes:
    """SHA-256 of ``tag || 0x00 || parts``, the protocol's digest primitive.
    Each call copies the state that has hashed the tag's prefix."""
    h = _prefixed(tag).copy()
    h.update(b"".join(parts))
    return h.digest()


def domain_message(tag: str, *parts: bytes) -> bytes:
    """Raw domain-separated message bytes (for signing, not hashing)."""
    return tag.encode("ascii") + b"\x00" + b"".join(parts)
