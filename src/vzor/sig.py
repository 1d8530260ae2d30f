"""Ed25519 signing and verification behind one seam, with a verdict memo.

Every signature the simulator makes or checks goes through this module.
Verdicts are remembered in a bounded FIFO memo keyed on the exact
``(public_key, message, signature)`` bytes.  An entry comes from one of
three places only:

* a real verify, stored with its verdict, true or false;
* the in-process :class:`Signer`, stored as true.  RFC 8032 signing is
  deterministic and the signer derives its public key from its own
  private key, so its signature always verifies under that key;
* :func:`record_own`, stored as true: a VRF proof made by one of the
  run's own keys ahead of its draw, either in the simulator's forked
  scorer process and read back from its pipe, or by the event loop with
  :meth:`Signer.sign_unrecorded`; it is recorded at the draw that uses it.
  The real-verify mode below stores nothing, so there every such
  signature is still checked for real when it is used.

A lookup with any other key, message or signature misses the memo and
falls through to a real verify, so the memo never changes a verdict: it
only skips repeated work.  Setting the environment variable
``VZOR_REAL_VERIFY`` to anything but ``""`` or ``"0"`` bypasses the memo
(no lookups, no new entries), so every check is a real verify.  The
variable is read at import and again by :func:`reset`.

``vzor verify-trace`` checks a trace before it replays it, so its memo
hits come only from the replay's own re-checks of signatures it has just
made.  A trace identical to the replay needs no further verify; only the
packets of blocks that differ from the replay are verified again.

The module counts signs, real verifies and memo hits; :func:`counters`
returns a snapshot.  A signature recorded with :func:`record_own` counts
as a sign, so the counts do not depend on which process signed.
"""

from __future__ import annotations

import dataclasses
import os
from collections import OrderedDict

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

REAL_VERIFY_ENV = "VZOR_REAL_VERIFY"

# Every memo hit in a default run re-checks a signature made earlier in
# the same epoch, and an epoch adds registry_size + committee_size entries
# (65 by default; a cap of 128 already gives the full hit count).  8192
# leaves room for registries in the thousands and holds about 2.2 MiB.
MEMO_CAP = 8192


@dataclasses.dataclass
class Counters:
    """Ed25519 work done so far in this process."""

    signs: int = 0
    real_verifies: int = 0
    memo_hits: int = 0


_counters = Counters()
_memo: OrderedDict[tuple[bytes, bytes, bytes], bool] = OrderedDict()


def _memo_wanted() -> bool:
    return os.environ.get(REAL_VERIFY_ENV, "") in ("", "0")


_memo_enabled = _memo_wanted()


def _remember(key: tuple[bytes, bytes, bytes], verdict: bool) -> None:
    _memo[key] = verdict
    while len(_memo) > MEMO_CAP:
        _memo.popitem(last=False)


class Signer:
    """An Ed25519 private key with its public key derived once."""

    __slots__ = ("_key", "public_key")

    def __init__(self, seed: bytes) -> None:
        self._key = Ed25519PrivateKey.from_private_bytes(seed)
        self.public_key: bytes = self._key.public_key().public_bytes_raw()

    def sign(self, message: bytes) -> bytes:
        message = bytes(message)
        signature = self._key.sign(message)
        record_own(self.public_key, message, signature)
        return signature

    def sign_unrecorded(self, message: bytes) -> bytes:
        """Sign for a caller that records the signature where it uses it."""
        return self._key.sign(message)


def record_own(public_key: bytes, message: bytes, signature: bytes) -> None:
    """Count a signature the run made with its own key ``public_key`` and
    remember it as valid."""
    _counters.signs += 1
    if _memo_enabled:
        _remember((public_key, message, signature), True)


def verify(public_key: bytes, message: bytes, signature: bytes) -> bool:
    """True iff ``signature`` is a valid Ed25519 signature of ``message``
    under ``public_key``; malformed keys and signatures are simply false."""
    key = (bytes(public_key), bytes(message), bytes(signature))
    if _memo_enabled:
        verdict = _memo.get(key)
        if verdict is not None:
            _counters.memo_hits += 1
            return verdict
    _counters.real_verifies += 1
    try:
        Ed25519PublicKey.from_public_bytes(key[0]).verify(key[2], key[1])
        verdict = True
    except (InvalidSignature, ValueError):
        verdict = False
    if _memo_enabled:
        _remember(key, verdict)
    return verdict


def counters() -> Counters:
    return dataclasses.replace(_counters)


def memo_size() -> int:
    return len(_memo)


def reset() -> None:
    """Empty the memo, zero the counters and read ``VZOR_REAL_VERIFY`` again."""
    global _memo_enabled
    _memo_enabled = _memo_wanted()
    _memo.clear()
    _counters.signs = _counters.real_verifies = _counters.memo_hits = 0
