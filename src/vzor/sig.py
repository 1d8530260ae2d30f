"""Ed25519 signing and verification behind one seam, with a verdict memo.

Every signature the simulator makes or checks goes through this module.
:class:`Signer` derives its public key and signs through one backend,
chosen once per process at import: libsodium (``libsodium.so.23``, loaded
by soname through ``ctypes``) if it loads and, on RFC 8032's TEST 2 seed
and message, gives the public key and signature recorded here, which the
tests check are what ``cryptography`` gives.  Otherwise ``cryptography``
(OpenSSL) signs, as on a machine without libsodium; it is also the tests'
reference.  Signing is deterministic, so both give the same bytes and no
output depends on the choice; libsodium takes about half the time per
sign.  Verification always uses ``cryptography``: its verdicts on
malformed keys and signatures are what ``verify-trace`` reports.
``cryptography`` is imported only where it is used, by the first real
verify or the first OpenSSL keypair: importing it costs about 5.7 MiB
and 8 ms, and a clean run or audit with libsodium makes no real verify.

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

A run's memo hits come from three re-checks of signatures it has just made:
each committee member's VRF proof at its draw, each observation at packet
build, and each witness signature at the first chain's verify; the other
chains and the hub read the verdict the packet stored there.  ``vzor
verify-trace`` decodes no block before the replay, so its hits are the
replay's.  The replay stops at the first block that differs, and only that
block's packet is verified again, in full: it is decoded from the trace.

The module counts signs, real verifies and memo hits; :func:`counters`
returns a snapshot.  A signature recorded with :func:`record_own` counts
as a sign, so the counts do not depend on which process signed.
"""

from __future__ import annotations

import ctypes
import dataclasses
import os
from collections import OrderedDict
from typing import Callable

REAL_VERIFY_ENV = "VZOR_REAL_VERIFY"
SEED_BYTES = 32
SODIUM_SONAME = "libsodium.so.23"

# Every memo hit re-checks a signature made earlier in one of the epochs
# still open, and an epoch adds registry_size + committee_size entries.  A
# simulator caps the memo at that many entries per open epoch (cap_memo);
# the default, restored by reset(), leaves room for registries in the
# thousands and holds about 2.2 MiB when full.
DEFAULT_MEMO_CAP = 8192
MEMO_CAP = DEFAULT_MEMO_CAP


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


# A signing backend is a keypair function: seed -> (sign, public key).
_Keypair = Callable[[bytes], tuple[Callable[[bytes], bytes], bytes]]


def _openssl_keypair(seed: bytes) -> tuple[Callable[[bytes], bytes], bytes]:
    from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

    key = Ed25519PrivateKey.from_private_bytes(seed)
    return key.sign, key.public_key().public_bytes_raw()


def _load_sodium() -> _Keypair:
    """libsodium's keypair function.  Raises OSError or AttributeError where
    the library or a symbol is missing.  Loaded by soname, since
    ``ctypes.util.find_library`` starts a subprocess."""
    lib = ctypes.CDLL(SODIUM_SONAME)
    init_c = lib.sodium_init
    keypair_c, sign_c = lib.crypto_sign_seed_keypair, lib.crypto_sign_detached
    buf = ctypes.c_char_p  # unsigned char *: bytes in, string buffers out
    init_c.argtypes = ()
    keypair_c.argtypes = (buf, buf, buf)  # public key out, secret key out, seed
    # signature out, its length out (NULL), message, message length, secret key
    sign_c.argtypes = (buf, ctypes.c_void_p, buf, ctypes.c_ulonglong, buf)
    init_c.restype = keypair_c.restype = sign_c.restype = ctypes.c_int
    if init_c() < 0:
        raise OSError("sodium_init failed")

    def keypair(seed: bytes) -> tuple[Callable[[bytes], bytes], bytes]:
        public, secret = ctypes.create_string_buffer(32), ctypes.create_string_buffer(64)
        if keypair_c(public, secret, seed):
            raise OSError("crypto_sign_seed_keypair failed")
        secret_key = secret.raw  # 64 bytes, held by sign for as long as it lives

        def sign(message: bytes) -> bytes:
            signature = ctypes.create_string_buffer(64)
            sign_c(signature, None, message, len(message), secret_key)  # always 0
            return signature.raw

        return sign, public.raw

    return keypair


# RFC 8032, section 7.1, TEST 2: the bytes ``cryptography`` gives too.
_CHECK_SEED = bytes.fromhex("4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb")
_CHECK_MESSAGE = b"\x72"
_CHECK_PUBLIC_KEY = bytes.fromhex("3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c")
_CHECK_SIGNATURE = bytes.fromhex(
    "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da"
    "085ac1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00"
)


def _choose() -> _Keypair:
    """libsodium if it loads and gives the check bytes, else ``cryptography``."""
    try:
        sodium = _load_sodium()
        sign, public = sodium(_CHECK_SEED)
    except (OSError, AttributeError):
        return _openssl_keypair
    agrees = public == _CHECK_PUBLIC_KEY and sign(_CHECK_MESSAGE) == _CHECK_SIGNATURE
    return sodium if agrees else _openssl_keypair


_keypair = _choose()


class Signer:
    """An Ed25519 private key with its public key derived once, both through
    the backend chosen at import."""

    __slots__ = ("_sign", "public_key")

    def __init__(self, seed: bytes) -> None:
        seed = memoryview(seed).tobytes()  # any bytes-like object, never an int
        if len(seed) != SEED_BYTES:  # checked before any pointer reaches C
            raise ValueError(f"an Ed25519 seed is {SEED_BYTES} bytes, not {len(seed)}")
        self._sign, self.public_key = _keypair(seed)

    def sign(self, message: bytes) -> bytes:
        message = bytes(message)
        signature = self._sign(message)
        record_own(self.public_key, message, signature)
        return signature

    def sign_unrecorded(self, message: bytes) -> bytes:
        """Sign for a caller that records the signature where it uses it."""
        return self._sign(bytes(message))


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
    from cryptography.exceptions import InvalidSignature
    from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PublicKey

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


def cap_memo(entries: int) -> None:
    """Keep at most ``entries`` verdicts from now until the next :func:`reset`."""
    global MEMO_CAP
    MEMO_CAP = entries


def reset() -> None:
    """Empty the memo, restore its default cap, zero the counters and read
    ``VZOR_REAL_VERIFY`` again."""
    global _memo_enabled, MEMO_CAP
    _memo_enabled = _memo_wanted()
    MEMO_CAP = DEFAULT_MEMO_CAP
    _memo.clear()
    _counters.signs = _counters.real_verifies = _counters.memo_hits = 0
