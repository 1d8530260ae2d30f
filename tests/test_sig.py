"""The Ed25519 seam: a memoised verdict holds only for its exact bytes."""

import itertools
import os
import subprocess
import sys

import pytest
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from vzor import netsim, sig
from vzor.cli import main
from vzor.errors import UnverifiableScore
from vzor.scenario import ScenarioConfig
from vzor.vrf import ReporterSecret

from conftest import finished_run
from test_scorer import split
from test_trace import _edit_witness, _flip_signature_bit

BACKENDS = ("chosen", "cryptography")
FRAUD = "seed = 3\nepochs = 6\nadversary_behavior = wrong_median_packet\nfraud_period = 2\n"


@pytest.fixture(autouse=True)
def fresh_seam(monkeypatch):
    monkeypatch.delenv(sig.REAL_VERIFY_ENV, raising=False)
    sig.reset()
    yield
    # the seam reads the variable only in reset(): restore both for later tests
    monkeypatch.undo()
    sig.reset()


@pytest.fixture()
def signer():
    return sig.Signer(b"\x21" * 32)


def _flip_bit(data: bytes, bit: int) -> bytes:
    byte, offset = divmod(bit, 8)
    return data[:byte] + bytes([data[byte] ^ (1 << offset)]) + data[byte + 1 :]


# the fresh_seam fixture only empties the memo, which these examples never read
@settings(max_examples=200, derandomize=True, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.binary(min_size=32, max_size=32), st.binary(max_size=1100))
def test_chosen_backend_signs_as_cryptography_does(seed, message):
    reference = Ed25519PrivateKey.from_private_bytes(seed)
    # a reporter's key is a Signer with two slots more and no __dict__
    for signer in (sig.Signer(seed), ReporterSecret(7, seed)):
        assert isinstance(signer, sig.Signer)
        assert signer.public_key == reference.public_key().public_bytes_raw()
        assert signer.sign_unrecorded(message) == reference.sign(message)
        assert signer.sign(message) == reference.sign(message)
        with pytest.raises(AttributeError):
            signer.unknown = 1


def test_libsodium_signs_where_it_loads():
    try:
        sig._load_sodium()
    except (OSError, AttributeError):
        pytest.skip(f"{sig.SODIUM_SONAME} cannot be loaded here")
    assert sig._keypair is not sig._openssl_keypair


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("length", [0, 31, 33, 64])
def test_wrong_length_seed_is_refused(monkeypatch, backend, length):
    if backend == "cryptography":
        monkeypatch.setattr(sig, "_keypair", sig._openssl_keypair)
    with pytest.raises(ValueError):
        sig.Signer(b"\x21" * length)
    with pytest.raises(ValueError):
        ReporterSecret(0, b"\x21" * length)
    with pytest.raises(TypeError):  # an int is no seed, not even 32 zero bytes
        sig.Signer(32)


@pytest.mark.parametrize("fault", ["none", "no_library", "public_key", "signature", "raises"])
def test_backend_that_fails_its_self_check_is_not_chosen(monkeypatch, fault):
    def load():
        if fault == "no_library":
            raise OSError(f"{sig.SODIUM_SONAME}: cannot open shared object file")
        return keypair

    def keypair(seed):
        if fault == "raises":
            raise OSError("crypto_sign_seed_keypair failed")
        sign, public = sig._openssl_keypair(seed)
        if fault == "signature":
            return (lambda message: _flip_bit(sign(message), 0)), public
        return sign, bytes(32) if fault == "public_key" else public

    monkeypatch.setattr(sig, "_load_sodium", load)
    # cryptography itself passes the check (its bytes are the check's), so
    # the check is not vacuous
    assert sig._choose() is (keypair if fault == "none" else sig._openssl_keypair)


def test_signed_message_is_a_memo_hit(signer):
    signature = signer.sign(b"m")
    assert sig.verify(signer.public_key, b"m", signature)
    assert sig.counters() == sig.Counters(signs=1, real_verifies=0, memo_hits=1)


@pytest.mark.parametrize(
    "change", ["key", "short_key", "message", "sig_bit_0", "sig_bit_300", "sig_bit_511"]
)
def test_true_verdict_does_not_carry_over(signer, change):
    signature = signer.sign(b"m")
    assert sig.verify(signer.public_key, b"m", signature)
    key, message = signer.public_key, b"m"
    if change == "key":
        key = sig.Signer(b"\x22" * 32).public_key
    elif change == "short_key":
        key = key[:31]
    elif change == "message":
        message = b"n"
    else:
        signature = _flip_bit(signature, int(change.rsplit("_", 1)[1]))
    before = sig.counters()
    assert not sig.verify(key, message, signature)
    after = sig.counters()
    assert after.real_verifies == before.real_verifies + 1
    assert after.memo_hits == before.memo_hits


def test_real_verdicts_are_memoised_both_ways(signer):
    signature = signer.sign(b"m")
    other = sig.Signer(b"\x22" * 32)
    sig.reset()  # forget the signer's entry: the first checks are real
    for _ in range(2):
        assert sig.verify(signer.public_key, b"m", signature)
        assert not sig.verify(other.public_key, b"m", signature)
    assert sig.counters() == sig.Counters(signs=0, real_verifies=2, memo_hits=2)


def test_memo_evicts_oldest_at_cap(signer, monkeypatch):
    monkeypatch.setattr(sig, "MEMO_CAP", 8)
    signatures = [signer.sign(b"m%d" % i) for i in range(20)]
    assert sig.memo_size() == 8
    assert sig.verify(signer.public_key, b"m19", signatures[19])
    assert sig.counters().memo_hits == 1
    assert sig.verify(signer.public_key, b"m0", signatures[0])
    assert sig.counters().real_verifies == 1
    assert sig.memo_size() == 8


def test_memo_size_stays_at_default_cap(signer):
    for i in range(sig.MEMO_CAP + 100):
        signer.sign(i.to_bytes(4, "big"))
    assert sig.memo_size() == sig.MEMO_CAP


def test_real_verify_mode_bypasses_memo(signer, monkeypatch):
    monkeypatch.setenv(sig.REAL_VERIFY_ENV, "1")
    sig.reset()
    signature = signer.sign(b"m")
    assert sig.memo_size() == 0
    assert sig.verify(signer.public_key, b"m", signature)
    assert sig.verify(signer.public_key, b"m", signature)
    assert sig.counters() == sig.Counters(signs=1, real_verifies=2, memo_hits=0)
    assert sig.memo_size() == 0


def test_honest_run_counts_per_epoch():
    finished_run(ScenarioConfig(seed=7, epochs=4))
    counts = sig.counters()
    # 50 sortition proofs and 15 observations signed per epoch; every
    # check re-verifies one of them, so none needs a real verify
    assert counts.signs == 4 * (50 + 15)
    assert counts.real_verifies == 0
    assert counts.memo_hits > 0


def test_real_verify_mode_gives_identical_trace(tmp_path, monkeypatch):
    config = tmp_path / "scenario.txt"
    config.write_text(FRAUD)
    outputs = {}
    counts = {}
    in_process = netsim.SCORER_MIN_SIGNS
    chosen = sig._keypair
    # in-process scoring first, then a forked scorer for the same run, then
    # one whose child writes the first 170 of the 300 proofs and sleeps, so
    # that the loop signs the other 130; each signing with the backend
    # chosen at import and with cryptography, the fallback
    for scoring, backend in itertools.product(("in-process", "forked", "split"), BACKENDS):
        monkeypatch.setattr(netsim, "SCORER_MIN_SIGNS", in_process if scoring == "in-process" else 0)
        monkeypatch.setattr(sig, "_keypair", chosen if backend == "chosen" else sig._openssl_keypair)
        for mode in ("memo", "real"):
            if mode == "real":
                monkeypatch.setenv(sig.REAL_VERIFY_ENV, "1")
            else:
                monkeypatch.delenv(sig.REAL_VERIFY_ENV, raising=False)
            sig.reset()
            out = tmp_path / scoring / backend / mode
            with monkeypatch.context() as patch:
                loop = split(patch, piped=170) if scoring == "split" else None
                assert main(["run", "--config", str(config), "--out", str(out)]) == 0
            assert loop is None or loop == {"signed": 130, "piped": 170}
            outputs[scoring, backend, mode] = (out / "trace.txt").read_bytes()
            counts[scoring, backend, mode] = sig.counters()
            assert "slash_count = 3" in (out / "metrics.txt").read_text()
    assert len(set(outputs.values())) == 1
    for scoring, backend in itertools.product(("in-process", "forked", "split"), BACKENDS):
        memo, real = counts[scoring, backend, "memo"], counts[scoring, backend, "real"]
        assert memo.memo_hits > 0 and real.memo_hits == 0
        assert memo.signs == real.signs
        assert memo.memo_hits + memo.real_verifies == real.real_verifies
        # the real-verify mode checks every proof the scorer made, in the
        # child or in the loop, as it checks the proofs signed in-process
        assert counts[scoring, backend, "real"] == counts["in-process", "chosen", "real"]
        assert memo == counts["in-process", "chosen", "memo"]


def test_real_verify_mode_rejects_bad_scorer_bytes(monkeypatch):
    # a scorer that signs the wrong message, in the child or in the loop,
    # makes proofs that do not verify; the memo trusts them as the run's own,
    # a real verify does not
    sign = sig.Signer.sign_unrecorded
    monkeypatch.setattr(sig.Signer, "sign_unrecorded", lambda self, m: sign(self, m + b"!"))
    monkeypatch.setattr(netsim, "SCORER_MIN_SIGNS", 0)
    monkeypatch.setenv(sig.REAL_VERIFY_ENV, "1")
    sig.reset()
    with pytest.raises(UnverifiableScore):
        finished_run(ScenarioConfig(seed=3, epochs=2))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# a fresh interpreter runs each ``|``-separated vzor command line in turn,
# then prints their exit codes and whether cryptography was imported
FRESH = (
    "import sys\n"
    "from vzor.cli import main\n"
    "codes = [main(args.split('|')) for args in sys.argv[1:]]\n"
    "print(codes, 'cryptography' in sys.modules)\n"
)


def _fresh(*commands):
    src = os.path.dirname(os.path.dirname(sig.__file__))
    env = {k: v for k, v in os.environ.items() if k != sig.REAL_VERIFY_ENV}
    env["PYTHONPATH"] = src
    done = subprocess.run(
        [sys.executable, "-c", FRESH, *("|".join(c) for c in commands)],
        capture_output=True, text=True, env=env, check=True,
    )
    return done.stdout.splitlines()[-1]


def test_clean_run_and_audit_never_import_cryptography(tmp_path):
    if sig._keypair is sig._openssl_keypair:
        pytest.skip("libsodium did not load: cryptography signs here")
    config, out = tmp_path / "scenario.txt", tmp_path / "out"
    config.write_text(FRAUD)
    trace = out / "trace.txt"
    run = ["run", "--config", str(config), "--out", str(out)]
    assert _fresh(run, ["verify-trace", str(trace)]) == "[0, 0] False"
    # a flipped signature needs a real verify, which imports cryptography
    trace.write_text(_edit_witness(trace.read_text(), 3, _flip_signature_bit))
    assert _fresh(["verify-trace", str(trace)]) == "[4] True"


@pytest.mark.parametrize(("interval", "open_epochs"), [(1.0, 21), (0.001, 60)])
def test_memo_cap_loses_no_hit(interval, open_epochs, monkeypatch):
    # a run caps the memo at one epoch's 65 signatures per epoch that can be
    # open at once: 19.83 s of latency bound over the interval, plus 2, at
    # most every epoch; an unbounded memo hits exactly as often
    config = ScenarioConfig(
        seed=3, epochs=60, epoch_interval_s=interval,
        adversary_behavior="wrong_median_packet", fraud_period=2,
    )
    counts = []
    for cap in (sig.cap_memo, lambda entries: None):
        monkeypatch.setattr(sig, "cap_memo", cap)
        sig.reset()
        finished_run(config)
        counts.append((sig.counters(), sig.MEMO_CAP, sig.memo_size()))
    (capped, cap, size), (unbounded, default, full) = counts
    assert cap == 65 * open_epochs and size <= cap
    assert default == sig.DEFAULT_MEMO_CAP and full == 60 * 65
    assert capped == unbounded
    assert capped.memo_hits > 0 and capped.real_verifies == 0
