"""The forked VRF scorer: the child writes each epoch's proofs from id 0
up and the loop signs the rest from the top down, it changes no output,
falls back to in-process scoring when it cannot run, and no run leaves
its process behind."""

import contextlib
import os
import threading
import time

import pytest

from vzor import netsim, sig
from vzor.scenario import ScenarioConfig
from vzor.trace import verify_trace_text

from conftest import finished_run
from test_netsim import SMALL, _traced_peak, null_sink_run
from test_trace import _edit_witness, _flip_signature_bit, _swap_signatures

FRAUD = ScenarioConfig(seed=3, epochs=6, adversary_behavior="wrong_median_packet", fraud_period=2)
PROOFS = FRAUD.epochs * FRAUD.registry_size  # 300 sortition proofs
SORTITION = b"VZOR/vrf/v1\x00VZOR/sortition/v1\x00"  # every sortition message starts so


@pytest.fixture(scope="module")
def in_process_trace():
    # 6 epochs x 50 reporters is below SCORER_MIN_SIGNS: scored in-process
    return finished_run(FRAUD).text


@pytest.fixture()
def forked(monkeypatch):
    """Every Simulator forks its scorer; the seam starts fresh in memo mode.
    Yields the list that records each fork."""
    monkeypatch.delenv(sig.REAL_VERIFY_ENV, raising=False)
    sig.reset()
    monkeypatch.setattr(netsim, "SCORER_MIN_SIGNS", 0)
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    yield forks
    monkeypatch.undo()
    sig.reset()


def _assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def split(monkeypatch, piped=None):
    """Count the sortition proofs this process signs, by any method, and the
    proofs its draws take from the scorer's pipe.  With ``piped``, the child
    sleeps at that proof and the first draw waits (at most 10 s) until
    the child has written every proof before it."""
    counts, own = {"signed": 0, "piped": 0}, set()

    def counting(sign):
        def wrapper(self, message):
            proof = sign(self, message)
            if message.startswith(SORTITION):
                counts["signed"] += 1
                own.add(proof)
            return proof

        return wrapper

    proofs, start = netsim._Scorer.proofs, netsim._Scorer._start

    def counted_proofs(self, epoch, message):
        drawn = proofs(self, epoch, message)
        counts["piped"] += sum(proof not in own for proof in drawn)
        return drawn

    def start_then_wait(self, first_epoch):
        start(self, first_epoch)
        deadline = time.monotonic() + 10
        while self._pid and self._words[1] < piped and time.monotonic() < deadline:
            time.sleep(0.001)

    monkeypatch.setattr(sig.Signer, "sign", counting(sig.Signer.sign))
    monkeypatch.setattr(sig.Signer, "sign_unrecorded", counting(sig.Signer.sign_unrecorded))
    monkeypatch.setattr(netsim._Scorer, "proofs", counted_proofs)
    if piped is not None:
        stop_child_at(monkeypatch, piped, lambda: time.sleep(60))
        monkeypatch.setattr(netsim._Scorer, "_start", start_then_wait)
    return counts


def stop_child_at(monkeypatch, proof, stop):
    """The forked scorer calls ``stop`` instead of signing its ``proof``-th
    proof (from 0); the loop's own signing is untouched."""
    fork = os.fork  # the forked fixture's counting wrapper

    def fork_and_patch_the_child():
        pid = fork()
        if pid == 0:
            sign, signed = sig.Signer.sign_unrecorded, []

            def sign_or_stop(self, message):
                if len(signed) == proof:
                    stop()
                signed.append(1)
                return sign(self, message)

            sig.Signer.sign_unrecorded = sign_or_stop
        return pid

    monkeypatch.setattr(os, "fork", fork_and_patch_the_child)


def _die():
    raise RuntimeError("scorer died")


def test_forked_run_is_identical_and_reaped(forked, in_process_trace):
    assert finished_run(FRAUD).text == in_process_trace
    assert forked == [1]
    _assert_no_child()


def _edit_e2e(text: str, epoch: int, value: str) -> str:
    lines = text.split("\n")
    start = lines.index(f"[epoch {epoch}]")
    at = next(i for i in range(start, len(lines)) if lines[i].startswith("e2e_ms"))
    lines[at] = f"e2e_ms {value}"
    return "\n".join(lines)


def test_bad_block_stops_the_replay_at_its_epoch(forked, in_process_trace):
    check = verify_trace_text(_edit_e2e(in_process_trace, 1, "x"))
    assert check.exit_code == 4
    assert check.problems[0].startswith("epoch 1:")
    assert sig.counters().signs == 2 * 65  # epochs 0 and 1: 50 VRF proofs, 15 observations
    _assert_no_child()


def test_flipped_signature_stops_a_long_replay_at_its_epoch(forked):
    text = finished_run(FRAUD._replace(epochs=48)).text
    sig.reset()
    check = verify_trace_text(_edit_witness(text, 3, _flip_signature_bit))
    assert check.exit_code == 4
    assert check.problems[0].startswith("epoch 3:")
    assert sig.counters().signs == 4 * 65  # the replay stopped after epoch 3
    assert forked == [1, 1]  # the run's scorer, then the replay's
    _assert_no_child()


def test_wrong_but_readable_block_is_replayed_and_reaped(forked, in_process_trace):
    check = verify_trace_text(_edit_e2e(in_process_trace, 1, "1"))
    assert check.exit_code == 4
    assert check.problems[0].startswith("epoch 1:")
    assert forked == [1]
    _assert_no_child()


def test_edit_only_the_replay_catches_is_reaped(forked, in_process_trace):
    check = verify_trace_text(_edit_witness(in_process_trace, 1, _swap_signatures))
    assert check.exit_code == 4
    assert check.problems[0].startswith("epoch 1:")
    assert forked == [1]
    _assert_no_child()


def test_handler_that_raises_mid_run_is_reaped(forked, monkeypatch):
    built = netsim.Simulator._on_packet_built

    def fail_at_epoch_2(self, epoch):
        if epoch == 2:
            raise RuntimeError("handler failed")
        built(self, epoch)

    monkeypatch.setattr(netsim.Simulator, "_on_packet_built", fail_at_epoch_2)
    with pytest.raises(RuntimeError, match="handler failed"):
        finished_run(FRAUD)
    assert forked == [1]
    _assert_no_child()


def test_building_a_simulator_forks_nothing(forked):
    netsim.Simulator(FRAUD)
    assert forked == []
    _assert_no_child()


@pytest.mark.parametrize("call", ["fork", "pipe"])
def test_failed_fork_scores_in_process(forked, monkeypatch, in_process_trace, call):
    failed = []

    def fail():
        failed.append(call)
        raise OSError(f"{call} unavailable")

    monkeypatch.setattr(os, call, fail)
    assert finished_run(FRAUD).text == in_process_trace
    assert failed == [call]
    assert sig.counters() == sig.Counters(signs=390, real_verifies=0, memo_hits=270)


def test_scorer_that_dies_early_leaves_the_rest_in_process(forked, monkeypatch, in_process_trace):
    counts = split(monkeypatch)
    stop_child_at(monkeypatch, 3 * FRAUD.registry_size, _die)  # at epoch 3's first proof
    assert finished_run(FRAUD).text == in_process_trace
    assert forked == [1]
    assert counts["piped"] <= 3 * FRAUD.registry_size
    assert counts["signed"] + counts["piped"] == PROOFS
    assert sig.counters() == sig.Counters(signs=390, real_verifies=0, memo_hits=270)
    _assert_no_child()


def test_loop_signs_every_proof_while_the_scorer_sleeps(forked, monkeypatch, in_process_trace):
    counts = split(monkeypatch)
    stop_child_at(monkeypatch, 0, lambda: time.sleep(60))
    draw, child_at_draw = netsim.Simulator._on_committee_draw, []

    def note_child_then_draw(self, epoch):
        try:  # reaps nothing here: the sleeping child is alive or gone
            child_at_draw.append(os.waitpid(-1, os.WNOHANG) == (0, 0))
        except ChildProcessError:
            child_at_draw.append(False)
        draw(self, epoch)

    monkeypatch.setattr(netsim.Simulator, "_on_committee_draw", note_child_then_draw)
    started = time.perf_counter()
    assert finished_run(FRAUD).text == in_process_trace
    assert time.perf_counter() - started < 30  # the sleeping scorer was killed, not awaited
    assert counts == {"signed": PROOFS, "piped": 0}
    # epoch 0's draw forked the child, which slept through every later draw
    assert child_at_draw == [False] + [True] * (FRAUD.epochs - 1)
    assert sig.counters() == sig.Counters(signs=390, real_verifies=0, memo_hits=270)
    assert forked == [1]
    _assert_no_child()


@pytest.mark.parametrize("cap", [None, 100, 37])
def test_ends_meet_inside_an_epoch(forked, monkeypatch, in_process_trace, cap):
    # the child writes the first 133 proofs and sleeps; the loop signs the
    # last 17 of epoch 2, which takes its first 33 from the pipe, and epochs
    # 3, 4 and 5.  A read of at most ``cap`` bytes may end inside a proof.
    counts = split(monkeypatch, piped=133)
    read = os.read
    monkeypatch.setattr(os, "read", lambda fd, n: read(fd, min(n, cap or n)))
    assert finished_run(FRAUD).text == in_process_trace
    assert counts == {"signed": PROOFS - 133, "piped": 133}
    assert sig.counters() == sig.Counters(signs=390, real_verifies=0, memo_hits=270)
    _assert_no_child()


def test_forked_run_memory_does_not_follow_the_epoch_count(forked, monkeypatch):
    # with the child asleep the loop signs every proof, and keeps none past
    # the draw that uses it
    stop_child_at(monkeypatch, 0, lambda: time.sleep(60))
    config = SMALL._replace(registry_size=20, committee_size=5, quorum=3)
    peaks = [
        _traced_peak(null_sink_run, config._replace(epochs=epochs))
        for epochs in (240, 960)
    ]
    assert abs(peaks[1] - peaks[0]) < 2**19
    _assert_no_child()


def test_registry_wider_than_the_pipe_meets_a_late_child(forked, monkeypatch):
    # an epoch of 1,100 proofs is more than a 64 KiB pipe holds: a child that
    # wakes behind the loop says how far its zeros reach before it writes
    # them, so the loop drains them and the child catches up
    wide = FRAUD._replace(registry_size=1_100, epochs=40)
    proofs = wide.epochs * wide.registry_size
    with monkeypatch.context() as patch:
        patch.setattr(netsim, "SCORER_MIN_SIGNS", proofs + 1)
        in_process = finished_run(wide).text
    counts = split(monkeypatch)
    stop_child_at(monkeypatch, 0, lambda: time.sleep(0.3))
    assert finished_run(wide).text == in_process
    assert forked == [1]
    assert counts["piped"] >= proofs // 10
    assert counts["signed"] + counts["piped"] == proofs
    _assert_no_child()


def test_epoch_count_beyond_64_bits_forks_its_scorer(forked):
    # the shared words hold only what the run has reached
    records = netsim.Simulator(ScenarioConfig(epochs=10**20)).epochs()
    with contextlib.closing(records):
        assert next(records).epoch == 0
        assert forked == [1]
    _assert_no_child()


def test_no_proof_is_signed_twice_in_the_loop(forked, monkeypatch, in_process_trace):
    counts = split(monkeypatch)
    assert finished_run(FRAUD).text == in_process_trace
    assert counts["signed"] + counts["piped"] == PROOFS
    _assert_no_child()


def test_run_with_other_threads_does_not_fork(forked, in_process_trace):
    release = threading.Event()
    waiter = threading.Thread(target=release.wait)
    waiter.start()
    try:
        assert finished_run(FRAUD).text == in_process_trace
    finally:
        release.set()
        waiter.join(timeout=10)
    assert not waiter.is_alive()
    assert forked == []
