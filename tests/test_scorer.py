"""The forked VRF scorer: the loop and the child sign its work list from
both ends, it changes no output, falls back to in-process scoring when it
cannot run, and no run leaves its process behind."""

import dataclasses
import os
import threading
import time

import pytest

from vzor import netsim, sig
from vzor.scenario import ScenarioConfig
from vzor.trace import render_trace, verify_trace_text
from vzor.vrf import SIGNATURE_BYTES

from test_trace import _edit_witness, _flip_signature_bit, _swap_signatures

FRAUD = ScenarioConfig(seed=3, epochs=6, adversary_behavior="wrong_median_packet", fraud_period=2)
PROOFS = FRAUD.epochs * FRAUD.registry_size  # the work list: 300 sortition proofs
SORTITION = b"VZOR/vrf/v1\x00VZOR/sortition/v1\x00"  # every sortition message starts so


@pytest.fixture(scope="module")
def in_process_trace():
    # 6 epochs x 50 reporters is below SCORER_MIN_SIGNS: scored in-process
    return render_trace(netsim.run(FRAUD))


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


def split(monkeypatch, loop_signs=None):
    """Count the sortition proofs this process signs, by any method, and the
    proofs it reads from the scorer's pipe.  With ``loop_signs``, the pipe
    looks empty until the loop has signed that many, and reads wait after."""
    counts = {"signed": 0, "read": 0}
    read = os.read

    def counting(sign):
        def wrapper(self, message):
            counts["signed"] += message.startswith(SORTITION)
            return sign(self, message)

        return wrapper

    def counted_read(fd, size):
        if loop_signs is not None:
            if counts["signed"] < loop_signs:
                raise BlockingIOError
            os.set_blocking(fd, True)
        data = read(fd, size)
        counts["read"] += len(data) / SIGNATURE_BYTES
        return data

    monkeypatch.setattr(sig.Signer, "sign", counting(sig.Signer.sign))
    monkeypatch.setattr(sig.Signer, "sign_unrecorded", counting(sig.Signer.sign_unrecorded))
    monkeypatch.setattr(os, "read", counted_read)
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
    assert render_trace(netsim.run(FRAUD)) == in_process_trace
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
    text = render_trace(netsim.run(dataclasses.replace(FRAUD, epochs=48)))
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
        netsim.run(FRAUD)
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
    assert render_trace(netsim.run(FRAUD)) == in_process_trace
    assert failed == [call]
    assert sig.counters() == sig.Counters(signs=390, real_verifies=0, memo_hits=270)


def test_scorer_that_dies_early_leaves_the_rest_in_process(forked, monkeypatch, in_process_trace):
    counts = split(monkeypatch)
    stop_child_at(monkeypatch, 3 * FRAUD.registry_size, _die)  # at epoch 3's first proof
    assert render_trace(netsim.run(FRAUD)) == in_process_trace
    assert forked == [1]
    assert counts["read"] <= 3 * FRAUD.registry_size
    assert counts["signed"] + counts["read"] == PROOFS
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
    assert render_trace(netsim.run(FRAUD)) == in_process_trace
    assert time.perf_counter() - started < 30  # the sleeping scorer was killed, not awaited
    assert counts == {"signed": PROOFS, "read": 0}
    # epoch 0's draw forked the child, met it and reaped it before epoch 1's
    assert child_at_draw == [False] * FRAUD.epochs
    assert sig.counters() == sig.Counters(signs=390, real_verifies=0, memo_hits=270)
    assert forked == [1]
    _assert_no_child()


def test_ends_meet_inside_an_epoch(forked, monkeypatch, in_process_trace):
    # the loop signs the last 167 proofs: epochs 5, 4 and 3 and the last 17
    # of epoch 2, which takes its first 33 from the pipe
    counts = split(monkeypatch, loop_signs=167)
    assert render_trace(netsim.run(FRAUD)) == in_process_trace
    assert counts == {"signed": 167, "read": PROOFS - 167}
    assert sig.counters() == sig.Counters(signs=390, real_verifies=0, memo_hits=270)
    _assert_no_child()


def test_no_proof_is_signed_twice_in_the_loop(forked, monkeypatch, in_process_trace):
    counts = split(monkeypatch)
    assert render_trace(netsim.run(FRAUD)) == in_process_trace
    assert counts["signed"] + counts["read"] == PROOFS
    _assert_no_child()


def test_run_with_other_threads_does_not_fork(forked, in_process_trace):
    release = threading.Event()
    waiter = threading.Thread(target=release.wait)
    waiter.start()
    try:
        assert render_trace(netsim.run(FRAUD)) == in_process_trace
    finally:
        release.set()
        waiter.join(timeout=10)
    assert not waiter.is_alive()
    assert forked == []
