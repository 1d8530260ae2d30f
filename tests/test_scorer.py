"""The forked VRF scorer: it changes no output, falls back to in-process
scoring when it cannot run, and no run leaves its process behind."""

import os
import threading

import pytest

from vzor import netsim, sig
from vzor.scenario import ScenarioConfig
from vzor.trace import render_trace, verify_trace_text

from test_trace import _edit_witness, _swap_signatures

FRAUD = ScenarioConfig(seed=3, epochs=6, adversary_behavior="wrong_median_packet", fraud_period=2)


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


def test_forked_run_is_identical_and_reaped(forked, in_process_trace):
    assert render_trace(netsim.run(FRAUD)) == in_process_trace
    assert forked == [1]
    _assert_no_child()


def test_bad_block_is_caught_before_any_replay(forked, in_process_trace):
    lines = in_process_trace.split("\n")
    start = lines.index("[epoch 1]")
    at = next(i for i in range(start, len(lines)) if lines[i].startswith("e2e_ms"))
    lines[at] = "e2e_ms 1"
    check = verify_trace_text("\n".join(lines))
    assert check.exit_code == 4
    assert check.problems[0].startswith("epoch 1:")
    assert forked == []
    assert sig.counters().signs == 0
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
    assert sig.counters() == sig.Counters(signs=390, real_verifies=0, memo_hits=405)


def test_scorer_that_dies_early_leaves_the_rest_in_process(forked, monkeypatch, in_process_trace):
    message = netsim.sortition_message

    def die_at_epoch_3(pulse, epoch):
        if epoch == 3:
            raise RuntimeError("scorer died")
        return message(pulse, epoch)

    scored_ahead = []
    evaluate = netsim.evaluate_registry

    def record_source(secrets, pulse, epoch, proofs=None):
        scored_ahead.append(proofs is not None)
        return evaluate(secrets, pulse, epoch, proofs)

    # only the scorer signs through netsim's binding; the loop uses vrf's
    monkeypatch.setattr(netsim, "sortition_message", die_at_epoch_3)
    monkeypatch.setattr(netsim, "evaluate_registry", record_source)
    assert render_trace(netsim.run(FRAUD)) == in_process_trace
    assert forked == [1]
    assert scored_ahead == [True] * 3 + [False] * 3
    assert sig.counters() == sig.Counters(signs=390, real_verifies=0, memo_hits=405)
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
