"""Exact operation counts of short fixed-seed runs.

Counts repeat exactly for a fixed scenario, so a change that adds crypto
work, digests or events shows here as a changed number, not as noise in
a wall-clock benchmark.  Each figure covers one whole `netsim.run`:
setup (key generation) and the event loop, which makes each pulse and
truth value as the clock reaches it.
"""

import dataclasses
import functools
import os
import sys

import pytest

from vzor import cli, encoding, netsim, proofs, sig
from vzor.hub import GovernedParams, Hub
from vzor.scenario import GovernanceItem, ScenarioConfig, canonical_text
from vzor.trace import render_trace, verify_trace_text

HONEST = ScenarioConfig(seed=3, epochs=6)
FRAUD = ScenarioConfig(
    seed=3, epochs=6, adversary_behavior="wrong_median_packet", fraud_period=2
)

# Per epoch: 65 signs (50 VRF proofs, 15 observations signed in the draw)
# and 45 memo hits (15 committee VRF proofs, 15 observations at packet build
# and 15 witness signatures at the first chain's verify; the second chain and
# the hub's re-verification read the packet's stored verdict).  No signature
# needs a real verify.  An honest epoch takes 5 events: pulse, draw, build
# and one delivery per chain.
EXPECTED = {
    "honest": {
        "signs": 390,
        "real_verifies": 0,
        "memo_hits": 270,
        "digests": 680,
        "events": {
            "_on_committee_draw": 6,
            "_on_packet_built": 6,
            "_on_packet_delivered": 12,
            "_on_pulse": 6,
        },
    },
    "fraud": {
        "signs": 390,
        "real_verifies": 0,
        "memo_hits": 270,
        "digests": 905,
        "events": {
            "_on_committee_draw": 6,
            "_on_fraud_relayed": 6,
            "_on_packet_built": 6,
            "_on_packet_delivered": 12,
            "_on_pulse": 6,
            "_on_slash_applied": 3,
        },
    },
}


def _count_run(config, monkeypatch):
    monkeypatch.delenv(sig.REAL_VERIFY_ENV, raising=False)
    sig.reset()
    counts = {"digests": 0, "events": {}}

    def count_digest(fn):
        @functools.wraps(fn)
        def wrapper(*args):
            counts["digests"] += 1
            return fn(*args)

        return wrapper

    def count_event(name, fn):
        @functools.wraps(fn)
        def wrapper(self, *args):
            counts["events"][name] = counts["events"].get(name, 0) + 1
            return fn(self, *args)

        return wrapper

    original = encoding.tagged_digest
    # patch every vzor module that binds tagged_digest under its own name
    for name, module in list(sys.modules.items()):
        if name.startswith("vzor") and getattr(module, "tagged_digest", None) is original:
            monkeypatch.setattr(module, "tagged_digest", count_digest(original))
    for name, fn in list(vars(netsim.Simulator).items()):
        if name.startswith("_on_"):
            monkeypatch.setattr(netsim.Simulator, name, count_event(name, fn))
    netsim.run(config)
    done = sig.counters()
    sig.reset()
    return {
        "signs": done.signs,
        "real_verifies": done.real_verifies,
        "memo_hits": done.memo_hits,
        "digests": counts["digests"],
        "events": dict(sorted(counts["events"].items())),
    }


@pytest.mark.parametrize("name, config", [("honest", HONEST), ("fraud", FRAUD)])
def test_operation_counts_are_pinned(name, config, monkeypatch):
    assert _count_run(config, monkeypatch) == EXPECTED[name]


@pytest.mark.parametrize("name, config", [("honest", HONEST), ("fraud", FRAUD)])
def test_forked_scorer_gives_the_pinned_counts_and_trace(name, config, monkeypatch):
    # these runs are below SCORER_MIN_SIGNS and score in-process; with the
    # constant at 0 they sign their VRF proofs in a forked scorer instead
    in_process = render_trace(netsim.run(config))
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    monkeypatch.setattr(netsim, "SCORER_MIN_SIGNS", 0)
    assert _count_run(config, monkeypatch) == EXPECTED[name]
    assert len(forks) == 1
    text = render_trace(netsim.run(config))
    assert text == in_process
    assert verify_trace_text(text).exit_code == 0
    assert len(forks) == 3  # the second run and the replay fork one scorer each


@pytest.mark.parametrize("config", [HONEST, FRAUD], ids=["honest", "fraud"])
def test_one_merkle_tree_per_packet(config, monkeypatch):
    # prove builds the witness's tree; the chains' verifies, the watcher's
    # inclusion proofs and the hub's re-check read it (2.5 trees per packet
    # on the fraud run before the tree was kept on the witness)
    trees, packets = [], []
    levels, build = proofs._levels, netsim.build_packet
    monkeypatch.setattr(proofs, "_levels", lambda witness: trees.append(1) or levels(witness))
    monkeypatch.setattr(netsim, "build_packet", lambda *a, **kw: packets.append(1) or build(*a, **kw))
    text = render_trace(netsim.run(config))
    assert len(trees) == len(packets) == config.epochs
    trees.clear()
    packets.clear()
    assert verify_trace_text(text).exit_code == 0  # the replay builds its own
    assert len(trees) == len(packets) == config.epochs


# 30 slash-cut updates, two at each of epochs 0-14: ties and a change mid-run
SCHEDULE = tuple(GovernanceItem("s_cut", (16 + i) * 10**16, i // 2) for i in range(30))


@pytest.mark.parametrize("epochs", [24, 48])
def test_governance_schedule_is_applied_once_per_hub(epochs, monkeypatch):
    # a run and verify-trace each build one hub, validate's, which the
    # simulator keeps, and apply each update there once; neither count
    # follows the epoch count
    config = dataclasses.replace(HONEST, epochs=epochs, governance=SCHEDULE)
    calls = []
    with_update = GovernedParams.with_update
    monkeypatch.setattr(
        GovernedParams, "with_update", lambda *args: calls.append(1) or with_update(*args)
    )
    text = render_trace(netsim.run(config))
    assert len(calls) == len(SCHEDULE)
    calls.clear()
    assert verify_trace_text(text).exit_code == 0
    assert len(calls) == len(SCHEDULE)


def test_each_command_builds_one_hub_per_run(tmp_path, monkeypatch):
    # run, verify-trace and each sweep value: the hub validate returns is
    # the one the simulator runs and the trace head reads
    scenario = tmp_path / "scenario.txt"
    scenario.write_text(canonical_text(dataclasses.replace(HONEST, governance=SCHEDULE)))
    hubs = []
    init = Hub.__init__
    monkeypatch.setattr(Hub, "__init__", lambda *a, **kw: hubs.append(1) or init(*a, **kw))
    for argv, built in [
        (["run", "--config", str(scenario), "--out", str(tmp_path / "run")], 1),
        (["verify-trace", str(tmp_path / "run" / "trace.txt")], 1),
        (["sweep", "--config", str(scenario), "--param", "n", "--values", "12,15",
          "--out", str(tmp_path / "sweep")], 2),
    ]:
        hubs.clear()
        assert cli.main(argv) == 0
        assert len(hubs) == built, argv[0]
