"""The benchmark's correctness checks pass on real outputs and fail on altered ones.

    python3 -m pytest -q bench/test_checks.py

Each workload runs for six epochs through `python -m vzor.cli run`; every
mutation in `checks.MUTATIONS` is then applied to an honest epoch and, on
fraud-n100, to a lying one, and must trip the check it targets.
"""

from __future__ import annotations

import random

import pytest

import checks
import run

EPOCHS = 6
SEED = 11


@pytest.fixture(scope="module", params=sorted(run.WORKLOADS))
def outputs(request, tmp_path_factory):
    name = request.param
    work = tmp_path_factory.mktemp(name)
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(run.WORKLOADS, name, {**run.WORKLOADS[name], "epochs": EPOCHS})
        scenario = run.scenario_for(name, SEED)
        (work / "scenario.txt").write_text(run.scenario_text(name, SEED))
    code, _, _ = run.timed_child(
        ["-m", "vzor.cli", "run", "--config", str(work / "scenario.txt"), "--out", str(work)],
        work / "run.log",
    )
    assert code == 0, (work / "run.log").read_text()
    trace_text = (work / "trace.txt").read_text()
    metrics_text = (work / "metrics.txt").read_text()
    return scenario, checks.Derived(scenario), trace_text, metrics_text


def test_every_check_passes_on_real_outputs(outputs):
    scenario, derived, trace_text, metrics_text = outputs
    everything = frozenset(range(EPOCHS))
    assert checks.check_run(scenario, derived, trace_text, metrics_text, None, everything) == {}
    assert checks.self_test(scenario, derived, trace_text, metrics_text, random.Random(0)) == []


@pytest.mark.parametrize("epoch", [0, 1])
@pytest.mark.parametrize("mutation", checks.MUTATIONS, ids=[m[0] for m in checks.MUTATIONS])
def test_each_mutation_trips_its_check(outputs, mutation, epoch):
    scenario, derived, trace_text, metrics_text = outputs
    _, check, prefix, change = mutation
    altered = checks.edit(trace_text, epoch, prefix, change)
    assert altered != trace_text
    failed = checks.check_run(
        scenario, derived, altered, metrics_text, {epoch}, frozenset({epoch})
    )
    assert check in failed.get(epoch, set())


def test_metrics_file_must_match_the_trace(outputs):
    scenario, derived, trace_text, metrics_text = outputs
    altered = metrics_text.replace("accepted_epochs = ", "accepted_epochs = 1")
    failed = checks.check_run(scenario, derived, trace_text, altered, set(), frozenset())
    assert failed == {checks.GLOBAL: {"metrics"}}
    assert checks.failed_epochs(failed, EPOCHS) == EPOCHS
