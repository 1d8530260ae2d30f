"""Property tests: small valid scenarios run, verify and conserve stake,
and no config text makes the CLI raise.

Slash cuts up to 1.5x the 32 ETH stake are drawn on purpose: they empty
stakes mid-run, shrink the active set below the committee size, and make a
cut take less than its full amount.
"""

import contextlib
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vzor.cli import SWEEPABLE, main
from vzor.errors import ConfigError, InvalidScenario
from vzor.scenario import BEHAVIORS, MAX_REGISTRY_SIZE, ScenarioConfig, canonical_text, parse_config
from vzor.trace import verify_trace_text

from conftest import finished_run

ETH = 10**18


@st.composite
def scenarios(draw, behaviors=BEHAVIORS) -> ScenarioConfig:
    registry = draw(st.integers(2, 24))
    committee = draw(st.integers(1, registry))
    delta_min_ms = draw(st.integers(0, 500))
    return ScenarioConfig(
        seed=draw(st.integers(0, 2**64 - 1)),
        epochs=draw(st.integers(1, 12)),
        # short intervals overlap epochs; long ones let a slash land before the next draw
        epoch_interval_s=draw(st.one_of(st.integers(1, 2_000), st.integers(20_000, 40_000)))
        / 1000,
        registry_size=registry,
        committee_size=committee,
        quorum=draw(st.integers(1, committee)),
        delta_net_min_s=delta_min_ms / 1000,
        delta_net_max_s=draw(st.integers(delta_min_ms, 6_000)) / 1000,
        t_prove_s=draw(st.integers(0, 5_000)) / 1000,
        adversary_behavior=draw(st.sampled_from(behaviors)),
        adversary_count=draw(st.integers(0, registry)),
        fraud_period=draw(st.integers(1, 4)),
        slash_cut_wei=draw(
            st.one_of(st.just(15 * ETH // 100), st.integers(1, 48).map(lambda eth: eth * ETH))
        ),
    )


def _check_run(config: ScenarioConfig) -> None:
    trace = finished_run(config)
    check = verify_trace_text(trace.text)
    assert check.exit_code == 0, check.problems
    initial_total = config.registry_size * config.initial_stake_wei
    assert trace.totals.final_total + trace.totals.final_burned == initial_total
    for record in trace.records:
        assert record.ledger_total + record.ledger_burned == initial_total
    assert trace.liveness.ok


@settings(max_examples=25, derandomize=True, deadline=None)
@given(scenarios())
def test_small_scenarios_run_verify_and_conserve_stake(config):
    _check_run(config)


@settings(max_examples=25, derandomize=True, deadline=None)
@given(scenarios(behaviors=("wrong_median_packet",)))
def test_lying_aggregator_scenarios_run_verify_and_conserve_stake(config):
    # every rejected packet slashes its signers, so these runs exercise
    # emptied stakes, partial cuts and epochs without a committee
    _check_run(config)


# -- the config grammar, fuzzed through the CLI -----------------------------------

# numeric edges, non-finite and odd spellings, empty, non-ASCII and non-UTF-8 text
EXTREMES = (
    str(-(2**63) - 1), str(-(2**63)), str(2**63 - 2), str(2**63 - 1), str(2**63),
    str(2**64), str(10**20), str(-(10**20)), "nan", "inf", "-inf", "Infinity", "1e300",
    "1_000", "0x10", "", "ünïcødé", "\udcff\udcfe",  # the last is the bytes ff fe
)
ORDINARY = ("0", "1", "2", "3", "0.5", "wrong_median_packet", "s_cut:0.3@1", "n:2@0")
VALUES = st.one_of(st.sampled_from(EXTREMES), st.sampled_from(ORDINARY))
# epochs and registry_size stay small so that examples run fast
SMALL_RUN = {"epochs": "3", "registry_size": "6", "committee_size": "4", "quorum": "3"}
FUZZED_KEYS = [
    line.split(" = ")[0]
    for line in canonical_text(ScenarioConfig()).splitlines()[1:]
    if line.split(" = ")[0] not in ("epochs", "registry_size")
] + ["kappa", "valuemax", "ключ"]


def _run_config_lines(lines: list[tuple[str, str]]) -> int:
    """`vzor run` on SMALL_RUN overridden by ``lines``; an exit 0 must verify."""
    entries = dict(SMALL_RUN, **dict(lines))
    with tempfile.TemporaryDirectory() as tmp:
        config = os.path.join(tmp, "scenario.txt")
        with open(config, "wb") as handle:
            text = "".join(f"{k} = {v}\n" for k, v in entries.items())
            handle.write(text.encode("utf-8", "surrogateescape"))
        out = os.path.join(tmp, "out")
        code = main(["run", "--config", config, "--out", out])
        if code == 0:
            assert main(["verify-trace", os.path.join(out, "trace.txt")]) == 0
        return code


def test_every_key_takes_every_extreme():
    # one bad line ends parsing, so each (key, value) pair also runs alone
    for key in FUZZED_KEYS:
        for value in EXTREMES:
            assert _run_config_lines([(key, value)]) in (0, 2, 3), (key, value)


def test_epochs_and_registry_size_take_every_extreme_at_validation():
    # validation only: an accepted value is not run, which might not finish
    for key in ("epochs", "registry_size"):
        for value in EXTREMES + (str(MAX_REGISTRY_SIZE + 1),):
            try:
                config = parse_config(f"{key} = {value}\n")
            except ConfigError:
                continue  # exit 2
            if key == "registry_size" and config.registry_size > MAX_REGISTRY_SIZE:
                with pytest.raises(InvalidScenario, match="registry_size must be at most"):
                    config.validate()
                continue
            with contextlib.suppress(InvalidScenario):  # exit 3
                config.validate()


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(FUZZED_KEYS), VALUES), min_size=1, max_size=3))
def test_config_grammar_never_raises(lines):
    assert _run_config_lines(lines) in (0, 2, 3)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.sampled_from(sorted(SWEEPABLE)), st.lists(VALUES, min_size=1, max_size=3))
def test_sweep_values_never_raise(parameter, values):
    with tempfile.TemporaryDirectory() as tmp:
        config = os.path.join(tmp, "scenario.txt")
        with open(config, "w", encoding="utf-8") as handle:
            handle.write("".join(f"{k} = {v}\n" for k, v in SMALL_RUN.items()))
        # "--values=" keeps argparse from reading a leading "-" as an option
        argv = ["sweep", "--config", config, "--param", parameter,
                "--values=" + ",".join(values), "--out", os.path.join(tmp, "sweep")]
        assert main(argv) in (0, 2, 3)
