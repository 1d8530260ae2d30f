"""Property test: small valid scenarios run, verify and conserve stake.

Slash cuts up to 1.5x the 32 ETH stake are drawn on purpose: they empty
stakes mid-run, shrink the active set below the committee size, and make a
cut take less than its full amount.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from vzor import netsim
from vzor.scenario import BEHAVIORS, ScenarioConfig
from vzor.trace import render_trace, verify_trace_text

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
    trace = netsim.run(config)
    check = verify_trace_text(render_trace(trace))
    assert check.exit_code == 0, check.problems
    assert trace.final_total + trace.final_burned == trace.initial_total
    for record in trace.records:
        assert record.ledger_total + record.ledger_burned == trace.initial_total
    assert netsim.check_liveness(trace).ok


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
