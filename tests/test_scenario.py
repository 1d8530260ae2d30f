import pytest
from hypothesis import given
from hypothesis import strategies as st

from vzor.errors import ConfigError, InvalidScenario
from vzor.hub import Hub
from vzor.scenario import (
    BEHAVIORS,
    GovernanceItem,
    ScenarioConfig,
    canonical_text,
    load_config,
    parse_config,
)


def test_defaults_are_valid():
    config = ScenarioConfig()
    config.validate()
    assert config.epochs == 480
    assert config.epoch_interval_ms == 30_000
    assert config.t_prove_ms == 830
    assert config.chains == ("sepolia", "scroll")
    assert config.slash_cut_wei == 150_000_000_000_000_000


def test_empty_text_gives_defaults():
    assert parse_config("") == ScenarioConfig()
    assert parse_config("# only a comment\n\n") == ScenarioConfig()


def test_parse_overrides():
    config = parse_config(
        """
        seed = 7
        epochs = 12
        adversary_behavior = withhold
        adversary_count = 5
        chains = scroll
        slash_cut_eth = 0.3
        delta_net_max_s = 1.5
        governance = f_min:12@3;s_cut:0.2@5
        """
    )
    assert config.seed == 7
    assert config.epochs == 12
    assert config.adversary_behavior == "withhold"
    assert config.chains == ("scroll",)
    assert config.slash_cut_wei == 300_000_000_000_000_000
    assert config.delta_net_max_s == 1.5
    assert config.governance == (
        GovernanceItem("f_min", 12, 3),
        GovernanceItem("s_cut", 200_000_000_000_000_000, 5),
    )


def test_parse_rejects_unknown_key():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("epochss = 10")


def test_parse_rejects_duplicate_key():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("seed = 1\nseed = 2")


def test_parse_rejects_bad_values():
    with pytest.raises(ConfigError):
        parse_config("epochs = twelve")
    with pytest.raises(ConfigError):
        parse_config("seed 7")
    with pytest.raises(ConfigError):
        parse_config("governance = f_min=12@3")
    with pytest.raises(ConfigError):
        parse_config("slash_cut_eth = 0.0000000000000000001")


def test_canonical_round_trip_is_fixpoint():
    config = parse_config(
        "seed = 9\nadversary_behavior = wrong_median_packet\nadversary_count = 3\n"
        "governance = n:21@4;S_min:2@6"
    )
    echo = canonical_text(config)
    assert parse_config(echo) == config
    assert canonical_text(parse_config(echo)) == echo


def test_load_config(tmp_path):
    path = tmp_path / "scenario.txt"
    path.write_text("seed = 11\nepochs = 5\n")
    config = load_config(str(path))
    assert (config.seed, config.epochs) == (11, 5)


def test_behaviors_enumeration():
    assert BEHAVIORS == ("honest", "wrong_value", "wrong_median_packet", "withhold")


@pytest.mark.parametrize(
    "overrides",
    [
        {"seed": -1},
        {"seed": 2**64},
        {"epochs": 0},
        {"epoch_interval_s": 0.0},
        {"quorum": 0},
        {"quorum": 16},  # above committee size
        {"committee_size": 51},  # above registry size
        {"chains": ()},
        {"chains": ("sepolia", "sepolia")},
        {"chains": ("mainnet",)},
        {"value_base": 0},
        {"value_walk_max": -1},
        {"delta_net_min_s": -0.5},
        {"delta_net_min_s": 3.0},  # above the max
        {"t_prove_s": -0.1},
        {"adversary_behavior": "fuzzy"},
        {"adversary_count": 51},
        {"adversary_count": -1},
        {"fraud_period": 0},
        {"min_stake_wei": 0},
        {"initial_stake_wei": 1},  # below the registration minimum
        {"governance_delay_epochs": -1},
        {"governance": (GovernanceItem("tau", 1, 0),)},
        {"governance": (GovernanceItem("f_min", 0, 0),)},
        {"governance": (GovernanceItem("f_min", 16, 0),)},  # above committee size
        {"governance": (GovernanceItem("n", 9, 0),)},  # below quorum
        {"governance": (GovernanceItem("f_min", 12, -1),)},
    ],
)
def test_validate_rejects(overrides):
    config = ScenarioConfig()._replace(**overrides)
    with pytest.raises(InvalidScenario):
        config.validate()


def test_governance_timeline_composes():
    # n grows first, then the quorum can follow it up
    config = ScenarioConfig()._replace(
        governance=(GovernanceItem("n", 21, 2), GovernanceItem("f_min", 16, 4)),
    )
    config.validate()
    # out of order the quorum update lands before n has grown
    config = ScenarioConfig()._replace(
        governance=(GovernanceItem("f_min", 16, 2), GovernanceItem("n", 21, 4)),
    )
    with pytest.raises(InvalidScenario):
        config.validate()


@pytest.mark.parametrize(
    "governance",
    [
        (GovernanceItem("n", 9, 3), GovernanceItem("f_min", 8, 3)),
        (GovernanceItem("f_min", 8, 3), GovernanceItem("n", 9, 3)),
    ],
)
def test_same_epoch_updates_are_checked_together(governance):
    # both orders give f_min = 8, n = 9 from epoch 5 on; the bounds are
    # checked once the epoch's updates are all in, not after each one
    config = ScenarioConfig()._replace(governance=governance)
    params = config.validate().effective_params(5)
    assert (params.f_min, params.n) == (8, 9)


@given(
    governance=st.lists(
        st.builds(
            GovernanceItem,
            parameter=st.sampled_from(("f_min", "n")),
            value=st.integers(1, 24),
            at_epoch=st.integers(0, 5),
        ),
        max_size=4,
    ),
    delay=st.integers(0, 3),
)
def test_validate_rejects_exactly_the_hubs_broken_epochs(governance, delay):
    # the bounds must hold at every epoch of the timeline the run's hub applies
    config = ScenarioConfig()._replace(
        registry_size=20,
        governance_delay_epochs=delay,
        governance=tuple(governance),
    )
    hub = Hub(config.genesis_governed(), delay)
    for item in governance:
        hub.propose_update(item.parameter, item.value, item.at_epoch)
    broken = any(
        not 1 <= p.f_min <= p.n <= config.registry_size
        for p in map(hub.effective_params, range(5 + delay + 1))
    )
    if broken:
        with pytest.raises(InvalidScenario):
            config.validate()
    else:
        config.validate()


def test_controlled_ids():
    config = ScenarioConfig()._replace(adversary_count=5)
    assert config.controlled_ids() == frozenset(range(5))
    assert ScenarioConfig().controlled_ids() == frozenset()


def test_genesis_governed_mirrors_config():
    config = ScenarioConfig()
    governed = config.genesis_governed()
    assert governed.f_min == config.quorum
    assert governed.n == config.committee_size
    assert governed.s_cut == config.slash_cut_wei
    assert governed.s_min == config.min_stake_wei
    agg = config.aggregation_params(governed)
    assert (agg.quorum, agg.committee_size) == (10, 15)
    assert (agg.value_min, agg.value_max) == (config.value_min, config.value_max)
