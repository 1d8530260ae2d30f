"""Scenario configuration: a flat key = value file describing one run.

Every knob of a simulation lives here so that (file, seed) fully
determines the output.  ``parse_config`` and ``canonical_text`` round
trip: the canonical echo written next to each run's outputs parses back
into an identical scenario.

Stake and slash amounts are written in ETH (decimal text) and held
internally in integer wei.  Governance updates are scheduled as
``param:value@epoch`` items; governed amounts (s_cut, S_min) also use
ETH text.
"""

from __future__ import annotations

import math
from decimal import InvalidOperation
from typing import Any, Callable, NamedTuple

from .chains import CHAIN_PRESETS
from .errors import ConfigError, InvalidScenario
from .hub import (
    DEFAULT_GOVERNANCE_DELAY, DEFAULT_MIN_STAKE, DEFAULT_SLASH_CUT, GOVERNED_PARAMETERS,
    GovernedParams, Hub, eth_to_wei, wei_to_eth_text,
)
from .oracle import AggregationParams

BEHAVIORS = ("honest", "wrong_value", "wrong_median_packet", "withhold")
# building a Simulator of 100,000 reporters peaks at about 97 MiB of RSS, some
# 0.76 KB a reporter (2-vCPU Xeon, read with os.wait4), before its first epoch
MAX_REGISTRY_SIZE = 100_000


class GovernanceItem(NamedTuple):
    parameter: str
    value: int  # wei for s_cut / S_min, plain count for f_min / n
    at_epoch: int


class ScenarioConfig(NamedTuple):
    seed: int = 42
    epochs: int = 480
    epoch_interval_s: float = 30.0
    registry_size: int = 50
    committee_size: int = 15
    quorum: int = 10
    value_min: int = 1
    value_max: int = 10**12
    value_base: int = 200_000_000_000
    value_walk_max: int = 100_000_000
    noise_max: int = 1_000_000
    delta_net_min_s: float = 0.1
    delta_net_max_s: float = 2.0
    t_prove_s: float = 0.83
    chains: tuple[str, ...] = ("sepolia", "scroll")
    adversary_behavior: str = "honest"
    adversary_count: int = 0
    fraud_period: int = 60
    initial_stake_wei: int = 32 * 10**18
    min_stake_wei: int = DEFAULT_MIN_STAKE
    slash_cut_wei: int = DEFAULT_SLASH_CUT
    governance_delay_epochs: int = DEFAULT_GOVERNANCE_DELAY
    governance: tuple[GovernanceItem, ...] = ()

    # -- derived views ---------------------------------------------------------

    @property
    def epoch_interval_ms(self) -> int:
        return round(self.epoch_interval_s * 1000)

    @property
    def delta_net_min_ms(self) -> int:
        return round(self.delta_net_min_s * 1000)

    @property
    def delta_net_max_ms(self) -> int:
        return round(self.delta_net_max_s * 1000)

    @property
    def t_prove_ms(self) -> int:
        return round(self.t_prove_s * 1000)

    def controlled_ids(self) -> frozenset[int]:
        # adversary controls the first b reporter ids
        return frozenset(range(self.adversary_count))

    def genesis_governed(self) -> GovernedParams:
        return GovernedParams(
            f_min=self.quorum,
            s_cut=self.slash_cut_wei,
            n=self.committee_size,
            s_min=self.min_stake_wei,
        )

    def aggregation_params(self, governed: GovernedParams) -> AggregationParams:
        return AggregationParams(
            quorum=governed.f_min,
            committee_size=governed.n,
            value_min=self.value_min,
            value_max=self.value_max,
        )

    # -- validation -------------------------------------------------------------

    def validate(self) -> Hub:
        """The hub a run starts from, every reporter staked and every item
        proposed; raise InvalidScenario on any cross-field inconsistency."""
        if not 0 <= self.seed < 2**64:
            raise InvalidScenario("seed must fit in 64 bits")
        if self.epochs < 1:
            raise InvalidScenario("need at least one epoch")
        for key in ("epoch_interval_s", "delta_net_min_s", "delta_net_max_s", "t_prove_s"):
            if not math.isfinite(getattr(self, key)):
                raise InvalidScenario(f"{key} must be a finite number of seconds")
        if self.epoch_interval_ms < 1:
            raise InvalidScenario("epoch interval must be at least 1 ms")
        if not 1 <= self.quorum <= self.committee_size <= self.registry_size:
            raise InvalidScenario(
                f"need 1 <= quorum ({self.quorum}) <= committee ({self.committee_size})"
                f" <= registry ({self.registry_size})"
            )
        if self.registry_size > MAX_REGISTRY_SIZE:
            raise InvalidScenario(f"registry_size must be at most {MAX_REGISTRY_SIZE}")
        if not self.chains:
            raise InvalidScenario("need at least one destination chain")
        if len(set(self.chains)) != len(self.chains):
            raise InvalidScenario("duplicate chain ids")
        for chain in self.chains:
            if chain not in CHAIN_PRESETS:
                raise InvalidScenario(f"unknown chain profile {chain!r}")
        # values are signed 64-bit, and a lying aggregator claims median + 1
        if self.value_min < -(2**63) or self.value_max > 2**63 - 2:
            raise InvalidScenario("value range must lie within [-2^63, 2^63 - 2]")
        if not self.value_min <= self.value_base <= self.value_max:
            raise InvalidScenario("value_base outside [value_min, value_max]")
        if self.value_walk_max < 0 or self.noise_max < 0:
            raise InvalidScenario("walk and noise bounds must be non-negative")
        if not 0 <= self.delta_net_min_s <= self.delta_net_max_s:
            raise InvalidScenario("need 0 <= delta_net_min <= delta_net_max")
        if self.t_prove_s < 0:
            raise InvalidScenario("proving time cannot be negative")
        if self.adversary_behavior not in BEHAVIORS:
            raise InvalidScenario(f"unknown adversary behavior {self.adversary_behavior!r}")
        if not 0 <= self.adversary_count <= self.registry_size:
            raise InvalidScenario("adversary count must fit in the registry")
        if self.fraud_period < 1:
            raise InvalidScenario("fraud period must be at least 1")
        if self.min_stake_wei < 1 or self.slash_cut_wei < 1:
            raise InvalidScenario("stake minimum and slash cut must be positive")
        if self.initial_stake_wei < self.min_stake_wei:
            raise InvalidScenario("initial stake below registration minimum")
        if self.governance_delay_epochs < 0:
            raise InvalidScenario("governance delay cannot be negative")
        for item in self.governance:
            if item.parameter not in GOVERNED_PARAMETERS:
                raise InvalidScenario(f"{item.parameter!r} is not governed")
            if item.at_epoch < 0:
                raise InvalidScenario("governance proposals need a non-negative epoch")
            if item.value < 1:
                raise InvalidScenario("governed values must be positive")
        hub = Hub(genesis=self.genesis_governed(), governance_delay=self.governance_delay_epochs)
        for rid in range(self.registry_size):
            hub.register(rid, self.initial_stake_wei, at_epoch=0)
        for item in self.governance:
            hub.propose_update(item.parameter, item.value, item.at_epoch)
        # check the bounds on that hub, once each epoch's updates all apply
        for update in hub.updates:
            governed = hub.effective_params(update.effective_epoch)
            if not 1 <= governed.f_min <= governed.n <= self.registry_size:
                at_epoch = update.effective_epoch - hub.governance_delay
                raise InvalidScenario(
                    f"governance at epoch {at_epoch} breaks quorum/committee bounds"
                )
        return hub


# -- text format ----------------------------------------------------------------


def _parse_governance_value(parameter: str, text: str) -> int:
    if parameter in ("s_cut", "S_min"):
        return eth_to_wei(text)
    return int(text)


def _governance_value_text(parameter: str, value: int) -> str:
    if parameter in ("s_cut", "S_min"):
        return wei_to_eth_text(value)
    return str(value)


def _parse_governance(text: str) -> tuple[GovernanceItem, ...]:
    items = []
    for piece in text.split(";"):
        piece = piece.strip()
        if not piece:
            continue
        try:
            head, at_text = piece.rsplit("@", 1)
            parameter, value_text = head.split(":", 1)
            items.append(
                GovernanceItem(
                    parameter=parameter.strip(),
                    value=_parse_governance_value(parameter.strip(), value_text.strip()),
                    at_epoch=int(at_text),
                )
            )
        except (ValueError, InvalidOperation) as exc:
            raise ConfigError(f"bad governance item {piece!r}: {exc}") from exc
    return tuple(items)


def _governance_text(items: tuple[GovernanceItem, ...]) -> str:
    return ";".join(
        f"{item.parameter}:{_governance_value_text(item.parameter, item.value)}@{item.at_epoch}"
        for item in items
    )


def _parse_chains(text: str) -> tuple[str, ...]:
    return tuple(c.strip() for c in text.split(",") if c.strip())


def _codec(name: str) -> tuple[str, tuple[str, Callable[[str], Any], Callable[[Any], str]]]:
    """(file key, (field name, parse, render)) for one ScenarioConfig field,
    parsed as the type of its default.  Amounts held in wei are written in
    ETH under a ``*_eth`` key."""
    if name == "chains":
        return name, (name, _parse_chains, ",".join)
    if name == "governance":
        return name, (name, _parse_governance, _governance_text)
    if name.endswith("_wei"):
        return name[: -len("_wei")] + "_eth", (name, eth_to_wei, wei_to_eth_text)
    return name, (name, type(ScenarioConfig._field_defaults[name]), str)


# every file key in ScenarioConfig field order, the order canonical_text writes
_KEYS = dict(map(_codec, ScenarioConfig._fields))


def parse_config(text: str) -> ScenarioConfig:
    """Parse the flat key = value format; unknown keys are errors."""
    values: dict[str, Any] = {}
    seen: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in seen:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        seen.add(key)
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        name, parse, _ = _KEYS[key]
        try:
            values[name] = parse(value)
        except (ValueError, InvalidOperation) as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}") from exc
    return ScenarioConfig(**values)


def canonical_text(config: ScenarioConfig) -> str:
    """Full configuration echo, defaults included; parses back identically."""
    lines = ["# effective scenario configuration (all keys explicit)"]
    lines += [
        f"{key} = {render(getattr(config, name))}" for key, (name, _, render) in _KEYS.items()
    ]
    return "\n".join(lines) + "\n"


def load_config(path: str) -> ScenarioConfig:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not UTF-8 text: {exc}") from exc
    return parse_config(text)
