"""Restaking hub: unified stake ledger, slashing, and delayed governance.

Reporters stake once on the hub and serve every connected chain.  A
watcher that sees a rejected packet submits a fraud proof here; the hub
re-verifies the packet and, if it is indeed invalid, deducts the slash
cut from every accused reporter whose signature provably appears in the
packet's witness.  Slashed funds are burned into an accumulator, so
total stake plus burned amount is conserved exactly.

Stake amounts are integer wei (1 ETH = 10^18 wei); ETH-denominated
config values are converted through Decimal to avoid float dust.
"""

from __future__ import annotations

import math
from bisect import bisect_right, insort
from dataclasses import dataclass, field, replace
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal
from typing import Optional, Union

from .errors import (
    AlreadyRegistered,
    InsufficientStake,
    MalformedFraudProof,
    UnknownParameter,
)
from .oracle import AggregationParams
from .packets import OraclePacket
from .proofs import InclusionProof, WitnessEntry, inclusion_proofs, verify, verify_inclusion
from .vrf import Committee

WEI_PER_ETH = 10**18
MAX_WEI = 2**256 - 1  # the largest amount a uint256 balance holds on chain
# decimal arithmetic that never rounds: amounts convert and echo exactly
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN)

DEFAULT_MIN_STAKE = WEI_PER_ETH  # 1 ETH
DEFAULT_SLASH_CUT = 15 * WEI_PER_ETH // 100  # 0.15 ETH
DEFAULT_GOVERNANCE_DELAY = 2  # epochs between proposal and effect

_GOVERNED_FIELDS = {"f_min": "f_min", "s_cut": "s_cut", "n": "n", "S_min": "s_min"}
GOVERNED_PARAMETERS = tuple(_GOVERNED_FIELDS)


def eth_to_wei(amount: Union[str, int, Decimal]) -> int:
    """Exact ETH -> wei conversion; rejects non-finite amounts, sub-wei
    precision and amounts above MAX_WEI."""
    quantity = Decimal(amount)
    if not quantity.is_finite():
        raise ValueError(f"{amount} ETH is not a finite amount")
    wei = quantity.scaleb(18, _EXACT)
    if wei.copy_abs() > MAX_WEI:
        raise ValueError(f"{amount} ETH is more than 2**256 - 1 wei")
    if wei != wei.to_integral_value(context=_EXACT):
        raise ValueError(f"{amount} ETH is not a whole number of wei")
    return int(wei)


def wei_to_eth_text(wei: int) -> str:
    return str(_EXACT.divide(Decimal(wei), WEI_PER_ETH))


@dataclass(frozen=True)
class GovernedParams:
    """Protocol parameters subject to delayed governance."""

    f_min: int
    s_cut: int  # wei
    n: int
    s_min: int  # wei

    def with_update(self, param: str, value: int) -> "GovernedParams":
        if param not in _GOVERNED_FIELDS:
            raise UnknownParameter(f"{param!r} is not governed")
        return replace(self, **{_GOVERNED_FIELDS[param]: value})


@dataclass(frozen=True)
class GovernanceUpdate:
    parameter: str
    value: int
    effective_epoch: int


@dataclass
class StakeLedger:
    """Reporter stakes in wei plus the burned-funds accumulator."""

    entries: dict[int, int] = field(default_factory=dict)
    burned_total: int = 0

    def register(self, reporter_id: int, stake: int, min_stake: int) -> None:
        if reporter_id in self.entries:
            raise AlreadyRegistered(f"reporter {reporter_id} already registered")
        if stake < min_stake:
            raise InsufficientStake(f"stake {stake} below minimum {min_stake}")
        self.entries[reporter_id] = stake

    def stake_of(self, reporter_id: int) -> int:
        return self.entries.get(reporter_id, 0)

    def is_active(self, reporter_id: int) -> bool:
        # zero-stake reporters are deactivated from future committees
        return self.entries.get(reporter_id, 0) > 0

    def slash(self, reporter_id: int, cut: int) -> int:
        """Deduct up to ``cut``, flooring at zero; returns the amount burned."""
        stake = self.entries.get(reporter_id)
        if stake is None:
            return 0
        taken = min(cut, stake)
        self.entries[reporter_id] = stake - taken
        self.burned_total += taken
        return taken

    def total_staked(self) -> int:
        return sum(self.entries.values())


@dataclass(frozen=True)
class FraudProof:
    """Evidence against one packet: the packet itself plus inclusion
    proofs identifying the accused signatures in its witness."""

    packet: OraclePacket
    committee_epoch: int
    inclusion: tuple[tuple[WitnessEntry, InclusionProof], ...]
    origin_chain: str


def accuse_all_signers(packet: OraclePacket, origin_chain: str) -> FraudProof:
    """Build the fraud proof a watcher submits: every witness signature
    with its Merkle path."""
    witness = packet.witness
    return FraudProof(
        packet=packet,
        committee_epoch=packet.epoch,
        inclusion=tuple(zip(witness.entries, inclusion_proofs(witness))),
        origin_chain=origin_chain,
    )


@dataclass(frozen=True)
class SlashReport:
    """Outcome of one fraud adjudication."""

    epoch: int
    slashed: tuple[int, ...]
    per_reporter_cut: int
    total_cut: int
    rejected_reason: Optional[str] = None


def economic_check(s_cut_wei: int, adversary_gain_wei: int, f_min: int) -> bool:
    """Manipulation is unprofitable iff s_cut strictly exceeds gain / f_min."""
    if f_min < 1:
        raise ValueError("quorum must be at least 1")
    return s_cut_wei * f_min > adversary_gain_wei


def collusion_bound(lam: float, total_honest_stake: float, kappa: int, epochs: int) -> float:
    """Upper bound on the chance of biasing any of ``epochs`` epochs:
    epochs * (exp(-lam * stake) + 2^-kappa), clamped to [0, 1]."""
    if lam < 0 or total_honest_stake < 0:
        raise ValueError("economic parameters must be non-negative")
    if epochs < 1:
        raise ValueError("need at least one epoch")
    raw = epochs * (math.exp(-lam * total_honest_stake) + 2.0 ** -kappa)
    return min(1.0, max(0.0, raw))


class Hub:
    """Single-owner hub state machine: ledger, governance, adjudications.  Its
    governance timeline is rebuilt only at the first read after a proposal."""

    def __init__(self, genesis: GovernedParams, governance_delay: int) -> None:
        if governance_delay < 0:
            raise ValueError("governance delay must be non-negative")
        self.genesis = genesis
        self.governance_delay = governance_delay
        self.ledger = StakeLedger()
        self.updates: list[GovernanceUpdate] = []  # by effective epoch, ties in proposal order
        self._timeline: Optional[list[GovernedParams]] = None  # dropped by each proposal
        self._reports: dict[bytes, SlashReport] = {}

    # -- registration --------------------------------------------------------

    def register(self, reporter_id: int, stake_wei: int, at_epoch: int = 0) -> None:
        self.ledger.register(reporter_id, stake_wei, self.effective_params(at_epoch).s_min)

    # -- governance -----------------------------------------------------------

    def propose_update(self, parameter: str, value: int, at_epoch: int) -> GovernanceUpdate:
        if parameter not in GOVERNED_PARAMETERS:
            raise UnknownParameter(f"{parameter!r} is not in the governed set")
        if value <= 0:
            raise ValueError("governed values must be positive")
        update = GovernanceUpdate(
            parameter=parameter,
            value=value,
            effective_epoch=at_epoch + self.governance_delay,
        )
        insort(self.updates, update, key=lambda u: u.effective_epoch)
        self._timeline = None
        return update

    def timeline(self) -> list[GovernedParams]:
        """The parameters in force at genesis, then after each of ``updates``."""
        if self._timeline is None:
            self._timeline = steps = [self.genesis]
            for update in self.updates:
                steps.append(steps[-1].with_update(update.parameter, update.value))
        return self._timeline

    def effective_params(self, epoch: int) -> GovernedParams:
        """Parameters in force at ``epoch``: the timeline after its updates due by then."""
        return self.timeline()[bisect_right(self.updates, epoch, key=lambda u: u.effective_epoch)]

    # -- adjudication ----------------------------------------------------------

    def adjudicate(
        self, fraud: FraudProof, committee: Committee, params: AggregationParams
    ) -> SlashReport:
        """Apply the slashing rule: a reporter is cut iff the packet fails
        re-verification AND their signature has a verifying inclusion path
        into the packet's witness root.

        Idempotent per packet digest: re-adjudicating the same packet
        returns the original report without touching the ledger.
        """
        if fraud.committee_epoch != fraud.packet.epoch:
            raise MalformedFraudProof(
                f"fraud proof epoch {fraud.committee_epoch} does not match packet "
                f"epoch {fraud.packet.epoch}"
            )
        if not fraud.inclusion:
            raise MalformedFraudProof("fraud proof accuses nobody")

        digest = fraud.packet.digest()
        if digest in self._reports:
            return self._reports[digest]

        cut = self.effective_params(fraud.packet.epoch).s_cut
        fraudulent = not verify(fraud.packet, committee, params).accepted
        root = fraud.packet.proof.witness_root
        slashed: list[int] = []
        total = 0
        for entry, path in fraud.inclusion if fraudulent else ():
            if entry.reporter_id in slashed:
                continue
            if not verify_inclusion(root, entry, path):
                continue  # unproven accusation: skipped, never slashed
            if entry.reporter_id not in self.ledger.entries:
                continue
            total += self.ledger.slash(entry.reporter_id, cut)
            slashed.append(entry.reporter_id)
        report = SlashReport(
            epoch=fraud.packet.epoch,
            slashed=tuple(slashed),
            per_reporter_cut=cut,
            total_cut=total,
            rejected_reason=None if fraudulent else "NotFraud",
        )
        self._reports[digest] = report
        return report

    def snapshot(self) -> tuple[int, int]:
        """(total staked, burned) in wei; their sum is invariant."""
        return self.ledger.total_staked(), self.ledger.burned_total
