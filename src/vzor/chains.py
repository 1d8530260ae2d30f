"""Destination chains as packet-verifying state machines.

Each chain runs the packet verifier at a fixed, size-independent gas
cost taken from a per-chain lookup table and returns each verdict as a
receipt.  A packet has one verdict: the first chain checks it, the others
read the verdict it stored (see :func:`vzor.proofs.verify`), and every
chain charges its own gas.  Gas is a table model, not metered execution:
each operation kind costs a constant whatever the packet or committee.
A rejection is only reported in its receipt; watchers relay it to the hub.

Time is integer simulated milliseconds throughout.  Blocks are not
produced one by one; only the inclusion and finality rule is modelled.
Block h closes at h * block_time, so a transaction arriving at time T
lands in the first block at or after T (height at least 1), and its
verdict becomes final ``finality_blocks`` block times after arrival.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import UnknownOperation
from .oracle import AggregationParams
from .packets import OraclePacket
from .proofs import verify
from .vrf import Committee

OP_VERIFY = "verify_proof"
OP_FRAUD = "submit_fraud"
OP_GOVERNANCE = "governance_update"
REQUIRED_OPS = (OP_VERIFY, OP_FRAUD, OP_GOVERNANCE)

GAS_CEILING = 300_000  # hard per-call budget for on-chain proof verification


@dataclass(frozen=True)
class ChainConfig:
    """Static parameters of one destination chain."""

    chain_id: str
    kind: str  # "l1" or "l2"
    block_time_seconds: float
    finality_blocks: int
    gas_table: dict[str, int]

    def __post_init__(self) -> None:
        if not self.chain_id:
            raise ValueError("chain id must be non-empty")
        if self.kind not in ("l1", "l2"):
            raise ValueError("chain kind must be 'l1' or 'l2'")
        if self.block_time_seconds <= 0:
            raise ValueError("block time must be positive")
        if self.finality_blocks < 1:
            raise ValueError("finality must be at least one block")
        missing = [op for op in REQUIRED_OPS if op not in self.gas_table]
        if missing:
            raise ValueError(f"gas table missing operations: {missing}")
        for op, cost in self.gas_table.items():
            if cost < 0:
                raise ValueError(f"negative gas cost for {op}")
        if self.gas_table[OP_VERIFY] > GAS_CEILING:
            raise ValueError(
                f"verify gas {self.gas_table[OP_VERIFY]} exceeds ceiling {GAS_CEILING}"
            )

    @property
    def block_time_ms(self) -> int:
        return round(self.block_time_seconds * 1000)

    @property
    def finality_ms(self) -> int:
        return self.finality_blocks * self.block_time_ms


def sepolia() -> ChainConfig:
    """L1 testnet profile: 15 s blocks, single-block finality."""
    return ChainConfig(
        chain_id="sepolia",
        kind="l1",
        block_time_seconds=15.0,
        finality_blocks=1,
        gas_table={OP_VERIFY: 296_112, OP_FRAUD: 52_341, OP_GOVERNANCE: 38_220},
    )


def scroll() -> ChainConfig:
    """L2 rollup profile: 2 s blocks, single-block finality."""
    return ChainConfig(
        chain_id="scroll",
        kind="l2",
        block_time_seconds=2.0,
        finality_blocks=1,
        gas_table={OP_VERIFY: 88_029, OP_FRAUD: 17_904, OP_GOVERNANCE: 11_706},
    )


CHAIN_PRESETS = {"sepolia": sepolia, "scroll": scroll}


@dataclass(frozen=True)
class Receipt:
    """Finalized outcome of one packet submission on one chain."""

    chain_id: str
    accepted: bool
    reason: str  # "ok" or the first failed check, see VerifyResult.reason
    gas_used: int
    block: int  # inclusion height
    final_ms: int  # simulated time at which the verdict is final


@dataclass
class Chain:
    """Mutable runtime state of one destination chain.

    Single-owner: mutated only by the simulation event loop.
    """

    config: ChainConfig
    gas_by_op: dict[str, int] = field(default_factory=dict)

    @property
    def chain_id(self) -> str:
        return self.config.chain_id

    def charge(self, op_kind: str) -> int:
        if op_kind not in self.config.gas_table:
            raise UnknownOperation(f"chain {self.chain_id} has no operation {op_kind!r}")
        cost = self.config.gas_table[op_kind]
        self.gas_by_op[op_kind] = self.gas_by_op.get(op_kind, 0) + cost
        return cost

    def _inclusion_height(self, now_ms: int) -> int:
        bt = self.config.block_time_ms
        return max(1, -(-now_ms // bt))

    def submit_packet(
        self, packet: OraclePacket, committee: Committee, params: AggregationParams, now_ms: int
    ) -> Receipt:
        """Verify a packet on-chain and finalize the verdict.

        Charges the constant verify gas whether or not the packet is
        accepted, on every submission and every chain, also where the
        verdict is the one the packet stored at an earlier check.
        """
        gas = self.charge(OP_VERIFY)
        result = verify(packet, committee, params)
        return Receipt(
            chain_id=self.chain_id,
            accepted=result.accepted,
            reason=result.reason(),
            gas_used=gas,
            block=self._inclusion_height(now_ms),
            final_ms=now_ms + self.config.finality_ms,
        )
