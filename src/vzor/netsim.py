"""Deterministic discrete-event simulation of the full epoch lifecycle.

One epoch runs: pulse emission, committee draw, in which each member that
does not withhold signs its observation, packet build after the modeled
proving time, delivery to every destination chain, verification receipts,
and, on rejection, watcher relay plus hub slashing.

All simulated time is integer milliseconds and every random draw comes
from named sub-streams of the single scenario seed, so a (scenario,
seed) pair reproduces byte-identical traces.

Latency accounting: observations close at pulse-time + delta_net_max
(the partial-synchrony deadline), the packet is ready t_prove later,
each chain receives it after its own delay <= delta_net_max, and the
verdict is final tau_f after arrival.  End-to-end latency is therefore
bounded by tau_f_max + delta_net_max + t_prove plus a fixed slack of
one extra delta_net_max for the observation leg.  An observation's own
delay is at most delta_net_max, so each one is in by the build whatever
its delay: the draw hands it to the epoch, with no arrival event.
"""

from __future__ import annotations

import contextlib
import heapq
import mmap
import os
import random
import signal
import threading
from collections import Counter
from typing import Callable, Iterator, NamedTuple, Optional

from . import sig
from .beacon import BeaconParams, Pulse, next_pulse, pulse_value
from .chains import CHAIN_PRESETS, OP_FRAUD, OP_GOVERNANCE, Chain, Receipt
from .encoding import be_u64, tagged_digest
from .errors import QuorumNotMet, RegistryTooSmall
from .hub import GovernanceUpdate, accuse_all_signers
from .oracle import AggregationParams, SignedObservation, median, sign_observation
from .packets import OraclePacket, build_packet
from .scenario import ScenarioConfig
from .vrf import (
    SIGNATURE_BYTES,
    Committee,
    ReporterSecret,
    evaluate_registry,
    select_committee,
    sortition_message,
)

_RNG_TAG = "VZOR/rng/v1"
_KEYSEED_TAG = "VZOR/keyseed/v1"
_BEACON_SEED_TAG = "VZOR/beacon-seed/v1"

# Forking the VRF scorer costs a few ms per run (fork, copy-on-write faults,
# reap), and pays off only once the child signs long enough on the other
# vCPU.  Fresh 50-reporter runs, libsodium signing, 2-vCPU Xeon VM, forked /
# in-process time (medians of 10-16 alternating pairs): 1.33 at 400
# sortition signs, 0.95-1.18 at 1,000-5,500, 0.54-0.98 at 6,000, 0.54-0.61
# at 8,000-24,000.  Runs with fewer sortition signs (epochs x registry_size)
# score in-process.
SCORER_MIN_SIGNS = 6000

_Event = tuple[int, int, Callable[..., None], tuple]  # (fire ms, sequence number, handler, args)


def _stream(seed: int, label: str) -> random.Random:
    """Independent deterministic RNG sub-stream for one component."""
    digest = tagged_digest(_RNG_TAG, be_u64(seed), label.encode("utf-8"))
    return random.Random(int.from_bytes(digest, "big"))


def reporter_key_seed(run_seed: int, reporter_id: int) -> bytes:
    return tagged_digest(_KEYSEED_TAG, be_u64(run_seed), be_u64(reporter_id))


def latency_bound_ms(config: ScenarioConfig) -> int:
    """tau_f_max + delta_net_max + t_prove + slack, slack = delta_net_max."""
    tau_f = max(CHAIN_PRESETS[name]().finality_ms for name in config.chains)
    return tau_f + config.delta_net_max_ms + config.t_prove_ms + config.delta_net_max_ms


class SlashInfo(NamedTuple):
    origin_chain: str
    emitted_ms: int
    applied_ms: int
    latency_ms: int
    slashed: tuple[int, ...]
    per_reporter_cut: int
    total_cut: int


class EpochRecord(NamedTuple):
    epoch: int
    t0_ms: int
    pulse_digest: bytes
    committee: tuple[tuple[int, bytes], ...]  # (reporter_id, public key), ascending id; () if none
    packet_bytes: Optional[bytes]
    median: Optional[int]
    receipts: tuple[Receipt, ...]
    e2e_ms: Optional[int]
    fraud_injected: bool
    slash: Optional[SlashInfo]
    ledger_total: int
    ledger_burned: int

    def committee_ids(self) -> tuple[int, ...]:
        return tuple(rid for rid, _ in self.committee)


class RunTrace(NamedTuple):
    config: ScenarioConfig
    governance_records: tuple[GovernanceUpdate, ...]
    initial_total: int
    final_total: int
    final_burned: int
    gas_totals: tuple[tuple[str, str, int], ...]  # (chain_id, op, total), fixed order


class _EpochState:
    def __init__(self, pulse: Pulse, truth: int) -> None:
        self.pulse = pulse
        self.truth = truth  # the walk's value, which honest observations measure
        self.committee: Optional[Committee] = None
        self.agg: Optional[AggregationParams] = None
        self.observations: list[SignedObservation] = []
        self.packet: Optional[OraclePacket] = None
        self.fraud_injected = False
        self.receipts: dict[str, Receipt] = {}
        self.relay_scheduled = False
        self.slash: Optional[SlashInfo] = None


class _Scorer:
    """The registry's VRF proofs, met inside each epoch by a forked child.

    A sortition proof is a pure function of (reporter key, pulse value,
    epoch), and a pulse value of (beacon seed, epoch).  The list holds every
    proof in (epoch, reporter id) order.  A run of SCORER_MIN_SIGNS proofs or
    more forks, at its first draw, a child that writes each epoch's proofs
    from reporter id 0 up through a blocking pipe, whose capacity bounds its
    lead.  A draw reads what the child has written of its epoch and signs
    the rest itself from the highest id down.  Two shared words say how far
    each side has come: the loop's lowest own proof (its claim) and the end
    of what the child has written.  At or above a claim it has seen, or in
    an epoch already drawn, the child writes zeros instead, so every epoch
    fills ``registry_size`` slots of the pipe and a draw drops the bytes
    before its epoch.  Proof bytes cross only the pipe, so a stale word
    costs at most a duplicate sign, never a wrong proof.  Without a child
    the loop signs every proof.  Each draw records the proofs it uses with
    ``sig.record_own``.
    """

    def __init__(self, secrets: list[ReporterSecret], beacon_seed: bytes, epochs: int) -> None:
        self._secrets = secrets
        self._seed = beacon_seed
        self._epochs = epochs
        self._pid = self._fd = self._read = 0  # _read: the list's byte offset read from the pipe
        self._unstarted = epochs * len(secrets) >= SCORER_MIN_SIGNS
        self._words = [-1, 0]  # [0]: the loop's claim, [1]: the child's written end

    def proofs(self, epoch: int, message: bytes) -> list[bytes]:
        """The epoch's proofs of ``message``, indexed by reporter id; draws
        come in epoch order."""
        if self._unstarted:
            self._unstarted = False
            self._start(epoch)
        start = epoch * len(self._secrets)  # the list index of the epoch's first proof
        reads, got, own = [], 0, []  # its pipe reads, their bytes; the loop's, highest id first
        words = self._words
        while start + got // SIGNATURE_BYTES < (low := start + len(self._secrets) - len(own)):
            if self._pid and self._read < words[1] * SIGNATURE_BYTES:
                data = os.read(self._fd, min(words[1], low) * SIGNATURE_BYTES - self._read)
                if not data:
                    self.close()  # the child died
                reads.append(chunk := data[max(start * SIGNATURE_BYTES - self._read, 0) :])
                got += len(chunk)
                self._read += len(data)
            else:
                words[0] = low - 1
                own.append(self._secrets[low - 1 - start].sign_unrecorded(message))
        stop = (low - start) * SIGNATURE_BYTES  # a dead child may leave part of a proof
        head = b"".join(reads)  # once, not per read; a read may end inside a proof
        return [head[i : i + SIGNATURE_BYTES] for i in range(0, stop, SIGNATURE_BYTES)] + own[::-1]

    def _start(self, first_epoch: int) -> None:
        if threading.active_count() > 1:
            return  # the child could block forever on a lock another thread held
        try:
            words = memoryview(mmap.mmap(-1, 16)).cast("q")  # shared with the child
            read_fd, write_fd = os.pipe()
        except OSError:
            return
        size = len(self._secrets)
        words[0], words[1] = -1, first_epoch * size
        try:
            pid = os.fork()
        except OSError:
            os.close(read_fd)
            os.close(write_fd)
            return
        if pid == 0:
            status = 1
            try:
                os.close(read_fd)
                with open(write_fd, "wb") as out:
                    for epoch in range(first_epoch, self._epochs):
                        message = sortition_message(pulse_value(self._seed, epoch), epoch)[0]
                        for rid, secret in enumerate(self._secrets):
                            claimed, at = divmod(words[0], size)
                            if claimed > epoch or claimed == epoch and rid >= at:
                                words[1] = (epoch + 1) * size  # first: the zeros may fill the pipe
                                out.write(bytes((size - rid) * SIGNATURE_BYTES))
                                out.flush()
                                break
                            out.write(secret.sign_unrecorded(message))
                            out.flush()
                            words[1] = epoch * size + rid + 1
                status = 0
            finally:
                os._exit(status)  # never return into the parent's code
        os.close(write_fd)
        self._pid, self._fd, self._words = pid, read_fd, words
        self._read = first_epoch * size * SIGNATURE_BYTES

    def close(self) -> None:
        if self._pid:
            os.close(self._fd)
            os.kill(self._pid, signal.SIGKILL)
            os.waitpid(self._pid, 0)
            self._pid = 0


class Simulator:
    """Single-threaded event loop owning every protocol state machine.

    It holds only open epochs: each pulse, its truth value and its pulse
    event are made as the clock reaches them.  :meth:`epochs` drives the
    loop and hands on each epoch's record as soon as it is final, dropping
    the epoch's state; it reaps the VRF scorer (``_Scorer``) when it ends,
    is closed, or a handler raises.  :meth:`run` drives it to the end and
    hands each record to a sink, which is how ``vzor run`` writes its files;
    ``verify-trace`` consumes it directly.  Construction keeps the genesis
    hub that validating the config returns, the run's one hub.  Governance
    updates only charge gas and are recorded, so both are done then, as is
    capping the verdict memo at the signatures of the epochs open at once:
    every memo hit re-checks one of them.
    """

    def __init__(self, config: ScenarioConfig) -> None:
        self.hub = config.validate()  # first: the lines below read what it checks
        self.config = config
        open_epochs = min(config.epochs, latency_bound_ms(config) // config.epoch_interval_ms + 2)
        sig.cap_memo((config.registry_size + config.committee_size) * open_epochs)
        self.chains: list[Chain] = [Chain(CHAIN_PRESETS[name]()) for name in config.chains]
        self.secrets: list[ReporterSecret] = [
            ReporterSecret(rid, reporter_key_seed(config.seed, rid))
            for rid in range(config.registry_size)
        ]

        self._beacon = BeaconParams(seed=tagged_digest(_BEACON_SEED_TAG, be_u64(config.seed)))
        self._pulse: Optional[Pulse] = None  # the last pulse made
        self._scorer = _Scorer(self.secrets, self._beacon.seed, config.epochs)

        self._rng_walk = _stream(config.seed, "walk")
        self._rng_noise = _stream(config.seed, "noise")
        self._rng_chain_delay = {
            name: _stream(config.seed, f"delay/chain/{name}") for name in config.chains
        }
        self._rng_watcher = _stream(config.seed, "delay/watcher")

        self._truth = config.value_base  # the walk's last value
        self.controlled = config.controlled_ids()
        # hub state advances on the fastest connected chain's block cadence
        self.hub_tick_ms = min(c.config.block_time_ms for c in self.chains)

        # pulse 0; each pulse queues the next under sequence number 0, so it fires first at its ms
        self._heap: list[_Event] = [(0, 0, self._on_pulse, (0,))]
        self._seq = 0
        self._now = 0
        self._states: dict[int, _EpochState] = {}
        self._pending = {0: 1}  # queued events of each open epoch
        self.initial_total, self._burned = self.hub.snapshot()
        self.governance_records = tuple(
            u for u in self.hub.updates if u.effective_epoch < config.epochs
        )
        for chain in self.chains:
            for _ in self.governance_records:
                chain.charge(OP_GOVERNANCE)

    # -- setup helpers ----------------------------------------------------------

    def _clamp(self, value: int) -> int:
        return max(self.config.value_min, min(self.config.value_max, value))

    def _delay(self, rng: random.Random) -> int:
        return rng.randint(self.config.delta_net_min_ms, self.config.delta_net_max_ms)

    def _push(self, fire_ms: int, handler: Callable[..., None], epoch: int, *args) -> None:
        """Schedule ``handler(epoch, *args)`` at ``fire_ms``; ties fire in push order."""
        if fire_ms < self._now:
            raise AssertionError("event scheduled in the past")
        self._seq += 1
        self._pending[epoch] += 1
        heapq.heappush(self._heap, (fire_ms, self._seq, handler, (epoch, *args)))

    def _t0(self, epoch: int) -> int:
        return epoch * self.config.epoch_interval_ms

    # -- event loop ---------------------------------------------------------------

    def epochs(self) -> Iterator[EpochRecord]:
        """Run the event loop, yielding each epoch's record in epoch order
        once no event of it or of an earlier epoch is queued."""
        heap, pending = self._heap, self._pending
        final = 0  # the epochs before it are yielded
        try:
            while heap:
                self._now, _, handler, args = heapq.heappop(heap)
                handler(*args)
                pending[args[0]] -= 1
                while pending.get(final) == 0:
                    del pending[final]
                    yield self._record(final)
                    final += 1
        finally:
            self._scorer.close()

    def run(self, sink: Callable[[EpochRecord], object]) -> RunTrace:
        """Drive the loop to its end, handing each epoch's record to ``sink``
        as the epoch closes, and return the run's totals."""
        with contextlib.closing(self.epochs()) as closed:
            for record in closed:
                sink(record)
        total, burned = self.hub.snapshot()
        return RunTrace(
            config=self.config,
            governance_records=self.governance_records,
            initial_total=self.initial_total,
            final_total=total,
            final_burned=burned,
            gas_totals=tuple(
                (chain.chain_id, op, chain.gas_by_op[op])
                for chain in self.chains
                for op in sorted(chain.gas_by_op)
            ),
        )

    def _on_pulse(self, epoch: int) -> None:
        self._pulse = next_pulse(self._beacon, self._pulse, pulse_value(self._beacon.seed, epoch))
        if epoch:
            walk = self.config.value_walk_max
            self._truth = self._clamp(self._truth + self._rng_walk.randint(-walk, walk))
        self._states[epoch] = _EpochState(pulse=self._pulse, truth=self._truth)
        if epoch + 1 < self.config.epochs:
            self._pending[epoch + 1] = 1
            heapq.heappush(self._heap, (self._t0(epoch + 1), 0, self._on_pulse, (epoch + 1,)))
        self._push(self._now, self._on_committee_draw, epoch)

    def _on_committee_draw(self, epoch: int) -> None:
        state = self._states[epoch]
        governed = self.hub.effective_params(epoch)
        state.agg = self.config.aggregation_params(governed)
        active = [s for s in self.secrets if self.hub.ledger.is_active(s.id)]
        proofs = self._scorer.proofs(epoch, sortition_message(state.pulse.value, epoch)[0])
        scored = evaluate_registry(active, state.pulse, epoch, proofs)
        try:
            state.committee = select_committee(state.pulse, epoch, scored, governed.n)
        except RegistryTooSmall:
            return  # slashing left fewer active reporters than n: no committee, no packet
        for rid in state.committee.member_ids():
            if self.config.adversary_behavior == "withhold" and rid in self.controlled:
                continue
            if self.config.adversary_behavior == "wrong_value" and rid in self.controlled:
                value = self.config.value_max
            else:
                noise = self._rng_noise.randint(-self.config.noise_max, self.config.noise_max)
                value = self._clamp(state.truth + noise)
            state.observations.append(sign_observation(self.secrets[rid], value, epoch, state.agg))
        # observations close at the delta_net_max deadline; proving takes t_prove
        built = self._t0(epoch) + self.config.delta_net_max_ms + self.config.t_prove_ms
        self._push(built, self._on_packet_built, epoch)

    def _on_packet_built(self, epoch: int) -> None:
        state = self._states[epoch]
        assert state.committee is not None and state.agg is not None
        claimed = None
        if (
            self.config.adversary_behavior == "wrong_median_packet"
            and epoch % self.config.fraud_period == self.config.fraud_period - 1
            and state.observations
        ):
            claimed = median([o.value for o in state.observations]) + 1
            state.fraud_injected = True
        try:
            state.packet = build_packet(
                state.observations, state.committee, state.agg, claimed_median=claimed
            )
        except QuorumNotMet:
            state.packet = None  # epoch produces no packet; chains see nothing
            return
        for chain in self.chains:
            delay = self._delay(self._rng_chain_delay[chain.chain_id])
            self._push(self._now + delay, self._on_packet_delivered, epoch, chain)

    def _on_packet_delivered(self, epoch: int, chain: Chain) -> None:
        state = self._states[epoch]
        assert state.packet is not None and state.committee is not None and state.agg is not None
        receipt = chain.submit_packet(state.packet, state.committee, state.agg, self._now)
        state.receipts[chain.chain_id] = receipt
        if not receipt.accepted:
            arrival = receipt.final_ms + self._delay(self._rng_watcher)
            self._push(arrival, self._on_fraud_relayed, epoch, chain, receipt.final_ms)

    def _on_fraud_relayed(self, epoch: int, origin: Chain, emitted_ms: int) -> None:
        state = self._states[epoch]
        if state.relay_scheduled:
            return  # later relays for the same packet change nothing
        state.relay_scheduled = True
        ticks = -(-self._now // self.hub_tick_ms)
        applied = max(self._now, ticks * self.hub_tick_ms)
        self._push(applied, self._on_slash_applied, epoch, origin, emitted_ms)

    def _on_slash_applied(self, epoch: int, origin: Chain, emitted_ms: int) -> None:
        state = self._states[epoch]
        assert state.packet is not None and state.committee is not None and state.agg is not None
        fraud = accuse_all_signers(state.packet, origin.chain_id)
        report = self.hub.adjudicate(fraud, state.committee, state.agg)
        origin.charge(OP_FRAUD)
        state.slash = SlashInfo(
            origin_chain=origin.chain_id,
            emitted_ms=emitted_ms,
            applied_ms=self._now,
            latency_ms=self._now - emitted_ms,
            slashed=report.slashed,
            per_reporter_cut=report.per_reporter_cut,
            total_cut=report.total_cut,
        )

    # -- records ------------------------------------------------------------------

    def _record(self, epoch: int) -> EpochRecord:
        """The final record of ``epoch``, whose state it drops; epochs come in order."""
        state = self._states.pop(epoch)
        members = () if state.committee is None else state.committee.members
        receipts = tuple(
            state.receipts[name] for name in self.config.chains if name in state.receipts
        )
        t0 = self._t0(epoch)
        # latency from the pulse to the last chain's final verdict,
        # defined only when every chain accepted the packet
        e2e = None
        if receipts and all(r.accepted for r in receipts):
            e2e = max(r.final_ms for r in receipts) - t0
        if state.slash is not None:
            self._burned += state.slash.total_cut
        return EpochRecord(
            epoch=epoch,
            t0_ms=t0,
            pulse_digest=state.pulse.chain_digest,
            committee=tuple(sorted((i.id, i.public_key) for i in members)),
            packet_bytes=None if state.packet is None else state.packet.to_bytes(),
            median=None if state.packet is None else state.packet.median,
            receipts=receipts,
            e2e_ms=e2e,
            fraud_injected=state.fraud_injected,
            slash=state.slash,
            ledger_total=self.initial_total - self._burned,
            ledger_burned=self._burned,
        )


# -- post-run analysis ----------------------------------------------------------------


class LivenessReport(NamedTuple):
    bound_ms: int
    slack_ms: int
    checked_epochs: int
    violations: tuple[tuple[int, int], ...]  # (epoch, e2e_ms)

    @property
    def ok(self) -> bool:
        return not self.violations


class Tally:
    """What the metrics and the liveness check keep of a run's records, given
    to :meth:`add` once each, in epoch order, by :meth:`Simulator.run`'s sink."""

    def __init__(self, config: ScenarioConfig) -> None:
        self.config = config
        self.bound_ms = latency_bound_ms(config)
        self.e2e: list[int] = []  # one per accepted epoch
        self.slash_ms: list[int] = []
        self.selected: Counter[int] = Counter()  # reporter id -> epochs on the committee
        self.checked = 0  # honest epochs with an e2e latency
        self.late: list[tuple[int, int]] = []  # those over the bound: (epoch, e2e_ms)

    def add(self, record: EpochRecord) -> None:
        if record.e2e_ms is not None:
            self.e2e.append(record.e2e_ms)
        if record.e2e_ms is not None and not record.fraud_injected:
            self.checked += 1
            if record.e2e_ms > self.bound_ms:
                self.late.append((record.epoch, record.e2e_ms))
        if record.slash is not None:
            self.slash_ms.append(record.slash.latency_ms)
        self.selected.update(record.committee_ids())

    def liveness(self) -> LivenessReport:
        """The per-epoch latency bound on every honest epoch with a packet."""
        slack = self.config.delta_net_max_ms
        return LivenessReport(self.bound_ms, slack, self.checked, tuple(self.late))

    def metrics(self, gas_totals: tuple[tuple[str, str, int], ...]) -> MetricsSummary:
        import statistics  # only here, so that start-up does not load it

        e2e, slashes = self.e2e, self.slash_ms
        return MetricsSummary(
            epochs=self.config.epochs,
            accepted_epochs=len(e2e),
            throughput_pps=len(e2e) / (self.config.epochs * self.config.epoch_interval_s),
            mean_e2e_s=(statistics.fmean(e2e) / 1000.0) if e2e else None,
            stdev_e2e_s=(statistics.pstdev(e2e) / 1000.0) if len(e2e) > 1 else None,
            slash_count=len(slashes),
            mean_slash_latency_s=statistics.fmean(slashes) / 1000.0 if slashes else None,
            gas_totals=gas_totals,
            selection_counts=tuple(sorted(self.selected.items())),
        )


class MetricsSummary(NamedTuple):
    epochs: int
    accepted_epochs: int
    throughput_pps: float
    mean_e2e_s: Optional[float]
    stdev_e2e_s: Optional[float]
    slash_count: int
    mean_slash_latency_s: Optional[float]
    gas_totals: tuple[tuple[str, str, int], ...]
    selection_counts: tuple[tuple[int, int], ...]  # (reporter_id, epochs selected)

    def to_text(self) -> str:
        lines = [
            f"epochs = {self.epochs}",
            f"accepted_epochs = {self.accepted_epochs}",
            f"throughput_pps = {self.throughput_pps}",
            f"mean_e2e_s = {'' if self.mean_e2e_s is None else self.mean_e2e_s}",
            f"stdev_e2e_s = {'' if self.stdev_e2e_s is None else self.stdev_e2e_s}",
            f"slash_count = {self.slash_count}",
            f"mean_slash_latency_s = "
            f"{'' if self.mean_slash_latency_s is None else self.mean_slash_latency_s}",
        ]
        for chain_id, op, total in self.gas_totals:
            lines.append(f"gas_{chain_id}_{op} = {total}")
        for rid, count in self.selection_counts:
            lines.append(f"selected_{rid} = {count}")
        return "\n".join(lines) + "\n"
