"""Correctness checks on the files `vzor run` writes, computed apart from vzor.

Nothing here imports vzor.  The trace is read with this module's own line
parser, packets with its own decoder of the fixed big-endian layout, and
every expected value is recomputed from the workload's scenario with
hashlib, cryptography and statistics alone:

* median        the recorded median is median_low of the witness values,
                plus one on the epochs where the aggregator lies;
* receipts      every chain accepts an honest packet and rejects a lying one
                with WrongMedian; every receipt's gas is under the paper's
                300,000;
* latency       an accepted epoch's e2e_ms lies in (0, block + t_prove + 2 delta];
* stake         ledger total + burned is constant, and burned grows only on
                lying epochs, by the cut times the slashed set, which equals
                the witness signers;
* keys          every committee key is the key the run seed derives for
                that reporter, and the witness binds the committee digest;
* signatures    witness signatures verify with Ed25519 over an observation
                message rebuilt here (every epoch, or a seeded sample);
* sortition     on a seeded sample of epochs the committee is the n lowest
                VRF scores, recomputed from key seeds, pulse values, the
                sortition input and the scores;
* pulse         every recorded pulse digest is the beacon chain recomputed
                from the run seed;
* metrics       metrics.txt counts the accepted epochs derived from the
                scenario, and its verify gas equals the receipts' sums.

`check_run` returns the epochs that failed, each with the names of the
checks it failed.  `MUTATIONS` alter one trace in the ways the checks must
catch; `self_test` shows that each one is caught by the check it targets.
"""

from __future__ import annotations

import hashlib
import random
import statistics
import struct
from dataclasses import dataclass
from typing import Callable, Optional

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

GAS_LIMIT = 300_000  # the paper's verification budget per packet
SEPOLIA_BLOCK_MS = 15_000  # slowest destination finality: one Sepolia block
BEACON_PERIOD_S = 60  # the simulator's beacon runs at its default period
GLOBAL = -1  # failure key for checks that concern the whole run


def tagged(tag: str, *parts: bytes) -> bytes:
    return hashlib.sha256(tag.encode() + b"\x00" + b"".join(parts)).digest()


def u64(x: int) -> bytes:
    return struct.pack(">Q", x)


def i64(x: int) -> bytes:
    return struct.pack(">q", x)


def obs_message(value: int, epoch: int, reporter_id: int) -> bytes:
    return b"VZOR/obs/v1\x00" + i64(value) + u64(epoch) + u64(reporter_id)


# -- scenario as the benchmark wrote it --------------------------------------


@dataclass(frozen=True)
class Scenario:
    """The workload parameters the checks derive their expectations from."""

    seed: int
    epochs: int
    registry_size: int
    committee_size: int
    quorum: int
    chains: tuple[str, ...]
    lying: bool  # adversary_behavior = wrong_median_packet
    fraud_period: int
    initial_stake_wei: int = 32 * 10**18
    slash_cut_wei: int = 15 * 10**16
    t_prove_ms: int = 830
    delta_net_max_ms: int = 2000

    def is_fraud_epoch(self, epoch: int) -> bool:
        return self.lying and epoch % self.fraud_period == self.fraud_period - 1

    def accepted_epochs(self) -> int:
        return sum(1 for e in range(self.epochs) if not self.is_fraud_epoch(e))

    def latency_bound_ms(self) -> int:
        return SEPOLIA_BLOCK_MS + self.t_prove_ms + 2 * self.delta_net_max_ms


# -- independent decoders ------------------------------------------------------


@dataclass(frozen=True)
class Entry:
    reporter_id: int
    value: int
    signature: bytes


@dataclass(frozen=True)
class Packet:
    epoch: int
    median: int
    witness_epoch: int
    committee_digest: bytes
    entries: tuple[Entry, ...]


def decode_packet(buf: bytes) -> Packet:
    """Packet layout: epoch u64, median i64, statement 32, witness root 32,
    witness length u64, then the witness: epoch u64, committee digest 32,
    count u64 and count entries of (reporter u64, value i64, signature 64)."""
    epoch, median = struct.unpack_from(">Qq", buf, 0)
    (witness_len,) = struct.unpack_from(">Q", buf, 80)
    witness = buf[88:]
    if len(witness) != witness_len:
        raise ValueError("witness length mismatch")
    witness_epoch = struct.unpack_from(">Q", witness, 0)[0]
    committee_digest = witness[8:40]
    (count,) = struct.unpack_from(">Q", witness, 40)
    if len(witness) != 48 + 80 * count:
        raise ValueError("witness entry count mismatch")
    entries = []
    for k in range(count):
        off = 48 + 80 * k
        rid, value = struct.unpack_from(">Qq", witness, off)
        entries.append(Entry(rid, value, witness[off + 16 : off + 80]))
    return Packet(epoch, median, witness_epoch, committee_digest, tuple(entries))


def _fields(body: str) -> dict[str, str]:
    return dict(part.split("=", 1) for part in body.split(" ") if part)


@dataclass(frozen=True)
class EpochBlock:
    epoch: int
    lines: dict[str, str]  # first word -> rest of line, receipts excluded
    receipts: tuple[dict[str, str], ...]


@dataclass(frozen=True)
class Trace:
    config: dict[str, str]
    ledger_start: int
    epochs: tuple[EpochBlock, ...]


def parse_trace(text: str) -> Trace:
    lines = text.split("\n")
    if lines[0] != "vzor-trace v1" or lines[1] != "[config]":
        raise ValueError("not a vzor trace")
    end = lines.index("[/config]")
    config = {}
    for line in lines[2:end]:
        if line and not line.startswith("#"):
            key, value = line.split("=", 1)
            config[key.strip()] = value.strip()
    i = end + 1
    while not lines[i].startswith("ledger start "):
        i += 1
    ledger_start = int(_fields(lines[i][len("ledger start ") :])["total"])
    blocks = []
    while lines[i] != "[end]":
        if lines[i].startswith("[epoch "):
            epoch = int(lines[i][len("[epoch ") : -1])
            fields: dict[str, str] = {}
            receipts = []
            i += 1
            while lines[i] != "[/epoch]":
                kind, _, body = lines[i].partition(" ")
                if kind == "receipt":
                    receipts.append(_fields(body))
                else:
                    fields[kind] = body
                i += 1
            blocks.append(EpochBlock(epoch, fields, tuple(receipts)))
        i += 1
    return Trace(config, ledger_start, tuple(blocks))


def parse_metrics(text: str) -> dict[str, str]:
    return dict(
        (part.strip() for part in line.split("=", 1)) for line in text.splitlines() if "=" in line
    )


# -- recomputation from the run seed -----------------------------------------


def key_seed(seed: int, reporter_id: int) -> bytes:
    return tagged("VZOR/keyseed/v1", u64(seed), u64(reporter_id))


class Derived:
    """Keys and beacon pulses the run seed determines, computed on demand."""

    def __init__(self, scenario: Scenario) -> None:
        self.scenario = scenario
        self._keys: dict[int, Ed25519PrivateKey] = {}
        self._public: dict[int, bytes] = {}
        beacon_seed = tagged("VZOR/beacon-seed/v1", u64(scenario.seed))
        self.pulse_values = []
        self.pulse_digests = []
        prev = b"\x00" * 32
        for index in range(scenario.epochs):
            value = tagged("VZOR/pulse-val/v1/a", beacon_seed, u64(index)) + tagged(
                "VZOR/pulse-val/v1/b", beacon_seed, u64(index)
            )
            prev = tagged(
                "VZOR/pulse/v1", u64(index), u64(index * BEACON_PERIOD_S), value, prev
            )
            self.pulse_values.append(value)
            self.pulse_digests.append(prev)

    def private_key(self, reporter_id: int) -> Ed25519PrivateKey:
        if reporter_id not in self._keys:
            self._keys[reporter_id] = Ed25519PrivateKey.from_private_bytes(
                key_seed(self.scenario.seed, reporter_id)
            )
        return self._keys[reporter_id]

    def public_key(self, reporter_id: int) -> bytes:
        if reporter_id not in self._public:
            self._public[reporter_id] = self.private_key(reporter_id).public_key().public_bytes_raw()
        return self._public[reporter_id]

    def committee(self, epoch: int, active: list[int]) -> list[tuple[int, bytes]]:
        """The n lowest VRF scores among ``active``, as (id, key) by id."""
        sortition_input = b"VZOR/sortition/v1\x00" + self.pulse_values[epoch] + u64(epoch)
        message = b"VZOR/vrf/v1\x00" + sortition_input
        input_digest = tagged("VZOR/vrf-in/v1", sortition_input)
        scored = []
        for rid in active:
            proof = self.private_key(rid).sign(message)
            score = int.from_bytes(tagged("VZOR/vrf-out/v1", proof, input_digest), "big")
            scored.append((score, rid))
        scored.sort()
        chosen = sorted(rid for _, rid in scored[: self.scenario.committee_size])
        return [(rid, self.public_key(rid)) for rid in chosen]


def _signature_ok(public_key: bytes, signature: bytes, message: bytes) -> bool:
    try:
        Ed25519PublicKey.from_public_bytes(public_key).verify(signature, message)
        return True
    except (InvalidSignature, ValueError):
        return False


# -- the checks --------------------------------------------------------------


def check_run(
    scenario: Scenario,
    derived: Derived,
    trace_text: str,
    metrics_text: str,
    signature_epochs: Optional[set[int]] = None,
    sortition_epochs: frozenset[int] = frozenset(),
) -> dict[int, set[str]]:
    """Epoch -> names of the checks it failed; GLOBAL for run-wide checks.

    ``signature_epochs`` None checks every witness signature.
    """
    failed: dict[int, set[str]] = {}

    def fail(epoch: int, check: str) -> None:
        failed.setdefault(epoch, set()).add(check)

    sc = scenario
    initial_total = sc.registry_size * sc.initial_stake_wei
    trace = parse_trace(trace_text)
    if [b.epoch for b in trace.epochs] != list(range(sc.epochs)):
        fail(GLOBAL, "epochs")
    if trace.ledger_start != initial_total:
        fail(GLOBAL, "stake")
    for key, want in (
        ("seed", sc.seed),
        ("epochs", sc.epochs),
        ("registry_size", sc.registry_size),
        ("committee_size", sc.committee_size),
        ("quorum", sc.quorum),
    ):
        if trace.config.get(key) != str(want):
            fail(GLOBAL, "config")

    stake = {rid: sc.initial_stake_wei for rid in range(sc.registry_size)}
    burned = 0
    gas = {chain: 0 for chain in sc.chains}
    accepted_epochs = 0
    for block in trace.epochs:
        e, f = block.epoch, block.lines
        fraud = sc.is_fraud_epoch(e)
        try:
            if f["pulse"] != "digest=" + derived.pulse_digests[e].hex():
                fail(e, "pulse")
            committee = [
                (int(rid), bytes.fromhex(pk))
                for rid, pk in (item.split(":") for item in f["committee"].split(","))
            ]
            keys = dict(committee)
            if len(committee) != sc.committee_size or any(
                pk != derived.public_key(rid) for rid, pk in committee
            ):
                fail(e, "keys")
            if e in sortition_epochs:
                active = [rid for rid in range(sc.registry_size) if stake[rid] > 0]
                if derived.committee(e, active) != committee:
                    fail(e, "sortition")

            packet = decode_packet(bytes.fromhex(f["packet"]))
            values = [x.value for x in packet.entries]
            signers = [x.reporter_id for x in packet.entries]
            committee_digest = tagged(
                "VZOR/committee/v1", *(u64(rid) + pk for rid, pk in sorted(committee))
            )
            if (
                packet.epoch != e
                or packet.witness_epoch != e
                or packet.committee_digest != committee_digest
                or len(signers) < sc.quorum
                or signers != sorted(set(signers))
                or not set(signers) <= set(keys)
            ):
                fail(e, "keys")
            want_median = statistics.median_low(values) + (1 if fraud else 0)
            if packet.median != want_median or f["median"] != str(want_median):
                fail(e, "median")
            if f["fraud"] != "injected=" + ("1" if fraud else "0"):
                fail(e, "median")

            if signature_epochs is None or e in signature_epochs:
                for x in packet.entries:
                    message = obs_message(x.value, e, x.reporter_id)
                    if not _signature_ok(keys.get(x.reporter_id, b""), x.signature, message):
                        fail(e, "signatures")

            want = ("0", "WrongMedian") if fraud else ("1", "ok")
            if [r["chain"] for r in block.receipts] != list(sc.chains):
                fail(e, "receipts")
            for r in block.receipts:
                if (r["accepted"], r["reason"]) != want:
                    fail(e, "receipts")
                if not 0 < int(r["gas"]) < GAS_LIMIT:
                    fail(e, "gas")
                gas[r["chain"]] = gas.get(r["chain"], 0) + int(r["gas"])

            if fraud:
                if f["e2e_ms"] != "none":
                    fail(e, "latency")
            else:
                e2e = int(f["e2e_ms"])
                if not 0 < e2e <= sc.latency_bound_ms():
                    fail(e, "latency")
                if all(r["accepted"] == "1" for r in block.receipts):
                    accepted_epochs += 1

            cut = 0
            if fraud:
                slash = _fields(f["slash"])
                slashed = [int(x) for x in slash["ids"].split(";") if x]
                cut = sum(min(sc.slash_cut_wei, stake[rid]) for rid in signers)
                if (
                    sorted(slashed) != signers
                    or int(slash["cut"]) != sc.slash_cut_wei
                    or int(slash["total"]) != cut
                ):
                    fail(e, "stake")
                for rid in signers:
                    stake[rid] -= min(sc.slash_cut_wei, stake[rid])
            elif f["slash"] != "none":
                fail(e, "stake")
            burned += cut
            ledger = _fields(f["ledger"])
            total, recorded_burned = int(ledger["total"]), int(ledger["burned"])
            if total + recorded_burned != initial_total or recorded_burned != burned:
                fail(e, "stake")
        except (KeyError, ValueError, IndexError, struct.error):
            fail(e, "format")

    metrics = parse_metrics(metrics_text)
    if (
        metrics.get("accepted_epochs") != str(sc.accepted_epochs())
        or accepted_epochs != sc.accepted_epochs()
    ):
        fail(GLOBAL, "metrics")
    for chain in sc.chains:
        if metrics.get(f"gas_{chain}_verify_proof") != str(gas[chain]):
            fail(GLOBAL, "metrics")
    return failed


def failed_epochs(failed: dict[int, set[str]], epochs: int) -> int:
    """Epochs counted as failed: all of them when a run-wide check fails."""
    return epochs if GLOBAL in failed else len(failed)


# -- mutations that each check must catch --------------------------------------


def edit(text: str, epoch: int, prefix: str, change: Callable[[str], str]) -> str:
    """Apply ``change`` to the first line starting with ``prefix`` in ``epoch``."""
    lines = text.split("\n")
    start = lines.index(f"[epoch {epoch}]")
    for k in range(start, len(lines)):
        if lines[k].startswith(prefix):
            lines[k] = change(lines[k])
            return "\n".join(lines)
    raise ValueError(f"no {prefix!r} line in epoch {epoch}")


def _bump_last_digit(line: str) -> str:
    return line[:-1] + str((int(line[-1]) + 1) % 10)


def _swap_two_keys(line: str) -> str:
    items = line[len("committee ") :].split(",")
    (a_id, a_pk), (b_id, b_pk) = (items[0].split(":"), items[1].split(":"))
    items[0], items[1] = f"{a_id}:{b_pk}", f"{b_id}:{a_pk}"
    return "committee " + ",".join(items)


def _flip_accepted(line: str) -> str:
    return line.replace("accepted=1", "accepted=0") if "accepted=1" in line else line.replace(
        "accepted=0", "accepted=1"
    )


def _flip_signature_bit(line: str) -> str:
    # the first witness entry's signature starts 88 + 48 + 16 bytes in
    data = bytearray.fromhex(line[len("packet ") :])
    data[88 + 48 + 16] ^= 0x01
    return "packet " + data.hex()


def _bump_ledger_total(line: str) -> str:
    head, burned = line.split(" burned=")
    return f"{head[:-1]}{(int(head[-1]) + 1) % 10} burned={burned}"


# (name, the check it must trip, line prefix, edit)
MUTATIONS: tuple[tuple[str, str, str, Callable[[str], str]], ...] = (
    ("median digit", "median", "median ", _bump_last_digit),
    ("committee key swapped", "keys", "committee ", _swap_two_keys),
    ("ledger line", "stake", "ledger ", _bump_ledger_total),
    ("receipt accepted bit", "receipts", "receipt ", _flip_accepted),
    ("signature bit", "signatures", "packet ", _flip_signature_bit),
)


def self_test(
    scenario: Scenario, derived: Derived, trace_text: str, metrics_text: str, rng: random.Random
) -> list[str]:
    """Apply each mutation to one seeded epoch; return the mutations that
    the check they target did not catch (empty when every check works)."""
    epoch = rng.randrange(scenario.epochs)
    missed = []
    for name, check, prefix, change in MUTATIONS:
        altered = edit(trace_text, epoch, prefix, change)
        failed = check_run(
            scenario, derived, altered, metrics_text, {epoch}, frozenset({epoch})
        )
        if check not in failed.get(epoch, set()):
            missed.append(name)
    return missed
