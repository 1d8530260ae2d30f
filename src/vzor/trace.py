"""Run trace serialization, the per-epoch CSV, and trace self-verification.

The trace is a line-oriented text file: a header, the canonical config
echo, governance records, then one block per epoch with the pulse
digest, committee keys, full packet bytes, per-chain receipts, latency,
and ledger totals.  It carries everything needed to re-check the run:
packets re-verify from the committee keys alone, and the embedded
config reproduces the entire simulation.

Verification distinguishes two failure classes.  File-level damage
(missing header, broken section structure, unreadable config) is
corruption.  Anything wrong inside an epoch block, from an unparseable
receipt to a flipped acceptance bit, is an outcome mismatch reported
with its epoch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import netsim
from .chains import CHAIN_PRESETS, OP_VERIFY, Receipt
from .errors import TraceCorruption
from .hub import Hub
from .packets import OraclePacket
from .proofs import verify
from .scenario import ScenarioConfig, parse_config
from .vrf import Committee, ReporterIdentity, VrfOutput

TRACE_HEADER = "vzor-trace v1"

_PLACEHOLDER_SCORE = VrfOutput(value=0, proof=b"", input_digest=b"")


def ms_to_s_text(ms: int) -> str:
    """Exact millisecond-to-second rendering, no float rounding."""
    sign = "-" if ms < 0 else ""
    ms = abs(ms)
    return f"{sign}{ms // 1000}.{ms % 1000:03d}"


# -- rendering ---------------------------------------------------------------


def render_trace(trace: netsim.RunTrace) -> str:
    lines = [TRACE_HEADER, "[config]"]
    lines.extend(trace.config_text.rstrip("\n").split("\n"))
    lines.append("[/config]")
    lines.append(f"chains {','.join(trace.chain_ids)}")
    lines.append(f"ledger start total={trace.initial_total} burned=0")
    for record in trace.governance_records:
        lines.append(
            f"governance effective={record.effective_epoch} "
            f"param={record.parameter} value={record.value}"
        )
    for rec in trace.records:
        lines.append(f"[epoch {rec.epoch}]")
        lines.append(f"pulse digest={rec.pulse_digest.hex()}")
        lines.append(
            "committee " + ",".join(f"{rid}:{pk.hex()}" for rid, pk in rec.committee)
        )
        if rec.packet_bytes is None:
            lines.append("packet none")
            lines.append("median none")
        else:
            lines.append(f"packet {rec.packet_bytes.hex()}")
            lines.append(f"median {rec.median}")
        for receipt in rec.receipts:
            lines.append(
                f"receipt chain={receipt.chain_id} accepted={1 if receipt.accepted else 0} "
                f"reason={receipt.reason} gas={receipt.gas_used} block={receipt.block} "
                f"final_ms={receipt.final_ms}"
            )
        lines.append(f"e2e_ms {'none' if rec.e2e_ms is None else rec.e2e_ms}")
        lines.append(f"fraud injected={1 if rec.fraud_injected else 0}")
        if rec.slash is None:
            lines.append("slash none")
        else:
            s = rec.slash
            lines.append(
                f"slash origin={s.origin_chain} emitted_ms={s.emitted_ms} "
                f"applied_ms={s.applied_ms} latency_ms={s.latency_ms} "
                f"cut={s.per_reporter_cut} total={s.total_cut} "
                f"ids={';'.join(str(i) for i in s.slashed)}"
            )
        lines.append(f"ledger total={rec.ledger_total} burned={rec.ledger_burned}")
        lines.append("[/epoch]")
    lines.append("[end]")
    return "\n".join(lines) + "\n"


def write_trace(trace: netsim.RunTrace, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(render_trace(trace))


def render_csv(trace: netsim.RunTrace) -> str:
    chains = trace.chain_ids
    header = (
        ["epoch", "committee_ids", "median"]
        + [f"accepted_{c}" for c in chains]
        + [f"gas_{c}" for c in chains]
        + ["e2e_latency_s", "fraud_injected", "slash_latency_s", "slashed_ids"]
    )
    rows = [",".join(header)]
    for rec in trace.records:
        by_chain = {r.chain_id: r for r in rec.receipts}
        cells = [
            str(rec.epoch),
            ";".join(str(i) for i in rec.committee_ids()),
            "" if rec.median is None else str(rec.median),
        ]
        for c in chains:
            r = by_chain.get(c)
            cells.append("" if r is None else ("1" if r.accepted else "0"))
        for c in chains:
            r = by_chain.get(c)
            cells.append("" if r is None else str(r.gas_used))
        cells.append("" if rec.e2e_ms is None else ms_to_s_text(rec.e2e_ms))
        cells.append("1" if rec.fraud_injected else "0")
        cells.append("" if rec.slash is None else ms_to_s_text(rec.slash.latency_ms))
        cells.append(
            "" if rec.slash is None else ";".join(str(i) for i in rec.slash.slashed)
        )
        rows.append(",".join(cells))
    return "\n".join(rows) + "\n"


def write_csv(trace: netsim.RunTrace, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(render_csv(trace))


# -- parsing ------------------------------------------------------------------


@dataclass(frozen=True)
class ParsedTrace:
    config_text: str
    chain_ids: tuple[str, ...]
    initial_total: int
    governance_lines: tuple[str, ...]
    epochs: tuple[tuple[int, tuple[str, ...]], ...]  # (epoch number, block lines)
    text: str


def parse_trace(text: str) -> ParsedTrace:
    """Structural parse only; raises TraceCorruption on file-level damage."""
    lines = text.split("\n")
    if not lines or lines[0] != TRACE_HEADER:
        raise TraceCorruption("missing trace header")
    i = 1
    if i >= len(lines) or lines[i] != "[config]":
        raise TraceCorruption("missing config section")
    i += 1
    config_lines = []
    while i < len(lines) and lines[i] != "[/config]":
        config_lines.append(lines[i])
        i += 1
    if i >= len(lines):
        raise TraceCorruption("unterminated config section")
    i += 1
    if i >= len(lines) or not lines[i].startswith("chains "):
        raise TraceCorruption("missing chains line")
    chain_ids = tuple(c for c in lines[i][len("chains ") :].split(",") if c)
    if not chain_ids:
        raise TraceCorruption("empty chain list")
    i += 1
    if i >= len(lines) or not lines[i].startswith("ledger start total="):
        raise TraceCorruption("missing ledger start line")
    try:
        start_fields = dict(
            part.split("=", 1) for part in lines[i][len("ledger start ") :].split(" ")
        )
        initial_total = int(start_fields["total"])
    except (ValueError, KeyError) as exc:
        raise TraceCorruption(f"bad ledger start line: {exc}") from exc
    i += 1
    governance = []
    while i < len(lines) and lines[i].startswith("governance "):
        governance.append(lines[i])
        i += 1
    epochs = []
    while i < len(lines) and lines[i] != "[end]":
        head = lines[i]
        if not (head.startswith("[epoch ") and head.endswith("]")):
            raise TraceCorruption(f"expected epoch header, got {head!r}")
        try:
            epoch = int(head[len("[epoch ") : -1])
        except ValueError as exc:
            raise TraceCorruption(f"bad epoch header {head!r}") from exc
        i += 1
        block = []
        while i < len(lines) and lines[i] != "[/epoch]":
            if lines[i].startswith("[epoch ") or lines[i] == "[end]":
                raise TraceCorruption(f"unterminated block for epoch {epoch}")
            block.append(lines[i])
            i += 1
        if i >= len(lines):
            raise TraceCorruption(f"unterminated block for epoch {epoch}")
        i += 1
        epochs.append((epoch, tuple(block)))
    if i >= len(lines) or lines[i] != "[end]":
        raise TraceCorruption("missing end marker")
    return ParsedTrace(
        config_text="\n".join(config_lines) + "\n",
        chain_ids=chain_ids,
        initial_total=initial_total,
        governance_lines=tuple(governance),
        epochs=tuple(epochs),
        text=text,
    )


# -- verification ---------------------------------------------------------------


@dataclass(frozen=True)
class TraceCheck:
    exit_code: int  # 0 ok, 2 corruption, 4 outcome mismatch
    problems: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return self.exit_code == 0


def _fields(line: str, prefix: str) -> dict[str, str]:
    body = line[len(prefix) :]
    out = {}
    for part in body.split(" "):
        if not part:
            continue
        if "=" not in part:
            raise ValueError(f"bad field {part!r}")
        key, value = part.split("=", 1)
        out[key] = value
    return out


def _check_epoch_block(
    epoch: int,
    block: tuple[str, ...],
    config: ScenarioConfig,
    hub: Hub,
    prev_ledger: tuple[int, int],
    problems: list[str],
) -> tuple[int, int]:
    """Semantic replay of one epoch block; returns the ledger totals read
    from the block (or the previous ones if the block is too damaged)."""

    def flag(why: str) -> None:
        problems.append(f"epoch {epoch}: {why}")

    lines = {key: [] for key in ("pulse", "committee", "packet", "median", "receipt", "e2e_ms", "fraud", "slash", "ledger")}
    for line in block:
        kind = line.split(" ", 1)[0]
        if kind not in lines:
            flag(f"unexpected line {line!r}")
            return prev_ledger
        lines[kind].append(line)
    for kind in ("pulse", "committee", "packet", "median", "e2e_ms", "fraud", "slash", "ledger"):
        if len(lines[kind]) != 1:
            flag(f"expected exactly one {kind} line")
            return prev_ledger

    try:
        governed = hub.effective_params(epoch)
        params = config.aggregation_params(governed)

        members = []
        committee_body = lines["committee"][0][len("committee ") :]
        for item in committee_body.split(","):
            rid_text, pk_hex = item.split(":", 1)
            members.append(
                (ReporterIdentity(int(rid_text), bytes.fromhex(pk_hex)), _PLACEHOLDER_SCORE)
            )
        committee = Committee(epoch=epoch, members=tuple(members))

        packet_body = lines["packet"][0][len("packet ") :]
        packet: Optional[OraclePacket] = None
        if packet_body != "none":
            packet = OraclePacket.from_bytes(bytes.fromhex(packet_body))

        median_body = lines["median"][0][len("median ") :]
        if packet is None:
            if median_body != "none":
                flag("median recorded without a packet")
            if lines["receipt"]:
                flag("receipts recorded without a packet")
        else:
            if median_body == "none" or int(median_body) != packet.median:
                flag(f"median line {median_body!r} does not match packet {packet.median}")

        result = None
        receipts = []
        if packet is not None:
            if packet.epoch != epoch:
                flag(f"packet bound to epoch {packet.epoch}")
            result = verify(packet, committee, params)
            if len(lines["receipt"]) != len(config.chains):
                flag(f"expected {len(config.chains)} receipts, found {len(lines['receipt'])}")
            for line in lines["receipt"]:
                fields = _fields(line, "receipt ")
                receipt = Receipt(
                    chain_id=fields["chain"],
                    accepted=fields["accepted"] == "1",
                    reason=fields["reason"],
                    gas_used=int(fields["gas"]),
                    block=int(fields["block"]),
                    final_ms=int(fields["final_ms"]),
                )
                chain_id = receipt.chain_id
                if chain_id not in CHAIN_PRESETS:
                    flag(f"receipt for unknown chain {chain_id!r}")
                    continue
                gas = CHAIN_PRESETS[chain_id]().gas_table[OP_VERIFY]
                if receipt.accepted != result.accepted:
                    flag(
                        f"chain {chain_id} recorded accepted={fields['accepted']} "
                        f"but replay says {result.reason()}"
                    )
                if receipt.reason != result.reason():
                    flag(
                        f"chain {chain_id} recorded reason {receipt.reason!r} "
                        f"but replay says {result.reason()!r}"
                    )
                if receipt.gas_used != gas:
                    flag(f"chain {chain_id} recorded gas {receipt.gas_used}, model says {gas}")
                if receipt.block < 1:
                    flag(f"chain {chain_id} recorded pre-genesis block")
                receipts.append(receipt)

        e2e_body = lines["e2e_ms"][0][len("e2e_ms ") :]
        expected_e2e = netsim.e2e_ms(epoch * config.epoch_interval_ms, tuple(receipts))
        if expected_e2e is not None:
            if e2e_body == "none" or int(e2e_body) != expected_e2e:
                flag(f"e2e {e2e_body!r} does not match receipt finality times {expected_e2e}")
        elif e2e_body != "none":
            flag("e2e recorded for an epoch without full acceptance")

        slash_body = lines["slash"][0][len("slash ") :]
        ledger_fields = _fields(lines["ledger"][0], "ledger ")
        ledger_total, ledger_burned = int(ledger_fields["total"]), int(ledger_fields["burned"])

        rejected_anywhere = result is not None and not result.accepted
        if rejected_anywhere:
            if slash_body == "none":
                flag("rejected packet but no slash record")
            else:
                fields = _fields(lines["slash"][0], "slash ")
                slashed = tuple(int(x) for x in fields["ids"].split(";") if x)
                signers = packet.witness.signer_ids()
                if set(slashed) != set(signers):
                    flag("slashed set does not equal the witness signers")
                cut = hub.effective_params(epoch).s_cut
                if int(fields["cut"]) != cut:
                    flag(f"per-reporter cut {fields['cut']} differs from governed {cut}")
                expected_total = cut * len(slashed)
                if int(fields["total"]) != expected_total:
                    flag(f"slash total {fields['total']} differs from {expected_total}")
                if int(fields["latency_ms"]) != int(fields["applied_ms"]) - int(
                    fields["emitted_ms"]
                ):
                    flag("slash latency does not match its timestamps")
                if (ledger_total, ledger_burned) != netsim.ledger_step(prev_ledger, expected_total):
                    flag("ledger totals break stake conservation")
        else:
            if slash_body != "none":
                flag("slash recorded without a rejection")
            if (ledger_total, ledger_burned) != prev_ledger:
                flag("ledger totals changed without a slash")
        return ledger_total, ledger_burned
    except (ValueError, KeyError) as exc:
        flag(f"unreadable record: {exc}")
        return prev_ledger


def verify_trace_text(text: str) -> TraceCheck:
    """Replay and cross-check a trace.

    Phase 1 re-verifies every packet against its recorded committee and
    re-derives slashing and conservation from the trace alone.  Phase 2
    re-runs the whole scenario from the embedded config and compares the
    regenerated trace byte for byte, so any surviving divergence in
    timing or bookkeeping is also caught.
    """
    try:
        parsed = parse_trace(text)
        config = parse_config(parsed.config_text)
        config.validate()
    except Exception as exc:
        return TraceCheck(exit_code=2, problems=(f"corrupt trace: {exc}",))

    problems: list[str] = []
    hub = netsim.governed_hub(config)

    expected_initial = config.registry_size * config.initial_stake_wei
    if parsed.initial_total != expected_initial:
        problems.append(
            f"ledger start {parsed.initial_total} differs from config total {expected_initial}"
        )
    if parsed.chain_ids != tuple(config.chains):
        problems.append("chains line disagrees with config")

    seen = [epoch for epoch, _ in parsed.epochs]
    if seen != list(range(config.epochs)):
        problems.append(
            f"trace covers epochs {seen[:3]}..{seen[-3:] if seen else []} "
            f"but config says 0..{config.epochs - 1}"
        )

    ledger = (expected_initial, 0)
    for epoch, block in parsed.epochs:
        ledger = _check_epoch_block(epoch, block, config, hub, ledger, problems)

    if not problems:
        regenerated = render_trace(netsim.run(config))
        if regenerated != parsed.text:
            new_lines = regenerated.split("\n")
            old_lines = parsed.text.split("\n")
            for k, (a, b) in enumerate(zip(old_lines, new_lines)):
                if a != b:
                    problems.append(
                        f"line {k + 1} diverges from deterministic replay: "
                        f"recorded {a!r}, replay {b!r}"
                    )
                    break
            else:
                problems.append("trace length diverges from deterministic replay")

    if problems:
        return TraceCheck(exit_code=4, problems=tuple(problems))
    return TraceCheck(exit_code=0, problems=())


def verify_trace_file(path: str) -> TraceCheck:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        return TraceCheck(exit_code=2, problems=(f"cannot read trace: {exc}",))
    return verify_trace_text(text)
