"""Run trace serialization, the per-epoch CSV, and trace self-verification.

The trace is a line-oriented text file: a header, the canonical config
echo, governance records, then one block per epoch with the pulse
digest, committee keys, full packet bytes, per-chain receipts, latency,
and ledger totals.  It carries everything needed to re-check the run:
packets re-verify from the committee keys alone, and the embedded
config reproduces the entire simulation.  Verification decodes every
block, replays the config once, and compares the bytes; the protocol
rules themselves live only in the modules the replay runs.

Verification distinguishes two failure classes.  File-level damage
(missing header, broken section structure, unreadable config) is
corruption.  Anything wrong inside an epoch block, from an unparseable
receipt to a flipped acceptance bit, is an outcome mismatch reported
with its epoch.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from . import netsim
from .chains import Receipt
from .errors import TraceCorruption
from .packets import OraclePacket
from .proofs import verify
from .scenario import parse_config
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
        committee = ",".join(f"{rid}:{pk.hex()}" for rid, pk in rec.committee)
        lines.append(f"committee {committee or 'none'}")
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


def csv_row(cells) -> str:
    """One CSV row; a missing value (None) is an empty cell."""
    return ",".join("" if cell is None else str(cell) for cell in cells)


def render_csv(trace: netsim.RunTrace) -> str:
    chains = trace.chain_ids
    header = (
        ["epoch", "committee_ids", "median"]
        + [f"accepted_{c}" for c in chains]
        + [f"gas_{c}" for c in chains]
        + ["e2e_latency_s", "fraud_injected", "slash_latency_s", "slashed_ids"]
    )
    rows = [csv_row(header)]
    for rec in trace.records:
        by_chain = {r.chain_id: r for r in rec.receipts}
        receipts = [by_chain.get(c) for c in chains]
        cells = [rec.epoch, ";".join(str(i) for i in rec.committee_ids()), rec.median]
        cells += [None if r is None else int(r.accepted) for r in receipts]
        cells += [None if r is None else r.gas_used for r in receipts]
        cells += [None if rec.e2e_ms is None else ms_to_s_text(rec.e2e_ms), int(rec.fraud_injected)]
        slash = rec.slash
        cells += [None, None] if slash is None else [
            ms_to_s_text(slash.latency_ms), ";".join(str(i) for i in slash.slashed)
        ]
        rows.append(csv_row(cells))
    return "\n".join(rows) + "\n"


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
        initial_total = int(_fields(lines[i], "ledger start ")["total"])
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


_BLOCK_KINDS = (
    "pulse", "committee", "packet", "median", "receipt", "e2e_ms", "fraud", "slash", "ledger"
)


@dataclass(frozen=True)
class _Block:
    """One epoch block, decoded; whether it is right is the replay's call."""

    committee: Optional[Committee]  # None: no committee could be drawn
    packet: Optional[OraclePacket]
    median: Optional[int]
    receipts: tuple[Receipt, ...]
    e2e_ms: Optional[int]
    slash: Optional[netsim.SlashInfo]
    ledger: tuple[int, int]


def _int_or_none(text: str) -> Optional[int]:
    return None if text == "none" else int(text)


def _decode_block(epoch: int, block: tuple[str, ...]) -> _Block:
    """Decode one epoch block; ValueError says why it cannot be decoded."""
    lines: dict[str, list[str]] = {kind: [] for kind in _BLOCK_KINDS}
    for line in block:
        kind = line.split(" ", 1)[0]
        if kind not in lines:
            raise ValueError(f"unexpected line {line!r}")
        lines[kind].append(line)
    for kind in _BLOCK_KINDS:
        if kind != "receipt" and len(lines[kind]) != 1:
            raise ValueError(f"expected exactly one {kind} line")

    def body(kind: str) -> str:
        return lines[kind][0][len(kind) + 1 :]

    try:
        committee = None
        if body("committee") != "none":
            members = []
            for item in body("committee").split(","):
                rid_text, pk_hex = item.split(":", 1)
                members.append(
                    (ReporterIdentity(int(rid_text), bytes.fromhex(pk_hex)), _PLACEHOLDER_SCORE)
                )
            committee = Committee(epoch=epoch, members=tuple(members))
        packet = None
        if body("packet") != "none":
            packet = OraclePacket.from_bytes(bytes.fromhex(body("packet")))
        receipts = []
        for line in lines["receipt"]:
            fields = _fields(line, "receipt ")
            receipts.append(
                Receipt(
                    chain_id=fields["chain"],
                    accepted=fields["accepted"] == "1",
                    reason=fields["reason"],
                    gas_used=int(fields["gas"]),
                    block=int(fields["block"]),
                    final_ms=int(fields["final_ms"]),
                )
            )
        slash = None
        if body("slash") != "none":
            fields = _fields(lines["slash"][0], "slash ")
            slash = netsim.SlashInfo(
                origin_chain=fields["origin"],
                emitted_ms=int(fields["emitted_ms"]),
                applied_ms=int(fields["applied_ms"]),
                latency_ms=int(fields["latency_ms"]),
                slashed=tuple(int(x) for x in fields["ids"].split(";") if x),
                per_reporter_cut=int(fields["cut"]),
                total_cut=int(fields["total"]),
            )
        ledger = _fields(lines["ledger"][0], "ledger ")
        return _Block(
            committee=committee,
            packet=packet,
            median=_int_or_none(body("median")),
            receipts=tuple(receipts),
            e2e_ms=_int_or_none(body("e2e_ms")),
            slash=slash,
            ledger=(int(ledger["total"]), int(ledger["burned"])),
        )
    except (ValueError, KeyError) as exc:
        raise ValueError(f"unreadable record: {exc}") from exc


def _first_difference(recorded: str, replayed: str) -> str:
    """Name the first line where ``recorded`` departs from ``replayed``: by
    epoch, kind and field inside an epoch block, by number elsewhere."""
    epoch = None
    pairs = itertools.zip_longest(recorded.split("\n"), replayed.split("\n"))
    for k, (a, b) in enumerate(pairs, 1):
        if a != b:
            break
        if a.startswith("[epoch "):
            epoch = a[len("[epoch ") : -1]
        elif a == "[/epoch]":
            epoch = None
    if epoch is None:
        return f"line {k} diverges from deterministic replay: recorded {a!r}, replay {b!r}"
    kind, *a_words = a.split(" ")
    b_kind, *b_words = b.split(" ")
    if kind != b_kind or len(a_words) != len(b_words):
        return f"epoch {epoch}: recorded {a!r}, deterministic replay {b!r}"
    x, y = next(pair for pair in zip(a_words, b_words) if pair[0] != pair[1])
    key, eq, x_value = x.partition("=")
    if eq and y.startswith(key + "="):
        kind, x, y = f"{kind} {key}", x_value, y[len(key) + 1 :]
    return f"epoch {epoch}: {kind}: recorded {x}, deterministic replay {y}"


def verify_trace_text(text: str) -> TraceCheck:
    """Decode a trace, then replay it.

    Each epoch block is decoded and dropped; a block that does not decode
    exits 4 with its epoch and no replay runs.  Otherwise
    :func:`netsim.run` replays the embedded config, and the trace is
    accepted only if the replay renders to the same bytes: the replay's
    chains verified exactly those packets against exactly those
    committees, and its gas, latency, slashing and ledger rules are the
    ones the run used, so no rule is checked a second time here.

    When the bytes differ, only the blocks that differ from the replay's
    are decoded again, and each one's packet is re-verified against its
    recorded committee, so an altered signature is reported with its epoch
    and verdict.  If every verdict matches its receipts, the first
    diverging line is reported, with its epoch and field when it lies in
    an epoch block.
    """
    try:
        parsed = parse_trace(text)
        config = parse_config(parsed.config_text)
        config.validate()
    except Exception as exc:
        return TraceCheck(exit_code=2, problems=(f"corrupt trace: {exc}",))

    problems: list[str] = []
    seen = [epoch for epoch, _ in parsed.epochs]
    if seen != list(range(config.epochs)):
        problems.append(
            f"trace covers epochs {seen[:3]}..{seen[-3:] if seen else []} "
            f"but config says 0..{config.epochs - 1}"
        )
    for epoch, lines in parsed.epochs:
        try:
            _decode_block(epoch, lines)
        except ValueError as exc:
            problems.append(f"epoch {epoch}: {exc}")
    if problems:
        return TraceCheck(exit_code=4, problems=tuple(problems))

    regenerated = render_trace(netsim.run(config))
    if regenerated == parsed.text:
        return TraceCheck(exit_code=0, problems=())

    hub = netsim.governed_hub(config)
    for (epoch, lines), (_, replayed) in zip(parsed.epochs, parse_trace(regenerated).epochs):
        block = _decode_block(epoch, lines) if lines != replayed else None
        if block is None or block.packet is None or block.committee is None:
            continue
        result = verify(
            block.packet, block.committee, config.aggregation_params(hub.effective_params(epoch))
        )
        for receipt in block.receipts:
            if receipt.accepted != result.accepted:
                problems.append(
                    f"epoch {epoch}: chain {receipt.chain_id} recorded "
                    f"accepted={int(receipt.accepted)} but replay says {result.reason()}"
                )
            if receipt.reason != result.reason():
                problems.append(
                    f"epoch {epoch}: chain {receipt.chain_id} recorded reason "
                    f"{receipt.reason!r} but replay says {result.reason()!r}"
                )
    if not problems:
        problems.append(_first_difference(parsed.text, regenerated))
    return TraceCheck(exit_code=4, problems=tuple(problems))


def verify_trace_file(path: str) -> TraceCheck:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        return TraceCheck(exit_code=2, problems=(f"cannot read trace: {exc}",))
    return verify_trace_text(text)
