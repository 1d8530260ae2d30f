"""Run trace serialization, the per-epoch CSV, and trace self-verification.

The trace is a line-oriented text file: a header, the canonical config
echo, governance records, then one block per epoch with the pulse
digest, committee keys, full packet bytes, per-chain receipts, latency,
and ledger totals.  It carries everything needed to re-check the run:
packets re-verify from the committee keys alone, and the embedded
config reproduces the entire simulation.  Verification replays the config
once and compares each epoch's block with the replay's as the replay
closes it, stopping at the first that differs; the protocol rules
themselves live only in the modules the replay runs.

Verification distinguishes two failure classes.  File-level damage
(missing header, broken section structure, unreadable config) is
corruption.  Anything wrong inside an epoch block, from an unparseable
receipt to a flipped acceptance bit, is an outcome mismatch reported
with its epoch.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from typing import Optional

from . import netsim
from .chains import Receipt
from .errors import TraceCorruption
from .packets import OraclePacket
from .proofs import verify
from .scenario import ScenarioConfig, canonical_text, parse_config
from .vrf import Committee, ReporterIdentity, VrfOutput

TRACE_HEADER = "vzor-trace v1"

_PLACEHOLDER_SCORE = VrfOutput(value=0, proof=b"", input_digest=b"")


def ms_to_s_text(ms: int) -> str:
    """Exact millisecond-to-second rendering, no float rounding."""
    sign = "-" if ms < 0 else ""
    ms = abs(ms)
    return f"{sign}{ms // 1000}.{ms % 1000:03d}"


# -- rendering ---------------------------------------------------------------


def render_head(config: ScenarioConfig) -> str:
    """The trace's lines before its first epoch block: header, config echo,
    chains, the starting ledger and the governance records."""
    hub = netsim.governed_hub(config)
    total, burned = hub.snapshot()
    lines = [
        TRACE_HEADER,
        "[config]",
        canonical_text(config).rstrip("\n"),
        "[/config]",
        f"chains {','.join(config.chains)}",
        f"ledger start total={total} burned={burned}",
    ]
    for record in netsim.governance_records(hub, config.epochs):
        lines.append(
            f"governance effective={record.effective_epoch} "
            f"param={record.parameter} value={record.value}"
        )
    return "\n".join(lines) + "\n"


def render_block(rec: netsim.EpochRecord) -> str:
    """One epoch's block, from its ``[epoch N]`` line to its ``[/epoch]`` line."""
    lines = [f"[epoch {rec.epoch}]", f"pulse digest={rec.pulse_digest.hex()}"]
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
    return "\n".join(lines) + "\n"


def render_trace(trace: netsim.RunTrace) -> str:
    blocks = "".join(render_block(rec) for rec in trace.records)
    return render_head(trace.config) + blocks + "[end]\n"


def csv_row(cells) -> str:
    """One CSV row; a missing value (None) is an empty cell."""
    return ",".join("" if cell is None else str(cell) for cell in cells)


def render_csv(trace: netsim.RunTrace) -> str:
    chains = trace.config.chains
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
    head: str  # the text before the first epoch block
    epochs: tuple[tuple[int, str], ...]  # (epoch number, its block's text)


def parse_trace(text: str) -> ParsedTrace:
    """Structural parse only; raises TraceCorruption on file-level damage."""
    lines = text.split("\n")
    if not lines or lines[0] != TRACE_HEADER:
        raise TraceCorruption("missing trace header")
    i = 1
    if i >= len(lines) or lines[i] != "[config]":
        raise TraceCorruption("missing config section")
    i += 1
    while i < len(lines) and lines[i] != "[/config]":
        i += 1
    if i >= len(lines):
        raise TraceCorruption("unterminated config section")
    config_text = "\n".join(lines[2:i]) + "\n"
    i += 1
    if i >= len(lines) or not lines[i].startswith("chains "):
        raise TraceCorruption("missing chains line")
    if not any(lines[i][len("chains ") :].split(",")):
        raise TraceCorruption("empty chain list")
    i += 1
    if i >= len(lines) or not lines[i].startswith("ledger start total="):
        raise TraceCorruption("missing ledger start line")
    try:
        int(_fields(lines[i], "ledger start ")["total"])
    except (ValueError, KeyError) as exc:
        raise TraceCorruption(f"bad ledger start line: {exc}") from exc
    i += 1
    while i < len(lines) and lines[i].startswith("governance "):
        i += 1
    head = "\n".join(lines[:i]) + "\n"
    epochs = []
    while i < len(lines) and lines[i] != "[end]":
        start = i
        opener = lines[i]
        if not (opener.startswith("[epoch ") and opener.endswith("]")):
            raise TraceCorruption(f"expected epoch header, got {opener!r}")
        try:
            epoch = int(opener[len("[epoch ") : -1])
        except ValueError as exc:
            raise TraceCorruption(f"bad epoch header {opener!r}") from exc
        i += 1
        while i < len(lines) and lines[i] != "[/epoch]":
            if lines[i].startswith("[epoch ") or lines[i] == "[end]":
                raise TraceCorruption(f"unterminated block for epoch {epoch}")
            i += 1
        if i >= len(lines):
            raise TraceCorruption(f"unterminated block for epoch {epoch}")
        i += 1
        epochs.append((epoch, "\n".join(lines[start:i]) + "\n"))
    if lines[i:] != ["[end]", ""]:
        raise TraceCorruption("missing end marker, or text after it")
    return ParsedTrace(config_text=config_text, head=head, epochs=tuple(epochs))


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


def _decode_block(epoch: int, block: list[str]) -> _Block:
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


def _first_difference(recorded: str, replayed: str) -> tuple[int, Optional[str], Optional[str]]:
    """The number of the first line where two texts differ, and both lines."""
    pairs = itertools.zip_longest(recorded.split("\n"), replayed.split("\n"))
    return next((k, a, b) for k, (a, b) in enumerate(pairs, 1) if a != b)


def _block_problems(
    config: ScenarioConfig, epoch: int, recorded: str, replayed: str
) -> tuple[str, ...]:
    """Why epoch ``epoch``'s recorded block is not the replay's: it cannot
    be decoded, or its packet's verdict is not its receipts', or else its
    first diverging line, by kind and field."""
    try:
        block = _decode_block(epoch, recorded.split("\n")[1:-2])
    except ValueError as exc:
        return (f"epoch {epoch}: {exc}",)
    problems = []
    if block.packet is not None and block.committee is not None:
        governed = netsim.governed_hub(config).effective_params(epoch)
        result = verify(block.packet, block.committee, config.aggregation_params(governed))
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
    if problems:
        return tuple(problems)
    _, a, b = _first_difference(recorded, replayed)
    kind, *a_words = a.split(" ")
    b_kind, *b_words = b.split(" ")
    if kind != b_kind or len(a_words) != len(b_words):
        return (f"epoch {epoch}: recorded {a!r}, deterministic replay {b!r}",)
    x, y = next(pair for pair in zip(a_words, b_words) if pair[0] != pair[1])
    key, eq, x_value = x.partition("=")
    if eq and y.startswith(key + "="):
        kind, x, y = f"{kind} {key}", x_value, y[len(key) + 1 :]
    if max(len(x), len(y)) > 64:  # a hex word: quote from its first differing character
        at = len(os.path.commonprefix((x, y)))
        kind, x, y = f"{kind} at offset {at}", x[at : at + 16], y[at : at + 16]
    return (f"epoch {epoch}: {kind}: recorded {x}, deterministic replay {y}",)


def verify_trace_text(text: str) -> TraceCheck:
    """Check a trace against one replay of its embedded config, epoch by epoch.

    The head (config echo, chains, starting ledger, governance) must be
    what :func:`render_head` makes of the config; a difference is reported
    by line number and nothing is replayed.  Then the replay's
    :meth:`netsim.Simulator.epochs` hands on each epoch as it closes, and
    the recorded block must render to the same bytes.  The replay's chains
    verified exactly those packets against exactly those committees, and
    its gas, latency, slashing and ledger rules are the ones the run used,
    so no rule is checked a second time here.

    The first block that differs stops the replay, and only it is decoded:
    it is reported as unreadable, or by its packet re-verified against its
    recorded committee when the verdict is not its receipts', or else by
    its first diverging line, with its kind and field.
    """
    try:
        parsed = parse_trace(text)
        config = parse_config(parsed.config_text)
        config.validate()
    except Exception as exc:
        return TraceCheck(exit_code=2, problems=(f"corrupt trace: {exc}",))

    seen = [epoch for epoch, _ in parsed.epochs]
    if seen != list(range(config.epochs)):
        problem = (
            f"trace covers epochs {seen[:3]}..{seen[-3:] if seen else []} "
            f"but config says 0..{config.epochs - 1}"
        )
        return TraceCheck(exit_code=4, problems=(problem,))
    head = render_head(config)
    if parsed.head != head:
        k, a, b = _first_difference(parsed.head, head)
        problem = f"line {k} diverges from deterministic replay: recorded {a!r}, replay {b!r}"
        return TraceCheck(exit_code=4, problems=(problem,))

    replay = netsim.Simulator(config).epochs()
    try:
        for (epoch, recorded), record in zip(parsed.epochs, replay):
            replayed = render_block(record)
            if recorded != replayed:
                return TraceCheck(
                    exit_code=4, problems=_block_problems(config, epoch, recorded, replayed)
                )
    finally:
        replay.close()
    return TraceCheck(exit_code=0, problems=())


def verify_trace_file(path: str) -> TraceCheck:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        return TraceCheck(exit_code=2, problems=(f"cannot read trace: {exc}",))
    return verify_trace_text(text)
