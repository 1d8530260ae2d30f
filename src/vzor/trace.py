"""Run trace serialization, the per-epoch CSV, and trace self-verification.

The trace is a line-oriented text file: a header, the canonical config
echo, governance records, then one block per epoch with the pulse
digest, committee keys, full packet bytes, per-chain receipts, latency,
and ledger totals.  It carries everything needed to re-check the run:
packets re-verify from the committee keys alone, and the embedded
config reproduces the entire simulation.  ``vzor run`` writes the head,
then each block and CSV row as the simulator closes its epoch, through
:func:`render_trace`, the same function that renders a finished run.
Verification reads the trace line by line, twice: once to check its
structure, then again to compare each epoch's block with the replay's as
the replay closes it, stopping at the first that differs.  Neither holds
more than one block, and the protocol rules themselves live only in the
modules the replay runs.

Verification distinguishes two failure classes.  File-level damage
(missing header, broken section structure, unreadable config) is
corruption.  Anything wrong inside an epoch block, from an unparseable
receipt to a flipped acceptance bit, is an outcome mismatch reported
with its epoch.
"""

from __future__ import annotations

import io
import itertools
import os
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, TextIO, Union

from . import netsim
from .errors import TraceCorruption
from .packets import OraclePacket
from .proofs import verify
from .scenario import ScenarioConfig, canonical_text, parse_config
from .vrf import Committee, ReporterIdentity, VrfOutput

TRACE_HEADER = "vzor-trace v1"
TRACE_END = "[end]\n"

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


def render_trace(
    run: Union[netsim.RunTrace, netsim.Simulator],
    out: Optional[TextIO] = None,
    sink: Callable[[netsim.EpochRecord], object] = lambda record: None,
) -> Union[str, netsim.RunTrace]:
    """A run's trace: its head, one block per epoch, then the end marker.

    A finished :class:`netsim.RunTrace` gives its text.  A
    :class:`netsim.Simulator` is run, and its trace written to ``out`` as it
    goes: each epoch's block as the epoch closes, after which the record goes
    on to ``sink``.  Its :class:`netsim.RunTrace`, which keeps no records, is
    returned.  ``vzor run`` streams this way so that ``bench/tracer.py``,
    which times ``render_trace`` and ``Simulator.run`` by name, sees it.
    """
    if isinstance(run, netsim.RunTrace):
        return render_head(run.config) + "".join(map(render_block, run.records)) + TRACE_END
    out.write(render_head(run.config))

    def write(record: netsim.EpochRecord) -> None:
        out.write(render_block(record))
        sink(record)

    run_trace = run.run(write)
    out.write(TRACE_END)
    return run_trace


def csv_row(cells) -> str:
    """One CSV row; a missing value (None) is an empty cell."""
    return ",".join("" if cell is None else str(cell) for cell in cells)


def csv_head(chains: tuple[str, ...]) -> str:
    """The per-epoch CSV's header line."""
    return csv_row(
        ["epoch", "committee_ids", "median"]
        + [f"accepted_{c}" for c in chains]
        + [f"gas_{c}" for c in chains]
        + ["e2e_latency_s", "fraud_injected", "slash_latency_s", "slashed_ids"]
    ) + "\n"


def csv_line(rec: netsim.EpochRecord, chains: tuple[str, ...]) -> str:
    """One epoch's CSV line."""
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
    return csv_row(cells) + "\n"


def render_csv(trace: netsim.RunTrace) -> str:
    chains = trace.config.chains
    return csv_head(chains) + "".join(csv_line(rec, chains) for rec in trace.records)


# -- parsing ------------------------------------------------------------------


@dataclass(frozen=True)
class ParsedTrace:
    config_text: str
    head: str  # the text before the first epoch block
    epochs: tuple[int, ...]  # each block's epoch number, in file order


def parse_trace(lines: Iterable[str]) -> ParsedTrace:
    """Structural parse of a trace's lines, each with its newline, as an open
    file or ``io.StringIO`` gives them.  Keeps only the config, the head and
    the epoch numbers; raises TraceCorruption on file-level damage."""
    source = iter(lines)
    head = []  # the lines before the first block
    while (line := next(source, "")) and not line.startswith(("[epoch ", "[end]")):
        head.append(line.removesuffix("\n"))
    if head[:1] != [TRACE_HEADER]:
        raise TraceCorruption("missing trace header")
    if head[1:2] != ["[config]"]:
        raise TraceCorruption("missing config section")
    if "[/config]" not in head:
        raise TraceCorruption("unterminated config section")
    i = head.index("[/config]")
    if len(head) < i + 2 or not head[i + 1].startswith("chains "):
        raise TraceCorruption("missing chains line")
    if not any(head[i + 1][len("chains ") :].split(",")):
        raise TraceCorruption("empty chain list")
    if len(head) < i + 3 or not head[i + 2].startswith("ledger start total="):
        raise TraceCorruption("missing ledger start line")
    try:
        int(_fields(head[i + 2], "ledger start ")["total"])
    except (ValueError, KeyError) as exc:
        raise TraceCorruption(f"bad ledger start line: {exc}") from exc
    strays = [x for x in head[i + 3 :] if not x.startswith("governance ")]
    if strays:
        raise TraceCorruption(f"expected epoch header, got {strays[0]!r}")
    epochs = []
    while line.startswith("[epoch "):
        if not line.endswith("]\n"):
            raise TraceCorruption(f"expected epoch header, got {line!r}")
        try:
            epochs.append(int(line[len("[epoch ") : -2]))
        except ValueError as exc:
            raise TraceCorruption(f"bad epoch header {line!r}") from exc
        while (line := next(source, "[end]\n")) != "[/epoch]\n":  # no text left: unterminated
            if line.startswith("[epoch ") or line == "[end]\n":
                raise TraceCorruption(f"unterminated block for epoch {epochs[-1]}")
        line = next(source, "")
    if line != "[end]\n" or next(source, None) is not None:
        raise TraceCorruption("missing end marker, or text after it")
    return ParsedTrace("\n".join(head[2:i]) + "\n", "\n".join(head) + "\n", tuple(epochs))


def _blocks(lines: Iterable[str]) -> Iterator[str]:
    """The text of each epoch block in a trace's lines after its head, once
    :func:`parse_trace` has checked them."""
    block: list[str] = []
    for line in lines:
        block.append(line)
        if line == "[/epoch]\n":
            yield "".join(block)
            block = []


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


def _verdict_problems(config: ScenarioConfig, epoch: int, block: list[str]) -> list[str]:
    """The recorded receipts whose verdict is not the one the recorded packet
    gets under the recorded committee.  Only those lines are decoded; one
    that cannot be raises ValueError or KeyError."""
    body = dict(line.partition(" ")[::2] for line in block)  # kind -> its (last) line's body
    if "none" in (body.get("committee", "none"), body.get("packet", "none")):
        return []
    members = []
    for item in body["committee"].split(","):
        rid_text, pk_hex = item.split(":", 1)
        members.append((ReporterIdentity(int(rid_text), bytes.fromhex(pk_hex)), _PLACEHOLDER_SCORE))
    packet = OraclePacket.from_bytes(bytes.fromhex(body["packet"]))
    governed = netsim.governed_hub(config).effective_params(epoch)
    result = verify(packet, Committee(epoch, tuple(members)), config.aggregation_params(governed))
    problems = []
    for receipt in (_fields(x, "receipt ") for x in block if x.startswith("receipt ")):
        chain, accepted = receipt["chain"], receipt["accepted"] == "1"
        if accepted != result.accepted:
            problems.append(
                f"epoch {epoch}: chain {chain} recorded "
                f"accepted={int(accepted)} but replay says {result.reason()}"
            )
        if receipt["reason"] != result.reason():
            problems.append(
                f"epoch {epoch}: chain {chain} recorded reason "
                f"{receipt['reason']!r} but replay says {result.reason()!r}"
            )
    return problems


def _first_difference(recorded: str, replayed: str) -> tuple[int, Optional[str], Optional[str]]:
    """The number of the first line where two texts differ, and both lines."""
    pairs = itertools.zip_longest(recorded.split("\n"), replayed.split("\n"))
    return next((k, a, b) for k, (a, b) in enumerate(pairs, 1) if a != b)


def _block_problems(
    config: ScenarioConfig, epoch: int, recorded: str, replayed: str
) -> tuple[str, ...]:
    """Why epoch ``epoch``'s recorded block is not the replay's: its packet's
    verdict is not its receipts', or the lines that say so cannot be read,
    or else its first diverging line, by kind and field."""
    try:
        problems = _verdict_problems(config, epoch, recorded.split("\n")[1:-2])
    except (ValueError, KeyError) as exc:
        return (f"epoch {epoch}: unreadable record: {exc}",)
    if problems:
        return tuple(problems)
    _, a, b = _first_difference(recorded, replayed)
    kind, *a_words = a.split(" ")
    b_kind, *b_words = b.split(" ")
    if kind == b_kind and len(a_words) == len(b_words):  # name the first differing word
        x, y = next(pair for pair in zip(a_words, b_words) if pair[0] != pair[1])
        key, eq, x_value = x.partition("=")
        if eq and y.startswith(key + "="):
            kind, x, y = f"{kind} {key}", x_value, y[len(key) + 1 :]
    elif max(len(a), len(b)) <= 64:  # short lines that differ whole
        return (f"epoch {epoch}: recorded {a!r}, deterministic replay {b!r}",)
    else:
        kind, x, y = f"{b_kind} line", a, b
    if max(len(x), len(y)) > 64:  # a hex word or a long line: quote from where they differ
        at = len(os.path.commonprefix((x, y)))
        kind, x, y = f"{kind} at offset {at}", x[at : at + 16], y[at : at + 16]
    return (f"epoch {epoch}: {kind}: recorded {x}, deterministic replay {y}",)


def verify_trace_text(text: Union[str, TextIO]) -> TraceCheck:
    """Check a trace, a string or a text file open for reading, against one
    replay of its embedded config, epoch by epoch.

    A string is read as ``io.StringIO``, so both take one path, in two
    passes over the lines.  The first is :func:`parse_trace`: damage is
    corruption, found before anything is replayed.  The head (config echo,
    chains, starting ledger, governance) must be what :func:`render_head`
    makes of the config; a difference is reported by line number and
    nothing is replayed.  The second pass starts over and reads one block
    at a time as the replay's :meth:`netsim.Simulator.epochs` hands on each
    epoch; the recorded block must render to the same bytes, and a file
    cut short or grown by a block since the first pass is corruption.  The replay's chains
    verified exactly those packets against exactly those committees, and
    its gas, latency, slashing and ledger rules are the ones the run used,
    so no rule is checked a second time here.

    The first block that differs stops the replay, and only it is decoded:
    it is reported as unreadable, or by its packet re-verified against its
    recorded committee when the verdict is not its receipts', or else by
    its first diverging line, with its kind and field.
    """
    source = io.StringIO(text) if isinstance(text, str) else text
    try:
        parsed = parse_trace(source)
        config = parse_config(parsed.config_text)
        config.validate()
    except Exception as exc:
        return TraceCheck(exit_code=2, problems=(f"corrupt trace: {exc}",))

    seen = list(parsed.epochs)
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

    source.seek(0)
    blocks = _blocks(itertools.islice(source, head.count("\n"), None))
    replay = netsim.Simulator(config).epochs()
    compared = 0
    try:
        for epoch, recorded, record in zip(seen, blocks, replay):
            compared += 1
            replayed = render_block(record)
            if recorded != replayed:
                return TraceCheck(
                    exit_code=4, problems=_block_problems(config, epoch, recorded, replayed)
                )
    finally:
        replay.close()
    if compared < len(seen) or next(blocks, None) is not None:  # cut or grown since pass 1
        return TraceCheck(exit_code=2, problems=("corrupt trace: it changed while being read",))
    return TraceCheck(exit_code=0, problems=())


def verify_trace_file(path: str) -> TraceCheck:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return verify_trace_text(handle)
    except (OSError, UnicodeDecodeError) as exc:  # unopenable, or changed after pass 1
        return TraceCheck(exit_code=2, problems=(f"cannot read trace: {exc}",))
