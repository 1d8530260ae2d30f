"""Run trace serialization, the per-epoch CSV, and trace self-verification.

The trace is a line-oriented text file: a header, the canonical config
echo, governance records, then one block per epoch with the pulse
digest, committee keys, full packet bytes, per-chain receipts, latency,
and ledger totals.  It carries everything needed to re-check the run:
packets re-verify from the committee keys alone, and the embedded
config reproduces the entire simulation.  ``vzor run`` writes the head,
then each block and CSV row as the simulator closes its epoch, through
:func:`render_trace`.  Verification reads the trace once, line by line:
it checks the structure as it reads, and compares each epoch's block
with the replay's as the replay closes it, up to the first that
differs.  It holds no more than one block, so a trace can be read from
a pipe, and the protocol rules themselves live only in the modules the
replay runs.

Verification distinguishes two failure classes, and gives its verdict
after the last line, corruption first.  File-level damage (missing
header, broken section structure, unreadable config) is corruption.
Anything wrong inside an epoch block, from an unparseable receipt to a
flipped acceptance bit, is an outcome mismatch reported with its epoch.
"""

from __future__ import annotations

import io
import itertools
import os
from typing import Callable, Iterator, NamedTuple, Optional, TextIO, Union

from . import netsim
from .errors import TraceCorruption
from .packets import OraclePacket
from .proofs import verify
from .scenario import canonical_text, parse_config
from .vrf import Committee, ReporterIdentity

TRACE_HEADER = "vzor-trace v1"
TRACE_END = "[end]\n"


def ms_to_s_text(ms: int) -> str:
    """Exact millisecond-to-second rendering, no float rounding."""
    sign = "-" if ms < 0 else ""
    ms = abs(ms)
    return f"{sign}{ms // 1000}.{ms % 1000:03d}"


# -- rendering ---------------------------------------------------------------


def render_head(sim: netsim.Simulator) -> str:
    """The trace's lines before its first epoch block: header, config echo,
    chains, the starting ledger and the governance records, read from a
    simulator.  Nothing is burned before epoch 0."""
    config = sim.config
    lines = [
        TRACE_HEADER,
        "[config]",
        canonical_text(config).rstrip("\n"),
        "[/config]",
        f"chains {','.join(config.chains)}",
        f"ledger start total={sim.initial_total} burned=0",
    ]
    lines += (
        f"governance effective={u.effective_epoch} param={u.parameter} value={u.value}"
        for u in sim.governance_records
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
    sim: netsim.Simulator, out: TextIO, sink: Callable[[netsim.EpochRecord], object]
) -> netsim.RunTrace:
    """Run ``sim``, writing its trace to ``out``: its head, one block per
    epoch as the epoch closes, then the end marker.  Each record goes on to
    ``sink``, and the run's :class:`netsim.RunTrace` is returned.  ``vzor
    run`` streams through here so that ``bench/tracer.py``, which times
    ``render_trace`` and ``Simulator.run`` by name, sees it.
    """
    out.write(render_head(sim))

    def write(record: netsim.EpochRecord) -> None:
        out.write(render_block(record))
        sink(record)

    run_trace = sim.run(write)
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


# -- parsing ------------------------------------------------------------------


def parse_trace(lines: Iterator[str]) -> tuple[str, str, str]:
    """Structural parse of a trace's head from an iterator over its lines,
    each with its newline, as an open file or ``io.StringIO`` gives them.
    Returns its config, the head (the text before the first epoch block)
    and the line after it ("" at the end), where :func:`_blocks` reads on;
    raises TraceCorruption on damage."""
    head = []  # the lines before the first block
    while (line := next(lines, "")) and not line.startswith(("[epoch ", "[end]")):
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
    return "\n".join(head[2:i]) + "\n", "\n".join(head) + "\n", line


def _blocks(line: str, lines: Iterator[str]) -> Iterator[tuple[int, str]]:
    """Each epoch block's number and text, from ``line`` on, checked as it is
    read up to the end marker; raises TraceCorruption on damage."""
    while line.startswith("[epoch "):
        if not line.endswith("]\n"):
            raise TraceCorruption(f"expected epoch header, got {line!r}")
        try:
            epoch = int(line[len("[epoch ") : -2])
        except ValueError as exc:
            raise TraceCorruption(f"bad epoch header {line!r}") from exc
        block = [line]
        while (line := next(lines, "[end]\n")) != "[/epoch]\n":  # no text left: unterminated
            if line.startswith("[epoch ") or line == "[end]\n":
                raise TraceCorruption(f"unterminated block for epoch {epoch}")
            block.append(line)
        yield epoch, "".join(block) + line
        line = next(lines, "")
    if line != "[end]\n" or next(lines, None) is not None:
        raise TraceCorruption("missing end marker, or text after it")


# -- verification ---------------------------------------------------------------


class TraceCheck(NamedTuple):
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


def _verdict_problems(sim: netsim.Simulator, epoch: int, block: list[str]) -> list[str]:
    """The recorded receipts whose verdict is not the one the recorded packet
    gets under the recorded committee and the replay's parameters at ``epoch``.
    Only those lines are decoded; one that cannot be raises ValueError or KeyError."""
    body = dict(line.partition(" ")[::2] for line in block)  # kind -> its (last) line's body
    if "none" in (body.get("committee", "none"), body.get("packet", "none")):
        return []
    members = []
    for item in body["committee"].split(","):
        rid_text, pk_hex = item.split(":", 1)
        members.append(ReporterIdentity(int(rid_text), bytes.fromhex(pk_hex)))
    packet = OraclePacket.from_bytes(bytes.fromhex(body["packet"]))
    agg = sim.config.aggregation_params(sim.hub.effective_params(epoch))
    result = verify(packet, Committee(epoch, tuple(members)), agg)
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
    sim: netsim.Simulator, epoch: int, recorded: str, replayed: str
) -> tuple[str, ...]:
    """Why epoch ``epoch``'s recorded block is not the replay's: its packet's
    verdict is not its receipts', or the lines that say so cannot be read,
    or else its first diverging line, by kind and field."""
    try:
        problems = _verdict_problems(sim, epoch, recorded.split("\n")[1:-2])
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
    """Check a trace, a string or a text file open for reading (a pipe will
    do), against one replay of its embedded config, in one pass over its lines.

    A string is read as ``io.StringIO``.  :func:`parse_trace` reads the
    head, whose config builds and validates the replay's
    :class:`netsim.Simulator`, and :func:`_blocks` reads on.  While the head
    is what :func:`render_head` makes of that simulator, the blocks so far
    are epochs 0, 1, 2, ... and none has differed, each block must render to
    the bytes of the next epoch :meth:`netsim.Simulator.epochs` hands on.  The
    replay's chains verified exactly those packets against exactly those
    committees, and its gas, latency, slashing and ledger rules are the ones
    the run used, so no rule is checked a second time here.

    The verdict comes after the last line.  Exit 2: damage or an unreadable
    line, the first in file order, else a config that does not parse or
    validate.  Exit 4: blocks that are not the config's epochs 0..E-1, else a
    head that differs, by line number, else the first block that differs, the
    only one decoded: as unreadable, or by its packet re-verified against its
    recorded committee when the verdict is not its receipts', or else by its
    first diverging line, kind and field.
    """
    lines = iter(io.StringIO(text) if isinstance(text, str) else text)
    try:
        config_text, recorded_head, line = parse_trace(lines)
    except Exception as exc:  # damage, or a line that cannot be read
        return TraceCheck(exit_code=2, problems=(f"corrupt trace: {exc}",))
    try:
        sim, invalid = netsim.Simulator(parse_config(config_text)), None
    except Exception as exc:  # reported unless damage follows
        sim, invalid = None, TraceCheck(exit_code=2, problems=(f"corrupt trace: {exc}",))
    replay = sim.epochs() if sim and (head := render_head(sim)) == recorded_head else None
    blocks, seen, count, in_order, mismatch = _blocks(line, lines), [], 0, True, ()
    try:
        while True:
            try:
                epoch, recorded = next(blocks)
            except StopIteration:
                break
            except Exception as exc:  # damage, or a line that cannot be read
                return TraceCheck(exit_code=2, problems=(f"corrupt trace: {exc}",))
            in_order = in_order and epoch == count
            count += 1
            seen.append(epoch)
            del seen[3:-3]  # the first three and the last three are all a report names
            if replay and in_order and not mismatch and (record := next(replay, None)):
                if (replayed := render_block(record)) != recorded:
                    mismatch = _block_problems(sim, epoch, recorded, replayed)
    finally:
        if replay:
            replay.close()
    if invalid:
        return invalid
    if not in_order or count != sim.config.epochs:
        last = sim.config.epochs - 1
        mismatch = (f"trace covers epochs {seen[:3]}..{seen[-3:]} but config says 0..{last}",)
    elif recorded_head != head:
        k, a, b = _first_difference(recorded_head, head)
        mismatch = (f"line {k} diverges from deterministic replay: recorded {a!r}, replay {b!r}",)
    return TraceCheck(exit_code=4 if mismatch else 0, problems=mismatch)


def verify_trace_file(path: str) -> TraceCheck:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return verify_trace_text(handle)
    except OSError as exc:  # unopenable
        return TraceCheck(exit_code=2, problems=(f"cannot read trace: {exc}",))
