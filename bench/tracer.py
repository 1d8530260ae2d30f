"""In-process span tracer that wraps vzor's public functions from outside.

`Tracer.install` replaces every public function bound in each vzor module
with a timing wrapper named after the module that binds it, so
`chains.verify`, `hub.verify` and `trace.verify` are three spans of the one
`proofs.verify`, and `tagged_digest` is timed separately in each module
that imports it.  The methods in `METHODS` are wrapped on their classes.
`uninstall` puts every original back.

A span is (id, binding, start_ns, end_ns, parent id, self_ns), kept in
memory and written out by `write`.  Self time is the span's duration
minus its children's.  Calls into the primitive layers (`encoding`:
SHA-256 and byte packing, `sig`: Ed25519) happen up to a million times a
run, so they are counted and timed per binding but get no span record of
their own; their time still counts as child time of the span that made
them.  Statistics are kept per phase and per layer name, the defining
module and qualified name (`proofs.verify`), summed over every binding.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
import types

MODULES = (
    "beacon", "chains", "cli", "encoding", "hub", "netsim", "oracle",
    "packets", "proofs", "scenario", "sig", "trace", "vrf",
)
# Methods that are layer entry points; plain accessors are left alone.
METHODS = (
    ("netsim", "Simulator", "__init__"),
    ("netsim", "Simulator", "run"),
    ("chains", "Chain", "submit_packet"),
    ("hub", "Hub", "adjudicate"),
    ("sig", "Signer", "sign"),
)
PRIMITIVE_LAYERS = ("vzor.encoding", "vzor.sig")


class Stats:
    __slots__ = ("calls", "total_ns", "self_ns")

    def __init__(self) -> None:
        self.calls = self.total_ns = self.self_ns = 0

    def add(self, calls: int, total_ns: int, self_ns: int) -> None:
        self.calls += calls
        self.total_ns += total_ns
        self.self_ns += self_ns


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []  # binding of each span name index
        self.layers: list[str] = []  # layer of each span name index
        self.spans: list[list[int]] = []
        self.leaf: dict[str, list] = {}  # binding -> [calls, total_ns, layer]
        self.stats: dict[tuple[str, str], Stats] = {}  # (phase, layer) -> Stats
        self.phase = ""
        self._stack: list[list[int]] = []  # [name index, start_ns, child_ns, span id]
        self._patched: list[tuple[object, str, object]] = []
        self._span_mark = 0
        self._leaf_mark: dict[str, tuple[int, int]] = {}

    # -- wrapping -----------------------------------------------------------

    def install(self) -> None:
        for short in MODULES:
            module = importlib.import_module(f"vzor.{short}")
            for name, fn in list(vars(module).items()):
                if (
                    isinstance(fn, types.FunctionType)
                    and not name.startswith("_")
                    and fn.__module__.startswith("vzor.")
                ):
                    self._patch(module, name, fn, f"{short}.{name}")
        for short, cls_name, name in METHODS:
            cls = getattr(importlib.import_module(f"vzor.{short}"), cls_name)
            self._patch(cls, name, vars(cls)[name], f"{short}.{cls_name}.{name}")

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    def _patch(self, owner: object, name: str, fn, binding: str) -> None:
        layer = fn.__module__.removeprefix("vzor.") + "." + fn.__qualname__
        if fn.__module__ in PRIMITIVE_LAYERS:
            wrapper = self._leaf_wrapper(fn, binding, layer)
        else:
            wrapper = self._span_wrapper(fn, binding, layer)
        self._patched.append((owner, name, fn))
        setattr(owner, name, wrapper)

    def _span_wrapper(self, fn, binding: str, layer: str):
        index = len(self.names)
        self.names.append(binding)
        self.layers.append(layer)
        stack, spans, clock = self._stack, self.spans, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = len(spans)
            spans.append(None)
            frame = [index, 0, 0, span_id]
            stack.append(frame)
            frame[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                if stack:
                    stack[-1][2] += duration
                    parent = stack[-1][3]
                else:
                    parent = -1
                spans[span_id] = [span_id, index, frame[1], end, parent, duration - frame[2]]

        return wrapper

    def _leaf_wrapper(self, fn, binding: str, layer: str):
        stack, clock = self._stack, time.perf_counter_ns
        counts = self.leaf.setdefault(binding, [0, 0, layer])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                if stack:
                    stack[-1][2] += duration
                counts[0] += 1
                counts[1] += duration

        return wrapper

    # -- phases and reading ---------------------------------------------------

    def begin(self, phase: str) -> None:
        """Attribute the calls made from now on to ``phase``."""
        self._fold()
        self.phase = phase

    def _fold(self) -> None:
        """Add the calls made since the last fold to the current phase."""
        if self.phase:
            for span in self.spans[self._span_mark :]:
                stats = self.stats.setdefault((self.phase, self.layers[span[1]]), Stats())
                stats.add(1, span[3] - span[2], span[5])
            for binding, (calls, total, layer) in self.leaf.items():
                done_calls, done_total = self._leaf_mark.get(binding, (0, 0))
                stats = self.stats.setdefault((self.phase, layer), Stats())
                stats.add(calls - done_calls, total - done_total, total - done_total)
        self._span_mark = len(self.spans)
        self._leaf_mark = {b: (c, t) for b, (c, t, _) in self.leaf.items()}

    def get(self, phase: str, layer: str) -> Stats:
        self.begin(self.phase)
        return self.stats.get((phase, layer)) or Stats()

    def children(self, span_id: int) -> list[list[int]]:
        return [s for s in self.spans if s[4] == span_id]

    def find(self, binding: str) -> list[list[int]]:
        index = self.names.index(binding)
        return [s for s in self.spans if s[1] == index]

    def write(self, path: str, extra: dict) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "span_fields": ["id", "name", "start_ns", "end_ns", "parent", "self_ns"],
                    "names": self.names,
                    "spans": self.spans,
                    "leaf_calls": {
                        b: {"calls": c, "total_ns": t} for b, (c, t, _) in self.leaf.items()
                    },
                    **extra,
                },
                handle,
                separators=(",", ":"),
            )
