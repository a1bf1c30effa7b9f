"""Benchmark-owned tracing: wrappers around each layer's public calls.

The program under test carries no instrumentation.  A traced run patches
the callables listed in a *wrap table* — module globals where the caller
looks them up (``repro.tos.node.solve_grouped``), methods and
classmethods on their class (``ShardStore.load``) — with timing
wrappers, and undoes every patch afterwards.

Each wrapper opens a span: name, start, end and the enclosing span.
Spans nest on one stack (every wrapped call is synchronous), so a
span's *self time* is its duration minus the durations of the spans
directly inside it.  Summed over all spans, self times equal the time
covered by top-level spans; the rest of the traced wall time is
``unattributed``.  Spans stay in memory and are written out once, at
the end, by :meth:`Tracer.dump`.

Hot per-entry calls (``WindowedAccumulator.feed``) are wrapped with
``record=False``: they count towards self times and call counts like
any span but are not kept as individual span records, so a traced
ingest of a million entries does not hold a million records.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Callable, Optional

#: Span name prefix -> layer (the module whose public call the span
#: wraps).  Self times are reported per layer under ``self_s.<layer>``.
LAYER_OF_SPAN = {
    "engine.": "sim.engine",
    "batch.": "sim.batch",
    "world.": "experiments.common",
    "network.": "tos.network",
    "logger.": "core.logger",
    "wire.": "core.logger",
    "timeline.": "core.timeline",
    "regression.": "core.regression",
    "accounting.": "core.accounting",
    "windowed.": "core.accounting",
    "netmerge.": "core.netmerge",
    "experiments.": "experiments",
    "sweep.": "sim.sweep",
    "shardstore.": "sim.shardstore",
    "journal.": "serve.journal",
    "session.": "serve.server",
    "protocol.": "serve.protocol",
}

LAYERS = tuple(dict.fromkeys(LAYER_OF_SPAN.values()))


def layer_of(span: str) -> str:
    for prefix, layer in LAYER_OF_SPAN.items():
        if span.startswith(prefix):
            return layer
    raise KeyError(f"span {span!r} has no layer")


class Tracer:
    """Span recorder plus named counters for one traced process."""

    def __init__(self) -> None:
        self.clock = time.perf_counter
        self._stack: list[list] = []  # [span, start, child_s, span_id]
        self.spans: list[tuple] = []  # (id, parent_id, span, start, end)
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.top_s = 0.0
        self._next_id = 0
        self._undo: list[Callable[[], None]] = []
        self.started: Optional[float] = None
        self.stopped: Optional[float] = None

    # -- spans -----------------------------------------------------------

    def active(self, span: str) -> bool:
        """Whether ``span`` is open anywhere on the stack."""
        return any(frame[0] == span for frame in self._stack)

    def _wrapper(self, original, span: str, record: bool, before, after):
        stack = self._stack
        clock = self.clock
        tracer = self

        def traced(*args, **kwargs):
            token = before(args, kwargs) if before is not None else None
            span_id = -1
            if record:
                span_id = tracer._next_id
                tracer._next_id += 1
            frame = [span, clock(), 0.0, span_id]
            stack.append(frame)
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                tracer.self_s[span] += duration - frame[2]
                tracer.total_s[span] += duration
                tracer.calls[span] += 1
                if stack:
                    stack[-1][2] += duration
                else:
                    tracer.top_s += duration
                if record:
                    parent = stack[-1][3] if stack else -1
                    tracer.spans.append(
                        (span_id, parent, span, frame[1], end))
            if after is not None:
                after(token, result, args, kwargs)
            return result

        traced.__wrapped__ = original
        return traced

    # -- patching --------------------------------------------------------

    def wrap(self, owner, attr: str, span: str, *, record: bool = True,
             before=None, after=None) -> None:
        """Replace ``owner.attr`` with a timing wrapper.

        ``owner`` is a module (the caller's namespace) or a class.
        ``before(args, kwargs)`` runs ahead of the call and its return
        value reaches ``after(token, result, args, kwargs)``; both run
        outside the span's own timing.
        """
        layer_of(span)  # every span must belong to a layer
        raw = owner.__dict__.get(attr) if isinstance(owner, type) \
            else getattr(owner, attr)
        inherited = raw is None
        if inherited:
            raw = getattr(owner, attr)
        if isinstance(raw, classmethod):
            patched = classmethod(self._wrapper(
                raw.__func__, span, record, before, after))
        else:
            patched = self._wrapper(raw, span, record, before, after)
        setattr(owner, attr, patched)
        if inherited:
            self._undo.append(lambda: delattr(owner, attr))
        else:
            self._undo.append(lambda: setattr(owner, attr, raw))

    def install(self, table) -> None:
        """Apply a wrap table: ``(module, owner, attr, span, options)``
        rows, where ``owner`` names a class in ``module`` or is None for
        a module-level name."""
        for module_name, owner_name, attr, span, options in table:
            owner = importlib.import_module(module_name)
            if owner_name is not None:
                owner = getattr(owner, owner_name)
            self.wrap(owner, attr, span, **options)

    def start(self) -> None:
        self.started = self.clock()

    def stop(self) -> None:
        """Close the traced window and undo every patch."""
        self.stopped = self.clock()
        while self._undo:
            self._undo.pop()()

    # -- results ---------------------------------------------------------

    @property
    def wall_s(self) -> float:
        end = self.stopped if self.stopped is not None else self.clock()
        return end - self.started

    def summary(self) -> dict:
        """Aggregates: per-span totals/self times/calls, counters, layer
        self times, and the unattributed remainder of the wall time."""
        layer_self = {layer: 0.0 for layer in LAYERS}
        for span, seconds in self.self_s.items():
            layer_self[layer_of(span)] += seconds
        return {
            "wall_s": self.wall_s,
            "unattributed_s": self.wall_s - self.top_s,
            "layer_self_s": layer_self,
            "total_s": dict(self.total_s),
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
        }

    def dump(self, path: Path) -> dict:
        """Write the spans and the summary as JSON (atomically); returns
        the summary."""
        summary = self.summary()
        body = {
            "summary": summary,
            "spans": [
                {"id": sid, "parent": parent, "name": span,
                 "start": start - self.started, "end": end - self.started}
                for sid, parent, span, start, end in self.spans
            ],
        }
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(body))
        tmp.replace(path)
        return summary


def merge_summaries(summaries: list[dict]) -> dict:
    """Sum several processes' wall, unattributed and layer self times
    (serve: the ingest server plus the restore server)."""
    return {
        "wall_s": sum(summary["wall_s"] for summary in summaries),
        "unattributed_s": sum(summary["unattributed_s"]
                              for summary in summaries),
        "layer_self_s": {
            layer: sum(summary["layer_self_s"][layer]
                       for summary in summaries)
            for layer in LAYERS
        },
    }
