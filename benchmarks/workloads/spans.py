"""In-memory span recorder for the traced benchmark pass.

A span is one call into a layer: name, start, end and the span that
caused it (its parent).  *Coarse* spans (one benchmark operation, a
spell-checker point, ``Kernel.run``, an experiments target, a fuzz
trial, a minimizer replay) are kept as records.  *Fine* spans (context
switches, trap handlers, event emits, cache keys) happen up to
millions of times per run, so they are folded into a count, a total
and a self time on their nearest kept ancestor; memory stays bounded
by the number of coarse spans.

Self time is a span's duration minus the part of it its child spans
cover.  Everything is kept in memory and written out once, at the end
of the run, by :meth:`SpanRecorder.write`.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from typing import Callable, Dict, List


class SpanRecorder:
    """Records nested spans; see the module docstring."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        #: kept spans, in end order
        self.records: List[dict] = []
        #: fine spans that ended with no kept ancestor
        self.folded: Dict[str, List[float]] = {}
        # open spans: [id, name, start, child_s, keep, folded]
        self._stack: List[list] = []
        self._next_id = 0

    def begin(self, name: str, keep: bool = True) -> None:
        self._next_id += 1
        self._stack.append([self._next_id, name, self.clock(), 0.0, keep,
                            {} if keep else None])

    def end(self) -> None:
        end = self.clock()
        span_id, name, start, child_s, keep, folded = self._stack.pop()
        duration = end - start
        self_s = duration - child_s
        stack = self._stack
        if stack:
            stack[-1][3] += duration
        if keep:
            self.records.append({
                "id": span_id, "name": name,
                "parent": stack[-1][0] if stack else None,
                "start": start, "end": end, "self_s": self_s,
                "folded": folded})
            return
        target = self.folded
        for frame in reversed(stack):
            if frame[4]:
                target = frame[5]
                break
        entry = target.get(name)
        if entry is None:
            target[name] = [1, duration, self_s]
        else:
            entry[0] += 1
            entry[1] += duration
            entry[2] += self_s

    @contextmanager
    def span(self, name: str, keep: bool = True):
        self.begin(name, keep)
        try:
            yield
        finally:
            self.end()

    def wrap(self, fn: Callable, name: str, keep: bool = True) -> Callable:
        """``fn`` with every call recorded as a span called ``name``."""
        begin, end = self.begin, self.end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            begin(name, keep)
            try:
                return fn(*args, **kwargs)
            finally:
                end()

        return wrapper

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``count``, ``total_s`` and ``self_s``."""
        out: Dict[str, Dict[str, float]] = {}

        def add(name, count, total, self_s):
            entry = out.setdefault(name, {"count": 0, "total_s": 0.0,
                                          "self_s": 0.0})
            entry["count"] += count
            entry["total_s"] += total
            entry["self_s"] += self_s

        for record in self.records:
            add(record["name"], 1, record["end"] - record["start"],
                record["self_s"])
            for name, (count, total, self_s) in record["folded"].items():
                add(name, count, total, self_s)
        for name, (count, total, self_s) in self.folded.items():
            add(name, count, total, self_s)
        return out

    def merge_child(self, totals: Dict[str, Dict[str, float]],
                    covered_s: float) -> None:
        """Fold the totals a child process recorded into the open span.

        ``covered_s`` is the part of the child's life its top-level
        spans cover; it counts as child time of the open span, so the
        open span's self time stays "wall minus named spans"."""
        frame = self._stack[-1]
        frame[3] += covered_s
        target = frame[5] if frame[4] else self.folded
        for name, entry in totals.items():
            mine = target.setdefault(name, [0, 0.0, 0.0])
            mine[0] += entry["count"]
            mine[1] += entry["total_s"]
            mine[2] += entry["self_s"]

    def covered_s(self) -> float:
        """Time covered by spans that have no parent."""
        return sum(r["end"] - r["start"] for r in self.records
                   if r["parent"] is None)

    def write(self, path) -> None:
        with open(path, "w") as handle:
            json.dump({"records": self.records, "folded": self.folded,
                       "totals": self.totals()},
                      handle, indent=1, sort_keys=True)
            handle.write("\n")
