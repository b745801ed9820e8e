"""Spans recorded by the benchmark around its calls into the library.

A span is one call into one layer: its name (``module.function``), start and
end on the ``perf_counter`` clock, the op it belongs to, its parent span and
the group it ran in (``"run"`` for set-up and warm-up, or the pass number).
Spans stay in memory until the run ends.  ``NullTracer`` is the untraced
path: it calls straight through and records nothing.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter

RUN_GROUP = "run"


class NullTracer:
    enabled = False
    spans: tuple = ()

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name: str, value: int) -> None:
        pass


class Tracer:
    """Records spans and counts; set ``op`` and ``group`` before each op."""

    enabled = True

    def __init__(self) -> None:
        # [name, start, end, op, parent index or -1, group]
        self.spans: list[list] = []
        self.counts: dict[tuple[str | int, str], int] = defaultdict(int)
        self.op = "setup"
        self.group: str | int = RUN_GROUP
        self._stack: list[int] = []

    def call(self, name, fn, *args, **kwargs):
        index = len(self.spans)
        span = [name, 0.0, 0.0, self.op, self._stack[-1] if self._stack else -1, self.group]
        self.spans.append(span)
        self._stack.append(index)
        span[1] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            self._stack.pop()

    def count(self, name: str, value: int) -> None:
        self.counts[(self.group, name)] += value


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[4] >= 0:
            own[s[4]] -= s[2] - s[1]
    return own


def op_balance_error(spans: list[list], root_name: str = "op") -> float:
    """Largest gap, over op spans, between the op's duration and the sum of
    the self times in its span tree.  Zero up to rounding when every span
    nests inside its parent."""
    own = self_times(spans)
    subtree_self = [0.0] * len(spans)
    for i in range(len(spans) - 1, -1, -1):  # children always follow parents
        subtree_self[i] += own[i]
        parent = spans[i][4]
        if parent >= 0:
            subtree_self[parent] += subtree_self[i]
    worst = 0.0
    for i, s in enumerate(spans):
        if s[0] == root_name and s[4] < 0:
            worst = max(worst, abs(subtree_self[i] - (s[2] - s[1])))
    return worst


def layer_table(tracer: Tracer, traced_passes: int) -> dict[str, dict[str, float]]:
    """Calls, busy time and self time per span name, plus counts.

    Set-up and warm-up spans count once; spans from the timed passes are
    averaged over the traced passes, so every figure describes one run
    with one pass of the op list.
    """
    sums: dict[tuple[str, bool], list] = defaultdict(lambda: [0, 0.0, 0.0])  # calls, busy, self
    for span, self_s in zip(tracer.spans, self_times(tracer.spans)):
        row = sums[(span[0], span[5] != RUN_GROUP)]
        row[0] += 1
        row[1] += span[2] - span[1]
        row[2] += self_s
    table: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
    for (name, in_passes), (calls, busy_s, self_s) in sums.items():
        scale = traced_passes if in_passes else 1
        row = table[name]
        row["calls"] += calls / scale
        row["busy_s"] += busy_s / scale
        row["self_s"] += self_s / scale
    totals: dict[tuple[str, bool], int] = defaultdict(int)
    for (group, name), value in tracer.counts.items():
        totals[(name, group != RUN_GROUP)] += value
    counts: dict[str, float] = defaultdict(float)
    for (name, in_passes), value in totals.items():
        counts[name] += value / traced_passes if in_passes else value
    return {"layers": dict(table), "counts": dict(counts)}


def write_spans(tracer: Tracer, path: Path) -> None:
    own = self_times(tracer.spans)
    with path.open("w", encoding="utf-8") as fh:
        for index, (span, self_s) in enumerate(zip(tracer.spans, own)):
            name, start, end, op, parent, group = span
            fh.write(json.dumps({
                "id": index, "name": name, "op": op, "parent": parent, "group": group,
                "start_s": start, "end_s": end, "self_s": self_s,
            }, separators=(",", ":")) + "\n")
