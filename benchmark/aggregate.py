"""Aggregation helpers for benchmark/run.py (tested by test_aggregate.py).

Kept free of I/O so every number the benchmark reports comes from one
small, tested function:

- percentile: nearest-rank, the convention for latency quantiles;
- median_rate: throughput as the median of per-second completion counts;
- window_percentile: a latency quantile taken in each one-second window,
  then the median over the windows;
- tail_count: how many samples lie strictly beyond a quantile, so a run
  can insist on at least ten samples beyond its p99;
- span_self_times: per-name self time of chrome://tracing "X" events
  (a span's duration minus its direct children on the same thread);
- OpCounts: attempted / succeeded / failed per operation kind, the base
  of fail_share.
"""

import math
import statistics


def percentile(values, q):
    """Nearest-rank q-quantile (0 < q <= 1) of a non-empty sequence."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < q <= 1:
        raise ValueError("quantile must be in (0, 1]")
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def tail_count(values, q):
    """Number of samples strictly greater than the q-quantile."""
    cut = percentile(values, q)
    return sum(1 for v in values if v > cut)


def median(values):
    return statistics.median(values)


def median_rate(done_times, wall):
    """Median over the whole one-second windows of [0, wall) of the
    operations completed in each; falls back to the overall rate when the
    run is shorter than two windows. A burst of host noise then moves one
    window, not the whole figure."""
    windows = int(wall)
    if windows < 2:
        return len(done_times) / wall
    counts = [0] * windows
    for t in done_times:
        if 0 <= t < windows:
            counts[int(t)] += 1
    return statistics.median(counts)


def window_percentile(done_times, values, wall, q):
    """Median over the whole one-second windows of [0, wall) (at least
    one) of the nearest-rank q-quantile of the values completed in each
    window; empty windows are skipped. Like median_rate, a disturbed
    stretch of the run moves the windows it covers, not the figure."""
    windows = max(1, int(wall))
    buckets = [[] for _ in range(windows)]
    for t, v in zip(done_times, values):
        if 0 <= t < windows:
            buckets[int(t)].append(v)
    return statistics.median(percentile(b, q) for b in buckets if b)


def span_self_times(events):
    """Sum of self time (microseconds) per span name.

    events: chrome trace events; only complete events ("ph" == "X") with
    "ts" and "dur" count. Nesting is per thread: a span's direct children
    are the spans that start and end inside it on the same tid.
    """
    by_tid = {}
    for e in events:
        if e.get("ph") == "X":
            by_tid.setdefault(e.get("tid", 0), []).append(e)
    totals = {}
    for spans in by_tid.values():
        # Parents first: earlier start, and for equal starts the longer one.
        spans.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack = []  # [end, name, child_time]

        def close(entry):
            end, name, child, dur = entry
            totals[name] = totals.get(name, 0) + max(0, dur - child)

        for e in spans:
            start, dur = e["ts"], e["dur"]
            while stack and start >= stack[-1][0]:
                close(stack.pop())
            if stack:
                stack[-1][2] += dur
            stack.append([start + dur, e["name"], 0, dur])
        while stack:
            close(stack.pop())
    return totals


class OpCounts:
    """Attempted / succeeded / failed operations per kind."""

    def __init__(self):
        self.kinds = {}

    def add(self, kind, ok, n=1):
        row = self.kinds.setdefault(
            kind, {"attempted": 0, "succeeded": 0, "failed": 0})
        row["attempted"] += n
        row["succeeded" if ok else "failed"] += n

    def attempted(self):
        return sum(r["attempted"] for r in self.kinds.values())

    def failed(self):
        return sum(r["failed"] for r in self.kinds.values())

    def fail_share(self):
        """Failed over attempted operations of every kind (0 when none)."""
        attempted = self.attempted()
        return self.failed() / attempted if attempted else 0.0

    def as_dict(self):
        return {k: dict(v) for k, v in sorted(self.kinds.items())}
