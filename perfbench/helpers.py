"""Measurement helpers shared by the workloads (pure Python, no numpy).

Everything here is imported before ``repro``, so the cold-import timing
of ``repro`` in ``run.py`` is not polluted by numpy being loaded early.

* :func:`tail_percentile` / :func:`summarize` — a timing is a median plus
  the highest percentile of a fixed ladder that still has at least ten
  samples beyond it, with the sample count and the percentile recorded.
* :class:`Spans` — in-memory spans recorded at layer boundaries in the
  benchmark's own code (name, start, end, parent, attributes); a no-op
  when tracing is off.  :func:`self_times` and :func:`self_time_table`
  turn them into per-layer self time: total -> layer -> stage -> call.
* :func:`poisson_schedule` — seeded open-loop arrival times.
"""

import contextlib
import itertools
import math
import random
import statistics
import threading
import time

#: Percentiles a ``*_tail`` metric may report, lowest first.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

#: Samples that must lie beyond the reported tail percentile.
MIN_BEYOND = 10


def _rank(percentile, n):
    """1-based nearest rank; rounding first keeps 99.9 % of 10000 at
    9990, not 9991."""
    return max(1, math.ceil(round(percentile / 100.0 * n, 9)))


def nearest_rank(sorted_values, percentile):
    """The nearest-rank ``percentile`` (0-100] of pre-sorted values."""
    if not sorted_values:
        raise ValueError("no samples")
    return sorted_values[_rank(percentile, len(sorted_values)) - 1]


def tail_percentile(n, min_beyond=MIN_BEYOND, ladder=TAIL_LADDER):
    """Highest ladder percentile with ``min_beyond`` samples beyond it.

    With nearest rank, ``n - ceil(p * n / 100)`` samples lie strictly
    above the ``p`` percentile.  Returns ``None`` when even the lowest
    rung leaves fewer than ``min_beyond`` samples beyond it.
    """
    best = None
    for percentile in ladder:
        if n - _rank(percentile, n) >= min_beyond:
            best = percentile
    return best


def summarize(values, *, fixed_percentile=None):
    """Median, tail and counts of a list of timings (any unit).

    ``fixed_percentile`` pins the tail rung so it cannot move between
    runs whose sample counts straddle a ladder threshold; the summary
    still says whether the sample supported it (``tail_supported``).
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples to summarize")
    supported = tail_percentile(n)
    percentile = fixed_percentile if fixed_percentile is not None \
        else supported
    if percentile is None:
        percentile = TAIL_LADDER[0]
    beyond = n - _rank(percentile, n)
    return {
        "n": n,
        "median": statistics.median(ordered),
        "tail": nearest_rank(ordered, percentile),
        "tail_percentile": percentile,
        "tail_beyond": beyond,
        "tail_supported": beyond >= MIN_BEYOND,
        "min": ordered[0],
        "max": ordered[-1],
        "mean": statistics.fmean(ordered),
    }


def poisson_schedule(rate, duration, seed, *, start=0.0):
    """Seeded Poisson arrival offsets in ``[start, start + duration)``.

    Inter-arrival gaps are exponential with mean ``1 / rate``; the same
    ``(rate, duration, seed)`` always gives the same schedule.
    """
    if rate <= 0 or duration <= 0:
        raise ValueError("rate and duration must be positive")
    rng = random.Random(seed)
    times = []
    clock = start
    end = start + duration
    while True:
        clock += rng.expovariate(rate)
        if clock >= end:
            return times
        times.append(clock)


def zipf_weights(n_keys, exponent):
    """Normalized Zipf popularity of ranks ``1..n_keys``."""
    raw = [1.0 / (rank ** exponent) for rank in range(1, n_keys + 1)]
    total = sum(raw)
    return [weight / total for weight in raw]


class Spans:
    """In-memory span recorder; every method is a no-op when disabled.

    A span is ``(id, parent, layer, stage, name, start, end, attrs)``
    with ``time.perf_counter`` stamps.  The parent defaults to the
    innermost open span on the calling thread, else to the open *root*
    (a pipeline run or tick), so stage functions running on executor
    threads still hang under their run.
    """

    def __init__(self, enabled):
        self.enabled = bool(enabled)
        self.records = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root = None

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, layer, name, start, end, *, stage=None, parent=None,
            **attrs):
        """Record a finished span; returns its id (``None`` if off)."""
        if not self.enabled:
            return None
        span_id = next(self._ids)
        with self._lock:
            self.records.append({
                "id": span_id, "parent": parent, "layer": layer,
                "stage": stage, "name": name, "start": start,
                "end": end, "attrs": attrs})
        return span_id

    @contextlib.contextmanager
    def _open(self, layer, name, stage, root, attrs):
        stack = self._stack()
        parent = stack[-1] if stack else (None if root else self._root)
        span_id = next(self._ids)
        stack.append(span_id)
        if root:
            self._root = span_id
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            stack.pop()
            if root:
                self._root = None
            with self._lock:
                self.records.append({
                    "id": span_id, "parent": parent, "layer": layer,
                    "stage": stage, "name": name, "start": start,
                    "end": end, "attrs": attrs})

    def span(self, layer, name, *, stage=None, **attrs):
        """Context manager timing one call at a layer boundary."""
        if not self.enabled:
            return contextlib.nullcontext()
        return self._open(layer, name, stage, False, attrs)

    def root(self, layer, name, **attrs):
        """Like :meth:`span`, and adopts threads with no open span."""
        if not self.enabled:
            return contextlib.nullcontext()
        return self._open(layer, name, None, True, attrs)

    def take(self):
        """Return the recorded spans and start afresh."""
        with self._lock:
            records, self.records = self.records, []
        return records

    def durations(self, name):
        """Durations (seconds) of every span called ``name``."""
        return [r["end"] - r["start"] for r in self.records
                if r["name"] == name]


class StageSpans:
    """Base for a workload's stage functions: spans around the stage
    body (layer ``bench``) and around each library call inside it."""

    def __init__(self, spans):
        self.spans = spans

    def _call(self, layer, stage, name):
        return self.spans.span(layer, name, stage=stage)

    def _stage(self, name):
        return self.spans.span("bench", f"stage:{name}", stage=name)


def _covered(intervals):
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(records):
    """``{span id: self seconds}``: duration minus the part of its
    interval covered by its children (overlapping children counted
    once, so concurrent stages do not drive a run negative)."""
    children = {}
    for record in records:
        if record["parent"] is not None:
            children.setdefault(record["parent"], []).append(record)
    result = {}
    for record in records:
        start, end = record["start"], record["end"]
        clipped = [
            (max(start, child["start"]), min(end, child["end"]))
            for child in children.get(record["id"], ())
            if child["end"] > start and child["start"] < end
        ]
        result[record["id"]] = (end - start) - _covered(clipped)
    return result


def self_time_table(records):
    """Rows of self time: total, then per layer, stage and call.

    Returns a list of dicts ``{level, layer, stage, name, calls,
    self_ms, share}`` sorted layer by layer; ``share`` is of the summed
    self time of every span.
    """
    own = self_times(records)
    total = sum(own.values())
    by_call = {}
    by_layer = {}
    for record in records:
        key = (record["layer"], record["stage"] or "-", record["name"])
        calls, seconds = by_call.get(key, (0, 0.0))
        by_call[key] = (calls + 1, seconds + own[record["id"]])
        calls, seconds = by_layer.get(record["layer"], (0, 0.0))
        by_layer[record["layer"]] = (calls + 1,
                                     seconds + own[record["id"]])
    rows = [{"level": "total", "layer": "*", "stage": "*", "name": "*",
             "calls": len(records), "self_ms": total * 1e3,
             "share": 1.0 if total else 0.0}]
    for layer in sorted(by_layer, key=lambda k: -by_layer[k][1]):
        calls, seconds = by_layer[layer]
        rows.append({"level": "layer", "layer": layer, "stage": "*",
                     "name": "*", "calls": calls,
                     "self_ms": seconds * 1e3,
                     "share": seconds / total if total else 0.0})
        keys = [key for key in by_call if key[0] == layer]
        for key in sorted(keys, key=lambda k: -by_call[k][1]):
            calls, seconds = by_call[key]
            rows.append({"level": "call", "layer": layer,
                         "stage": key[1], "name": key[2],
                         "calls": calls, "self_ms": seconds * 1e3,
                         "share": seconds / total if total else 0.0})
    return rows


def render_table(rows):
    """The self-time table as aligned text lines."""
    lines = [f"{'layer':<24} {'stage':<16} {'call':<30} "
             f"{'calls':>7} {'self_ms':>11} {'share':>7}"]
    for row in rows:
        indent = {"total": "", "layer": "  ", "call": "    "}[
            row["level"]]
        lines.append(
            f"{indent + row['layer']:<24} {row['stage']:<16} "
            f"{row['name']:<30} {row['calls']:>7} "
            f"{row['self_ms']:>11.2f} {row['share']:>7.1%}")
    return lines


def share(numerator, denominator):
    """``numerator / denominator``, 0.0 for an empty denominator."""
    return numerator / denominator if denominator else 0.0
