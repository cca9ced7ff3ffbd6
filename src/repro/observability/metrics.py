"""Thread-safe runtime metrics: counters, gauges and histograms.

The engine claims to be cache-aware, bounded and concurrent; this
module is how those claims become *numbers* at run time.  A
:class:`MetricsRegistry` holds named, labeled metric families:

* :class:`Counter` — monotonically increasing totals
  (``engine.stage_attempts_total``),
* :class:`Gauge` — instantaneous values that move both ways
  (``engine.stage_cache_entries``),
* :class:`Histogram` — sample distributions bucketed over *fixed*
  boundaries chosen at construction
  (``engine.stage_duration_seconds``).

Every metric family is labeled: ``counter.inc(stage="impute")`` and
``counter.inc(stage="forecast")`` are independent series of the same
family.  All mutation is lock-protected per family, so concurrent
stages hammering the same counter lose no increments — the property
``tests/test_observability.py`` stress-tests explicitly.

A process-global default registry (:func:`get_registry`) is what the
engine's components publish into unless handed an explicit registry;
tests swap it with :func:`use_registry` to observe a single run in
isolation.  :meth:`MetricsRegistry.snapshot` renders everything as
plain JSON-ready data for dashboards and artifacts.
"""

from __future__ import annotations

import contextlib
import threading

__all__ = [
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "LookupTally",
    "MetricsRegistry",
    "get_registry",
    "set_registry",
    "use_registry",
]

#: Default histogram bucket upper bounds, in seconds — spanning
#: sub-millisecond kernel calls to minute-scale pipeline runs.  A
#: final implicit ``+inf`` bucket catches everything beyond.
DEFAULT_BUCKETS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0,
                   10.0, 60.0)


def _label_key(labels):
    """Canonical hashable key for a label set (sorted, stringified)."""
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class _Metric:
    """Shared machinery: name, description, lock, labeled series."""

    kind = "metric"

    def __init__(self, name, description=""):
        self.name = str(name)
        self.description = str(description)
        self._lock = threading.Lock()  # noqa: RC034 -- metric handles are process-local; workers merge snapshots
        self._series = {}

    def labels(self):
        """All label sets seen so far, as dicts."""
        with self._lock:
            return [dict(key) for key in self._series]

    def _snapshot_series(self):
        raise NotImplementedError


class Counter(_Metric):
    """A monotonically increasing total, per label set."""

    kind = "counter"

    def inc(self, amount=1, **labels):
        amount = float(amount)
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        key = _label_key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + amount
            return self._series[key]

    def value(self, **labels):
        """Current total for one label set (0.0 if never incremented)."""
        with self._lock:
            return self._series.get(_label_key(labels), 0.0)

    def total(self):
        """Sum across every label set."""
        with self._lock:
            return sum(self._series.values())

    def _snapshot_series(self):
        with self._lock:
            return [{"labels": dict(key), "value": value}
                    for key, value in sorted(self._series.items())]


class Gauge(_Metric):
    """An instantaneous value that can move both ways, per label set."""

    kind = "gauge"

    def set(self, value, **labels):
        with self._lock:
            self._series[_label_key(labels)] = float(value)

    def inc(self, amount=1, **labels):
        key = _label_key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + float(amount)
            return self._series[key]

    def dec(self, amount=1, **labels):
        return self.inc(-float(amount), **labels)

    def value(self, **labels):
        with self._lock:
            return self._series.get(_label_key(labels), 0.0)

    def _snapshot_series(self):
        with self._lock:
            return [{"labels": dict(key), "value": value}
                    for key, value in sorted(self._series.items())]


class Histogram(_Metric):
    """Sample distribution over fixed bucket boundaries, per label set.

    ``buckets`` is an increasing tuple of upper bounds; a sample lands
    in the first bucket whose bound it does not exceed, or in the
    implicit final ``+inf`` bucket.  Each series tracks count, sum,
    min and max alongside the bucket counts, so snapshots can report
    rates and tails without keeping raw samples.
    """

    kind = "histogram"

    def __init__(self, name, description="", buckets=DEFAULT_BUCKETS):
        super().__init__(name, description)
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if any(b >= c for b, c in zip(bounds, bounds[1:])):
            raise ValueError("bucket bounds must be strictly increasing")
        self.buckets = bounds

    def observe(self, value, **labels):
        value = float(value)
        key = _label_key(labels)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = {"count": 0, "sum": 0.0, "min": value,
                          "max": value,
                          "bucket_counts": [0] * (len(self.buckets) + 1)}
                self._series[key] = series
            series["count"] += 1
            series["sum"] += value
            series["min"] = min(series["min"], value)
            series["max"] = max(series["max"], value)
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    series["bucket_counts"][i] += 1
                    break
            else:
                series["bucket_counts"][-1] += 1

    def absorb(self, sample, **labels):
        """Merge one snapshot series dict into this family's series.

        ``sample`` has the :meth:`_snapshot_series` shape (``count``,
        ``sum``, ``min``, ``max``, ``bucket_counts``); bucket
        boundaries must match — this is how worker-process histograms
        fold into the parent registry without shipping raw samples.
        """
        counts = [int(c) for c in sample["bucket_counts"]]
        if len(counts) != len(self.buckets) + 1:
            raise ValueError(
                f"histogram {self.name!r}: cannot absorb a snapshot "
                f"with {len(counts)} bucket counts into "
                f"{len(self.buckets) + 1} buckets")
        key = _label_key(labels)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                self._series[key] = {
                    "count": int(sample["count"]),
                    "sum": float(sample["sum"]),
                    "min": float(sample["min"]),
                    "max": float(sample["max"]),
                    "bucket_counts": counts,
                }
                return
            series["count"] += int(sample["count"])
            series["sum"] += float(sample["sum"])
            series["min"] = min(series["min"], float(sample["min"]))
            series["max"] = max(series["max"], float(sample["max"]))
            series["bucket_counts"] = [
                a + b for a, b in zip(series["bucket_counts"], counts)]

    def count(self, **labels):
        """Number of samples observed for one label set."""
        with self._lock:
            series = self._series.get(_label_key(labels))
            return 0 if series is None else series["count"]

    def sum(self, **labels):
        with self._lock:
            series = self._series.get(_label_key(labels))
            return 0.0 if series is None else series["sum"]

    def total_count(self):
        """Samples observed across *all* label sets."""
        with self._lock:
            return sum(s["count"] for s in self._series.values())

    def quantile(self, q, **labels):
        """Estimated ``q``-quantile for one label set, from buckets.

        Standard bucketed estimation (what dashboards compute from
        exported histograms): find the bucket holding the target rank
        and interpolate linearly inside it.  The tracked per-series
        ``min`` / ``max`` clamp the first and last (``+inf``) buckets,
        so the estimate never leaves the observed range.  Returns
        ``None`` when the series has no samples.
        """
        q = float(q)
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q must be in [0, 1], got {q}")
        with self._lock:
            series = self._series.get(_label_key(labels))
            if series is None or not series["count"]:
                return None
            counts = list(series["bucket_counts"])
            low, high = series["min"], series["max"]
            total = series["count"]
        target = q * total
        cumulative = 0
        for i, count in enumerate(counts):
            if not count:
                continue
            if cumulative + count >= target:
                lower = 0.0 if i == 0 else self.buckets[i - 1]
                upper = high if i == len(self.buckets) \
                    else self.buckets[i]
                lower = min(max(lower, low), upper)
                upper = max(min(upper, high), lower)
                fraction = (target - cumulative) / count
                return lower + (upper - lower) * min(max(fraction,
                                                         0.0), 1.0)
            cumulative += count
        return high

    def _snapshot_series(self):
        with self._lock:
            return [
                {"labels": dict(key), "count": s["count"],
                 "sum": s["sum"], "min": s["min"], "max": s["max"],
                 "mean": s["sum"] / s["count"],
                 "bucket_counts": list(s["bucket_counts"])}
                for key, s in sorted(self._series.items())
            ]


class MetricsRegistry:
    """A named collection of metric families.

    ``counter`` / ``gauge`` / ``histogram`` are get-or-create: asking
    for an existing name returns the existing family (and raises
    ``TypeError`` if the kinds clash), so independent components can
    publish into the same family without coordination.
    """

    def __init__(self):
        self._lock = threading.Lock()  # noqa: RC034 -- process-global registry; workers ship snapshot dicts
        self._metrics = {}

    def _get_or_create(self, cls, name, description, **kwargs):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is not None:
                if not isinstance(metric, cls):
                    raise TypeError(
                        f"metric {name!r} already registered as "
                        f"{metric.kind}, not {cls.kind}"
                    )
                return metric
            metric = cls(name, description, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name, description=""):
        return self._get_or_create(Counter, name, description)

    def gauge(self, name, description=""):
        return self._get_or_create(Gauge, name, description)

    def histogram(self, name, description="", buckets=DEFAULT_BUCKETS):
        return self._get_or_create(Histogram, name, description,
                                   buckets=buckets)

    def get(self, name):
        """The named family, or ``None``."""
        with self._lock:
            return self._metrics.get(name)

    def names(self):
        with self._lock:
            return sorted(self._metrics)

    def reset(self):
        """Drop every family (tests; a fresh registry is equivalent)."""
        with self._lock:
            self._metrics.clear()

    def merge_snapshot(self, snapshot):
        """Fold another registry's :meth:`snapshot` into this one.

        The cross-process aggregation path: an executor worker runs
        each stage attempt against a fresh registry and ships the
        snapshot back with the result; merging it here keeps the
        parent's ``engine.*`` series complete.  Counters add their
        totals, histograms absorb counts/sums/bucket tallies
        (boundaries must match), and gauges take the incoming value
        (last write wins — gauges are instantaneous by definition).
        """
        for name, entry in dict(snapshot).items():
            kind = entry.get("type")
            series = entry.get("series", ())
            if kind == "counter":
                counter = self.counter(name,
                                       entry.get("description", ""))
                for sample in series:
                    counter.inc(sample["value"], **sample["labels"])
            elif kind == "gauge":
                gauge = self.gauge(name, entry.get("description", ""))
                for sample in series:
                    gauge.set(sample["value"], **sample["labels"])
            elif kind == "histogram":
                histogram = self.histogram(
                    name, entry.get("description", ""),
                    buckets=tuple(entry.get("buckets",
                                            DEFAULT_BUCKETS)))
                for sample in series:
                    histogram.absorb(sample, **sample["labels"])
            else:
                raise ValueError(
                    f"cannot merge metric {name!r} of unknown type "
                    f"{kind!r}")
        return self

    def snapshot(self):
        """Everything, as plain JSON-ready data keyed by family name."""
        with self._lock:
            metrics = list(self._metrics.values())
        out = {}
        for metric in sorted(metrics, key=lambda m: m.name):
            entry = {
                "type": metric.kind,
                "description": metric.description,
                "series": metric._snapshot_series(),
            }
            if isinstance(metric, Histogram):
                entry["buckets"] = list(metric.buckets)
            out[metric.name] = entry
        return out

    def __repr__(self):
        return f"MetricsRegistry(families={len(self.names())})"


_default_registry = MetricsRegistry()
_default_lock = threading.Lock()


def get_registry():
    """The process-global default registry the engine publishes into."""
    with _default_lock:
        return _default_registry


def set_registry(registry):
    """Replace the global default registry; returns the previous one."""
    global _default_registry
    if not isinstance(registry, MetricsRegistry):
        raise TypeError("registry must be a MetricsRegistry")
    with _default_lock:
        previous = _default_registry
        _default_registry = registry
        return previous


@contextlib.contextmanager
def use_registry(registry=None):
    """Temporarily swap the global registry (fresh one by default).

    The idiom for observing a single run in isolation::

        with use_registry() as metrics:
            pipeline.run(...)
        metrics.snapshot()
    """
    registry = registry if registry is not None else MetricsRegistry()
    previous = set_registry(registry)
    try:
        yield registry
    finally:
        set_registry(previous)


class LookupTally:
    """Hit/miss counts of one cache or memo, flushed as deltas.

    Owners count every probe with :meth:`hit` / :meth:`miss` and call
    :meth:`flush` once per unit of work (a matched trajectory, a
    served query), which adds what was counted since the previous
    flush to the ``name`` counter of the global registry under an
    ``outcome`` label.  Hot loops therefore never pay for a labelled
    counter, and the series lags the in-flight work by at most one
    flush.  The delta read and the published-watermark advance happen
    atomically under the tally's lock, so concurrent flushers never
    double- or under-count a lookup; the (thread-safe) counter
    increments run outside it.  A pickled tally arrives empty.
    """

    def __init__(self, name, description):
        self.name = name
        self.description = description
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self._published_hits = 0
        self._published_misses = 0

    def __getstate__(self):
        return {"name": self.name, "description": self.description}

    def __setstate__(self, state):
        self.__init__(state["name"], state["description"])

    def hit(self):
        with self._lock:
            self.hits += 1

    def miss(self):
        with self._lock:
            self.misses += 1

    def counts(self):
        """``(hits, misses)`` since construction or :meth:`reset`."""
        with self._lock:
            return self.hits, self.misses

    def flush(self):
        """Publish the hit/miss deltas since the last flush."""
        with self._lock:
            hits = self.hits - self._published_hits
            misses = self.misses - self._published_misses
            if not hits and not misses:
                return
            self._published_hits = self.hits
            self._published_misses = self.misses
        counter = get_registry().counter(self.name, self.description)
        if hits:
            counter.inc(hits, outcome="hit")
        if misses:
            counter.inc(misses, outcome="miss")

    def reset(self):
        """Flush, then start counting from zero again."""
        self.flush()
        with self._lock:
            self.hits = self.misses = 0
            self._published_hits = self._published_misses = 0
