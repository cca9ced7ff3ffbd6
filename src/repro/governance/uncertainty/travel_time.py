"""Time-varying uncertain road-network models (paper §II-B).

Traffic cost uncertainty is modeled by ``(I, D)`` pairs — travel cost
follows distribution ``D`` within time interval ``I``.  The paper
contrasts two paradigms:

* the **edge-centric** paradigm [15] assigns a distribution to every
  edge and treats edges as independent; composing a path means
  convolving the edge distributions — cheap, but it ignores the
  correlation between consecutive edges, so path variance is
  systematically misestimated when congestion is correlated;
* the **path-centric** paradigm (PACE [4], [5]) additionally learns
  joint distributions of frequently traversed *sub-paths*; a query path
  is covered with the longest available sub-paths, which captures the
  correlations inside each covered stretch and "balances efficiency and
  precision".

Both models are fit from trips — ``(node_path, edge_times,
departure_minute)`` triples produced either by the trajectory simulator
or by map-matched GPS traces.
"""

from __future__ import annotations

import math

import numpy as np

from ..._validation import check_positive, trapezoid
from .distributions import GaussianMixture, Histogram

__all__ = [
    "TimeVaryingDistribution",
    "EdgeCentricModel",
    "PathCentricModel",
    "wasserstein_distance",
]

#: Whole-day fallback interval (minutes).
_FULL_DAY = ((0.0, 24 * 60.0),)


def wasserstein_distance(first, second, *, n_grid=400):
    """Wasserstein-1 distance between two histogram distributions.

    Computed as the integral of the absolute CDF difference on a shared
    grid; the metric used to score distribution estimates in E5.
    """
    low = min(first.min(), second.min())
    high = max(first.max(), second.max())
    if high <= low:
        return 0.0
    grid = np.linspace(low, high, int(n_grid))
    gap = np.abs(first.cdf(grid) - second.cdf(grid))
    return float(trapezoid(gap, grid))


class TimeVaryingDistribution:
    """A piecewise-constant distribution over intervals of the day.

    Parameters
    ----------
    intervals:
        Sequence of ``(start_minute, end_minute)`` pairs partitioning
        (part of) the day; lookups outside every interval fall back to
        the nearest one.
    distributions:
        One :class:`Histogram` per interval.
    """

    def __init__(self, intervals, distributions):
        intervals = tuple(tuple(map(float, pair)) for pair in intervals)
        distributions = tuple(distributions)
        if len(intervals) != len(distributions):
            raise ValueError("intervals and distributions must align")
        if not intervals:
            raise ValueError("need at least one interval")
        for start, end in intervals:
            if end <= start:
                raise ValueError(f"empty interval ({start}, {end})")
        vars(self).update(intervals=intervals, distributions=distributions)

    # An immutable value over immutable histograms: copies share it.

    def __setattr__(self, name, value):
        raise AttributeError(
            f"TimeVaryingDistribution is immutable; cannot set {name!r}")

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    def at(self, minute):
        """The distribution in force at ``minute`` (of day)."""
        minute = float(minute) % (24 * 60)
        for (start, end), distribution in zip(self.intervals,
                                              self.distributions):
            if start <= minute < end:
                return distribution
        # Fall back to the interval whose midpoint is closest.
        gaps = [
            abs((start + end) / 2 - minute)
            for start, end in self.intervals
        ]
        return self.distributions[int(np.argmin(gaps))]


class _TraversalStore:
    """Shared bookkeeping: per-key, per-interval traversal-time samples.

    ``refit`` folds a fit's samples into one read-only float array per
    ``(key, interval)`` and summarizes every fitted key at once.

    ``representation`` selects how the empirical samples are summarized
    — ``"histogram"`` (default) or ``"gmm"`` (a Gaussian mixture fit by
    EM, then discretized so the Histogram algebra still applies); the
    two options the paper names for uncertainty quantification.
    """

    def __init__(self, intervals, n_bins, representation="histogram",
                 n_components=2):
        if representation not in ("histogram", "gmm"):
            raise ValueError(
                f"representation must be 'histogram' or 'gmm', "
                f"got {representation!r}"
            )
        self.intervals = [tuple(map(float, pair)) for pair in intervals]
        self.n_bins = int(n_bins)
        self.representation = representation
        self.n_components = int(n_components)
        self._samples = {}

    def _interval_index(self, minute):
        minute = float(minute) % (24 * 60)
        for index, (start, end) in enumerate(self.intervals):
            if start <= minute < end:
                return index
        midpoints = [
            abs((start + end) / 2 - minute) for start, end in self.intervals
        ]
        return int(np.argmin(midpoints))

    def refit(self, observations, keep=None):
        """Add ``(key, minute, value)`` observations and summarize.

        Returns the :class:`TimeVaryingDistribution` of every key seen
        so far for which ``keep(key, n_samples)`` holds (every key when
        ``keep`` is None).  Each ``(key, interval)`` bucket is one
        read-only float array.  The store changes only once every
        distribution is built, so a fit that raises leaves it as it was.
        """
        pending = {}
        for key, minute, value in observations:
            pending.setdefault(key, {}).setdefault(
                self._interval_index(minute), []).append(value)
        samples = dict(self._samples)
        for key, buckets in pending.items():
            bucket = samples[key] = dict(samples.get(key, {}))
            for index, values in buckets.items():
                sealed = bucket.get(index)
                array = (np.array(values, dtype=float) if sealed is None
                         else np.concatenate([sealed, values]))
                array.setflags(write=False)
                bucket[index] = array
        fitted = self._distributions({
            key: bucket for key, bucket in samples.items()
            if keep is None
            or keep(key, sum(len(array) for array in bucket.values()))
        })
        self._samples = samples
        return fitted

    def _distributions(self, buckets):
        """The :class:`TimeVaryingDistribution` of every key in
        ``buckets`` (``{key: {interval: samples}}``).

        Each key's interval buckets — plus its pooled samples when some
        interval has none — are summarized together: every histogram
        comes from one :meth:`Histogram.from_sample_groups` call, and
        under ``"gmm"`` a bucket of at least ``3 * n_components``
        samples gets its own EM fit instead.
        """
        groups = []

        def summary(samples):
            # A Histogram now, or the index of its group in ``groups``.
            if self.representation == "gmm" and \
                    len(samples) >= 3 * self.n_components:
                mixture = GaussianMixture.fit(
                    samples, self.n_components,
                    rng=np.random.default_rng(len(samples)))
                return mixture.to_histogram(self.n_bins)
            groups.append(samples)
            return len(groups) - 1

        plans = {}
        for key, bucket in buckets.items():
            fallback = None
            if len(bucket) < len(self.intervals):
                fallback = summary(np.concatenate(list(bucket.values())))
            plans[key] = [
                summary(bucket[index]) if index in bucket else fallback
                for index in range(len(self.intervals))
            ]
        histograms = Histogram.from_sample_groups(groups, self.n_bins)
        return {
            key: TimeVaryingDistribution(self.intervals, [
                histograms[part] if isinstance(part, int) else part
                for part in plan
            ])
            for key, plan in plans.items()
        }


def _checked_trips(trips):
    """Validate ``(path, edge_times, departure_minute)`` triples before
    a fit touches its store, so a rejected fit changes nothing.

    Returns the trips as a list with ``edge_times`` as float arrays and
    departures as floats.
    """
    checked = []
    for index, (path, edge_times, departure) in enumerate(trips):
        times = np.asarray(edge_times, dtype=float)
        if times.ndim != 1 or len(times) != max(len(path) - 1, 0):
            raise ValueError(
                f"trip {index}: edge_times must match the path edges")
        if not np.isfinite(times).all() or (times < 0).any():
            raise ValueError(
                f"trip {index}: edge_times must be finite and >= 0")
        departure = float(departure)
        if not math.isfinite(departure):
            raise ValueError(f"trip {index}: departure must be finite")
        checked.append((path, times, departure))
    if not checked:
        raise ValueError("fit needs at least one trip")
    return checked


class EdgeCentricModel:
    """Per-edge ``(I, D)`` travel-time distributions, edges independent.

    Parameters
    ----------
    intervals:
        Day partition; defaults to one whole-day interval.
    n_bins:
        Histogram resolution.
    """

    def __init__(self, *, intervals=_FULL_DAY, n_bins=25,
                 representation="histogram", n_components=2):
        check_positive(n_bins, "n_bins")
        self._store = _TraversalStore(intervals, n_bins,
                                      representation, n_components)
        self._fitted = {}

    def fit(self, trips):
        """Fit from ``(path, edge_times, departure_minute)`` triples.

        Refits every edge seen so far.  Raises ``ValueError`` naming
        the first bad trip (misaligned, non-finite or negative edge
        times, non-finite departure).  A fit that raises leaves the
        model as it was.
        """
        checked = _checked_trips(trips)

        def observations():
            for path, edge_times, minute in checked:
                for edge, duration in zip(zip(path, path[1:]),
                                          edge_times.tolist()):
                    yield edge, minute, duration
                    minute += duration

        self._fitted = self._store.refit(observations())
        return self

    @property
    def n_edges(self):
        return len(self._fitted)

    def edge_distribution(self, u, v, minute=0.0):
        """The fitted distribution of edge ``(u, v)`` at ``minute``."""
        fitted = self._fitted.get((u, v))
        if fitted is None:
            raise KeyError(f"no traversals observed for edge ({u!r}, {v!r})")
        return fitted.at(minute)

    def path_distribution(self, path, departure_minute=0.0):
        """Convolve edge distributions along ``path`` (independence).

        The clock is advanced by each edge's mean so later edges use the
        right interval.
        """
        edges = list(zip(path, path[1:]))
        if not edges:
            raise ValueError("path needs at least one edge")
        minute = float(departure_minute)
        result = None
        for u, v in edges:
            distribution = self.edge_distribution(u, v, minute)
            result = (distribution if result is None
                      else result.convolve(distribution))
            minute += distribution.mean()
        return result


class PathCentricModel:
    """PACE-style joint distributions over frequent sub-paths.

    Sub-paths of length up to ``max_subpath_edges`` that were traversed
    at least ``min_support`` times get their *own* empirical travel-time
    distribution, capturing the correlation between their edges.  A
    query path is covered greedily with the longest supported sub-paths;
    segments are then convolved (independent across segments only).

    Length-1 sub-paths (single edges) are always retained, so any path
    whose edges were observed can be answered — with edge-centric
    accuracy in the worst case and full-path accuracy in the best.
    """

    def __init__(self, *, max_subpath_edges=6, min_support=5,
                 intervals=_FULL_DAY, n_bins=25,
                 representation="histogram", n_components=2):
        if max_subpath_edges < 1:
            raise ValueError("max_subpath_edges must be >= 1")
        if min_support < 1:
            raise ValueError("min_support must be >= 1")
        self.max_subpath_edges = int(max_subpath_edges)
        self.min_support = int(min_support)
        self._store = _TraversalStore(intervals, n_bins,
                                      representation, n_components)
        self._fitted = {}

    def fit(self, trips):
        """Fit from ``(path, edge_times, departure_minute)`` triples.

        Validated like :meth:`EdgeCentricModel.fit`: a rejected fit
        leaves the model as it was.
        """
        checked = _checked_trips(trips)

        def observations():
            for path, edge_times, departure in checked:
                starts = np.concatenate([[0.0], np.cumsum(edge_times)])
                for begin in range(len(edge_times)):
                    limit = min(len(edge_times),
                                begin + self.max_subpath_edges)
                    for end in range(begin + 1, limit + 1):
                        yield (tuple(path[begin:end + 1]),
                               departure + float(starts[begin]),
                               float(starts[end] - starts[begin]))

        self._fitted = self._store.refit(
            observations(), lambda key, n_samples:
            len(key) == 2 or n_samples >= self.min_support)
        return self

    @property
    def n_subpaths(self):
        return len(self._fitted)

    def coverage(self, path):
        """Greedy longest-sub-path cover of ``path``.

        Returns a list of node tuples whose concatenation is the path.
        """
        path = list(path)
        if len(path) < 2:
            raise ValueError("path needs at least one edge")
        pieces = []
        position = 0
        while position < len(path) - 1:
            found = None
            longest = min(len(path) - 1 - position, self.max_subpath_edges)
            for span in range(longest, 0, -1):
                key = tuple(path[position:position + span + 1])
                if key in self._fitted:
                    found = key
                    break
            if found is None:
                edge = (path[position], path[position + 1])
                raise KeyError(f"no traversals observed for edge {edge!r}")
            pieces.append(found)
            position += len(found) - 1
        return pieces

    def path_distribution(self, path, departure_minute=0.0):
        """Convolve the covering segments' joint distributions."""
        minute = float(departure_minute)
        result = None
        for piece in self.coverage(path):
            distribution = self._fitted[piece].at(minute)
            result = (distribution if result is None
                      else result.convolve(distribution))
            minute += distribution.mean()
        return result
