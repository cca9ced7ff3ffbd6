"""Stochastic routing: decision making under travel-time uncertainty.

The paper's running example (§I): an autonomous taxi picks the route
with the highest probability of on-time arrival, using the travel-time
distributions the governance layer quantified.  The router:

1. generates candidate paths (k-shortest by expected cost),
2. obtains each candidate's cost *distribution* from an uncertainty
   model (edge-centric or path-centric),
3. prunes dominated candidates (stochastic dominance),
4. picks the winner under the caller's utility — on-time probability,
   risk-averse expected utility, or plain expected cost.

``arrival_windows`` reproduces the qualitative finding of [53]: *which
path is optimal depends on the deadline* — tight deadlines favour
reliable paths, loose ones favour fast-on-average paths.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict

import numpy as np

from .._validation import check_positive
from ..datatypes import RoadNetwork
from ..observability.metrics import LookupTally
from .stochastic import select_best
from .utility import DeadlineUtility, UtilityFunction

__all__ = ["StochasticRouter"]

#: Memo sentinel for paths the cost model cannot evaluate.
_UNCOVERED = object()


class StochasticRouter:
    """Distribution-aware route selection.

    **Thread-safety contract:** the query methods (:meth:`best_path`,
    :meth:`route_many`, :meth:`on_time_route`, …) are safe to call
    from many threads on one shared router; both serving memos and
    their hit/miss counters are lock-guarded.  Distribution lookups
    stay deterministic under concurrency as long as concurrent queries
    for the same departure *window* use the same departure minute (the
    memo caches the first caller's exact minute, as documented below).

    Parameters
    ----------
    network:
        The road network.
    cost_model:
        An uncertainty model exposing
        ``path_distribution(path, departure_minute)`` (either paradigm
        from :mod:`repro.governance.uncertainty`).
    n_candidates:
        Number of k-shortest candidate paths considered.
    weight:
        Edge attribute used by the candidate generator (defaults to
        geometric ``length``; pass e.g. ``"mean_time"`` after attaching
        expected travel times so fast-but-long corridors are in the
        pool).
    memo_size:
        Max entries in each serving memo (candidate paths per OD pair,
        path distributions per departure window).  ``0`` disables
        memoization entirely.
    memo_window_minutes:
        Width of the departure-time buckets keying the distribution
        memo: queries for the same path whose departures fall in the
        same window share one cached distribution (computed at the
        first query's exact departure minute).
    reduction:
        Compress each query's candidate ensemble to at most this many
        W1-representative members before dominance pruning and utility
        selection (``None`` disables).  The
        :class:`~repro.decision.reduction.Reduction` is memoized per
        ``(origin, destination, departure-window)`` alongside the
        other serving memos, so sustained traffic pays the O(N²)
        reduction once per key and every subsequent query runs over
        k ≪ N; the winning representative's cluster is re-evaluated
        under the utility (see :func:`repro.decision.select_best`), so
        the returned path still ranges over the full candidate pool.
    """

    def __init__(self, network, cost_model, *, n_candidates=8,
                 weight="length", memo_size=1024,
                 memo_window_minutes=5.0, reduction=None):
        if not isinstance(network, RoadNetwork):
            raise TypeError("network must be a RoadNetwork")
        if not hasattr(cost_model, "path_distribution"):
            raise TypeError(
                "cost_model must expose path_distribution(path, minute)"
            )
        self.network = network
        self.cost_model = cost_model
        self.n_candidates = int(check_positive(n_candidates,
                                               "n_candidates"))
        self.weight = str(weight)
        if memo_size < 0:
            raise ValueError(f"memo_size must be >= 0, got {memo_size}")
        self.memo_size = int(memo_size)
        self.memo_window_minutes = float(check_positive(
            memo_window_minutes, "memo_window_minutes"))
        self.reduction = (None if reduction is None
                          else int(check_positive(reduction,
                                                  "reduction")))
        self._memo_lock = threading.RLock()
        self._path_memo = OrderedDict()
        self._distribution_memo = OrderedDict()
        self._reduction_memo = OrderedDict()
        self._lookups = LookupTally(
            "decision.router_memo_lookups_total",
            "StochasticRouter serving-memo lookups by outcome")

    def __getstate__(self):
        """Pickle without the lock or the warm memos (rebuilt lazily)."""
        state = self.__dict__.copy()
        state.pop("_memo_lock", None)
        state["_path_memo"] = OrderedDict()
        state["_distribution_memo"] = OrderedDict()
        state["_reduction_memo"] = OrderedDict()
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._memo_lock = threading.RLock()

    # -- serving memos -----------------------------------------------------
    #
    # Probe / insert / evict and the hit/miss counters all run under
    # the memo lock; the expensive work on a miss (Yen's algorithm,
    # distribution fits) runs outside it, so concurrent misses on the
    # same key may duplicate compute but never corrupt the memo.

    def _memo_get(self, memo, key):
        if self.memo_size == 0:
            return None
        with self._memo_lock:
            value = memo.get(key)
            if value is not None:
                memo.move_to_end(key)
                self._lookups.hit()
            else:
                self._lookups.miss()
            return value

    def _memo_put(self, memo, key, value):
        if self.memo_size == 0:
            return
        with self._memo_lock:
            memo[key] = value
            memo.move_to_end(key)
            while len(memo) > self.memo_size:
                memo.popitem(last=False)

    def cache_info(self):
        """Serving-memo observability: hits, misses and sizes.

        Also flushes the ``decision.router_memo_lookups_total``
        series, which every served query flushes once.
        """
        self._lookups.flush()
        hits, misses = self._lookups.counts()
        with self._memo_lock:
            return {
                "hits": hits,
                "misses": misses,
                "path_memo_size": len(self._path_memo),
                "distribution_memo_size": len(self._distribution_memo),
                "reduction_memo_size": len(self._reduction_memo),
                "maxsize": self.memo_size,
            }

    def clear_cache(self):
        """Drop the memos (call after mutating network or cost model)."""
        with self._memo_lock:
            self._path_memo.clear()
            self._distribution_memo.clear()
            self._reduction_memo.clear()
        self._lookups.reset()

    def _path_distribution(self, path, departure_minute):
        """Content-keyed, departure-windowed distribution lookup.

        Returns ``_UNCOVERED`` for paths the cost model cannot
        evaluate, so repeated queries for uncovered roads are also
        served from the memo.
        """
        window = int(math.floor(
            float(departure_minute) / self.memo_window_minutes))
        key = (tuple(path), window)
        cached = self._memo_get(self._distribution_memo, key)
        if cached is not None:
            return cached
        try:
            distribution = self.cost_model.path_distribution(
                path, departure_minute)
        except KeyError:
            distribution = _UNCOVERED
        self._memo_put(self._distribution_memo, key, distribution)
        return distribution

    def candidate_paths(self, origin, destination):
        """K-shortest simple paths by ``weight`` (the candidate pool).

        Memoized per ``(origin, destination)`` — Yen's algorithm is the
        most expensive part of a routing query, and fleet serving
        repeats OD pairs constantly.
        """
        key = (origin, destination)
        cached = self._memo_get(self._path_memo, key)
        if cached is None:
            cached = self.network.k_shortest_paths(origin, destination,
                                                   self.n_candidates,
                                                   weight=self.weight)
            self._memo_put(self._path_memo, key, cached)
        return cached

    def candidate_distributions(self, origin, destination,
                                departure_minute=0.0):
        """``(paths, distributions)`` for all *evaluable* candidates.

        Candidates whose edges were never observed by the cost model
        are skipped (a real fleet has uncovered roads).
        """
        paths = []
        distributions = []
        for path in self.candidate_paths(origin, destination):
            distribution = self._path_distribution(path,
                                                   departure_minute)
            if distribution is _UNCOVERED:
                continue
            paths.append(path)
            distributions.append(distribution)
        if not paths:
            raise ValueError(
                "no candidate path is covered by the cost model"
            )
        return paths, distributions

    def _ensemble_reduction(self, origin, destination,
                            departure_minute, distributions):
        """The memoized candidate-ensemble reduction for this query.

        Returns ``None`` when reduction is disabled or would not
        shrink the ensemble.  Keyed like the distribution memo —
        ``(origin, destination, departure-window)`` — so repeated
        traffic reuses one reduction per key; the expensive W1 forward
        selection runs outside the memo lock (concurrent misses may
        duplicate compute but never corrupt the memo).  A cached
        reduction whose input size no longer matches the live
        candidate pool (possible after memo eviction races) is
        recomputed rather than trusted.
        """
        if not self.reduction or len(distributions) <= self.reduction:
            return None
        window = int(math.floor(
            float(departure_minute) / self.memo_window_minutes))
        key = (origin, destination, window)
        cached = self._memo_get(self._reduction_memo, key)
        if cached is not None and cached.n_input == len(distributions):
            return cached
        from .reduction import reduce_scenarios

        reduction = reduce_scenarios(distributions, self.reduction)
        self._memo_put(self._reduction_memo, key, reduction)
        return reduction

    def best_path(self, origin, destination, utility, *,
                  departure_minute=0.0, prune=True):
        """The expected-utility-optimal path.

        Returns ``(path, distribution, expected_utility)``.  When the
        router was built with ``reduction=k``, pruning and the utility
        sweep run over the memoized k-representative ensemble (plus
        the winning cluster's refinement pass) instead of the full
        candidate pool.
        """
        if not isinstance(utility, UtilityFunction):
            raise TypeError("utility must be a UtilityFunction")
        paths, distributions = self.candidate_distributions(
            origin, destination, departure_minute)
        reduction = self._ensemble_reduction(
            origin, destination, departure_minute, distributions)
        best, value, _ = select_best(distributions, utility,
                                     prune=prune, reduction=reduction)
        self._lookups.flush()
        return paths[best], distributions[best], value

    def route_many(self, queries, utility, *, prune=True):
        """Batch serving: answer ``(origin, destination, departure)``
        queries.

        Repeated OD pairs reuse the memoized candidate pool and
        repeated ``(path, departure-window)`` pairs reuse the memoized
        distributions, so sustained traffic with recurring queries is
        served at cache speed.  Each result is the :meth:`best_path`
        triple, or ``None`` when no candidate path is covered by the
        cost model.
        """
        results = []
        for origin, destination, departure_minute in queries:
            try:
                results.append(self.best_path(
                    origin, destination, utility,
                    departure_minute=departure_minute, prune=prune))
            except (ValueError, KeyError):
                results.append(None)
        return results

    def on_time_route(self, origin, destination, deadline, *,
                      departure_minute=0.0):
        """Maximize the probability of arriving within ``deadline``.

        Returns ``(path, on_time_probability)`` — the tutorial's
        flagship decision rule.
        """
        path, distribution, probability = self.best_path(
            origin, destination, DeadlineUtility(deadline),
            departure_minute=departure_minute)
        return path, probability

    def mean_cost_route(self, origin, destination, *,
                        departure_minute=0.0):
        """The baseline: minimize *expected* travel time only."""
        paths, distributions = self.candidate_distributions(
            origin, destination, departure_minute)
        best = int(np.argmin([d.mean() for d in distributions]))
        return paths[best], distributions[best]

    def best_departure(self, origin, destination, travel_budget,
                       candidate_departures):
        """When to leave: the departure time maximizing on-time arrival.

        Travel costs are time-varying ([51]: "time-varying, uncertain
        travel costs"), so the *same* trip has different risk at
        different departure times — leaving before the rush can beat
        leaving into it even with a later deadline.

        Parameters
        ----------
        travel_budget:
            Allowed travel time (the deadline is departure + budget).
        candidate_departures:
            Minutes-of-day to consider.

        Returns
        -------
        (float, list, float)
            Best departure minute, its optimal path, and the on-time
            probability.
        """
        check_positive(travel_budget, "travel_budget")
        best = None
        for departure in candidate_departures:
            try:
                path, probability = self.on_time_route(
                    origin, destination, travel_budget,
                    departure_minute=departure)
            except (ValueError, KeyError):
                continue
            if best is None or probability > best[2]:
                best = (float(departure), path, probability)
        if best is None:
            raise ValueError(
                "no candidate departure admits an evaluable route"
            )
        return best

    def arrival_windows(self, origin, destination, deadlines, *,
                        departure_minute=0.0):
        """Optimal path per deadline — the arrival-window view of [53].

        Returns a list of ``(deadline, path_index, probability)`` using
        a shared candidate indexing, so callers can see exactly where
        the optimal choice flips as the deadline tightens.
        """
        paths, distributions = self.candidate_distributions(
            origin, destination, departure_minute)
        results = []
        for deadline in deadlines:
            probabilities = [1.0 - d.sf(deadline) for d in distributions]
            best = int(np.argmax(probabilities))
            results.append((float(deadline), best, probabilities[best]))
        return results, paths
