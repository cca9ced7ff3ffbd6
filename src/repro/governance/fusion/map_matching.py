"""Hidden-Markov-model map matching (Newson & Krumm [17]).

Map matching is the paper's prime example of *alignment-based*
multi-modal fusion: noisy GPS trajectories are aligned with the road
network, simultaneously removing measurement noise and recovering the
travelled route.

Model (exactly the classic formulation):

* **states** at each GPS sample are candidate road edges within
  ``candidate_radius`` of the point;
* **emission** probability of a candidate decays as a Gaussian in the
  perpendicular distance between the point and the edge
  (``sigma`` = GPS noise scale);
* **transition** probability between consecutive candidates decays
  exponentially in the *route/great-circle discrepancy*: a good match
  drives roughly as far along the network as the raw points moved
  (``beta`` = tolerance scale);
* decoding is exact Viterbi.

The hot path is one whole-trajectory kernel.  A single batched
candidate query (:meth:`RoadNetwork.candidate_arrays`) returns padded
``(T, K)`` candidate arrays for all ``T`` points; each distinct (exit
node, cutoff) distance row is fetched once per trajectory; and the
``(T-1, K, K)`` tensor of transition log-probabilities for every
consecutive layer pair is built in one broadcast.  Only the Viterbi
argmax recurrence runs as a Python loop over points.  Network
distances come from *bounded* Dijkstra searches (radius
``straight + beta_cutoff * beta`` — farther transitions score below
``-beta_cutoff`` log-probability and are treated as unreachable)
memoized in a bounded LRU cache shared across trajectories and across
:meth:`HmmMapMatcher.match_many` batches.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict

import numpy as np

from ..._validation import check_positive
from ...datatypes import RoadNetwork, Trajectory
from ...observability.metrics import LookupTally

__all__ = ["HmmMapMatcher"]


class HmmMapMatcher:
    """Match GPS trajectories to road-network paths.

    **Thread-safety contract:** :meth:`match`, :meth:`match_many`,
    :meth:`matched_path`, :meth:`cache_info` and :meth:`clear_cache`
    are safe to call from many threads on one shared matcher.  The
    distance LRU is lock-guarded, and cached rows are masked down to
    each request's cutoff, so results are byte-identical to a
    single-threaded matcher regardless of interleaving.

    Parameters
    ----------
    network:
        The road network.
    sigma:
        GPS noise standard deviation (emission scale).
    beta:
        Transition tolerance: expected discrepancy between network
        distance and straight-line distance.
    candidate_radius:
        Max distance from a point to a candidate edge.
    max_candidates:
        Keep only the closest candidates per point (for speed).
    beta_cutoff:
        Dijkstra search radius in units of ``beta`` beyond the
        straight-line step distance.  Transitions whose detour exceeds
        this many betas carry log-probability below ``-beta_cutoff`` and
        are treated as unreachable.  ``None`` disables the bound
        (exhaustive single-source searches, the pre-index behavior).
    distance_cache_size:
        Max number of per-node Dijkstra results kept in the LRU cache.
    """

    def __init__(self, network, *, sigma=0.3, beta=1.0,
                 candidate_radius=None, max_candidates=8,
                 beta_cutoff=30.0, distance_cache_size=4096):
        if not isinstance(network, RoadNetwork):
            raise TypeError("network must be a RoadNetwork")
        self.network = network
        self.sigma = float(check_positive(sigma, "sigma"))
        self.beta = float(check_positive(beta, "beta"))
        self.candidate_radius = (
            float(candidate_radius) if candidate_radius is not None
            else 5.0 * self.sigma
        )
        self.max_candidates = int(check_positive(max_candidates,
                                                 "max_candidates"))
        self.beta_cutoff = (
            float(check_positive(beta_cutoff, "beta_cutoff"))
            if beta_cutoff is not None else None
        )
        self.distance_cache_size = int(check_positive(
            distance_cache_size, "distance_cache_size"))
        self._cache_lock = threading.RLock()
        self._distance_cache = OrderedDict()
        self._lookups = LookupTally(
            "fusion.distance_cache_lookups_total",
            "HmmMapMatcher distance-LRU lookups by outcome")

    def __getstate__(self):
        """Pickle without the lock or the warm LRU (rebuilt lazily)."""
        state = self.__dict__.copy()
        state.pop("_cache_lock", None)
        state["_distance_cache"] = OrderedDict()
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._cache_lock = threading.RLock()

    # -- internals -----------------------------------------------------------

    def _distances_from(self, node, cutoff=None):
        """Bounded single-source distance *array*, memoized per node (LRU).

        Returns the :meth:`RoadNetwork.dijkstra_array` row for ``node``
        (``inf`` beyond the cutoff / unreachable).  A cached result
        computed with a larger (or unbounded) cutoff serves any smaller
        request *masked down to that cutoff*, so the returned row is
        byte-identical to a fresh bounded search no matter what the
        cache happens to hold; a larger request recomputes and replaces
        the entry.

        Thread-safe: cache probes, LRU reordering, eviction and the
        hit/miss counters all happen under the cache lock.  The Dijkstra
        itself runs *outside* the lock — two threads missing on the same
        node may duplicate that work, but the cache never corrupts and
        the counters still account every lookup exactly once.

        :meth:`match` calls this once per distinct (exit node, cutoff)
        pair of a trajectory, not once per layer pair, so the hit/miss
        counters count distinct rows per trajectory.
        """
        with self._cache_lock:
            entry = self._distance_cache.get(node)
            if entry is not None:
                cached_cutoff, distances = entry
                if cached_cutoff is None or (
                        cutoff is not None and cached_cutoff >= cutoff):
                    self._distance_cache.move_to_end(node)
                    self._lookups.hit()
                    if cutoff is not None and (
                            cached_cutoff is None
                            or cached_cutoff > cutoff):
                        return np.where(distances <= cutoff,
                                        distances, np.inf)
                    return distances
            self._lookups.miss()
        distances = self.network.dijkstra_array(node, cutoff=cutoff)
        with self._cache_lock:
            self._distance_cache[node] = (cutoff, distances)
            self._distance_cache.move_to_end(node)
            while len(self._distance_cache) > self.distance_cache_size:
                self._distance_cache.popitem(last=False)
        return distances

    def _cutoff_for(self, straight):
        """Dijkstra radius for a step of straight-line length ``straight``.

        Quantized *up* to 1/8 of the ``beta_cutoff * beta`` margin so
        consecutive steps with slightly different straight-line gaps ask
        for the same radius and share one cache entry per node, instead
        of forcing an upgrade-recompute for every fractionally larger
        request.
        """
        if self.beta_cutoff is None:
            return None
        quantum = self.beta_cutoff * self.beta / 8.0
        exact = straight + self.beta_cutoff * self.beta
        return quantum * math.ceil(exact / quantum)

    def cache_info(self):
        """Distance-cache observability: hits, misses, size, maxsize.

        Also flushes the ``fusion.distance_cache_lookups_total``
        series, which :meth:`match` flushes once per trajectory.
        """
        self._lookups.flush()
        hits, misses = self._lookups.counts()
        with self._cache_lock:
            size = len(self._distance_cache)
        return {"hits": hits, "misses": misses, "size": size,
                "maxsize": self.distance_cache_size}

    def clear_cache(self):
        with self._cache_lock:
            self._distance_cache.clear()
        self._lookups.reset()

    def _transitions(self, points, valid, u, v, fraction, length):
        """Log transition probabilities for every layer pair.

        Returns a ``(T-1, K, K)`` tensor: entry ``(t, i, j)`` is
        ``-|route - straight| / beta`` from candidate ``i`` of point
        ``t`` to candidate ``j`` of point ``t + 1``, and ``-inf`` when
        they are not connected within the Dijkstra cutoff or either
        slot is padding.  ``valid``, ``u``, ``v`` (node indices),
        ``fraction`` and ``length`` are ``(T, K)`` candidate arrays.
        """
        straight = np.array([
            math.hypot(b[0] - a[0], b[1] - a[1])
            for a, b in zip(points, points[1:])
        ])
        cutoffs = [self._cutoff_for(float(gap)) for gap in straight]
        # Rows are fetched in the order the trace first needs them, so
        # the LRU sees the same recency as a point-by-point walk.
        _, nodes = self.network.node_index()
        levels = list(dict.fromkeys(cutoffs))
        level_of = {cutoff: i for i, cutoff in enumerate(levels)}
        keys = v[:-1] * len(levels) \
            + np.array([level_of[c] for c in cutoffs])[:, None]
        needed = keys[valid[:-1]].tolist()
        position = {key: i for i, key in enumerate(dict.fromkeys(needed))}
        columns, column_of = np.unique(u[1:], return_inverse=True)
        rows = np.stack([
            self._distances_from(nodes[key // len(levels)],
                                 levels[key % len(levels)])[columns]
            for key in position
        ])
        row_index = np.zeros(keys.shape, dtype=np.intp)
        row_index[valid[:-1]] = [position[key] for key in needed]
        through = rows[row_index[:, :, None],
                       column_of.reshape(u[1:].shape)[:, None, :]]

        before, after = fraction[:-1, :, None], fraction[1:, None, :]
        length_before = length[:-1, :, None]
        route = (1.0 - before) * length_before + through \
            + after * length[1:, None, :]
        same_edge = (
            (u[:-1, :, None] == u[1:, None, :])
            & (v[:-1, :, None] == v[1:, None, :])
            & (after >= before)
        )
        route = np.where(same_edge, (after - before) * length_before,
                         route)
        log_p = -np.abs(route - straight[:, None, None]) / self.beta
        log_p[~(valid[:-1, :, None] & valid[1:, None, :])] = -np.inf
        return log_p

    # -- public API -------------------------------------------------------------

    def match(self, trajectory):
        """Viterbi-decode the most likely candidate sequence.

        Returns
        -------
        list
            One ``(u, v, distance, fraction)`` candidate per GPS point.

        Raises
        ------
        ValueError
            If a coordinate is NaN or infinite, or some point has no
            candidate edge within radius (increase
            ``candidate_radius``); the message names the point.
        """
        if not isinstance(trajectory, Trajectory):
            raise TypeError("trajectory must be a Trajectory")
        points = [(p.x, p.y) for p in trajectory]
        edge, distance, fraction = self.network.candidate_arrays(
            points, self.candidate_radius, self.max_candidates)
        valid = edge >= 0
        if not valid[:, 0].all():
            raise ValueError(
                f"no candidate edge within {self.candidate_radius} of "
                f"point {int(np.argmin(valid[:, 0]))}; the trajectory is "
                "off the map"
            )
        edges, u, v, length = self.network.edge_arrays()
        edge_or_first = np.where(valid, edge, 0)
        transitions = self._transitions(
            points, valid, u[edge_or_first], v[edge_or_first], fraction,
            length[edge_or_first])
        # Padding sits at distance inf, so its emission is -inf.
        emissions = -0.5 * (distance / self.sigma) ** 2

        scores = emissions[0]
        slots = np.arange(self.max_candidates)
        backpointers = []
        layer_scores = []
        for transition, emission in zip(transitions, emissions[1:]):
            totals = scores[:, None] + transition
            pointers = totals.argmax(axis=0)
            scores = totals[pointers, slots] + emission
            backpointers.append(pointers)
            layer_scores.append(scores)
        # A layer with every score -inf keeps every later layer there,
        # so one check after the loop finds the first dead point.
        if np.isneginf(scores).all():
            step = 1 + [np.isneginf(layer).all()
                        for layer in layer_scores].index(True)
            raise ValueError(
                f"no connected matching through point {step}; "
                "the network may be disconnected along the trace"
            )

        best = int(np.argmax(scores))
        chosen = [best]
        for pointers in reversed(backpointers):
            best = int(pointers[best])
            chosen.append(best)
        chosen.reverse()
        self._lookups.flush()
        return [
            (*edges[edge[t, c]], float(distance[t, c]),
             float(fraction[t, c]))
            for t, c in enumerate(chosen)
        ]

    def match_many(self, trajectories):
        """Batch-match trajectories, sharing the distance cache.

        Fleet-scale serving entry point: consecutive trajectories over
        the same region reuse each other's bounded Dijkstra results, so
        throughput grows superlinearly versus matching each trace with a
        cold matcher.  Returns one :meth:`match` result per trajectory.
        """
        return [self.match(trajectory) for trajectory in trajectories]

    def matched_path(self, trajectory):
        """The full node path the vehicle most likely travelled.

        Consecutive matched edges are stitched with network shortest
        paths, and repeated nodes from staying on one edge are collapsed.
        """
        candidates = self.match(trajectory)
        path = []

        def extend(nodes):
            for node in nodes:
                if not path or path[-1] != node:
                    path.append(node)

        previous_edge = None
        for index, (u, v, _, fraction) in enumerate(candidates):
            edge = (u, v)
            if edge == previous_edge:
                continue
            if previous_edge is None:
                # A first match sitting at the far end of its edge means
                # the vehicle effectively started at node v; adding u
                # would prepend a phantom segment.
                if fraction >= 0.99:
                    extend([v])
                else:
                    extend([u, v])
            else:
                connector = self.network.shortest_path(previous_edge[1], u)
                extend(connector)
                extend([v])
            previous_edge = edge

        # Collapse immediate backtracks (a, b, a -> a), an artifact of
        # matching to the reverse twin of a bidirectional edge.
        changed = True
        while changed and len(path) >= 3:
            changed = False
            for index in range(len(path) - 2):
                if path[index] == path[index + 2]:
                    del path[index + 1:index + 3]
                    changed = True
                    break

        if len(path) < 2:
            # Entire trace matched to a single edge.
            u, v, _, _ = candidates[0]
            path = [u, v]
        return path
