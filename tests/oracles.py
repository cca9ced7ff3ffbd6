"""Brute-force reference oracles for the vectorized kernels.

Each oracle derives a kernel's answer the slow, obvious way through
public APIs only, so the equivalence tests (and the E26 and E29
benchmarks, which import this module) check a kernel against code it
does not share.
"""

import math

import numpy as np

from repro.decision.reduction import wasserstein_distance
from repro.decision.stochastic import (
    first_order_dominates,
    second_order_dominates,
)
from repro.governance.uncertainty import GaussianMixture, Histogram


def histogram_reference(samples, n_bins=30, *, bounds=None):
    """Per-group reference for ``Histogram.from_sample_groups``: one
    ``numpy.histogram`` call over the padded sample range."""
    data = np.asarray(samples, dtype=float)
    if data.ndim != 1 or data.size == 0:
        raise ValueError("samples must be a non-empty 1-D array")
    if bounds is None:
        low, high = float(data.min()), float(data.max())
    else:
        low, high = map(float, bounds)
        if high <= low:
            raise ValueError("bounds must satisfy low < high")
    if high == low:
        high = low + 1e-9
    span = high - low
    low -= 1e-9 * span
    high += 1e-9 * span
    counts, edges = np.histogram(data, bins=n_bins, range=(low, high))
    width = edges[1] - edges[0]
    total = counts.sum()
    if total == 0:
        raise ValueError("no samples fall inside the given bounds")
    return Histogram(edges[0] + width / 2, width, counts / total)


def travel_time_reference(trips, *, intervals, n_bins,
                          representation="histogram", n_components=2,
                          max_subpath_edges=None, min_support=1):
    """Reference fit of the ``(I, D)`` travel-time models.

    Returns ``{key: [distribution per interval]}``, summarizing one
    bucket at a time with :func:`histogram_reference` (or an EM fit for
    ``"gmm"`` buckets of at least ``3 * n_components`` samples).
    ``max_subpath_edges=None`` is the edge-centric model, whose clock
    advances edge by edge; otherwise sub-paths up to that many edges
    are kept when traversed ``min_support`` times (edges always).
    """

    def interval_of(minute):
        minute = float(minute) % (24 * 60)
        for index, (start, end) in enumerate(intervals):
            if start <= minute < end:
                return index
        gaps = [abs((start + end) / 2 - minute) for start, end in intervals]
        return int(np.argmin(gaps))

    def summarize(samples):
        if representation == "gmm" and len(samples) >= 3 * n_components:
            mixture = GaussianMixture.fit(
                np.asarray(samples), n_components,
                rng=np.random.default_rng(len(samples)))
            return mixture.to_histogram(n_bins)
        return histogram_reference(samples, n_bins)

    observations = {}
    for path, edge_times, departure in trips:
        if max_subpath_edges is None:
            minute = float(departure)
            for u, v, duration in zip(path, path[1:], edge_times):
                observations.setdefault((u, v), []).append(
                    (minute, float(duration)))
                minute += float(duration)
            continue
        starts = np.concatenate([[0.0], np.cumsum(edge_times)])
        for begin in range(len(edge_times)):
            limit = min(len(edge_times), begin + max_subpath_edges)
            for end in range(begin + 1, limit + 1):
                observations.setdefault(tuple(path[begin:end + 1]), []).append(
                    (float(departure) + float(starts[begin]),
                     float(starts[end] - starts[begin])))
    fitted = {}
    for key, pairs in observations.items():
        if len(key) > 2 and len(pairs) < min_support:
            continue
        buckets = {}
        for minute, duration in pairs:
            buckets.setdefault(interval_of(minute), []).append(duration)
        pooled = [value for bucket in buckets.values() for value in bucket]
        fallback = summarize(pooled)
        fitted[key] = [
            summarize(buckets[index]) if index in buckets else fallback
            for index in range(len(intervals))
        ]
    return fitted


def candidate_edges_scan(network, point, radius):
    """O(E) reference for ``RoadNetwork.candidate_edges``."""
    candidates = []
    for u, v in network.edges():
        distance, fraction = network.project_point(point, u, v)
        if distance <= radius:
            candidates.append((u, v, distance, fraction))
    candidates.sort(key=lambda item: item[2])
    return candidates


def nearest_node_scan(network, point):
    """O(V) reference for ``RoadNetwork.nearest_node``."""
    px, py = point
    best, best_distance = None, math.inf
    for node in network.nodes():
        x, y = network.position(node)
        distance = math.hypot(px - x, py - y)
        if distance < best_distance:
            best, best_distance = node, distance
    return best


def dominance_prune_pairwise(candidates, *, order=1, tol=1e-9):
    """k² independent pairwise calls: reference for ``dominance_prune``."""
    dominates = (first_order_dominates if order == 1
                 else second_order_dominates)
    candidates = list(candidates)
    survivors = []
    for index, candidate in enumerate(candidates):
        dominated = False
        for other_index, other in enumerate(candidates):
            if other_index == index:
                continue
            if dominates(other, candidate, tol=tol):
                dominated = True
                break
        if not dominated:
            survivors.append(index)
    if not survivors:
        survivors = list(range(len(candidates)))
    return survivors


def wasserstein_pairwise(histograms):
    """N² ``wasserstein_distance`` calls: reference W1 matrix."""
    histograms = list(histograms)
    n = len(histograms)
    matrix = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            matrix[i, j] = matrix[j, i] = wasserstein_distance(
                histograms[i], histograms[j])
    return matrix


def reduce_reference(distance, probabilities, k):
    """Pure-Python forward selection: reference for scenario reduction."""
    n = len(probabilities)
    nearest = [float("inf")] * n
    selected = []
    for _ in range(int(k)):
        best_pick, best_cost = None, None
        for u in range(n):
            if u in selected:
                continue
            cost = sum(
                probabilities[i] * min(nearest[i], distance[i][u])
                for i in range(n)
            )
            if best_cost is None or cost < best_cost:
                best_pick, best_cost = u, cost
        selected.append(best_pick)
        nearest = [min(nearest[i], distance[i][best_pick])
                   for i in range(n)]
        if sum(p * d for p, d in zip(probabilities, nearest)) <= 0.0:
            break
    return selected


def _layers(matcher, points):
    """Per-point candidate layers from one ``candidate_edges`` call each."""
    network = matcher.network
    layers = []
    for index, point in enumerate(points):
        candidates = network.candidate_edges(
            point, matcher.candidate_radius)[:matcher.max_candidates]
        if not candidates:
            raise ValueError(
                f"no candidate edge within {matcher.candidate_radius} of "
                f"point {index}; the trajectory is off the map"
            )
        layers.append(candidates)
    return layers


def match_reference(matcher, trajectory):
    """Per-pair pure-Python Viterbi for ``matcher``'s model.

    The model of :meth:`HmmMapMatcher.match` with exhaustive searches:
    candidate layers come from ``RoadNetwork.candidate_edges`` (one
    query per point) and route distances from
    ``RoadNetwork.dijkstra_all`` (one unbounded search per exit node,
    memoized for this call only), scored pair by pair in Python loops.
    """
    network = matcher.network
    points = [(p.x, p.y) for p in trajectory]
    layers = _layers(matcher, points)
    emissions = [
        -0.5 * (np.array([c[2] for c in layer]) / matcher.sigma) ** 2
        for layer in layers
    ]
    searches = {}

    def route_distance(candidate_a, candidate_b):
        (u1, v1, _, f1), (u2, v2, _, f2) = candidate_a, candidate_b
        length_a = network.edge_length(u1, v1)
        if (u1, v1) == (u2, v2) and f2 >= f1:
            return (f2 - f1) * length_a
        if v1 not in searches:
            searches[v1] = network.dijkstra_all(v1)
        through = searches[v1].get(u2, math.inf)
        if math.isinf(through):
            return math.inf
        remaining = (1.0 - f1) * length_a
        return remaining + through + f2 * network.edge_length(u2, v2)

    scores = list(emissions[0])
    backpointers = []
    for step in range(1, len(layers)):
        straight = math.hypot(points[step][0] - points[step - 1][0],
                              points[step][1] - points[step - 1][1])
        new_scores = []
        pointers = []
        for j, candidate in enumerate(layers[step]):
            best_score, best_prev = -math.inf, 0
            for prev_index, previous in enumerate(layers[step - 1]):
                route = route_distance(previous, candidate)
                if math.isinf(route):
                    continue
                transition = -abs(route - straight) / matcher.beta
                score = scores[prev_index] + transition
                if score > best_score:
                    best_score, best_prev = score, prev_index
            new_scores.append(best_score + emissions[step][j])
            pointers.append(best_prev)
        scores = new_scores
        backpointers.append(pointers)
        if all(math.isinf(-s) for s in scores):
            raise ValueError(
                f"no connected matching through point {step}; "
                "the network may be disconnected along the trace"
            )

    best = int(np.argmax(scores))
    chosen = [best]
    for pointers in reversed(backpointers):
        best = pointers[best]
        chosen.append(best)
    chosen.reverse()
    return [layers[i][c] for i, c in enumerate(chosen)]
