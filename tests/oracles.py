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
