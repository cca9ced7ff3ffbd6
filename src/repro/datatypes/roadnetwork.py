"""Road networks: the spatial substrate for the paper's running examples.

The tutorial's flagship decision task is stochastic route planning over
an uncertain road network (the autonomous-taxi-to-airport example of
§I).  :class:`RoadNetwork` provides the directed, spatially-embedded
graph all of those components share: nodes with planar coordinates,
edges with lengths, geometric queries for map matching, and classic
path utilities.

The paper's systems run on real networks (OpenStreetMap extracts); the
generators here (:meth:`RoadNetwork.grid`,
:meth:`RoadNetwork.random_geometric`) synthesize networks with the same
structural features — bounded degree, planar embedding, alternative
routes between most origin-destination pairs — with known ground truth.
"""

from __future__ import annotations

import heapq
import itertools
import math
import threading

import networkx as nx
import numpy as np

from .._validation import ensure_rng

__all__ = ["RoadNetwork"]


def _ragged_arange(counts):
    """``concatenate([arange(c) for c in counts])`` without the loop."""
    return np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts,
                                               counts)


class _GeometryIndex:
    """Immutable numpy snapshot of a network's geometry + uniform grid.

    Built once per network revision (keyed on node/edge counts) and
    shared by every geometric query.  The grid buckets edges by their
    bounding boxes and nodes by their cells, so ``candidate_edges`` and
    ``nearest_node`` inspect only nearby cells instead of scanning the
    whole graph.
    """

    def __init__(self, graph):
        self.edge_list = list(graph.edges())
        self.node_list = list(graph.nodes())
        positions = {
            node: graph.nodes[node]["pos"] for node in self.node_list
        }
        self.node_xy = np.asarray(
            [positions[node] for node in self.node_list], dtype=float
        ).reshape(len(self.node_list), 2)
        if self.edge_list:
            self.a = np.asarray(
                [positions[u] for u, _ in self.edge_list], dtype=float)
            self.b = np.asarray(
                [positions[v] for _, v in self.edge_list], dtype=float)
        else:
            self.a = np.zeros((0, 2))
            self.b = np.zeros((0, 2))
        self.ab = self.b - self.a
        index_of = {node: i for i, node in enumerate(self.node_list)}
        self.u = np.array([index_of[u] for u, _ in self.edge_list],
                          dtype=np.intp)
        self.v = np.array([index_of[v] for _, v in self.edge_list],
                          dtype=np.intp)
        # ``nan`` for an edge added later without a length, so pure
        # geometry queries still work on such a graph.
        self.length = np.array([
            float(graph.edges[edge].get("length", np.nan))
            for edge in self.edge_list
        ])
        self.norm2 = (self.ab ** 2).sum(axis=1)

        # Uniform grid over the node bounding box.  Cell size targets a
        # handful of edges per cell; degenerate (empty / point) networks
        # collapse to a single cell.
        lo = self.node_xy.min(axis=0) if len(self.node_list) else \
            np.zeros(2)
        hi = self.node_xy.max(axis=0) if len(self.node_list) else \
            np.zeros(2)
        span = float(max(hi[0] - lo[0], hi[1] - lo[1]))
        n_edges = max(len(self.edge_list), 1)
        self.cell = span / math.ceil(math.sqrt(n_edges)) if span > 0 \
            else 1.0
        self.origin = lo
        shape = np.maximum(
            np.ceil((hi - lo) / self.cell).astype(int) + 1, 1)
        self.nx_cells, self.ny_cells = int(shape[0]), int(shape[1])

        # Edge buckets in CSR form: the edges of cell ``c = cx * ny + cy``
        # are ``cell_edges[cell_start[c]:cell_start[c + 1]]``, ascending.
        cells, owners = [], []
        if len(self.edge_list):
            lo_cells = self._cell_of(np.minimum(self.a, self.b))
            hi_cells = self._cell_of(np.maximum(self.a, self.b))
            for index in range(len(self.edge_list)):
                x0, y0 = lo_cells[index]
                x1, y1 = hi_cells[index]
                for cx in range(x0, x1 + 1):
                    for cy in range(y0, y1 + 1):
                        cells.append(cx * self.ny_cells + cy)
                        owners.append(index)
        cells = np.asarray(cells, dtype=np.intp)
        order = np.argsort(cells, kind="stable")
        self.cell_edges = np.asarray(owners, dtype=np.intp)[order]
        self.cell_start = np.searchsorted(
            cells[order], np.arange(self.nx_cells * self.ny_cells + 1))

        self._node_cells = {}
        if len(self.node_list):
            for index, (cx, cy) in enumerate(self._cell_of(self.node_xy)):
                self._node_cells.setdefault((cx, cy), []).append(index)
        self._node_cells = {
            key: np.asarray(indices, dtype=np.intp)
            for key, indices in self._node_cells.items()
        }

    def _cell_of(self, points):
        """Integer cell coordinates (unclipped) of ``(..., 2)`` points."""
        return np.floor(
            (np.asarray(points, dtype=float) - self.origin) / self.cell
        ).astype(int)

    def project_many(self, points, indices):
        """Vectorized point-to-segment projection over edge ``indices``.

        ``points`` is one ``(x, y)`` for every edge, or one row per
        edge.  Returns ``(distances, fractions)`` matching
        :meth:`RoadNetwork.project_point` on each edge.
        """
        xy = np.asarray(points, dtype=float)
        a = self.a[indices]
        ab = self.ab[indices]
        norm2 = self.norm2[indices]
        rel = xy - a
        with np.errstate(invalid="ignore"):
            fractions = np.where(
                norm2 > 0,
                (rel * ab).sum(axis=1) / np.where(norm2 > 0, norm2, 1.0),
                0.0,
            )
        fractions = np.clip(fractions, 0.0, 1.0)
        closest = a + fractions[:, None] * ab
        distances = np.hypot(xy[..., 0] - closest[:, 0],
                             xy[..., 1] - closest[:, 1])
        return distances, fractions

    def edges_near(self, point, radius):
        """Indices of edges whose grid cells intersect the query disk.

        A conservative superset (grid cells overestimate the segment),
        in ascending edge-index order.
        """
        px, py = float(point[0]), float(point[1])
        lo = self._cell_of(np.array([px - radius, py - radius]))
        hi = self._cell_of(np.array([px + radius, py + radius]))
        x0, y0 = max(int(lo[0]), 0), max(int(lo[1]), 0)
        x1 = min(int(hi[0]), self.nx_cells - 1)
        y1 = min(int(hi[1]), self.ny_cells - 1)
        if x1 < x0 or y1 < y0:
            return np.empty(0, dtype=np.intp)
        start = self.cell_start
        buckets = [
            self.cell_edges[start[cell]:start[cell + 1]]
            for cx in range(x0, x1 + 1)
            for cell in range(cx * self.ny_cells + y0,
                              cx * self.ny_cells + y1 + 1)
        ]
        return np.unique(np.concatenate(buckets))

    def edges_near_many(self, points, radius):
        """:meth:`edges_near` for ``(T, 2)`` points, as ``(point, edge)``.

        One gather over every point's cell range.  The pairs come back
        unique and sorted by point, then edge, so point ``t``'s edges
        are exactly ``edges_near(points[t], radius)``.  Memory is
        O(points x edges in their cells).
        """
        xy = np.asarray(points, dtype=float)
        limit = np.array([self.nx_cells, self.ny_cells])
        # Clip before the integer cast so far-off points stay defined.
        lo = np.clip(np.floor((xy - radius - self.origin) / self.cell),
                     0, limit).astype(np.intp)
        hi = np.clip(np.floor((xy + radius - self.origin) / self.cell),
                     -1, limit - 1).astype(np.intp)
        width = np.maximum(hi - lo + 1, 0)
        n_cells = width[:, 0] * width[:, 1]
        owner = np.repeat(np.arange(len(xy)), n_cells)
        step = _ragged_arange(n_cells)
        rows = width[owner, 1]
        cells = (lo[owner, 0] + step // rows) * self.ny_cells \
            + lo[owner, 1] + step % rows
        start = self.cell_start[cells]
        count = self.cell_start[cells + 1] - start
        edges = self.cell_edges[np.repeat(start, count)
                                + _ragged_arange(count)]
        n_edges = max(len(self.edge_list), 1)
        keys = np.unique(np.repeat(owner, count) * n_edges + edges)
        return keys // n_edges, keys % n_edges

    def _ring_nodes(self, center, ring):
        """Node indices in the cells at Chebyshev distance ``ring``."""
        cx, cy = center
        cells = []
        if ring == 0:
            cells.append((cx, cy))
        else:
            for dx in range(-ring, ring + 1):
                cells.append((cx + dx, cy - ring))
                cells.append((cx + dx, cy + ring))
            for dy in range(-ring + 1, ring):
                cells.append((cx - ring, cy + dy))
                cells.append((cx + ring, cy + dy))
        buckets = [
            self._node_cells[cell] for cell in cells
            if cell in self._node_cells
        ]
        if not buckets:
            return np.empty(0, dtype=np.intp)
        return np.concatenate(buckets)

    def nearest_node_index(self, point):
        """Index (into ``node_list``) of the node closest to ``point``.

        Expanding-ring search: cells at Chebyshev ring ``k`` from the
        query cell contain no point closer than ``(k - 1) * cell``, so
        the search stops as soon as the best distance found beats that
        lower bound for every unvisited ring.
        """
        if not len(self.node_list):
            return None
        px, py = float(point[0]), float(point[1])
        center = tuple(self._cell_of(np.array([px, py])))
        # Rings needed to cover every populated cell from the center.
        max_ring = max(
            max(abs(cx - center[0]), abs(cy - center[1]))
            for cx, cy in self._node_cells
        )
        best_index, best_distance = None, math.inf
        for ring in range(max_ring + 1):
            if best_index is not None and \
                    (ring - 1) * self.cell > best_distance:
                break
            indices = np.sort(self._ring_nodes(center, ring))
            if not len(indices):
                continue
            xy = self.node_xy[indices]
            distances = np.hypot(px - xy[:, 0], py - xy[:, 1])
            argmin = int(np.argmin(distances))
            distance = float(distances[argmin])
            index = int(indices[argmin])
            # Ties break toward the lowest node index, matching the
            # brute-force scan in graph iteration order.
            if distance < best_distance or (
                    distance == best_distance and index < best_index):
                best_distance = distance
                best_index = index
        return best_index


class RoadNetwork:
    """A directed, spatially embedded road graph.

    Nodes are arbitrary hashables with a ``pos=(x, y)`` attribute; edges
    carry at least a positive ``length``.  Additional per-edge data (speed
    distributions, observed weights) is attached by the governance layer.

    **Thread-safety contract:** every *query* method (geometry lookups,
    ``candidate_edges``, ``nearest_node``, Dijkstra variants, path
    utilities) is safe to call from many threads concurrently — the
    lazily built geometry/adjacency snapshots are constructed under a
    lock and installed atomically, so concurrent first callers never
    observe a torn snapshot and never duplicate a build.  *Mutation*
    (``set_edge_attribute``, editing ``graph`` in place,
    ``invalidate_geometry``) is not synchronized against concurrent
    queries; quiesce queries before mutating, exactly as before.
    """

    def __init__(self, graph=None):
        self._graph = graph if graph is not None else nx.DiGraph()
        for node, data in self._graph.nodes(data=True):
            if "pos" not in data:
                raise ValueError(f"node {node!r} is missing a 'pos' attribute")
        for u, v, data in self._graph.edges(data=True):
            if data.get("length", 0) <= 0:
                raise ValueError(f"edge ({u!r}, {v!r}) needs a positive length")
        self._init_caches()

    def _init_caches(self):
        """Fresh snapshot holders + the lock that guards their builds."""
        self._cache_lock = threading.RLock()
        # (revision_key, _GeometryIndex) installed as ONE tuple so
        # readers can never pair a stale key with a fresh index.
        self._geometry_snapshot = None
        self._adjacency_cache = {}

    def __getstate__(self):
        """Pickle without the lock; snapshots rebuild lazily on load.

        Dropping the caches also keeps content fingerprints (and
        process-executor shipping) independent of how warm this
        network's lazy indexes happen to be.
        """
        state = self.__dict__.copy()
        state.pop("_cache_lock", None)
        state["_geometry_snapshot"] = None
        state["_adjacency_cache"] = {}
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._init_caches()

    # -- construction ------------------------------------------------------

    @classmethod
    def grid(cls, rows, cols, spacing=1.0, *, bidirectional=True):
        """A ``rows x cols`` Manhattan grid with edge length ``spacing``.

        Nodes are ``(r, c)`` tuples positioned at ``(c*spacing, r*spacing)``.
        """
        if rows < 2 or cols < 2:
            raise ValueError("grid needs at least 2 rows and 2 columns")
        graph = nx.DiGraph()
        for r in range(rows):
            for c in range(cols):
                graph.add_node((r, c), pos=(c * spacing, r * spacing))
        for r in range(rows):
            for c in range(cols):
                for dr, dc in ((0, 1), (1, 0)):
                    rr, cc = r + dr, c + dc
                    if rr < rows and cc < cols:
                        graph.add_edge((r, c), (rr, cc), length=spacing)
                        if bidirectional:
                            graph.add_edge((rr, cc), (r, c), length=spacing)
        return cls(graph)

    @classmethod
    def random_geometric(cls, n_nodes, radius, rng=None, *, size=10.0):
        """Random geometric graph on ``[0, size]^2`` with connect radius.

        Keeps only the largest strongly connected component so every pair
        of retained nodes is mutually reachable.
        """
        if n_nodes < 2:
            raise ValueError("need at least two nodes")
        rng = ensure_rng(rng)
        coords = rng.uniform(0.0, size, size=(n_nodes, 2))
        graph = nx.DiGraph()
        for i, (x, y) in enumerate(coords):
            graph.add_node(i, pos=(float(x), float(y)))
        for i in range(n_nodes):
            for j in range(i + 1, n_nodes):
                distance = float(np.linalg.norm(coords[i] - coords[j]))
                if distance <= radius and distance > 0:
                    graph.add_edge(i, j, length=distance)
                    graph.add_edge(j, i, length=distance)
        components = list(nx.strongly_connected_components(graph))
        if not components:
            raise ValueError("generated graph has no edges; increase radius")
        largest = max(components, key=len)
        if len(largest) < 2:
            raise ValueError("generated graph is too sparse; increase radius")
        return cls(graph.subgraph(largest).copy())

    # -- protocol -----------------------------------------------------------

    def __repr__(self):
        return f"RoadNetwork(nodes={self.n_nodes}, edges={self.n_edges})"

    @property
    def graph(self):
        """The underlying :class:`networkx.DiGraph` (shared, not copied)."""
        return self._graph

    @property
    def n_nodes(self):
        return self._graph.number_of_nodes()

    @property
    def n_edges(self):
        return self._graph.number_of_edges()

    def nodes(self):
        return list(self._graph.nodes())

    def edges(self):
        """All edges as ``(u, v)`` tuples."""
        return list(self._graph.edges())

    def position(self, node):
        """The ``(x, y)`` coordinates of ``node``."""
        return tuple(self._graph.nodes[node]["pos"])

    def edge_length(self, u, v):
        return float(self._graph.edges[u, v]["length"])

    def has_edge(self, u, v):
        return self._graph.has_edge(u, v)

    def successors(self, node):
        return list(self._graph.successors(node))

    def set_edge_attribute(self, u, v, key, value):
        """Attach governance data (weights, distributions) to an edge."""
        if not self._graph.has_edge(u, v):
            raise KeyError(f"no edge ({u!r}, {v!r})")
        self._graph.edges[u, v][key] = value

    def edge_attribute(self, u, v, key, default=None):
        if not self._graph.has_edge(u, v):
            raise KeyError(f"no edge ({u!r}, {v!r})")
        return self._graph.edges[u, v].get(key, default)

    # -- geometry ------------------------------------------------------------

    def _revision(self):
        """Cheap ``(n_nodes, n_edges)`` fingerprint of the graph shape.

        Uses the successor dicts directly: ``number_of_edges()`` walks a
        degree view and is too slow to run per geometric query.
        """
        succ = getattr(self._graph, "_succ", None)
        if succ is None:  # non-standard graph implementation
            return (self._graph.number_of_nodes(),
                    self._graph.number_of_edges())
        return len(succ), sum(map(len, succ.values()))

    def _geometry(self):
        """The lazily built spatial index for the current graph revision.

        The index caches node/edge coordinates as numpy arrays plus a
        uniform grid, keyed on ``(n_nodes, n_edges)``: adding or removing
        nodes/edges rebuilds it automatically.  In-place *coordinate*
        mutation of an existing node is not detectable this way — call
        :meth:`invalidate_geometry` after moving nodes.

        Safe under concurrency: the fast path reads one atomically
        installed ``(key, index)`` tuple; the build path serializes on
        the cache lock and double-checks, so a rebuild runs once no
        matter how many threads race the first query.
        """
        key = self._revision()
        snapshot = self._geometry_snapshot
        if snapshot is not None and snapshot[0] == key:
            return snapshot[1]
        with self._cache_lock:
            snapshot = self._geometry_snapshot
            if snapshot is not None and snapshot[0] == key:
                return snapshot[1]
            index = _GeometryIndex(self._graph)
            self._geometry_snapshot = (key, index)
            return index

    def _weighted_adjacency(self, weight="length"):
        """Plain-dict successor lists ``{u: [(v, w), ...]}``, cached.

        Dijkstra over networkx edge views spends most of its time in
        attribute-dict indirection; snapshotting the weights once per
        graph revision makes repeated single-source searches cheap.
        """
        key = self._revision()
        cached = self._adjacency_cache.get(weight)
        if cached is not None and cached[0] == key:
            return cached[1]
        with self._cache_lock:
            cached = self._adjacency_cache.get(weight)
            if cached is not None and cached[0] == key:
                return cached[1]
            adjacency = {
                node: [
                    (succ, float(data[weight]))
                    for succ, data in neighbors.items()
                ]
                for node, neighbors in self._graph._succ.items()
            }
            self._adjacency_cache[weight] = (key, adjacency)
            return adjacency

    def _indexed_adjacency(self, weight="length"):
        """Integer-indexed adjacency: ``(nodes, index_of, adjacency)``.

        ``adjacency[i]`` lists ``(edge_weight, successor_index)`` pairs.
        Dense integer indices let single-source searches run over plain
        lists and return numpy arrays, which is what the vectorized map
        matcher gathers from.  Cached per graph revision.  Built from
        the raw node and successor dicts: networkx's cached ``adj``
        view would land in the graph's ``__dict__`` and change its
        pickle.
        """
        key = self._revision()
        cached = self._adjacency_cache.get(("indexed", weight))
        if cached is not None and cached[0] == key:
            return cached[1]
        with self._cache_lock:
            cached = self._adjacency_cache.get(("indexed", weight))
            if cached is not None and cached[0] == key:
                return cached[1]
            nodes = list(self._graph._node)
            index_of = {node: i for i, node in enumerate(nodes)}
            adjacency = [
                [
                    (float(data[weight]), index_of[succ])
                    for succ, data in self._graph._succ[node].items()
                ]
                for node in nodes
            ]
            snapshot = (nodes, index_of, adjacency)
            self._adjacency_cache[("indexed", weight)] = (key, snapshot)
            return snapshot

    def edge_arrays(self):
        """``(edges, u, v, lengths)`` in :meth:`candidate_arrays`' order.

        Edge index ``e`` names ``edges[e]``; ``u[e]`` / ``v[e]`` are its
        endpoints' :meth:`node_index` rows and ``lengths[e]`` its
        length.  Part of the spatial-index snapshot, so edge indices
        and arrays always come from one graph revision.
        """
        geometry = self._geometry()
        return geometry.edge_list, geometry.u, geometry.v, geometry.length

    def node_index(self):
        """``(index_of, nodes)`` for array-based queries.

        ``index_of[node]`` is the row of ``node`` in any array returned
        by :meth:`dijkstra_array`; ``nodes[i]`` inverts the mapping.
        Stable for a given graph revision.
        """
        nodes, index_of, _ = self._indexed_adjacency()
        return index_of, nodes

    def invalidate_geometry(self):
        """Drop the cached spatial index (after in-place ``pos`` edits).

        Safe against in-flight readers: the snapshot holders are
        *replaced* (never mutated), so a query that already picked up
        the old snapshot finishes on a consistent — if momentarily
        stale — view, and the next query rebuilds fresh.
        """
        with self._cache_lock:
            self._geometry_snapshot = None
            self._adjacency_cache = {}

    def edge_endpoints(self, u, v):
        """Coordinates of both endpoints as two ``(x, y)`` tuples."""
        return self.position(u), self.position(v)

    def project_point(self, point, u, v):
        """Project planar ``point`` onto segment ``(u, v)``.

        Returns ``(distance, fraction)`` — the perpendicular distance from
        the point to the segment and the position along it in ``[0, 1]``.
        Used by HMM map matching for emission probabilities.
        """
        (x1, y1), (x2, y2) = self.edge_endpoints(u, v)
        px, py = point
        dx, dy = x2 - x1, y2 - y1
        norm2 = dx * dx + dy * dy
        if norm2 == 0:
            return math.hypot(px - x1, py - y1), 0.0
        fraction = ((px - x1) * dx + (py - y1) * dy) / norm2
        fraction = min(max(fraction, 0.0), 1.0)
        cx, cy = x1 + fraction * dx, y1 + fraction * dy
        return math.hypot(px - cx, py - cy), fraction

    def point_on_edge(self, u, v, fraction):
        """The coordinates at ``fraction`` of the way from ``u`` to ``v``."""
        (x1, y1), (x2, y2) = self.edge_endpoints(u, v)
        fraction = min(max(fraction, 0.0), 1.0)
        return (x1 + fraction * (x2 - x1), y1 + fraction * (y2 - y1))

    def candidate_edges(self, point, radius):
        """Edges whose segment passes within ``radius`` of ``point``.

        Returns ``[(u, v, distance, fraction), ...]`` sorted by distance
        (ties in edge insertion order).  Served by the uniform-grid
        spatial index: only edges in grid cells overlapping the query
        disk are projected, and the projection runs vectorized over the
        whole candidate set.
        """
        geometry = self._geometry()
        indices = geometry.edges_near(point, float(radius))
        if not len(indices):
            return []
        distances, fractions = geometry.project_many(point, indices)
        keep = distances <= radius
        indices = indices[keep]
        distances = distances[keep]
        fractions = fractions[keep]
        order = np.argsort(distances, kind="stable")
        return [
            (*geometry.edge_list[indices[i]],
             float(distances[i]), float(fractions[i]))
            for i in order
        ]

    def candidate_arrays(self, points, radius, max_candidates):
        """:meth:`candidate_edges` for a whole trace, as padded arrays.

        Returns ``(edge, distance, fraction)``, each of shape ``(T, K)``
        for the ``T`` rows of ``points`` and ``K = max_candidates``.
        Row ``t`` holds the first ``K`` results of
        ``candidate_edges(points[t], radius)`` in the same order with
        bit-identical floats; ``edge`` indexes :meth:`edge_arrays`, and
        short rows are padded with edge ``-1`` at distance ``inf``.
        One grid gather and one projection serve every point.

        Raises
        ------
        ValueError
            If ``points`` is not a sequence of ``(x, y)`` pairs, or a
            coordinate is NaN or infinite (names the first such point).
        """
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[1] != 2:
            raise ValueError("points must be a sequence of (x, y) pairs")
        finite = np.isfinite(points).all(axis=1)
        if not finite.all():
            raise ValueError(
                f"point {int(np.argmin(finite))} has a non-finite "
                "coordinate")
        radius = float(radius)
        geometry = self._geometry()
        point, edge = geometry.edges_near_many(points, radius)
        distance, fraction = geometry.project_many(points[point], edge)
        keep = distance <= radius
        # Lexsort is stable: equal distances stay in edge order, exactly
        # as candidate_edges' stable argsort leaves them.
        order = np.lexsort((distance[keep], point[keep]))
        point, edge, distance, fraction = (
            array[keep][order] for array in (point, edge, distance,
                                             fraction))
        rank = _ragged_arange(np.bincount(point, minlength=len(points)))
        kept = rank < max_candidates
        shape = (len(points), max_candidates)
        padded = (np.full(shape, -1, dtype=np.intp), np.full(shape, np.inf),
                  np.zeros(shape))
        for out, values in zip(padded, (edge, distance, fraction)):
            out[point[kept], rank[kept]] = values[kept]
        return padded

    def nearest_node(self, point):
        """The node closest to planar ``point`` (grid-index backed)."""
        index = self._geometry().nearest_node_index(point)
        if index is None:
            return None
        return self._geometry().node_list[index]

    # -- paths ----------------------------------------------------------------

    def shortest_path(self, source, target, weight="length"):
        """Dijkstra shortest path as a node list."""
        return nx.dijkstra_path(self._graph, source, target, weight=weight)

    def shortest_path_length(self, source, target, weight="length"):
        return nx.dijkstra_path_length(self._graph, source, target,
                                       weight=weight)

    def k_shortest_paths(self, source, target, k, weight="length"):
        """The ``k`` shortest simple paths (Yen's algorithm via networkx)."""
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        generator = nx.shortest_simple_paths(self._graph, source, target,
                                             weight=weight)
        return list(itertools.islice(generator, k))

    def path_edges(self, path):
        """Convert a node path into its ``(u, v)`` edge list."""
        if len(path) < 2:
            raise ValueError("a path needs at least two nodes")
        edge_list = list(zip(path, path[1:]))
        for u, v in edge_list:
            if not self._graph.has_edge(u, v):
                raise ValueError(f"path uses missing edge ({u!r}, {v!r})")
        return edge_list

    def path_length(self, path, weight="length"):
        """Total weight along a node path."""
        return float(
            sum(self._graph.edges[u, v][weight] for u, v in self.path_edges(path))
        )

    def route_distance(self, path_a, path_b):
        """Dissimilarity of two node paths: 1 - Jaccard of their edge sets.

        Used to compare an imitated route to the expert route (E22) and a
        matched route to ground truth (E6).
        """
        edges_a = set(self.path_edges(path_a))
        edges_b = set(self.path_edges(path_b))
        union = edges_a | edges_b
        if not union:
            return 0.0
        return 1.0 - len(edges_a & edges_b) / len(union)

    def dijkstra_all(self, source, weight="length", *, cutoff=None):
        """Distances from ``source`` to every reachable node (lazy heap).

        With ``cutoff`` the search stops expanding past that radius:
        every node whose true distance is ``<= cutoff`` is returned with
        its exact distance, farther nodes are omitted.  Bounded searches
        are what keeps map matching's transition computation cheap on
        large networks.
        """
        adjacency = self._weighted_adjacency(weight)
        distances = {source: 0.0}
        heap = [(0.0, source)]
        visited = set()
        while heap:
            d, node = heapq.heappop(heap)
            if node in visited:
                continue
            visited.add(node)
            for succ, edge_weight in adjacency.get(node, ()):
                cost = d + edge_weight
                if cutoff is not None and cost > cutoff:
                    continue
                if cost < distances.get(succ, math.inf):
                    distances[succ] = cost
                    heapq.heappush(heap, (cost, succ))
        return distances

    def dijkstra_array(self, source, weight="length", *, cutoff=None):
        """:meth:`dijkstra_all` as a dense float array over node indices.

        Row order follows :meth:`node_index`; unreachable nodes (or
        nodes beyond ``cutoff``) hold ``inf``.  Running over integer
        adjacency lists and returning an array makes this the fast
        distance source for the vectorized map matcher, which gathers
        whole candidate columns at once.
        """
        nodes, index_of, adjacency = self._indexed_adjacency(weight)
        distances = [math.inf] * len(nodes)
        source_index = index_of[source]
        distances[source_index] = 0.0
        heap = [(0.0, source_index)]
        push, pop = heapq.heappush, heapq.heappop
        while heap:
            d, node = pop(heap)
            if d > distances[node]:  # stale entry (lazy deletion)
                continue
            for edge_weight, succ in adjacency[node]:
                cost = d + edge_weight
                if cutoff is not None and cost > cutoff:
                    continue
                if cost < distances[succ]:
                    distances[succ] = cost
                    push(heap, (cost, succ))
        return np.asarray(distances, dtype=float)
