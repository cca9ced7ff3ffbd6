"""pipeline_batch: the traffic-routing Figure-1 DAG, run from scratch.

One batch of noisy GPS trips goes through ``DecisionPipeline.run()`` on
the library's default executor (``REPRO_EXECUTOR`` is cleared by
``run.py``):

    network -> match -> {edge_model, path_model} -> routes -> risk
    network -> skyline

The simulation that ``examples/traffic_routing.py`` does inside its
``fleet`` stage happens here in :func:`make_inputs`, so the timed run
sees only the generated inputs.  Map matching dominates the run and
neither ``repro.serve`` nor streaming is touched: a kernel change
shows here, a serving or cache change does not.
"""

import statistics
import time

import numpy as np

from repro import DecisionPipeline, RoadNetwork
from repro.core.cache import fingerprint
from repro.datasets import TrafficSimulator, simulate_trip
from repro.decision import (
    DeadlineUtility,
    RiskAverseUtility,
    RiskNeutralUtility,
    SkylineRouter,
    StochasticRouter,
    reduce_scenarios,
    select_best,
)
from repro.governance.fusion import HmmMapMatcher
from repro.governance.uncertainty import EdgeCentricModel, PathCentricModel
from repro.observability import get_registry

import helpers

GRID = (8, 8)
DEPARTURE = 8 * 60
#: Trips drive the k shortest paths of these OD pairs, so every seed
#: gives a batch of the same shape; the routes stage queries the first.
OD_PAIRS = (((0, 0), (GRID[0] - 1, GRID[1] - 1)),
            ((0, GRID[1] - 1), (GRID[0] - 1, 0)))
DEPOT = (GRID[0] // 2, GRID[1] // 2)
N_CANDIDATES = 8
TRIPS_PER_CANDIDATE = 2
POINTS_PER_TRIP = 35
SKYLINE_LABELS = 4
REDUCE_TO = 3
#: Runs timed with ``profile=True`` in the traced pass.
PROFILED_RUNS = 3


def noisy_trip(network, simulator, path, rng, *, points, noise,
               departure=DEPARTURE):
    """A noisy GPS trace of ``path`` and the link times it drove.

    The trace is sampled at the trip's own duration over ``points``, so
    every trip has the same number of points whatever travel times the
    seed drew, and matching work does not drift with the seed.
    """
    edges = network.path_edges(path)
    times = [float(t) for t in simulator.sample_edge_times(
        edges, departure, rng=rng)]
    trajectory = simulate_trip(network, path, times,
                               start_time=float(departure),
                               sample_interval=sum(times) / points)
    return trajectory.with_noise(noise, rng), dict(zip(edges, times))


def make_inputs(seed):
    """Generated inputs for one seed: grid, edge costs, GPS batch."""
    rng = np.random.default_rng(seed)
    network = RoadNetwork.grid(*GRID)
    simulator = TrafficSimulator(network, sigma_correlated=0.35,
                                 sigma_independent=0.12, rng=rng)
    paths = [path for origin, destination in OD_PAIRS
             for path in network.k_shortest_paths(origin, destination,
                                                  N_CANDIDATES)]
    batch = []
    for trip_id, path in enumerate(paths * TRIPS_PER_CANDIDATE):
        trajectory, link_times = noisy_trip(
            network, simulator, path, rng, points=POINTS_PER_TRIP,
            noise=0.05)
        batch.append((trip_id, trajectory, link_times, float(DEPARTURE)))
    edge_costs = {}
    for u, v in network.edges():
        length = network.edge_length(u, v)
        edge_costs[(u, v)] = (length / simulator.free_flow_speed(u, v),
                              length * float(rng.uniform(0.6, 1.6)))
    (origin, destination), _ = OD_PAIRS
    return {"grid": GRID, "edge_costs": edge_costs, "gps_batch": batch,
            "od": (origin, destination, DEPOT),
            "departure": float(DEPARTURE)}


def join_link_times(edges, link_times):
    """``(path, times)`` of matched ``edges`` found in a trip's log.

    Matching can add a phantom edge at either end of a trace (a start
    or stop sitting on a node); those are trimmed.  Returns ``None``
    when an interior edge is missing from the log.
    """
    start, end = 0, len(edges)
    while start < end and edges[start] not in link_times:
        start += 1
    while end > start and edges[end - 1] not in link_times:
        end -= 1
    kept = edges[start:end]
    if not kept or any(edge not in link_times for edge in kept):
        return None
    path = [kept[0][0]] + [v for _, v in kept]
    return path, [link_times[edge] for edge in kept]


def _edge_distribution(model, path, departure):
    """The edge-centric distribution of ``path``, ``None`` if uncovered."""
    try:
        return model.path_distribution(path, departure)
    except KeyError:
        return None


class Stages(helpers.StageSpans):
    """The DAG's stage functions, timing library calls into spans."""

    def __init__(self, spans):
        super().__init__(spans)
        self.counts = {}

    def network(self, view):
        """data: the road network, edge costs and its indexes."""
        with self._stage("network"):
            with self._call("datatypes", "network",
                            "RoadNetwork.grid+index"):
                network = RoadNetwork.grid(*view["grid"])
                for (u, v), (minutes, energy) in \
                        view["edge_costs"].items():
                    network.set_edge_attribute(u, v, "time", minutes)
                    network.set_edge_attribute(u, v, "energy", energy)
                network.node_index()
                network.nearest_node(network.position(network.nodes()[0]))
            view["network"] = network
        return f"{network.n_nodes} nodes"

    def match(self, view):
        """governance (fusion): map-match the batch, join link times."""
        with self._stage("match"):
            network = view["network"]
            matcher = HmmMapMatcher(network, sigma=0.08, beta=0.5)
            trips = []
            points = 0
            for _, trajectory, link_times, departure in \
                    view["gps_batch"]:
                with self._call("governance.fusion", "match",
                                "HmmMapMatcher.matched_path"):
                    path = matcher.matched_path(trajectory)
                points += len(trajectory)
                joined = join_link_times(network.path_edges(path),
                                         link_times)
                if joined is not None:
                    trips.append((*joined, departure))
            info = matcher.cache_info()
            self.counts["match"] = {
                "points": points, "trips": len(view["gps_batch"]),
                "recovered": len(trips), "cache_hits": info["hits"],
                "cache_misses": info["misses"]}
            view["matched_trips"] = trips
        return f"{len(trips)} trips matched and joined"

    def edge_model(self, view):
        """governance (uncertainty): edge-centric travel times."""
        with self._stage("edge_model"):
            with self._call("governance.uncertainty", "edge_model",
                            "EdgeCentricModel.fit"):
                model = EdgeCentricModel().fit(view["matched_trips"])
            view["edge_model"] = model
        return f"{model.n_edges} edges"

    def path_model(self, view):
        """governance (uncertainty): path-centric sub-path joints."""
        with self._stage("path_model"):
            with self._call("governance.uncertainty", "path_model",
                            "PathCentricModel.fit"):
                model = PathCentricModel(
                    min_support=5,
                    max_subpath_edges=10).fit(view["matched_trips"])
            view["path_model"] = model
        return f"{model.n_subpaths} sub-paths"

    def routes(self, view):
        """decision: candidate routes under both uncertainty models."""
        with self._stage("routes"):
            origin, destination, _ = view["od"]
            departure = view["departure"]
            with self._call("decision", "routes",
                            "StochasticRouter.candidate_distributions"):
                router = StochasticRouter(view["network"],
                                          view["path_model"],
                                          n_candidates=N_CANDIDATES)
                paths, distributions = router.candidate_distributions(
                    origin, destination, departure)
            with self._call("governance.uncertainty", "routes",
                            "EdgeCentricModel.path_distribution"):
                edge_view = [
                    _edge_distribution(view["edge_model"], path,
                                       departure)
                    for path in paths]
            info = router.cache_info()
            self.counts["routes"] = {"memo_hits": info["hits"],
                                     "memo_misses": info["misses"]}
            view["candidates"] = (paths, distributions, edge_view)
        return f"{len(paths)} candidate routes"

    def risk(self, view):
        """decision: scenario reduction, then three risk profiles."""
        with self._stage("risk"):
            paths, distributions, _ = view["candidates"]
            with self._call("decision", "risk", "reduce_scenarios"):
                reduction = reduce_scenarios(distributions, REDUCE_TO)
            mean_best = min(distributions, key=lambda d: d.mean())
            deadline = mean_best.quantile(0.85)
            choices = []
            with self._call("decision", "risk", "select_best"):
                for utility in (RiskNeutralUtility(),
                                RiskAverseUtility(aversion=2.0,
                                                  scale=mean_best.mean()),
                                DeadlineUtility(deadline)):
                    best, value, _ = select_best(distributions, utility,
                                                 reduction=reduction)
                    choices.append((tuple(paths[best]), float(value)))
            view["choices"] = choices
        return f"{len(choices)} risk profiles"

    def skyline(self, view):
        """decision: time/energy route skyline to the depot."""
        with self._stage("skyline"):
            origin, _, depot = view["od"]
            with self._call("decision", "skyline",
                            "SkylineRouter.skyline"):
                skyline = SkylineRouter(view["network"],
                                        ["time", "energy"],
                                        max_labels=SKYLINE_LABELS
                                        ).skyline(origin, depot)
            view["skyline"] = sorted(
                (tuple(path), tuple(float(c) for c in cost))
                for path, cost in skyline)
        return f"{len(skyline)} skyline routes"


def build_pipeline(stages):
    pipeline = DecisionPipeline("perfbench pipeline_batch")
    pipeline.add_data("network", stages.network,
                      reads=("grid", "edge_costs"), writes=("network",))
    pipeline.add_governance("match", stages.match,
                            reads=("network", "gps_batch"),
                            writes=("matched_trips",))
    pipeline.add_governance("edge_model", stages.edge_model,
                            reads=("matched_trips",),
                            writes=("edge_model",))
    pipeline.add_governance("path_model", stages.path_model,
                            reads=("matched_trips",),
                            writes=("path_model",))
    pipeline.add_decision("routes", stages.routes,
                          reads=("network", "path_model", "edge_model",
                                 "od", "departure"),
                          writes=("candidates",))
    pipeline.add_decision("risk", stages.risk,
                          reads=("candidates",), writes=("choices",))
    pipeline.add_decision("skyline", stages.skyline,
                          reads=("network", "od"), writes=("skyline",))
    return pipeline


def _queue_wait_total():
    """Summed ``engine.stage_queue_wait_seconds`` so far (seconds)."""
    histogram = get_registry().get("engine.stage_queue_wait_seconds")
    if histogram is None:
        return 0.0
    return sum(histogram.sum(**labels) for labels in histogram.labels())


class Workload:
    #: The unit of work whose latency is the headline.
    unit = "run"
    #: Fixed tail percentile of the headline latency.
    tail = 75.0

    def __init__(self, inputs, spans):
        self.inputs = inputs
        self.spans = spans
        self.stages = Stages(spans)
        self.pipeline = None
        self.cold_ms = None

    def setup(self):
        """Build the pipeline and make one warm-up run (cold)."""
        self.pipeline = build_pipeline(self.stages)
        started = time.perf_counter()
        self.pipeline.run(self.inputs)
        self.cold_ms = (time.perf_counter() - started) * 1e3

    def close(self):
        """Nothing outlives a run."""

    def measure(self, seconds):
        latencies, overheads, queue_waits = [], [], []
        failed = 0
        state = None
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            waited = _queue_wait_total()
            started = time.perf_counter()
            try:
                with self.spans.root("core", "DecisionPipeline.run"):
                    state, report = self.pipeline.run(self.inputs)
            except Exception:  # counted, and the gate will fail
                failed += 1
                continue
            latencies.append(time.perf_counter() - started)
            overheads.append(report.wall_seconds
                             - report.critical_path_seconds)
            queue_waits.append(_queue_wait_total() - waited)
        self.last_state = state
        counts = dict(self.stages.counts)  # the last run's
        match = counts.get("match", {})
        return {
            "attempted": len(latencies) + failed,
            "failed": failed,
            "failed_share": helpers.share(failed, len(latencies) + failed),
            "latency_s": latencies,
            "run_overhead_s": overheads,
            "queue_wait_s": queue_waits,
            "gps_points": match.get("points", 0),
            "trips": len(self.inputs["gps_batch"]),
            "recovered_trips": match.get("recovered", 0),
            "counts": counts,
        }

    def profiler_overhead(self, plain_latencies):
        """``run(profile=True)`` median over the plain run's median."""
        profiled = []
        for _ in range(PROFILED_RUNS):
            started = time.perf_counter()
            self.pipeline.run(self.inputs, profile=True)
            profiled.append(time.perf_counter() - started)
        plain = statistics.median(plain_latencies)
        median = statistics.median(profiled)
        return {"profiled_runs": len(profiled),
                "profiled_median_s": median, "plain_median_s": plain,
                "overhead_share": median / plain - 1.0}

    def check(self, result):
        """Gate: the timed run's final state equals a serial run's."""
        serial_state, _ = self.pipeline.run(self.inputs,
                                            executor="serial")
        same = (self.last_state is not None
                and fingerprint(self.last_state)
                == fingerprint(serial_state))
        recovered = result["recovered_trips"] / max(result["trips"], 1)
        return {"serial_fingerprint_equal": same,
                "recovered_share": recovered,
                "passed": same and recovered >= 0.5}

    def headline(self, result):
        """Headline figure (ms) for the trace-overhead comparison."""
        return helpers.summarize(result["latency_s"])["median"] * 1e3

    def end_to_end(self, result, summary):
        per_run_s = summary["median"]
        return {
            "pipeline_s": (per_run_s, "s"),
            "throughput_per_s": (result["trips"] / per_run_s, "1/s"),
        }

    def per_layer(self, result, spans):
        """Per-layer figures from the traced pass (medians per run)."""
        runs = max(len(result["latency_s"]), 1)

        def per_run(name):
            return sum(spans.durations(name)) / runs

        match_s = per_run("HmmMapMatcher.matched_path")
        counts = result["counts"]
        match = counts.get("match", {})
        routes = counts.get("routes", {})
        return {
            "core.run_overhead_ms": helpers.summarize(
                result["run_overhead_s"])["median"] * 1e3,
            "core.stage_queue_wait_ms": helpers.summarize(
                result["queue_wait_s"])["median"] * 1e3,
            "governance.fusion.match_s": match_s,
            "governance.fusion.points_per_s": helpers.share(
                result["gps_points"], match_s),
            "governance.fusion.match_ms_per_batch": match_s * 1e3,
            "governance.fusion.distance_cache_hit_ratio": helpers.share(
                match.get("cache_hits", 0),
                match.get("cache_hits", 0) + match.get("cache_misses",
                                                       0)),
            "governance.uncertainty.fit_edge_s": per_run(
                "EdgeCentricModel.fit"),
            "governance.uncertainty.fit_path_s": per_run(
                "PathCentricModel.fit"),
            "decision.route_s": per_run(
                "StochasticRouter.candidate_distributions"),
            "decision.reduce_s": per_run("reduce_scenarios"),
            "decision.skyline_s": per_run("SkylineRouter.skyline"),
            "decision.memo_hit_ratio": helpers.share(
                routes.get("memo_hits", 0),
                routes.get("memo_hits", 0) + routes.get("memo_misses",
                                                        0)),
            "datatypes.index_build_s": per_run("RoadNetwork.grid+index"),
        }
