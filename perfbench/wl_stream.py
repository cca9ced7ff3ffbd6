"""stream_ticks: one closed-loop caller ticking an ``IncrementalSession``.

Each tick brings K new GPS trips and one edge-speed sensor chunk with
gaps.  The dirty cone is

    match (incremental fold: only the new trips)
      -> edge_model (refit on a sliding window of trips)
    impute (incremental fold: ``StreamingImputer.push`` of the chunk)
      -> drift (incremental fold: ``DriftTriggeredRefit`` gate)
    routes (re-route a fixed OD set on the refit edge model)

while the static ``network`` and ``path_model`` stages replay from the
session's carried deltas.  Unlike ``serve_open`` this workload writes
carried state, and unlike ``pipeline_batch`` it pays the engine's
per-run overhead once per tick, hundreds of times a run.
"""

import time

import numpy as np

from repro import DecisionPipeline, RoadNetwork
from repro.analytics.robustness import DriftTriggeredRefit, PageHinkleyDetector
from repro.core.cache import fingerprint
from repro.datasets import TrafficSimulator, diurnal_profile
from repro.decision import RiskNeutralUtility, StochasticRouter
from repro.governance.fusion import HmmMapMatcher
from repro.governance.imputation import StreamingImputer
from repro.governance.uncertainty import EdgeCentricModel, PathCentricModel

import helpers
from wl_pipeline import join_link_times, noisy_trip

GRID = (8, 8)
OD_SET = (((0, 0), (7, 7)), ((0, 7), (7, 0)), ((3, 0), (4, 7)))
PATHS_PER_OD = 4
POOL_PER_PATH = 8
POINTS_PER_TRIP = 30
HISTORY_PER_PATH = 10
#: New trips per tick and the sliding window the edge model sees.
TRIPS_PER_TICK = 3
WINDOW_TRIPS = 18
#: Sensor chunk: rows (5-minute readings) by channels, and gap rate.
CHUNK_ROWS = 12
CHANNELS = 16
GAP_RATE = 0.1
DEPARTURE = 8 * 60.0
#: Ticks whose state is compared against a from-scratch run().
GATE_TICKS = 4
MAX_TICKS = 5000


def make_inputs(seed):
    """Static history, a trip pool to draw ticks from, sensor params."""
    rng = np.random.default_rng(seed)
    network = RoadNetwork.grid(*GRID)
    simulator = TrafficSimulator(network, sigma_correlated=0.3,
                                 sigma_independent=0.12, rng=rng)
    paths = [path for origin, destination in OD_SET
             for path in network.k_shortest_paths(origin, destination,
                                                  PATHS_PER_OD)]
    history = []
    for path in paths * HISTORY_PER_PATH:
        times = simulator.sample_edge_times(network.path_edges(path),
                                            DEPARTURE, rng=rng)
        history.append((path, [float(t) for t in times], DEPARTURE))
    pool = [noisy_trip(network, simulator, path, rng,
                       points=POINTS_PER_TRIP, noise=0.05)
            for path in paths * POOL_PER_PATH]
    order = rng.permutation(len(pool))
    return {"seed": int(seed), "grid": GRID,
            "history": history, "pool": [pool[i] for i in order],
            "free_flow": rng.uniform(40.0, 70.0, CHANNELS)}


def trip(inputs, trip_id):
    """Trip ``trip_id`` of the endless stream (cycles the pool)."""
    trajectory, link_times = inputs["pool"][trip_id % len(inputs["pool"])]
    return (trip_id, trajectory, link_times, DEPARTURE)


def sensor_chunk(inputs, number):
    """Chunk ``number``: diurnal speeds with noise and gaps."""
    rng = np.random.default_rng((inputs["seed"], number))
    minutes = (number * CHUNK_ROWS + np.arange(CHUNK_ROWS)) * 5.0
    profile = diurnal_profile(minutes)[:, None]
    speeds = inputs["free_flow"][None, :] * profile \
        + rng.normal(0.0, 2.0, (CHUNK_ROWS, CHANNELS))
    speeds[rng.random((CHUNK_ROWS, CHANNELS)) < GAP_RATE] = np.nan
    return speeds


def _row_means(filled):
    return filled.mean(axis=1)


class Stages(helpers.StageSpans):
    """Stage functions and folds, timing library calls into spans."""

    # -- static cone (replayed after the first tick) ----------------------

    def network(self, view):
        with self._stage("network"):
            with self._call("datatypes", "network",
                            "RoadNetwork.grid+index"):
                network = RoadNetwork.grid(*view["grid"])
                network.node_index()
                network.nearest_node(network.position(network.nodes()[0]))
            view["network"] = network
        return "network"

    def path_model(self, view):
        with self._stage("path_model"):
            with self._call("governance.uncertainty", "path_model",
                            "PathCentricModel.fit"):
                model = PathCentricModel(min_support=5).fit(
                    view["history"])
            view["path_model"] = model
        return f"{model.n_subpaths} sub-paths"

    # -- trips: match (fold) -> edge model ---------------------------------

    def _match_window(self, view, carried):
        network = view["network"]
        matcher = HmmMapMatcher(network, sigma=0.08, beta=0.5)
        matched = {}
        for trip_id, trajectory, link_times, departure in \
                view["trip_window"]:
            if trip_id in carried:
                matched[trip_id] = carried[trip_id]
                continue
            with self._call("governance.fusion", "match",
                            "HmmMapMatcher.matched_path"):
                path = matcher.matched_path(trajectory)
            joined = join_link_times(network.path_edges(path),
                                     link_times)
            matched[trip_id] = (None if joined is None
                                else (*joined, departure))
        view["matched"] = matched
        return f"{len(matched) - len(carried)} matched"

    def match(self, view):
        with self._stage("match"):
            return self._match_window(view, {})

    def match_fold(self, view, tick):
        with self._stage("match"):
            return self._match_window(view, view["matched"])

    def edge_model(self, view):
        with self._stage("edge_model"):
            trips = [m for m in view["matched"].values() if m is not None]
            with self._call("governance.uncertainty", "edge_model",
                            "EdgeCentricModel.fit"):
                model = EdgeCentricModel().fit(trips)
            view["edge_model"] = model
        return f"{model.n_edges} edges"

    # -- sensors: impute (fold) -> drift gate (fold) -----------------------

    def impute(self, view):
        with self._stage("impute"):
            imputer = StreamingImputer()
            with self._call("governance.imputation", "impute",
                            "StreamingImputer.push"):
                for chunk in view["sensor_log"]:
                    filled = imputer.push(chunk)
            view["speeds"] = filled
            view["speed_carry"] = imputer.carry
        return "imputed"

    def impute_fold(self, view, tick):
        """LOCF resumed from the carried per-channel estimate: a row
        of the carry primes a fresh imputer, then the new chunk."""
        with self._stage("impute"):
            imputer = StreamingImputer()
            with self._call("governance.imputation", "impute",
                            "StreamingImputer.push"):
                imputer.push(view["speed_carry"][None, :])
                view["speeds"] = imputer.push(view["sensor_log"][-1])
            view["speed_carry"] = imputer.carry
        return "imputed"

    @staticmethod
    def _observe(gate, filled, baseline):
        if gate.observe_many(_row_means(filled)) or baseline is None:
            baseline = filled.mean(axis=0)
        return baseline

    def drift(self, view):
        with self._stage("drift"):
            gate = DriftTriggeredRefit(PageHinkleyDetector(), cooldown=6)
            imputer = StreamingImputer()
            baseline = None
            with self._call("analytics.robustness", "drift",
                            "DriftTriggeredRefit.observe_many"):
                for chunk in view["sensor_log"]:
                    baseline = self._observe(gate, imputer.push(chunk),
                                             baseline)
            view["drift_gate"] = gate
            view["speed_baseline"] = baseline
        return f"{gate.refits} refits"

    def drift_fold(self, view, tick):
        with self._stage("drift"):
            gate = view["drift_gate"]
            with self._call("analytics.robustness", "drift",
                            "DriftTriggeredRefit.observe_many"):
                view["speed_baseline"] = self._observe(
                    gate, view["speeds"], view["speed_baseline"])
            view["drift_gate"] = gate
        return f"{gate.refits} refits"

    # -- decision ----------------------------------------------------------

    def routes(self, view):
        with self._stage("routes"):
            with self._call("decision", "routes",
                            "StochasticRouter.route_many"):
                router = StochasticRouter(view["network"],
                                          view["edge_model"],
                                          n_candidates=PATHS_PER_OD)
                chosen = router.route_many(
                    [(o, d, DEPARTURE) for o, d in view["od_set"]],
                    RiskNeutralUtility())
            checked = []
            with self._call("governance.uncertainty", "routes",
                            "PathCentricModel.path_distribution"):
                for answer in chosen:
                    if answer is None:
                        checked.append(None)
                        continue
                    path, distribution, value = answer
                    joint = view["path_model"].path_distribution(
                        path, DEPARTURE)
                    checked.append((tuple(path), float(value),
                                    float(distribution.mean()),
                                    float(joint.mean())))
            view["routes"] = checked
        return f"{sum(c is not None for c in checked)} routed"


def build_pipeline(stages):
    pipeline = DecisionPipeline("perfbench stream_ticks")
    pipeline.add_data("network", stages.network, reads=("grid",),
                      writes=("network",))
    pipeline.add_governance("path_model", stages.path_model,
                            reads=("history",), writes=("path_model",))
    pipeline.add_governance("match", stages.match,
                            reads=("network", "trip_window"),
                            writes=("matched",),
                            incremental=stages.match_fold)
    pipeline.add_governance("edge_model", stages.edge_model,
                            reads=("matched",), writes=("edge_model",))
    pipeline.add_governance("impute", stages.impute,
                            reads=("sensor_log",),
                            writes=("speeds", "speed_carry"),
                            incremental=stages.impute_fold)
    pipeline.add_analytics("drift", stages.drift,
                           reads=("speeds", "sensor_log"),
                           writes=("drift_gate", "speed_baseline"),
                           incremental=stages.drift_fold)
    pipeline.add_decision("routes", stages.routes,
                          reads=("network", "edge_model", "path_model",
                                 "od_set"),
                          writes=("routes",))
    return pipeline


class Workload:
    unit = "tick"
    #: Fixed tail percentile of the headline latency.
    tail = 90.0

    def __init__(self, inputs, spans):
        self.inputs = inputs
        self.spans = spans
        self.pipeline = build_pipeline(Stages(spans))
        self.session = None
        self.cold_ms = None

    def setup(self):
        """Open the session and run the first (full) tick."""
        window = tuple(trip(self.inputs, i) for i in range(WINDOW_TRIPS))
        self.next_trip = WINDOW_TRIPS
        self.log = [sensor_chunk(self.inputs, 0)]
        self.session = self.pipeline.stream({
            "grid": self.inputs["grid"],
            "history": self.inputs["history"],
            "od_set": OD_SET,
            "trip_window": window,
            "sensor_log": list(self.log)})
        started = time.perf_counter()
        self.session.tick()
        self.cold_ms = (time.perf_counter() - started) * 1e3

    def _next_mutation(self):
        """The next tick's inputs (generated, never timed)."""
        new = tuple(trip(self.inputs, self.next_trip + j)
                    for j in range(TRIPS_PER_TICK))
        self.next_trip += TRIPS_PER_TICK
        window = self.session.input_state["trip_window"]
        chunk = sensor_chunk(self.inputs, len(self.log))
        self.log.append(chunk)
        events = sum(len(t[1]) for t in new) + chunk.size
        return ({"trip_window": window[TRIPS_PER_TICK:] + new,
                 "sensor_log": list(self.log)}, events)

    def close(self):
        """Nothing outlives a run."""

    def measure(self, seconds):
        latencies, overheads, executed, replayed = [], [], [], []
        events = failed = 0
        refits0 = self.session.state["drift_gate"].refits
        deadline = time.perf_counter() + seconds
        while (time.perf_counter() < deadline
               and len(latencies) + failed < MAX_TICKS):
            changed, n_events = self._next_mutation()
            started = time.perf_counter()
            try:
                with self.spans.root("core", "IncrementalSession.tick"):
                    _, report = self.session.tick(changed=changed)
            except Exception:  # counted, and the gate will fail
                failed += 1
                continue
            latencies.append(time.perf_counter() - started)
            events += n_events
            overheads.append(report.wall_seconds
                             - report.critical_path_seconds)
            replayed.append(report.cache_hits)
            executed.append(len(report.records) - report.cache_hits)
        self.final_state = self.session.state
        self.final_input = self.session.input_state
        return {
            "attempted": len(latencies) + failed,
            "failed": failed,
            "failed_share": helpers.share(failed, len(latencies) + failed),
            "latency_s": latencies,
            "run_overhead_s": overheads,
            "events": events,
            "events_per_s": helpers.share(events, sum(latencies)),
            "stages_executed": executed,
            "stages_replayed": replayed,
            "refits": self.final_state["drift_gate"].refits - refits0,
        }

    def check(self, result):
        """Gate: ticks are byte-identical to run() on their input.

        The last timed tick is checked, then the session ticks
        ``GATE_TICKS - 1`` more times outside the timed region and
        each of those is checked the same way.
        """
        pairs = [(self.final_state, self.final_input)]
        for _ in range(GATE_TICKS - 1):
            changed, _ = self._next_mutation()
            state, _ = self.session.tick(changed=changed)
            pairs.append((state, self.session.input_state))
        identical = sum(
            fingerprint(state) == fingerprint(self.pipeline.run(given)[0])
            for state, given in pairs)
        return {"compared_ticks": len(pairs), "identical": identical,
                "passed": identical == len(pairs)}

    def headline(self, result):
        return helpers.summarize(result["latency_s"])["median"] * 1e3

    def end_to_end(self, result, summary):
        return {
            "tick_p50_ms": (summary["median"] * 1e3, "ms"),
            "tick_tail_ms": (summary["tail"] * 1e3, "ms"),
            "events_per_s": (result["events_per_s"], "1/s"),
            "throughput_per_s": (result["events_per_s"], "1/s"),
        }

    def per_layer(self, result, spans):
        ticks = max(len(result["latency_s"]), 1)

        def per_tick_ms(name):
            return sum(spans.durations(name)) / ticks * 1e3

        executed = sum(result["stages_executed"])
        replayed = sum(result["stages_replayed"])
        return {
            "core.run_overhead_ms": helpers.summarize(
                result["run_overhead_s"])["median"] * 1e3,
            "core.stages_executed_per_tick": executed / ticks,
            "core.stages_replayed_per_tick": replayed / ticks,
            "core.replay_share": helpers.share(replayed,
                                               executed + replayed),
            "governance.fusion.match_ms_per_batch": per_tick_ms(
                "HmmMapMatcher.matched_path"),
            "governance.uncertainty.refit_ms_per_tick": per_tick_ms(
                "EdgeCentricModel.fit"),
            "governance.imputation.push_ms_per_tick": per_tick_ms(
                "StreamingImputer.push"),
            "analytics.robustness.drift_ms_per_tick": per_tick_ms(
                "DriftTriggeredRefit.observe_many"),
            "analytics.robustness.refits": result["refits"],
            "decision.route_ms_per_batch": per_tick_ms(
                "StochasticRouter.route_many"),
        }
