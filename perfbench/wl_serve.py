"""serve_open: an open loop against an embedded ``DecisionServer``.

One generator thread submits through the non-blocking ``submit()`` on a
seeded Poisson schedule; completions are stamped in future callbacks and
every latency is taken from the request's *due* time, so a stall that
delays later submissions is charged to them.  The mix is route, match
and distance queries on a 20x20 grid.  Route keys (OD pair plus a
departure slot spread over the day) are Zipf-popular over a key space
four times the router's 1024-entry memo, so hot keys hit the serving
caches and the tail misses them.

Two phases: a nominal rate at about a fifth of this server's capacity,
then an overload rate over three times capacity, where requests carry
the 250 ms deadline of E28 and the bounded queue sheds.  The ``core``
scheduler is bypassed entirely.
"""

import bisect
import functools
import threading
import time

import numpy as np

from repro import RoadNetwork
from repro.datasets import TrafficSimulator, TrajectoryGenerator
from repro.decision import RiskNeutralUtility, StochasticRouter
from repro.governance.fusion import HmmMapMatcher
from repro.governance.uncertainty import EdgeCentricModel
from repro.serve import DecisionServer, DistanceQuery, MatchQuery, RouteQuery

import helpers
from wl_pipeline import noisy_trip

GRID = (20, 20)
N_TRAINING_TRIPS = 600
N_TRAJECTORIES = 64
POINTS_PER_TRIP = 20
#: Distinct route keys; the router memo holds 1024.
N_ROUTE_KEYS = 4096
ZIPF_EXPONENT = 1.2
#: Route keys and match trips span this many hops (Manhattan), so a
#: memo miss costs about the same whatever the seed.
HOPS = (6, 12)
#: Router and matcher settings, as in E28.
ROUTE_CANDIDATES = 4
MATCHER = {"sigma": 0.12, "beta": 0.5}
#: Query mix: route, match, distance.  About two thirds of requests
#: are fast (a distance row or a memo hit), so the median sits inside
#: the fast mode rather than on its edge.
MIX = (0.35, 0.1, 0.55)
DISTANCE_CUTOFF = 5.0
#: Departure slots are whole memo windows (5 min), so a memoized
#: distribution is the one a fresh router computes.
SLOT_MINUTES = 5
#: Requests per second, fixed so a faster server shows as lower
#: latency and higher goodput.  At half of capacity the median request
#: sat on the knee of the queueing curve and moved by 30 % between
#: runs; at about a fifth it is steadier.
NOMINAL_RPS = 60.0
OVERLOAD_RPS = 900.0
#: Share of the measured seconds spent in the nominal phase.
NOMINAL_SHARE = 0.6
#: E28's latency limit; overload requests carry it as their deadline.
LIMIT_S = 0.25
#: The server's queue bound: short enough that an admitted request
#: can still meet the limit, long enough that the nominal rate never
#: fills it.
MAX_QUEUE = 32
#: A phase whose generator ran this late (tail lag) is refused.
MAX_LAG_S = 0.1
GATE_SAMPLES = 40
#: Every this-many-th request keeps its answer for the gate.
KEEP_EVERY = 10
WARMUP_PER_KIND = 6
DRAIN_TIMEOUT_S = 60.0


def _od_pair(rng, nodes):
    """A random OD pair ``HOPS`` apart on the grid."""
    while True:
        a, b = rng.choice(len(nodes), size=2, replace=False)
        origin, destination = nodes[int(a)], nodes[int(b)]
        hops = (abs(origin[0] - destination[0])
                + abs(origin[1] - destination[1]))
        if HOPS[0] <= hops <= HOPS[1]:
            return origin, destination


def make_inputs(seed):
    """World, training trips, trajectory pool and route key space."""
    rng = np.random.default_rng(seed)
    network = RoadNetwork.grid(*GRID)
    simulator = TrafficSimulator(network, rng=rng)
    generator = TrajectoryGenerator(simulator, rng=rng)
    nodes = network.nodes()
    rows, cols = GRID
    # Every row and column driven both ways, so every edge is covered
    # and a route query never falls back to a cheap "uncovered" answer
    # more often on one seed than another.
    sweeps = [[(r, c) for c in range(cols)] for r in range(rows)]
    sweeps += [[(r, c) for r in range(rows)] for c in range(cols)]
    paths = sweeps + [line[::-1] for line in sweeps]
    for _ in range(N_TRAINING_TRIPS):
        paths.append(network.shortest_path(
            *generator.random_od_pair(min_hops=4)))
    training = []
    for path in paths:
        departure = float(rng.integers(0, 288) * SLOT_MINUTES)
        times = simulator.sample_edge_times(network.path_edges(path),
                                            departure, rng=rng)
        training.append((path, [float(t) for t in times], departure))
    trajectories = [
        noisy_trip(network, simulator,
                   network.shortest_path(*_od_pair(rng, nodes)), rng,
                   points=POINTS_PER_TRIP, noise=0.1)[0]
        for _ in range(N_TRAJECTORIES)]
    keys = set()
    while len(keys) < N_ROUTE_KEYS:
        slot = int(rng.integers(0, 24 * 60 // SLOT_MINUTES))
        keys.add((*_od_pair(rng, nodes), float(slot * SLOT_MINUTES)))
    route_keys = sorted(keys)
    rng.shuffle(route_keys)  # rank order (popularity) is seeded
    return {"seed": int(seed), "grid": GRID, "training": training,
            "trajectories": trajectories, "route_keys": route_keys}


def make_requests(inputs, rate, duration, stream):
    """The seeded open-loop schedule: ``[(offset_s, query), ...]``."""
    seed = inputs["seed"] * 7919 + stream
    offsets = helpers.poisson_schedule(rate, duration, seed)
    rng = np.random.default_rng(seed)
    kinds = rng.choice(3, size=len(offsets), p=MIX)
    key_weights = helpers.zipf_weights(N_ROUTE_KEYS, ZIPF_EXPONENT)
    key_ranks = rng.choice(N_ROUTE_KEYS, size=len(offsets),
                           p=key_weights)
    trajectories = inputs["trajectories"]
    picks = rng.integers(0, len(trajectories), size=len(offsets))
    rows, cols = inputs["grid"]
    node_weights = helpers.zipf_weights(rows * cols, ZIPF_EXPONENT)
    sources = rng.choice(rows * cols, size=len(offsets), p=node_weights)
    requests = []
    for i, offset in enumerate(offsets):
        if kinds[i] == 0:
            origin, destination, departure = \
                inputs["route_keys"][int(key_ranks[i])]
            query = RouteQuery(origin, destination, departure)
        elif kinds[i] == 1:
            query = MatchQuery(trajectories[int(picks[i])])
        else:
            source = divmod(int(sources[i]), cols)
            query = DistanceQuery(source, DISTANCE_CUTOFF)
        requests.append((offset, query))
    return requests


def op_of(query):
    if isinstance(query, RouteQuery):
        return "route"
    if isinstance(query, MatchQuery):
        return "match"
    return "distance"


class _Traced:
    """Delegating proxy that records a span around named methods."""

    def __init__(self, target, spans, layer, op, methods):
        self._target = target
        self._spans = spans
        self._layer = layer
        self._op = op
        self._methods = frozenset(methods)

    def __getattr__(self, name):
        attribute = getattr(self._target, name)
        if name not in self._methods:
            return attribute
        label = f"{type(self._target).__name__}.{name}"

        @functools.wraps(attribute)
        def call(*args, **kwargs):
            size = len(args[0]) if name.endswith("_many") else 1
            with self._spans.span(self._layer, label, stage=self._op,
                                  size=size):
                return attribute(*args, **kwargs)
        return call


class Workload:
    unit = "request"
    #: Fixed tail percentile of the headline latency.
    tail = 95.0

    def __init__(self, inputs, spans):
        self.inputs = inputs
        self.spans = spans
        self.server = None
        self.cold_ms = None
        self.index_build_s = None

    def setup(self):
        """Model fit, indexes, server start and a short warm-up."""
        self.network = RoadNetwork.grid(*self.inputs["grid"])
        self.model = EdgeCentricModel().fit(self.inputs["training"])
        started = time.perf_counter()
        self.network.node_index()
        self.network.nearest_node(
            self.network.position(self.network.nodes()[0]))
        self.index_build_s = time.perf_counter() - started
        self.router = StochasticRouter(self.network, self.model,
                                       n_candidates=ROUTE_CANDIDATES)
        self.matcher = HmmMapMatcher(self.network, **MATCHER)
        self.utility = RiskNeutralUtility()
        router, matcher, network = self.router, self.matcher, self.network
        if self.spans.enabled:
            router = _Traced(router, self.spans, "decision", "route",
                             ("route_many",))
            matcher = _Traced(matcher, self.spans, "governance.fusion",
                              "match", ("match_many", "match"))
            network = _Traced(network, self.spans, "datatypes",
                              "distance", ("dijkstra_array",))
        self.server = DecisionServer(router=router, matcher=matcher,
                                     network=network,
                                     utility=self.utility,
                                     max_queue=MAX_QUEUE)
        warmup = []
        keys = self.inputs["route_keys"]
        for i in range(WARMUP_PER_KIND):
            warmup.append(RouteQuery(*keys[i]))
            warmup.append(MatchQuery(self.inputs["trajectories"][i]))
            warmup.append(DistanceQuery((i, i), DISTANCE_CUTOFF))
        started = time.perf_counter()
        for query in warmup:
            result = self.server.submit(query).result()
            if self.cold_ms is None:
                self.cold_ms = (time.perf_counter() - started) * 1e3
            if not result.ok:
                raise RuntimeError(f"warm-up {query!r} failed: "
                                   f"{result.outcome}")

    def close(self):
        if self.server is not None:
            self.server.close()
            self.server = None

    def _phase(self, requests, deadline):
        """Run one open-loop phase; returns per-request records.

        Each completion is stamped in its future's callback, which
        keeps only scalars (and the answer of every ``KEEP_EVERY``-th
        request, for the gate), so the benchmark's own garbage stays
        small next to the server's.
        """
        n = len(requests)
        if n == 0:
            return []
        rows = [None] * n
        submitted_at = [0.0] * n
        left = [n]
        lock = threading.Lock()
        finished = threading.Event()

        def stamp(index, future):
            done = time.perf_counter()
            result = future.result()
            rows[index] = (done, result.outcome, result.queue_seconds,
                           result.service_seconds, result.batch_size,
                           result.value if index % KEEP_EVERY == 0
                           else None)
            with lock:
                left[0] -= 1
                if left[0] == 0:
                    finished.set()

        origin = time.perf_counter() + 0.05

        def generate():
            for index, (offset, query) in enumerate(requests):
                due = origin + offset
                pause = due - time.perf_counter()
                if pause > 0:
                    time.sleep(pause)
                submitted_at[index] = time.perf_counter()
                self.server.submit(query, deadline=deadline) \
                    .add_done_callback(functools.partial(stamp, index))

        thread = threading.Thread(target=generate, name="loadgen")
        thread.start()
        thread.join()
        if not finished.wait(DRAIN_TIMEOUT_S):
            raise RuntimeError(f"{left[0]} requests never finished")
        records = []
        for index, (offset, query) in enumerate(requests):
            done, outcome, queue_s, service_s, size, value = rows[index]
            due = origin + offset
            records.append({
                "op": op_of(query), "outcome": outcome,
                "queue_s": queue_s, "service_s": service_s,
                "batch_size": size, "due": due,
                "submitted": submitted_at[index], "done": done,
                "latency": done - due, "lag": submitted_at[index] - due,
                "query": query if index % KEEP_EVERY == 0 else None,
                "value": value})
        return records

    def measure(self, seconds):
        router0 = self.router.cache_info()
        matcher0 = self.matcher.cache_info()
        nominal_s = seconds * NOMINAL_SHARE
        overload_s = seconds - nominal_s
        nominal_requests = make_requests(self.inputs, NOMINAL_RPS,
                                         nominal_s, 1)
        overload_requests = make_requests(self.inputs, OVERLOAD_RPS,
                                          overload_s, 2)
        nominal = self._phase(nominal_requests, None)
        overload = self._phase(overload_requests, LIMIT_S)
        router1 = self.router.cache_info()
        matcher1 = self.matcher.cache_info()
        phases = {"nominal": _phase_summary(nominal, nominal_s),
                  "overload": _phase_summary(overload, overload_s)}
        refused = [name for name, phase in phases.items()
                   if phase["lag"]["tail"] > MAX_LAG_S]
        errors = sum(1 for r in nominal + overload
                     if r["outcome"] == "error")
        nominal_failed = sum(1 for r in nominal if r["outcome"] != "ok")
        self.records = {"nominal": nominal, "overload": overload}
        return {
            "attempted": len(nominal) + len(overload),
            # Overload sheds by design; a failure is an error anywhere
            # or any request that did not succeed at the nominal rate.
            "failed": errors + nominal_failed,
            "failed_share": helpers.share(nominal_failed, len(nominal)),
            "latency_s": [r["latency"] for r in nominal],
            "phases": phases,
            "refused_phases": refused,
            "memo": _delta(router0, router1),
            "distance_cache": _delta(matcher0, matcher1),
        }

    def check(self, result):
        """Gate: sampled served answers equal direct fresh calls."""
        router = StochasticRouter(self.network, self.model,
                                  n_candidates=ROUTE_CANDIDATES)
        matcher = HmmMapMatcher(self.network, **MATCHER)
        served = [r for phase in self.records.values() for r in phase
                  if r["outcome"] == "ok" and r["query"] is not None]
        rng = np.random.default_rng(self.inputs["seed"])
        picks = rng.choice(len(served), size=min(GATE_SAMPLES,
                                                 len(served)),
                           replace=False)
        mismatches = []
        for i in sorted(int(p) for p in picks):
            record = served[i]
            if not _same_answer(record, router, matcher, self.network,
                                self.utility):
                mismatches.append(i)
        return {"sampled": len(picks), "mismatches": len(mismatches),
                "refused_phases": result["refused_phases"],
                "passed": not mismatches and len(picks) > 0
                and not result["refused_phases"]}

    def headline(self, result):
        return helpers.summarize(result["latency_s"])["median"] * 1e3

    def end_to_end(self, result, summary):
        nominal = result["phases"]["nominal"]
        overload = result["phases"]["overload"]
        return {
            "latency_p50_ms": (summary["median"] * 1e3, "ms"),
            "latency_tail_ms": (summary["tail"] * 1e3, "ms"),
            "goodput_rps": (overload["goodput_rps"], "1/s"),
            "capacity_rps": (nominal["capacity_rps"], "1/s"),
            # Goodput under overload moved by 40 % between seeds, more
            # than any bound allows; capacity at the nominal mix is the
            # bounded throughput and goodput a per-layer figure.
            "throughput_per_s": (nominal["capacity_rps"], "1/s"),
        }

    def per_layer(self, result, spans):
        nominal = result["phases"]["nominal"]
        overload = result["phases"]["overload"]
        memo = result["memo"]
        cache = result["distance_cache"]
        route_batches = spans.durations("StochasticRouter.route_many")
        match_batches = spans.durations("HmmMapMatcher.match_many")
        self._link_spans(spans)
        return {
            "governance.fusion.match_ms_per_batch": _median_ms(
                match_batches),
            "governance.fusion.distance_cache_hit_ratio": helpers.share(
                cache["hits"], cache["hits"] + cache["misses"]),
            "decision.route_ms_per_batch": _median_ms(route_batches),
            "decision.memo_hit_ratio": helpers.share(
                memo["hits"], memo["hits"] + memo["misses"]),
            "datatypes.distances_ms_per_batch": nominal[
                "distance_service_ms_p50"],
            "datatypes.index_build_s": self.index_build_s,
            "serve.queue_wait_ms_p50": nominal["queue_wait_ms"]["median"],
            "serve.queue_wait_ms_tail": nominal["queue_wait_ms"]["tail"],
            "serve.service_ms_p50": nominal["service_ms"]["median"],
            "serve.batch_size_mean": overload["batch_size_mean"],
            "serve.dispatch_busy_share": overload["busy_share"],
            "serve.shed_share": overload["shed_share"],
            "serve.goodput_rps": overload["goodput_rps"],
            "loadgen.lag_ms_tail": max(
                nominal["lag"]["tail"], overload["lag"]["tail"]) * 1e3,
        }

    def _link_spans(self, spans):
        """Request spans, each tied to the batch span that served it.

        The dispatcher runs one batch call at a time, so a request's
        batch is the first call of its kind that started at or after
        the request was dispatched (submit time plus queue wait).
        """
        starts = {}
        for record in spans.records:
            if record["stage"] in ("route", "match", "distance"):
                starts.setdefault(record["stage"], []).append(
                    (record["start"], record["id"]))
        for calls in starts.values():
            calls.sort()
        rid = 0
        for phase, records in self.records.items():
            for record in records:
                rid += 1
                dispatched = record["submitted"] + record["queue_s"]
                batch = None
                calls = starts.get(record["op"], [])
                if record["batch_size"]:
                    at = bisect.bisect_left(calls, (dispatched - 1e-6,))
                    batch = calls[at][1] if at < len(calls) else None
                root = spans.add("serve", "request", record["due"],
                                 record["done"], stage=record["op"],
                                 rid=rid, phase=phase, batch=batch,
                                 outcome=record["outcome"])
                spans.add("loadgen", "lag", record["due"],
                          record["submitted"], stage=record["op"],
                          parent=root, rid=rid)
                spans.add("serve", "queue_wait", record["submitted"],
                          dispatched, stage=record["op"], parent=root,
                          rid=rid)
                if record["batch_size"]:
                    spans.add("serve", "service", dispatched,
                              record["done"], stage=record["op"],
                              parent=root, rid=rid, batch=batch)


def _median_ms(values):
    return helpers.summarize(values)["median"] * 1e3 if values else 0.0


def _delta(before, after):
    return {"hits": after["hits"] - before["hits"],
            "misses": after["misses"] - before["misses"]}


def _phase_summary(records, duration):
    """Latency, lag, goodput and batching figures of one phase."""
    latencies = [r["latency"] for r in records]
    outcomes = {}
    for record in records:
        outcomes[record["outcome"]] = outcomes.get(record["outcome"], 0) + 1
    served = [r for r in records if r["batch_size"]]
    batches = sum(1.0 / r["batch_size"] for r in served)
    busy = sum(r["service_s"] / r["batch_size"] for r in served)
    ok = [r for r in records if r["outcome"] == "ok"]
    good = sum(1 for r in ok if r["latency"] <= LIMIT_S)
    distance = [r["service_s"] * 1e3 for r in ok if r["op"] == "distance"]
    return {
        "requests": len(records),
        "offered_rps": len(records) / duration,
        "outcomes": outcomes,
        "latency_ms": _ms_summary(latencies),
        "lag": helpers.summarize([r["lag"] for r in records]),
        "queue_wait_ms": _ms_summary([r["queue_s"] for r in ok]),
        "service_ms": _ms_summary([r["service_s"] for r in ok]),
        "distance_service_ms_p50": (helpers.summarize(distance)["median"]
                                    if distance else 0.0),
        "goodput_rps": good / duration,
        "batch_size_mean": helpers.share(len(served), batches),
        "busy_share": busy / duration,
        "capacity_rps": helpers.share(len(served), busy),
        "shed_share": helpers.share(outcomes.get("overloaded", 0),
                                    len(records)),
    }


def _ms_summary(seconds):
    if not seconds:
        return {"n": 0, "median": 0.0, "tail": 0.0}
    summary = helpers.summarize(seconds)
    for key in ("median", "tail", "min", "max", "mean"):
        summary[key] *= 1e3
    return summary


def _same_answer(record, router, matcher, network, utility):
    query, value = record["query"], record["value"]
    if record["op"] == "route":
        direct = router.route_many(
            [(query.origin, query.destination, query.departure_minute)],
            utility)[0]
        if direct is None or value is None:
            return direct is None and value is None
        return (list(value[0]) == list(direct[0])
                and np.array_equal(value[1].support, direct[1].support)
                and np.array_equal(value[1].probabilities,
                                   direct[1].probabilities)
                and value[2] == direct[2])
    if record["op"] == "match":
        return value == matcher.match(query.trajectory)
    return np.array_equal(value, network.dijkstra_array(
        query.source, cutoff=query.cutoff))
