"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload pipeline_batch --seed 1 \
        --seconds 12 --trace 0

``--trace 0`` measures with tracing off and prints every end-to-end
metric; ``--trace 1`` additionally re-runs the workload with spans on,
prints the per-layer self-time table and every per-layer metric, and
writes the span file.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  A run record
with everything measured goes to ``.perfbench/records/``.

The program under test is imported from ``src/`` next to this
directory; without it the script exits with code 2 and prints no
result.
"""

import argparse
import hashlib
import importlib
import json
import os
import pickle
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import catalogue
import helpers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
MODULES = {"pipeline_batch": "wl_pipeline", "serve_open": "wl_serve",
           "stream_ticks": "wl_stream"}
#: Extra cold set-ups, each in a fresh interpreter, per run.
SETUP_PROBES = 2
PROBE_TIMEOUT_S = 120


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(MODULES))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="INPUTS",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def import_workload(name):
    """Cold import of the program and one workload; (module, seconds)."""
    if not (SRC / "repro" / "__init__.py").is_file():
        fail(f"no program to measure: {SRC / 'repro'} is missing")
    os.environ.pop("REPRO_EXECUTOR", None)
    sys.path.insert(0, str(SRC))
    started = time.perf_counter()
    module = importlib.import_module(MODULES[name])
    seconds = time.perf_counter() - started
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        fail(f"imported repro from {repro.__file__}, not from {SRC}")
    return module, seconds


def setup_once(module, inputs):
    """Build and warm a workload with tracing off; (workload, seconds)."""
    workload = module.Workload(inputs, helpers.Spans(False))
    started = time.perf_counter()
    workload.setup()
    return workload, time.perf_counter() - started


def probe(args):
    """``--setup-probe``: one cold set-up in this fresh interpreter."""
    module, import_s = import_workload(args.workload)
    with open(args.setup_probe, "rb") as handle:
        inputs = pickle.load(handle)  # written by this script's parent
    workload, build_s = setup_once(module, inputs)
    workload.close()
    print(json.dumps({"import_s": import_s, "build_s": build_s}))


def run_probes(args, inputs):
    """Cold set-ups in child interpreters; list of probe dicts."""
    OUT.mkdir(exist_ok=True)
    path = OUT / f"inputs-{args.workload}-{args.seed}-{os.getpid()}.pkl"
    with open(path, "wb") as handle:
        pickle.dump(inputs, handle, protocol=pickle.HIGHEST_PROTOCOL)
    env = {k: v for k, v in os.environ.items() if k != "REPRO_EXECUTOR"}
    probes = []
    try:
        for _ in range(SETUP_PROBES):
            done = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()),
                 "--workload", args.workload, "--setup-probe", str(path)],
                cwd=ROOT, env=env, capture_output=True, text=True,
                timeout=PROBE_TIMEOUT_S, check=False)
            if done.returncode != 0:
                fail(f"set-up probe failed:\n{done.stderr}", code=1)
            probes.append(json.loads(done.stdout.strip().splitlines()[-1]))
    finally:
        path.unlink(missing_ok=True)
    return probes


def host_speed_ms():
    """Median time of a fixed pure-Python loop, in ms.

    A diagnostic for the record only: on a shared host the same loop
    can take twice as long from one minute to the next, and every
    wall-clock metric moves with it.
    """
    times = []
    for _ in range(5):
        started = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i
        times.append(time.perf_counter() - started)
    return statistics.median(times) * 1e3


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def machine():
    """Where the numbers were measured, and of which source."""
    import networkx
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    revision = None
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel",
                              "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10, check=False)
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            revision = lines[1]
    except (OSError, subprocess.SubprocessError, IndexError):
        revision = None
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {"cpu_count": os.cpu_count(), "usable_cpus": usable,
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "networkx": networkx.__version__,
            "git_revision": revision,
            "source_sha256": digest.hexdigest()}


def traced_pass(module, inputs, seconds, untraced_headline):
    """Re-run with spans on; per-layer metrics, spans and the table."""
    spans = helpers.Spans(True)
    workload = module.Workload(inputs, spans)
    try:
        workload.setup()
        setup_spans = spans.take()
        result = workload.measure(seconds)
        per_layer = workload.per_layer(result, spans)
        traced_headline = workload.headline(result)
    finally:
        workload.close()
    per_layer["observability.trace_overhead_share"] = (
        traced_headline / untraced_headline - 1.0)
    table = helpers.self_time_table(spans.records)
    return {"per_layer": per_layer, "table": table,
            "spans": spans.records, "setup_spans": setup_spans,
            "headline_ms": {"untraced": untraced_headline,
                            "traced": traced_headline}}


def _jsonable(value):
    """Drop what cannot go into a record (queries, results)."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def main(argv=None):
    args = parse_args(argv)
    if args.setup_probe:
        probe(args)
        return 0
    module, import_s = import_workload(args.workload)
    machine_info = machine()
    inputs = module.make_inputs(args.seed)
    probes = run_probes(args, inputs)
    workload, build_s = setup_once(module, inputs)
    try:
        speed_before = host_speed_ms()
        result = workload.measure(args.seconds)
        rss = peak_rss_mb()
        speed_after = host_speed_ms()
        gate = workload.check(result)
        profiler = None
        if args.trace and hasattr(workload, "profiler_overhead"):
            profiler = workload.profiler_overhead(result["latency_s"])
    finally:
        workload.close()
    setups = [import_s + build_s] + [p["import_s"] + p["build_s"]
                                     for p in probes]
    imports = [import_s] + [p["import_s"] for p in probes]
    summary = helpers.summarize(
        result["latency_s"], fixed_percentile=module.Workload.tail)
    failed_share = result["failed_share"]
    end_to_end = {
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (rss, "MB"),
        "ok_share": (1.0 - failed_share, "share"),
        "latency_p50_ms": (summary["median"] * 1e3, "ms"),
        "latency_tail_ms": (summary["tail"] * 1e3, "ms"),
    }
    named = workload.end_to_end(result, summary)
    end_to_end["throughput_per_s"] = named.pop("throughput_per_s")
    traced = None
    if args.trace:
        traced = traced_pass(module, inputs, args.seconds,
                             workload.headline(result))
    correct = bool(gate["passed"])

    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "machine": machine_info,
        "host_loop_ms": {"before": speed_before, "after": speed_after},
        "cold": {"import_s": import_s, "setup_samples_s": setups,
                 "import_samples_s": imports,
                 f"first_{module.Workload.unit}_ms": workload.cold_ms},
        "warm": {"unit": module.Workload.unit, "latency": summary},
        "end_to_end": {k: {"value": v, "unit": u}
                       for k, (v, u) in end_to_end.items()},
        "named": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
        "gate": gate, "correct": correct,
        "attempted": result["attempted"], "failed": result["failed"],
        "failed_share": failed_share,
        "result": {k: v for k, v in result.items()
                   if not k.endswith("_s") or k == "events_per_s"},
    }
    if traced is not None:
        measured = dict(traced["per_layer"])
        measured["setup.import_s"] = statistics.median(imports)
        measured["failed_share"] = failed_share
        if profiler is not None:
            record["profiler"] = profiler
            measured["observability.profile_overhead_share"] = \
                profiler["overhead_share"]
        # A layer the workload never calls reports 0.0.
        record["per_layer"] = {name: measured.get(name, 0.0)
                               for name in catalogue.PER_LAYER}
        record["per_layer_not_exercised"] = sorted(
            set(catalogue.PER_LAYER) - set(measured))
        record["self_time_table"] = traced["table"]
        record["headline_ms"] = traced["headline_ms"]
        spans_path = write_spans(args, traced)
        record["span_file"] = str(spans_path.relative_to(ROOT))
    record_path = write_record(args, record)

    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"  gate: {json.dumps(_jsonable(gate))}")
    print(f"  samples: {summary['n']} {module.Workload.unit}s, tail = "
          f"p{summary['tail_percentile']:g} "
          f"({summary['tail_beyond']} samples beyond)")
    for name, (value, unit) in {**end_to_end, **named}.items():
        print(f"  {name:<34} {value:>14.6g} {unit}")
    if traced is not None:
        print("  per-layer self time (traced run): total -> layer -> "
              "stage -> call")
        for line in helpers.render_table(traced["table"]):
            print(f"    {line}")
        for name, value in record["per_layer"].items():
            unit = catalogue.PER_LAYER[name][0]
            print(f"  {name:<44} {value:>14.6g} {unit}")
    print(f"  record: {record_path.relative_to(ROOT)}")

    if args.trace:
        metrics = {name: {"value": record["per_layer"][name],
                          "unit": catalogue.PER_LAYER[name][0]}
                   for name in catalogue.PER_LAYER}
    else:
        metrics = {name: {"value": end_to_end[name][0],
                          "unit": catalogue.END_TO_END[name][0]}
                   for name in catalogue.END_TO_END}
    print(json.dumps({"correct": correct,
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))
    return 0 if correct else 1


def write_record(args, record):
    path = OUT / "records" / (f"{args.workload}-seed{args.seed}-"
                              f"trace{args.trace}.json")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(_jsonable(record), indent=2) + "\n")
    return path


def write_spans(args, traced):
    """The traced run's spans (kept in memory until now)."""
    path = OUT / "spans" / f"{args.workload}-seed{args.seed}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(_jsonable({
        "workload": args.workload, "seed": args.seed,
        "clock": "time.perf_counter seconds",
        "setup_spans": traced["setup_spans"],
        "spans": traced["spans"]})) + "\n")
    return path


if __name__ == "__main__":
    sys.exit(main())
