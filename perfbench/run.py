#!/usr/bin/env python3
"""Seeded end-to-end benchmark of pebblex, run from the root of a checkout.

    python3 perfbench/run.py --workload feasibility_sweep --seed 1 --seconds 30 --trace 0

Workloads (see BENCHMARK.json for why each exists):

* ``feasibility_sweep``: closed-form feasibility predicates against
  configuration search on every connected board with 2-6 vertices plus a
  seeded, edge-count-stratified sample of the 853 seven-vertex boards.
* ``synthesis_sweep``: automorphisms of every tree up to 8 vertices, every
  connected board up to 6 and seeded random boards (a seeded sample per
  board at most), compiled to square moves, validated and sent through the
  certificate wire format; plus the flip-space oracle on every board up to
  5 vertices and a stratified sample of six-vertex boards.
* ``cli_queries``: a fixed corpus of about 400 in-process ``pebblex``
  command lines, shuffled by the seed.

The sample sizes are the class constants in ``workloads.py``.

One client runs the items in a closed loop, each after the previous one
completed, in whole passes over the item list: another pass starts only
while the last one would still fit in ``--seconds``, so every item gets the
same number of samples, spread over the whole run (at least one pass).
The first pass runs the items in the order they were built, later passes
in the seed's order.  Only the calls into pebblex are timed.

Every time is scaled to a reference speed.  A shared host's speed drifts
by a third or more over tens of seconds, for whole runs at a time, so
between items (at most every 0.25 s) the benchmark times a fixed piece of
its own work, the gauge of ``gauge.py``, and multiplies each item's time
by ``gauge.REFERENCE_S`` over the median gauge time within 0.75 s of the
item's midpoint.  The figures read as times on a machine where the gauge
takes ``REFERENCE_S``; the unscaled ones are in the ``detail`` line.

An item's latency is the median of its scaled samples in the run, one per
pass (6 to 10 passes at 30 seconds on a 2-vCPU VM, so the first pass,
which fills the package's memo tables, barely counts).
``items_per_s`` is the item count over the sum of those latencies; p50 and
p90 are taken over the items.  ``peak_rss_mb`` is the process's peak
resident memory after set-up and the first pass, so it does not depend on
the seed's order.  Every outcome is checked against references the package
did not produce (``reference.py``).

Set-up time is the median of 3 to 7 cold starts (more when they are
cheap), each with its own empty ``PEBBLEX_CACHE_DIR``: the first in this
process, the others each in a fresh one.  A cold start is importing
pebblex and the package calls that build the workload's inputs, catalogs
included; the benchmark's own reference work is not timed.  Their median
is scaled by the median gauge time of the whole run.

``--trace 1`` instead runs a warm-up pass, then an untraced pass, two
traced passes and another untraced pass, with spans around every layer's
public functions (``tracing.py``).  It reports per-layer numbers from the
set-up and the first traced pass, and the tracing overhead: the traced
passes' summed per-item fastest times minus the untraced ones'.  Spans and
a report with the environment go to ``.perfbench_out/``.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

# one BLAS thread, set before anything imports numpy
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import gauge  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, Stopwatch  # noqa: E402

# set-up is sampled at least SETUP_SAMPLES times, and up to MAX_SETUP_SAMPLES
# times while the samples so far took less than SETUP_BUDGET_S
SETUP_SAMPLES = 3
MAX_SETUP_SAMPLES = 7
SETUP_BUDGET_S = 3.0
SETUP_TIMEOUT_S = 150
UNITS = {"items_per_s": "1/s", "item_ms_p50": "ms", "item_ms_p90": "ms",
         "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark cannot run here (no package to measure, bad set-up)."""


def require_sources():
    if not os.path.isfile(os.path.join(SRC, "pebblex", "__init__.py")):
        raise BenchError(f"no pebblex sources under {SRC}")


def import_pebblex():
    require_sources()
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    px = importlib.import_module("pebblex")
    importlib.import_module("pebblex.cli")
    if not os.path.abspath(px.__file__).startswith(SRC + os.sep):
        raise BenchError(f"imported pebblex from {px.__file__}, not from {SRC}")
    return px


def cold_setup(workload, seed, workdir):
    """Import pebblex and build the workload's inputs into an empty cache.
    Returns (package, workload object, seconds spent importing and in the
    package calls of set-up)."""
    cache = os.path.join(workdir, "cache")
    os.makedirs(cache)
    os.environ["PEBBLEX_CACHE_DIR"] = cache
    t0 = time.perf_counter()
    px = import_pebblex()
    imported = time.perf_counter() - t0
    wl = WORKLOADS[workload]()
    timed = Stopwatch()
    wl.setup(px, workdir, seed, timed)
    return px, wl, imported + timed.seconds


def setup_in_child(workload, seed, workdir):
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-only", workdir,
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        raise BenchError(f"set-up process failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def run_pass(px, wl, samples, failures, tracer=None, order=None, speed=None):
    """Every item once, in the seed's order (or by the indices in ``order``),
    each after the previous one completed.  Only ``wl.run`` is timed: its
    duration is appended to ``samples[index]``.  With ``speed`` (a
    ``gauge.SpeedLog``), the gauge is polled between items and each sample
    is a (start, duration) pair."""
    clock = time.perf_counter
    for index in range(len(wl.items)) if order is None else order:
        item = wl.items[index]
        error = result = None
        t0 = clock()
        try:
            if tracer is None:
                result = wl.run(px, item)
            else:
                with tracer.item_span(index):
                    result = wl.run(px, item)
        except Exception as exc:  # an unexpected exception is a failed item
            error = exc
        samples[index].append(clock() - t0 if speed is None else (t0, clock() - t0))
        if error is None:
            try:
                wl.check(item, result)
            except Exception as exc:
                error = exc
        if error is not None:
            failures.append(f"{item.key!r}: {type(error).__name__}: {error}"[:400])
        if speed is not None:
            speed.poll()


def source_digest():
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "pebblex")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def git_commit():
    # the ceiling keeps git from taking the commit of a repository that
    # merely contains the checkout, and no configuration outside it is read
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT),
               GIT_CONFIG_NOSYSTEM="1", GIT_CONFIG_GLOBAL=os.devnull)
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        proc = None
    if proc is None or proc.returncode != 0:
        return "unknown (not a git checkout)"
    return proc.stdout.strip()


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(args, cache_files):
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__,
        "seed": args.seed,
        "workload": args.workload,
        "trace": args.trace,
        "catalog_cache": f"cold: empty PEBBLEX_CACHE_DIR per set-up; "
                         f"{cache_files} catalog files after set-up",
        "git_commit": git_commit(),
        "pebblex_source_sha256": source_digest(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def latency_metrics(latency):
    """items_per_s, p50 and p90 from one latency (seconds) per item."""
    return {
        "items_per_s": len(latency) / sum(latency),
        "item_ms_p50": statistics.median(latency) * 1000.0,
        "item_ms_p90": statistics.quantiles(latency, n=10, method="inclusive")[8] * 1000.0,
    }


def measure(args, workdir):
    """The untraced run: set-up samples, then items in a closed loop for
    ``--seconds`` (at least one full pass).  Every time is scaled to the
    gauge's reference speed (``gauge.py``) as measured around it."""
    px, wl, own = cold_setup(args.workload, args.seed, os.path.join(workdir, "main"))
    raw_setup = [own]
    while len(raw_setup) < SETUP_SAMPLES or (
            len(raw_setup) < MAX_SETUP_SAMPLES and sum(raw_setup) < SETUP_BUDGET_S):
        raw_setup.append(setup_in_child(args.workload, args.seed,
                                        os.path.join(workdir, f"setup{len(raw_setup)}")))
    failures = [f"set-up: {msg}" for msg in wl.verify_setup(px)]
    samples = [[] for _ in wl.items]
    speed = gauge.SpeedLog()
    clock = time.perf_counter
    start = clock()
    deadline = start + args.seconds
    # the first pass runs the items in the order they were built and the
    # peak memory is read after it: what the heap holds when the largest
    # item runs then does not depend on the seed's shuffle
    speed.take()
    run_pass(px, wl, samples, failures, order=wl.build_order, speed=speed)
    pass_s = [clock() - start]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while clock() + pass_s[-1] <= deadline:
        t0 = clock()
        run_pass(px, wl, samples, failures, speed=speed)
        pass_s.append(clock() - t0)
    speed.take()
    elapsed = clock() - start
    raw = [[d for _, d in ss] for ss in samples]
    scaled = [[d * speed.scale_at(t + d / 2) for t, d in ss] for ss in samples]
    # a cold start takes up to seconds, and the gauge cannot run beside it
    # without slowing it: set-up is scaled by the speed over the whole run
    setup_scale = speed.scale()
    metrics = dict(latency_metrics([statistics.median(ls) for ls in scaled]),
                   setup_s=statistics.median(raw_setup) * setup_scale,
                   peak_rss_mb=peak_rss_mb)
    attempted = sum(len(ls) for ls in raw)
    unscaled = dict(latency_metrics([statistics.median(ls) for ls in raw]),
                    setup_s=statistics.median(raw_setup))
    detail = {"items": len(raw), "latency_samples": attempted,
              "passes": len(pass_s), "pass_s": pass_s, "measured_s": elapsed,
              "busy_s": sum(map(sum, raw)), "setup_scale": setup_scale,
              "gauge_samples": len(speed.samples),
              "unscaled": unscaled, "setup_samples_s": raw_setup}
    return metrics, attempted, failures, detail


def measure_traced(args, workdir):
    """The traced run: traced set-up, a warm-up pass, then an untraced, two
    traced and another untraced pass (so a drift in speed over the passes
    does not favour either side), then the roll call.  Per-layer metrics
    come from the set-up, the first traced pass and the roll call; the
    second traced pass records into a tracer of its own."""
    cache = os.path.join(workdir, "main", "cache")
    os.makedirs(cache)
    os.environ["PEBBLEX_CACHE_DIR"] = cache
    px = import_pebblex()
    tracer = tracing.Tracer(px)
    wl = WORKLOADS[args.workload]()
    with tracer.active():
        wl.setup(px, os.path.join(workdir, "main"), args.seed, Stopwatch())
    failures = [f"set-up: {msg}" for msg in wl.verify_setup(px)]
    run_pass(px, wl, [[] for _ in wl.items], failures)  # fills the package's memo tables
    plain = [[] for _ in wl.items]
    traced = [[] for _ in wl.items]
    run_pass(px, wl, plain, failures)
    for pass_tracer in (tracer, tracing.Tracer(px)):
        with pass_tracer.active():
            run_pass(px, wl, traced, failures, pass_tracer)
    run_pass(px, wl, plain, failures)
    with tracer.active():
        failures += tracing.roll_call(px, workdir)
    walls = [sum(min(ls) for ls in plain), sum(min(ls) for ls in traced)]
    metrics = tracing.layer_metrics(tracer.spans)
    metrics["trace.overhead_s"] = walls[1] - walls[0]
    metrics["trace.overhead_frac"] = (walls[1] - walls[0]) / walls[0]
    detail = {"untraced_best_s": walls[0], "traced_best_s": walls[1],
              "spans": len(tracer.spans), "items_per_pass": len(wl.items)}
    return metrics, 5 * len(wl.items), failures, detail, tracer


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if args.setup_only:
        _, _, seconds = cold_setup(args.workload, args.seed, args.setup_only)
        print(json.dumps({"setup_s": seconds}))
        return 0

    require_sources()
    os.chdir(ROOT)
    workdir = os.path.join(".perfbench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    outdir = ".perfbench_out"
    os.makedirs(outdir, exist_ok=True)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    tracer = None
    try:
        if args.trace:
            metrics, attempted, failures, detail, tracer = measure_traced(args, workdir)
        else:
            metrics, attempted, failures, detail = measure(args, workdir)
        cache = os.environ["PEBBLEX_CACHE_DIR"]
        cache_files = sum(len(fs) for _, _, fs in os.walk(cache))
        env = environment(args, cache_files)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    stem = os.path.join(outdir, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    if tracer is not None:
        tracer.dump(stem + "-spans.jsonl.gz")
    units = {k: UNITS[k] if k in UNITS else tracing.unit_of(k) for k in metrics}
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    with open(stem + ".json", "w") as fh:
        json.dump({"environment": env, "detail": detail, "result": result,
                   "failures": failures}, fh, indent=2)
        fh.write("\n")
    for msg in failures[:20]:
        print(f"FAILED {msg}", file=sys.stderr)
    print("environment " + json.dumps(env, sort_keys=True))
    print("detail " + json.dumps(detail, sort_keys=True))
    for k, v in metrics.items():
        print(f"{k} {v:.6g} {units[k]}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
