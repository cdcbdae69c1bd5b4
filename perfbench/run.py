"""Benchmark of the heights library, run the way its users run it.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One caller in one process runs one job at a time (a closed loop).  A
round is the workload's fixed job list, drawn from the seed; rounds repeat
the same inputs until S seconds have passed, and every job's output is
checked.  A failed check counts as a failed op and does not stop the run.

--trace 0 prints the end-to-end metrics of BENCHMARK.json, from each
job's lower-quartile time over its runs (see measure):
  wall_s       time to run the job list once: the sum of the job times
  job_p50_s    median of the job times
  job_tail_s   the highest percentile of the job times with 10 jobs
               beyond it (the percentile and the job are printed)
  setup_s      median of 5 set-ups (this process, and 4 fresh ones
               taken half before and half after the rounds):
               imports, geometry construction, and one warm-up transform
               per cached grid
  peak_rss_mb  peak resident memory of this process or any it started
--trace 1 runs every job twice back to back, untraced and then traced,
and prints the per-layer metrics of BENCHMARK.json: counts per round,
seconds per round (unit s) or per call (unit s/call), self time per
layer, tracing overhead and coverage, and numerical diagnostics.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Earlier lines describe the
environment and the run.
"""

from __future__ import annotations

import argparse
import gc
import json
import operator
import os
import re
import resource
import statistics
import subprocess
import sys
import traceback
from importlib.metadata import version
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

from tracing import LAYERS, Tracer  # noqa: E402
from workloads import PROBE, WORKLOADS, Pair  # noqa: E402

# diagnostics are the worst value over a round's jobs; these aggregate
# differently
DIAG_AGGREGATE = {"diag.omega_phi_min": min,
                  "quantize.iterations": operator.add}
# fresh processes that each time one set-up, besides the one in this process
FRESH_SETUPS = 4


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def timed_setup(workload) -> float:
    t0 = perf_counter()
    workload.setup()
    return perf_counter() - t0


def setup_in_fresh_process(name: str) -> float:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name,
         "--seed", "0", "--seconds", "0", "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def run_job(label: str, fn) -> tuple[float, dict | None]:
    """Time one job; a failed check or error is a failed op (result None),
    not a crash.  Earlier jobs' garbage is collected first, untimed, so a
    job's time and the process's peak memory do not depend on when the
    collector last ran."""
    gc.collect()
    t = perf_counter()
    try:
        result = fn()
    except Exception:
        print(f"job {label} failed:", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        result = None
    return perf_counter() - t, result


def run_traced_round(jobs, traced_jobs, tracer: Tracer):
    """Each job untraced and then traced, back to back, so the pair sees
    the same machine state; returns the two rounds."""
    plain, traced = [], []
    for (label, fn, kind), (label2, tfn, _) in zip(jobs, traced_jobs):
        if label != label2:
            raise RuntimeError(f"job lists differ: {label} vs {label2}")
        plain.append((label, kind, *run_job(label, fn)))
        tracer.install()
        try:
            traced.append((label, kind, *run_job(label, tfn)))
        finally:
            tracer.uninstall()
    return ({"wall": sum(j[2] for j in plain), "jobs": plain},
            {"wall": sum(j[2] for j in traced), "jobs": traced})


def outcome(rnd: dict) -> dict:
    """Op counts and diagnostics of a round; probes are counted apart."""
    ops = [j for j in rnd["jobs"] if j[1] != PROBE]
    diags = {}
    for job in ops:
        merge_diags(diags, job[3] or {})
    return {"attempted": len(ops),
            "failed": sum(j[3] is None for j in ops),
            "probe_failed": sum(j[3] is None for j in rnd["jobs"]
                                if j[1] == PROBE),
            "diags": diags}


def merge_diags(into: dict, new: dict):
    for key, value in new.items():
        agg = DIAG_AGGREGATE.get(key, max)
        into[key] = agg(into[key], value) if key in into else value


def span_metric(name: str, unit: str, tracer: Tracer) -> float:
    """A per-layer metric read off the spans it is named after.

    ``X.calls`` counts the calls of span X; another count is a counter the
    tracer keeps under that name.  ``X_s`` (or ``X_s.Y`` for span X.Y) is
    the time inside span X, per round with unit ``s`` and per call with
    unit ``s/call``.  Span X stands for itself and for all spans X.*.
    """
    if unit == "count":
        if not name.endswith(".calls"):
            return tracer.counters.get(name, 0)
        stem = name.removesuffix(".calls")
    else:
        stem = re.sub(r"_s(?=\.|$)", "", name)
    keys = [k for k in tracer.calls if k == stem or k.startswith(stem + ".")]
    calls = sum(tracer.calls[k] for k in keys)
    if unit == "count":
        return calls
    seconds = sum(tracer.inclusive.get(k, 0.0) for k in keys)
    if unit == "s":
        return seconds
    if unit == "s/call":
        return seconds / calls if calls else 0.0
    raise ValueError(f"{name}: no rule for unit {unit!r}")


def layer_metrics(wanted, tracer: Tracer, traced: dict, plain: dict) -> dict:
    """Every per-layer metric of BENCHMARK.json for one traced round.

    Diagnostics come from the jobs' results (0 where no job reports
    them); trace.* and layer.* come from the round and the span tree; the
    rest from span_metric.
    """
    result = outcome(traced)
    self_time, top = tracer.self_times()
    m = {f"layer.{layer}.self_s": self_time.get(layer, 0.0)
         for layer in LAYERS}
    m.update({"trace.wall_s": traced["wall"],
              "trace.untraced_wall_s": plain["wall"],
              "trace.overhead": traced["wall"] / plain["wall"] - 1.0,
              "trace.coverage": top / traced["wall"],
              "cli.roundtrip_scan_failures": result["probe_failed"]})
    m.update(result["diags"])
    for spec in wanted:
        name = spec["name"]
        if name not in m:
            m[name] = (0.0 if name.startswith("diag.")
                       else span_metric(name, spec["unit"], tracer))
    return m


def environment() -> dict:
    import platform
    cpu = ""
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    import numpy
    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu": cpu, "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"),
            "mpmath": version("mpmath"),
            "blas": f"{blas['name']} {blas['version']}",
            "blas_threads": blas_threads()}


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None."""
    import ctypes
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


def lower_quartile(xs) -> float:
    """First quartile by linear interpolation between order statistics;
    the value itself for one sample."""
    xs = sorted(xs)
    k = (len(xs) - 1) / 4.0
    i = int(k)
    return xs[i] if i + 1 == len(xs) else xs[i] + (k - i) * (xs[i + 1] - xs[i])


def measure(workload, args, wanted) -> tuple[list, dict]:
    """Time the workload's jobs on the seed's inputs for --seconds.

    Untraced, the job list runs round after round, and the run stops after
    the first job that ends past --seconds (but not before one whole
    round).  Each job's time is the lower quartile of its runs: the
    machine's other tenants only ever add time, and a job's quickest
    quarter of runs is the one they disturbed least.  wall_s sums these
    over the job list, job_p50_s is their median over the ops and
    job_tail_s the highest percentile of them with ten ops beyond it.

    Traced, whole rounds run with every job untraced and then traced (see
    run_traced_round), and the per-layer metrics are medians over rounds.
    """
    tracer = Tracer() if args.trace else None
    # the job list is the same every round, so it is built once, untimed
    jobs = workload.jobs(args.seed, None)
    if tracer is not None:
        return measure_traced(jobs, workload.jobs(args.seed, tracer), tracer,
                              args.seconds, wanted)
    timed = []
    t0 = perf_counter()
    while len(timed) < len(jobs) or perf_counter() - t0 < args.seconds:
        label, fn, kind = jobs[len(timed) % len(jobs)]
        timed.append((label, kind, *run_job(label, fn)))
    rounds = [{"jobs": timed[i:i + len(jobs)]}
              for i in range(0, len(timed), len(jobs))]
    per_job = [lower_quartile(job[2] for job in timed[i::len(jobs)])
               for i in range(len(jobs))]
    ops = sorted((per_job[i], jobs[i][0]) for i in range(len(jobs))
                 if jobs[i][2] != PROBE)
    k = max(len(ops) - 11, 0)
    mid = ops[(len(ops) - 1) // 2: len(ops) // 2 + 1]
    print(f"{len(timed)} job runs, {len(timed) / len(jobs):.2f} rounds of "
          f"{len(jobs)} jobs; job_p50_s reads {[m[1] for m in mid]}, "
          f"job_tail_s reads {ops[k][1]}, p{100.0 * (k + 1) / len(ops):.0f} "
          f"of {len(ops)} ops")
    return rounds, {"wall_s": sum(per_job),
                    "job_p50_s": statistics.median(t for t, _ in ops),
                    "job_tail_s": ops[k][0]}


def measure_traced(jobs, traced_jobs, tracer, seconds, wanted):
    """Whole traced rounds until --seconds (a round is not started if it
    would end more than half a round late)."""
    rounds, layer_rounds = [], []
    t0 = perf_counter()
    while True:
        tracer.reset()
        plain, traced = run_traced_round(jobs, traced_jobs, tracer)
        rounds += [plain, traced]
        layer_rounds.append(layer_metrics(wanted, tracer, traced, plain))
        elapsed = perf_counter() - t0
        if elapsed + 0.5 * elapsed / len(layer_rounds) >= seconds:
            break
    print(f"traced rounds {len(layer_rounds)}")
    return rounds, {key: statistics.median(m[key] for m in layer_rounds)
                    for key in layer_rounds[0]}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "heights" / "__init__.py").is_file():
        print(f"perfbench: no heights package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = str(SRC)
    workload = Pair(ROOT, WORKLOADS[args.workload])
    if args.setup_only:
        try:
            print(json.dumps({"setup_s": timed_setup(workload)}))
        finally:
            workload.close()
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    # half of the fresh set-ups before the rounds and half after, so that
    # they sample the machine over the whole run
    setups = [setup_in_fresh_process(args.workload)
              for _ in range(FRESH_SETUPS // 2)]
    try:
        setups.append(timed_setup(workload))
        rounds, metrics = measure(workload, args, wanted)
    finally:
        workload.close()
    setups += [setup_in_fresh_process(args.workload)
               for _ in range(FRESH_SETUPS - FRESH_SETUPS // 2)]
    metrics["setup_s"] = statistics.median(setups)
    metrics["peak_rss_mb"] = max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0

    results = [outcome(r) for r in rounds]
    diags = {}
    for r in results:
        merge_diags(diags, r["diags"])
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    probes = sum(r["probe_failed"] for r in results)
    print(json.dumps({"environment": environment()}))
    print(json.dumps({"setup_samples_s": setups, "diagnostics": diags}))
    if probes:
        runs = sum(job[1] == PROBE for r in rounds for job in r["jobs"])
        print(f"known defect: save-P1-model-then-scan --model failed "
              f"{probes} of {runs} times (counted apart from ops)")
    out = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
           for m in wanted}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
