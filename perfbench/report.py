"""Run the benchmark over workloads and seeds and print every metric.

Usage (from the root of a checkout):

    python3 perfbench/report.py [--workloads a,b] [--seeds 1,2,3]
                                [--seeds2 11,12,13] [--seconds S]
                                [--trace] [--out FILE]

For each workload it runs ``run.py`` once per seed with --trace 0 and
prints each end-to-end metric with its unit: the median over seeds, the
quartiles, and the spread (quartile distance over the median) beside the
metric's bound.  The spread of setup_s is shown but not held to the
bound.  --seeds2 runs a second seed set of the same length, alternating
run by run with the first so that both see the same machine, and prints
the change of each median from the first set to the second.  With
--trace it adds one traced run per workload (first seed) and prints
every per-layer metric.  --out writes all of it as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: {proc.stderr}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    result["log"] = lines[:-1]
    return result


def summarize(values: list, bound: float | None) -> dict:
    med = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (med, med, med))
    out = {"median": med, "q1": q1, "q3": q3,
           "spread": (q3 - q1) / med if med else 0.0}
    if bound is not None:
        out["bound"] = bound
    return out


def seed_set(spec, runs, seeds) -> dict:
    entry = {"seeds": seeds,
             "attempted": [r["attempted"] for r in runs],
             "failed": [r["failed"] for r in runs],
             "runs": {s: {k: v["value"] for k, v in r["metrics"].items()}
                      for s, r in zip(seeds, runs)},
             "end_to_end": {}}
    print(f"  seeds {','.join(map(str, seeds))}: {sum(entry['failed'])} "
          f"failed of {sum(entry['attempted'])} ops")
    for m in spec["end_to_end"]:
        s = summarize([r["metrics"][m["name"]]["value"] for r in runs],
                      m["bound"])
        entry["end_to_end"][m["name"]] = s
        if m["name"] == "setup_s":
            flag = "(spread not gated)"
        else:
            flag = "ok" if s["spread"] <= m["bound"] else "TOO WIDE"
        print(f"    {m['name']:<12} {s['median']:12.5g} {m['unit']:<5}"
              f" [{s['q1']:.5g}, {s['q3']:.5g}] spread {s['spread']:.3f}"
              f" bound {m['bound']} {flag}")
    return entry


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workloads",
                   default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    p.add_argument("--seeds2", default="")
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--trace", action="store_true")
    p.add_argument("--out", default=None)
    args = p.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    seeds2 = [int(s) for s in args.seeds2.split(",") if s]
    if seeds2 and len(seeds2) != len(seeds):
        p.error("--seeds2 must have as many seeds as --seeds")
    report = {"seconds": args.seconds, "workloads": {}}
    for name in args.workloads.split(","):
        print(f"== {name}")
        runs, runs2 = [], []
        for i, seed in enumerate(seeds):
            runs.append(run_once(name, seed, args.seconds, 0))
            if seeds2:
                runs2.append(run_once(name, seeds2[i], args.seconds, 0))
        for line in runs[0]["log"]:
            if line.startswith('{"environment"'):
                report["environment"] = json.loads(line)["environment"]
        entry = {"sets": [seed_set(spec, runs, seeds)]}
        if seeds2:
            entry["sets"].append(seed_set(spec, runs2, seeds2))
            entry["second_vs_first"] = {}
            print("  second median against the first:")
            for m in spec["end_to_end"]:
                a, b = (st["end_to_end"][m["name"]]["median"]
                        for st in entry["sets"])
                change = b / a - 1.0 if m["better"] == "lower" else a / b - 1.0
                entry["second_vs_first"][m["name"]] = change
                flag = "ok" if change <= m["bound"] else "WORSE THAN BOUND"
                print(f"    {m['name']:<12} {change:+.3f} bound "
                      f"{m['bound']} {flag}")
        if args.trace:
            traced = run_once(name, seeds[0], args.seconds, 1)
            entry["per_layer"] = {k: v["value"]
                                  for k, v in traced["metrics"].items()}
            print(f"  traced run, seed {seeds[0]}:")
            for m in spec["per_layer"]:
                print(f"    {m['name']:<38} "
                      f"{traced['metrics'][m['name']]['value']:12.6g} "
                      f"{m['unit']}")
        report["workloads"][name] = entry
        if args.out:
            Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
