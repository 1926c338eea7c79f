"""Run the whole benchmark: every workload on several seeds, then once traced.

    python3 perfbench/baseline.py --out perfbench/baseline.json

For each workload in BENCHMARK.json this runs run.py untraced once per seed
(RUNS seeds from --first-seed), prints each run's end-to-end metrics, then
their median, quartiles and spread (IQR / median) against a third of the
metric's bound, and runs the workload once with --trace 1 to print the
per-layer table. With --out it writes all of it, with the environment and
the layer -> metric -> workload predictions, as JSON.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from stats import spread

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: untraced runs per workload, one seed each; spreads and bounds assume ten
RUNS = 10

#: per-layer metric -> (end-to-end metric, workload, expected effect of a
#: change to that layer), written before any optimisation was measured
PREDICTIONS = (
    ("construction.decompose.self_s", "items_per_s, peak_rss_mb", "construct-large",
     "decompose is ~60% of an item and holds most of the ~6.5 m x m arrays"),
    ("construction.solve_weights.self_s", "items_per_s, peak_rss_mb", "construct-large",
     "the second factorization (of M) is ~35% of an item"),
    ("construction.assemble_R_split.self_s", "items_per_s", "construct-large",
     "~4% of an item: two solves with the cached A factorization"),
    ("construction.peak_alloc_mb", "peak_rss_mb", "construct-large",
     "dense m x m arrays set peak RSS"),
    ("construction.singular", "failed (count)", "construct-large", "0 expected"),
    ("graphmat.verify_block_bound.self_s", "items_per_s", "blockbound",
     "dense eigvalsh and the trace sum"),
    ("graphmat.realize.self_s", "items_per_s", "blockbound",
     "realization of the m x m shapes"),
    ("graphmat.block_value.self_s", "items_per_s", "blockbound", "label enumeration"),
    ("hermite.hermite_scaled_eval.self_s", "items_per_s", "blockbound",
     "Hermite values for mbeta/md1/md2/md3"),
    ("hermite.edge_factor_table.self_s", "items_per_s", "blockbound", "negligible"),
    ("sampling.self_s", "items_per_s", "all",
     "~1% everywhere: work moved into sampling shows here"),
)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    details = json.loads(lines[-2].removeprefix("details "))
    result = json.loads(lines[-1])
    details.update(correct=result["correct"], attempted=result["attempted"],
                   failed=result["failed"], run_wall_s=wall)
    return details


def summarize(runs, metrics) -> dict:
    out = {}
    for metric in metrics:
        values = [run["metrics"][metric["name"]] for run in runs]
        q1, _q2, q3 = statistics.quantiles(values, n=4)
        out[metric["name"]] = {
            "unit": metric["unit"], "median": statistics.median(values),
            "q1": q1, "q3": q3, "spread": spread(values), "bound": metric["bound"],
        }
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", help="write the results here as JSON")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    seeds = range(args.first_seed, args.first_seed + RUNS)
    report = {"run_seconds": seconds, "seeds": list(seeds), "workloads": {}}
    for wl in bench["workloads"]:
        name = wl["name"]
        print(f"== {name}: {wl['why']}", flush=True)
        runs = []
        for seed in seeds:
            run = run_once(name, seed, seconds, 0)
            runs.append(run)
            figures = "  ".join(f"{k}={v:.5g}" for k, v in run["metrics"].items())
            print(f"seed {seed:3d}  {figures}  tail=p{run['tail_percentile']:.0f}/"
                  f"{run['items']}  failed={run['failed']}/{run['attempted']}"
                  f"  wall={run['run_wall_s']:.1f}s", flush=True)
        summary = summarize(runs, bench["end_to_end"])
        for metric, s in summary.items():
            flag = "ok" if s["spread"] < s["bound"] / 3 else "WIDE"
            print(f"  {metric:>12} median {s['median']:.5g} {s['unit']}  "
                  f"IQR {s['q1']:.5g}..{s['q3']:.5g}  spread {s['spread']:.4f}"
                  f" (bound/3 {s['bound'] / 3:.4f}) {flag}", flush=True)
        traced = run_once(name, args.first_seed, seconds, 1)
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        for metric, value in traced["metrics"].items():
            print(f"  {metric:>38} {value:12.6g} {units[metric]}")
        acc = traced["accounting"]
        print(f"  traced: wall {acc['traced_wall_s']:.3f}s vs untraced "
              f"{acc['untraced_wall_s']:.3f}s; self time by layer "
              + ", ".join(f"{k} {v:.3f}s" for k, v in acc["layer_self_s"].items())
              + f"; no span {acc['unattributed_s']:.4f}s", flush=True)
        failing = [i for run in runs for i in run["failing_items"]]
        for item in failing:
            print(f"  failing item seed={item['seed']}: " + "; ".join(item["problems"]))
        report["workloads"][name] = {
            "why": wl["why"],
            "summary": summary,
            "failed": sum(run["failed"] for run in runs),
            "attempted": sum(run["attempted"] for run in runs),
            "failing_items": failing,
            "all_correct": all(run["correct"] for run in runs),
            "runs": [{k: run[k] for k in ("seed", "metrics", "tail_percentile",
                                           "items", "failed", "attempted",
                                           "run_wall_s")} for run in runs],
            "traced": {"seed": args.first_seed, "metrics": traced["metrics"],
                       "accounting": acc, "failed": traced["failed"],
                       "attempted": traced["attempted"]},
        }
        report["environment"] = runs[0]["environment"]
    report["predictions"] = [
        {"layer_metric": p[0], "end_to_end": p[1], "workload": p[2], "expect": p[3]}
        for p in PREDICTIONS
    ]
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()
