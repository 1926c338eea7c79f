"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload construct-large --seed 1 --seconds 20 --trace 0

Runs WORKERS fresh worker processes one after another, each for an equal
share of --seconds, and reports:

  --trace 0  the end-to-end metrics (items_per_s, item_p50_s, item_tail_s,
             peak_rss_mb, setup_s), measured with tracing off;
  --trace 1  the per-layer metrics of spans.PER_LAYER.

Human-readable lines come first, then a "details" line with the same figures
as JSON, and last the result line:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
An item failed when it raised or an output disagreed with the dense
reference; "correct" is false when an output disagreed.

Exits 2 without a result when the checkout holds no src/ellipsoidlab, or
when a worker fails or the run overstays its deadline.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

import spans
from stats import tail

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: the keys of workloads.WORKLOADS, which this process cannot import: it
#: imports the program, and must first check that the program is there
WORKLOAD_NAMES = ("construct-large", "blockbound")
#: worker processes per run; set-up time is the median over them, and five
#: set-ups damp the run-to-run noise of process start and imports
WORKERS = 5
#: the whole run, set-up and reference checks included, must end by then
DEADLINE_S = 170.0
#: BLAS runs single-threaded, like the program's own worker count of 1: on a
#: shared 2-core machine single-threaded times repeat far more closely
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    """The run cannot produce a trustworthy result."""


def run_worker(args, worker: int, budget: float, deadline: float) -> tuple[float, dict]:
    """Start one worker; return (set-up seconds, its result)."""
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--worker", str(worker), "--budget", repr(budget), "--trace", str(args.trace),
    ]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            env={**os.environ, **THREAD_ENV})
    timer = threading.Timer(max(0.0, deadline - start), proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if ready.strip() != "ready" or code != 0:
        raise BenchError(f"worker {worker} exited with code {code}")
    return setup, json.loads(rest.strip().splitlines()[-1])


def end_to_end(results, setups) -> tuple[dict, dict]:
    seconds = [item["seconds"] for r in results for item in r["items"]]
    p_tail, percentile, n = tail(seconds)
    metrics = {
        "items_per_s": (len(seconds) / sum(seconds), "1/s"),
        "item_p50_s": (statistics.median(seconds), "s"),
        "item_tail_s": (p_tail, "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in results), "MB"),
        "setup_s": (statistics.median(setups), "s"),
    }
    return metrics, {"tail_percentile": percentile, "items": n}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "ellipsoidlab", "__init__.py")):
        print(f"no program to measure: {ROOT}/src/ellipsoidlab is missing",
              file=sys.stderr)
        return 2

    deadline = time.perf_counter() + DEADLINE_S
    setups, results = [], []
    try:
        for worker in range(WORKERS):
            setup, result = run_worker(args, worker, args.seconds / WORKERS, deadline)
            setups.append(setup)
            results.append(result)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2

    items = [item for r in results for item in r["items"]]
    failing = [item for item in items if item["problems"]]
    correct = not any(p.startswith("mismatch") for i in failing for p in i["problems"])
    details = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "environment": results[0]["environment"],
        "failed_frac": len(failing) / len(items),
        "failing_items": [{"seed": i["seed"], "problems": i["problems"]} for i in failing],
    }
    if args.trace:
        phases = [r["phase"] for r in results]
        metrics = spans.per_layer(phases)
        details["accounting"] = accounting(phases)
        print_layers(metrics, details["accounting"])
    else:
        metrics, extra = end_to_end(results, setups)
        details.update(extra)
        for name, (value, unit) in metrics.items():
            print(f"{name:>14} {value:12.6g} {unit}")
        print(f"{'item_tail_s':>14} is the p{extra['tail_percentile']:.1f} "
              f"of {extra['items']} items")
    print(f"{'failed_frac':>14} {details['failed_frac']:12.6g} "
          f"({len(failing)} of {len(items)} items)")
    for item in failing:
        print(f"  failing item seed={item['seed']}: " + "; ".join(item["problems"]))
    details["metrics"] = {k: v for k, (v, _u) in metrics.items()}
    print("details " + json.dumps(details))
    print(json.dumps({
        "correct": correct,
        "attempted": len(items),
        "failed": len(failing),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def accounting(phases) -> dict:
    """Traced wall time split into layer self times plus what no span covers."""
    keys = [f"{layer}.self_s" for layer in spans.LAYERS] + ["root_s"]
    summed = {k: sum(p["totals"].get(k, 0.0) for p in phases) for k in keys}
    traced = sum(p["traced_s"] for p in phases)
    return {
        "traced_wall_s": traced,
        "untraced_wall_s": sum(p["untraced_s"] for p in phases),
        "layer_self_s": {layer: summed[f"{layer}.self_s"] for layer in spans.LAYERS},
        # root spans cover the items; what lies outside them is loop overhead
        "unattributed_s": traced - summed["root_s"],
    }


def print_layers(metrics: dict, acc: dict) -> None:
    for name, (value, unit) in metrics.items():
        print(f"{name:>38} {value:12.6g} {unit}")
    print("traced wall time, per layer self time:")
    for layer, value in acc["layer_self_s"].items():
        print(f"{layer:>14} {value:10.4f} s")
    print(f"{'+ no span':>14} {acc['unattributed_s']:10.4f} s")
    total = sum(acc["layer_self_s"].values()) + acc["unattributed_s"]
    print(f"{'= sum':>14} {total:10.4f} s  (traced wall {acc['traced_wall_s']:.4f} s,"
          f" untraced {acc['untraced_wall_s']:.4f} s, overhead "
          f"{acc['traced_wall_s'] / acc['untraced_wall_s'] - 1:+.2%})")


if __name__ == "__main__":
    sys.exit(main())
