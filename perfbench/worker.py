"""One fresh benchmark process: set up, run items for a time budget, check them.

Started by run.py, never by hand. It imports the program from the
checkout's src/, runs one untimed warm-up item and prints "ready" (the parent
times set-up up to that line). The warm-up item is the same in every run and
every worker, so set-up does the same work whatever --seed is. Then it runs
items one after another until its budget is spent. With --trace 1 every item
seed runs twice, untraced and under the Tracer, and the first seed once more
to measure construction's peak allocation. After the timed part it records
ru_maxrss, checks every item against the dense reference and prints one JSON
line.
"""
from __future__ import annotations

import argparse
import json
import os
import pickle
import platform
import resource
import sys
import time
import traceback
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import ellipsoidlab  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: item index of the warm-up item; timed items count up from 0
WARMUP_INDEX = 2**32


def item_seed(seed: int, worker: int, index: int) -> int:
    """64-bit program seed of one item, a pure function of its coordinates."""
    state = np.random.SeedSequence([seed, worker, index]).generate_state(1, np.uint64)
    return int(state[0])


def run_item(workload, seed: int) -> dict:
    start = time.perf_counter()
    try:
        output, error = workload.run(seed), None
    except Exception:
        output, error = None, traceback.format_exc(limit=3)
    seconds = time.perf_counter() - start
    return {"seed": seed, "seconds": seconds, "output": output, "error": error}


def traced_item(workload, seed: int, measure_alloc: bool = False):
    with spans.Tracer(ellipsoidlab, measure_alloc) as tracer:
        item = run_item(workload, seed)
    return item, tracer


def timed_items(workload, seeds, budget: float) -> list[dict]:
    items = []
    start = time.perf_counter()
    while not items or time.perf_counter() - start < budget:
        items.append(run_item(workload, next(seeds)))
    return items


def check(workload, item: dict) -> list[str]:
    if item["error"] is not None:
        return ["raised: " + item["error"].strip().splitlines()[-1]]
    return workload.check(item["seed"], item["output"])


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {
            key: os.environ.get(key)
            for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                        "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
        },
    }


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--worker", type=int, required=True)
    parser.add_argument("--budget", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]
    seeds = (item_seed(args.seed, args.worker, i) for i in range(WARMUP_INDEX))

    run_item(workload, item_seed(0, 0, WARMUP_INDEX))
    print("ready", flush=True)

    result = {"environment": environment()}
    if not args.trace:
        items = timed_items(workload, seeds, args.budget)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    else:
        items, summed = [], Counter()
        start = time.perf_counter()
        while not items or time.perf_counter() - start < args.budget:
            seed = next(seeds)
            # each seed runs untraced and traced back to back, in alternating
            # order, so that drift in machine speed cancels from the overhead
            if len(items) % 2:
                again, tracer = traced_item(workload, seed)
            item = run_item(workload, seed)
            if not len(items) % 2:
                again, tracer = traced_item(workload, seed)
            summed.update(spans.totals(tracer.spans))
            item["traced_s"] = again["seconds"]
            # outputs hold arrays; equal pickles mean bit-identical outputs
            item["traced_differs"] = pickle.dumps(again["output"]) != pickle.dumps(item["output"])
            items.append(item)
        _, alloc = traced_item(workload, items[0]["seed"], measure_alloc=True)
        result["phase"] = {
            "totals": dict(summed),
            "peak_alloc": alloc.construction_peak,
            "items": len(items),
            "traced_s": sum(item["traced_s"] for item in items),
            "untraced_s": sum(item["seconds"] for item in items),
        }
    result["items"] = []
    for item in items:
        problems = check(workload, item)
        if item.get("traced_differs"):
            problems.append("mismatch: traced run gave a different output")
        result["items"].append(
            {"seed": item["seed"], "seconds": item["seconds"], "problems": problems}
        )
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
