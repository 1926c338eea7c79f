"""The benchmark workloads: what one item runs and how it is checked.

Each workload turns an item seed into one call (or one fixed group of calls)
of the program's public API and returns the result as numbers and arrays.
Its check recomputes the item from the same seed with the dense oracles in
refcheck and returns a list of problems, each tagged "mismatch" (an output
disagrees with the reference). An empty list means the item passed.

No workload reaches the program's power iteration (spectral_norm, and
psd_check, neumann_apply, run_fit_trial and lemma_suite through it): on the
random matrices of these sizes it stops unconverged within its 10^4
iterations on about one 150 x 150 psd_check in two thousand, and an item
whose verdict rests on such an estimate is a failed item. Why each workload
exists is in README.md next to this file.
"""
from __future__ import annotations

import dataclasses
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

import refcheck
from refcheck import DIRECT_RTOL, RESIDUAL_MAX, close
from ellipsoidlab import construction, graphmat, sampling

CONSTRUCT_D, CONSTRUCT_M = 150, 2812
BLOCK_D, BLOCK_M, BLOCK_Q, BLOCK_TRIALS = 200, 800, 2, 2

#: B_2 for each catalog shape at (d, m) = (200, 800) with the default D_V,
#: and the matrix dimension it bounds. block_value is an exact enumeration
#: over fixed inputs, so its total is pinned rather than re-derived.
BLOCK_TOTALS = {
    "goe": (83.45870119269027, BLOCK_D),
    "malpha": (875908392.5272539, BLOCK_M),
    "mbeta": (2152.2904708994897, BLOCK_M),
    "md1": (157.78302939468665, BLOCK_M),
    "md2": (39255.2837597693, BLOCK_M),
    "md3": (12.560773439350246, BLOCK_M),
    "sumvv": (30112.112841947204, BLOCK_D),
}


@dataclass(frozen=True)
class Workload:
    name: str
    run: Callable[[int], object]
    #: (seed, output) -> problems
    check: Callable[[int, object], list[str]]


def _mismatch(what: str, got, want) -> str:
    return f"mismatch: {what} = {got!r}, reference {want!r}"


# ---------------------------------------------------------------------------
# construct-large


def run_construct(seed: int) -> dict:
    """decompose, solve_weights and the Woodbury split of R with the exact
    A^{-1}: the construction half of harness.run_fit_trial."""
    sample = sampling.sample_vectors(seed, CONSTRUCT_D, CONSTRUCT_M)
    dec = construction.decompose(sample)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", construction.IllConditionedWarning)
        cand = construction.solve_weights(dec, sample)
    _r1, _r2, er = construction.assemble_R_split(dec, sample, dec.apply_ainv, cand)
    return {"r": dec.r, "s": dec.s, "u": dec.u, "R": cand.R,
            "residual": cand.residual, "split_remainder": float(np.max(np.abs(er)))}


def check_construct(seed: int, out: dict) -> list[str]:
    v = sampling.sample_vectors(seed, CONSTRUCT_D, CONSTRUCT_M).vectors
    ref = refcheck.construct(v)
    problems = [
        _mismatch(key, out[key], ref[key])
        for key in ("r", "s", "u") if not close(out[key], ref[key], DIRECT_RTOL)
    ]
    scale = max(1.0, float(np.max(np.abs(ref["R"]))))
    r_err = float(np.max(np.abs(out["R"] - ref["R"])))
    if r_err > DIRECT_RTOL * scale:
        problems.append(f"mismatch: R differs from the direct solve by {r_err!r}")
    if not out["residual"] < RESIDUAL_MAX:
        problems.append(f"mismatch: exact-fit residual {out['residual']!r} >= {RESIDUAL_MAX}")
    # with the exact inverse as t0, R1 + R2 is R itself
    if out["split_remainder"] > DIRECT_RTOL * scale:
        problems.append(f"mismatch: split remainder {out['split_remainder']!r}, reference 0")
    return problems


# ---------------------------------------------------------------------------
# blockbound


def run_blockbound(seed: int) -> list[dict]:
    return [
        dataclasses.asdict(graphmat.verify_block_bound(
            shape, BLOCK_D, BLOCK_M, BLOCK_Q, BLOCK_TRIALS, seed
        ))
        for shape in graphmat.catalog()
    ]


def check_blockbound(seed: int, out: list[dict]) -> list[str]:
    if [rep["shape_name"] for rep in out] != list(BLOCK_TOTALS):
        return [_mismatch("shapes", [rep["shape_name"] for rep in out], list(BLOCK_TOTALS))]
    samples = [
        sampling.sample_vectors(sampling.trial_seed(seed, t), BLOCK_D, BLOCK_M)
        for t in range(BLOCK_TRIALS)
    ]
    goes = [sampling.sample_goe(s.seed, BLOCK_D, 1.0 / BLOCK_D).entries for s in samples]
    problems = []
    for rep in out:
        name = rep["shape_name"]
        total, dim = BLOCK_TOTALS[name]
        mats = [refcheck.shape_matrix(name, s.vectors, goe) for s, goe in zip(samples, goes)]
        traces = np.array([refcheck.trace_power(mat, BLOCK_Q) for mat in mats])
        mean = float(traces.mean())
        stderr = float(traces.std(ddof=1) / BLOCK_TRIALS**0.5)
        trace_bound = dim * total ** (2 * BLOCK_Q)
        norm_bound = 1.2 * total
        floats = (
            ("block_total", total, 1e-12), ("trace_bound", trace_bound, 1e-12),
            ("norm_bound", norm_bound, 1e-12), ("mc_mean", mean, DIRECT_RTOL),
        )
        for key, want, rtol in floats:
            if not close(rep[key], want, rtol):
                problems.append(_mismatch(f"{name} {key}", rep[key], want))
        # stderr is a difference of nearly equal traces: compare on the mean's scale
        if abs(rep["mc_stderr"] - stderr) > DIRECT_RTOL * max(1.0, abs(mean)):
            problems.append(_mismatch(f"{name} mc_stderr", rep["mc_stderr"], stderr))
        if not refcheck.certifies_max_norm(mats, rep["max_norm"], DIRECT_RTOL):
            problems.append(f"mismatch: {name} max_norm {rep['max_norm']!r} is not "
                            f"the largest norm within {DIRECT_RTOL}")
        exact = (
            ("dimension", dim), ("trials", BLOCK_TRIALS),
            ("trace_pass", mean <= trace_bound + 3 * stderr),
            ("norm_pass", rep["max_norm"] <= norm_bound),
        )
        for key, want in exact:
            if rep[key] != want:
                problems.append(_mismatch(f"{name} {key}", rep[key], want))
    return problems


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload("construct-large", run_construct, check_construct),
        Workload("blockbound", run_blockbound, check_blockbound),
    )
}
