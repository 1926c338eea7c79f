"""Experiment orchestration and command line interface.

Subcommands: fit, sweep, verify-lemmas, block-value, trace-mc, norms.
Reports are deterministic: per-trial seeds derive from the base seed XOR the
trial index, aggregation is order-independent, and serialized output never
includes wall-clock time, so identical flags give byte-identical bytes at
any --threads setting.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields, is_dataclass
from typing import Callable, Sequence

import numpy as np

from . import construction, graphmat, neumann, sampling, spectral

SCHEMA_VERSION = "3"

DEFAULT_GRID_D = (40, 60, 100, 150)
DEFAULT_GRID_RATIOS = (
    1 / 400, 1 / 200, 1 / 100, 1 / 50, 1 / 20, 1 / 8, 1 / 4, 1 / 2,
)
DEFAULT_LEMMA_SIZES = ((500, 2500), (400, 1600))


class UsageError(Exception):
    """Invalid command line arguments; maps to exit code 1."""


# ---------------------------------------------------------------------------
# trial records


@dataclass(frozen=True)
class TrialRecord:
    """One fit experiment. wallMillis is measured but never serialized, so
    reports stay byte-identical across runs and thread counts."""

    seed: int
    d: int
    m: int
    feasible: bool
    residual: float | None
    normR: float | None
    lambdaMinLambda: float | None
    r: float | None
    s: float | None
    u: float | None
    normEtaSq: float | None
    wallMillis: float
    degenerate: bool = False
    reason: str = ""


FIT_FIELDS = (
    "seed", "d", "m", "feasible", "residual", "normR", "lambdaMinLambda",
    "r", "s", "u", "normEtaSq", "degenerate", "reason",
)


def record_payload(rec: TrialRecord) -> dict:
    """Serializable view of a record (drops wall-clock time)."""
    return {name: getattr(rec, name) for name in FIT_FIELDS}


def run_fit_trial(seed: int, d: int, m: int) -> TrialRecord:
    """sample -> decompose -> solve -> spectral checks, one record.

    Singular or ill-conditioned systems yield a degenerate record with a
    reason code instead of an exception.
    """
    start = time.perf_counter()
    sample = sampling.sample_vectors(seed, d, m)

    def degenerate(reason: str, dec=None) -> TrialRecord:
        return TrialRecord(
            seed=seed, d=d, m=m, feasible=False,
            residual=None, normR=None, lambdaMinLambda=None,
            r=None if dec is None else dec.r,
            s=None if dec is None else dec.s,
            u=None if dec is None else dec.u,
            normEtaSq=float(sample.eta @ sample.eta),
            wallMillis=(time.perf_counter() - start) * 1e3,
            degenerate=True, reason=reason,
        )

    try:
        dec = construction.decompose(sample)
    except construction.SingularMatrixError:
        return degenerate("singular-interaction-part")
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", construction.IllConditionedWarning)
            cand = construction.solve_weights(dec, sample)
    except construction.SingularMatrixError:
        return degenerate("singular-gram", dec)
    rep_r = spectral.spectral_norm(cand.R)
    feasible = spectral.psd_check(cand.Lambda)
    return TrialRecord(
        seed=seed, d=d, m=m, feasible=feasible,
        residual=cand.residual,
        normR=rep_r.norm_estimate,
        # Lambda = I - R, so its smallest eigenvalue is 1 - max eig of R
        lambdaMinLambda=1.0 - rep_r.lambda_max,
        r=dec.r, s=dec.s, u=dec.u,
        normEtaSq=float(dec.eta @ dec.eta),
        wallMillis=(time.perf_counter() - start) * 1e3,
    )


def _run_trials(
    worker: Callable[[int], object], trials: int, threads: int
) -> list:
    """Run worker(trialIndex) for each index, merging by index order."""
    if trials <= 0:
        return []
    if threads == 1:
        return [worker(t) for t in range(trials)]
    max_workers = threads if threads > 0 else None
    with ThreadPoolExecutor(max_workers=max_workers) as pool:
        return list(pool.map(worker, range(trials)))


# ---------------------------------------------------------------------------
# sweep


@dataclass(frozen=True)
class SweepCell:
    d: int
    ratio: float
    m: int
    trials: int
    degenerate: int
    feasible: int
    feasibility_rate: float | None
    mean_normR: float | None
    rate_halfwidth: float | None


@dataclass(frozen=True)
class SweepReport:
    schema: str
    seed: int
    trials: int
    d_list: tuple[int, ...]
    ratio_list: tuple[float, ...]
    cells: tuple[SweepCell, ...]
    monotonicity_warnings: tuple[str, ...]
    interrupted: bool = False


SWEEP_FIELDS = (
    "d", "ratio", "m", "trials", "degenerate", "feasible",
    "feasibility_rate", "mean_normR", "rate_halfwidth",
)


def _summarize_cell(d: int, ratio: float, m: int,
                    records: Sequence[TrialRecord]) -> SweepCell:
    degen = sum(1 for r in records if r.degenerate)
    feas = sum(1 for r in records if r.feasible)
    if records:
        # a degenerate trial found no ellipsoid, so it counts as infeasible
        rate = feas / len(records)
        half = 1.96 * math.sqrt(rate * (1.0 - rate) / len(records))
        norms = [r.normR for r in records if r.normR is not None]
        mean_norm = sum(norms) / len(norms) if norms else None
    else:
        rate = None
        half = None
        mean_norm = None
    return SweepCell(
        d=d, ratio=ratio, m=m, trials=len(records), degenerate=degen,
        feasible=feas, feasibility_rate=rate, mean_normR=mean_norm,
        rate_halfwidth=half,
    )


def _monotonicity_warnings(cells: Sequence[SweepCell]) -> tuple[str, ...]:
    # observed-not-asserted: rate should not increase with the ratio at
    # fixed d beyond statistical noise
    out = []
    by_d: dict[int, list[SweepCell]] = {}
    for cell in cells:
        by_d.setdefault(cell.d, []).append(cell)
    for d, row in sorted(by_d.items()):
        row = sorted(row, key=lambda c: c.ratio)
        for prev, cur in zip(row, row[1:]):
            if prev.feasibility_rate is None or cur.feasibility_rate is None:
                continue
            noise = (prev.rate_halfwidth or 0.0) + (cur.rate_halfwidth or 0.0)
            if cur.feasibility_rate > prev.feasibility_rate + noise:
                out.append(
                    f"d={d}: rate rises {prev.feasibility_rate:.3f} -> "
                    f"{cur.feasibility_rate:.3f} between ratios "
                    f"{prev.ratio!r} and {cur.ratio!r}"
                )
    return tuple(out)


def run_sweep(
    d_list: Sequence[int] = DEFAULT_GRID_D,
    ratio_list: Sequence[float] = DEFAULT_GRID_RATIOS,
    trials: int = 50,
    seed: int = 0,
    threads: int = 0,
) -> SweepReport:
    """Feasibility-rate grid over (d, m/d^2) cells.

    A KeyboardInterrupt mid-grid returns the partial report (flagged) instead
    of propagating, so partial results can still be flushed.
    """
    for d in d_list:
        if d < 1:
            raise UsageError(f"d must be >= 1, got {d}")
    for ratio in ratio_list:
        if ratio <= 0:
            raise UsageError(f"ratio must be > 0, got {ratio}")
    if trials < 1:
        raise UsageError(f"trials must be >= 1, got {trials}")
    cells: list[SweepCell] = []
    interrupted = False
    try:
        for d in d_list:
            for ratio in ratio_list:
                m = int(d * d * ratio)
                if m < 1:
                    raise UsageError(
                        f"cell d={d} ratio={ratio} gives m < 1; "
                        "require d*d*ratio >= 1"
                    )
                records = _run_trials(
                    lambda t: run_fit_trial(sampling.trial_seed(seed, t), d, m),
                    trials, threads,
                )
                cells.append(_summarize_cell(d, ratio, m, records))
    except KeyboardInterrupt:
        interrupted = True
    return SweepReport(
        schema=SCHEMA_VERSION, seed=seed, trials=trials,
        d_list=tuple(d_list), ratio_list=tuple(ratio_list),
        cells=tuple(cells),
        monotonicity_warnings=_monotonicity_warnings(cells),
        interrupted=interrupted,
    )


# ---------------------------------------------------------------------------
# lemma suite


@dataclass(frozen=True)
class LemmaRow:
    """One verified statement: measured statistic vs finite-size slack."""

    name: str
    d: int
    m: int
    trials: int
    passes: int | None          # None for observe-only rows
    required_rate: float | None
    threshold: str              # the finite-size acceptance band, as text
    claim: str                  # the asymptotic statement being probed
    stat_min: float
    stat_mean: float
    stat_max: float
    verdict: str                # PASS | FAIL | OBSERVE

    @property
    def rate(self) -> float | None:
        if self.passes is None or self.trials == 0:
            return None
        return self.passes / self.trials


LEMMA_FIELDS = (
    "name", "d", "m", "trials", "passes", "required_rate", "threshold",
    "claim", "stat_min", "stat_mean", "stat_max", "verdict",
)


def _lemma_row(
    name: str, d: int, m: int, stats: Sequence[float],
    ok: Callable[[float], bool] | None,
    required_rate: float | None, threshold: str, claim: str,
) -> LemmaRow:
    arr = np.asarray(stats, dtype=float)
    if ok is None:
        passes = None
        verdict = "OBSERVE"
    elif len(arr) == 0:
        passes = 0
        verdict = "NODATA"
    else:
        passes = int(sum(1 for x in arr if ok(float(x))))
        verdict = "PASS" if passes >= required_rate * len(arr) else "FAIL"
    return LemmaRow(
        name=name, d=d, m=m, trials=len(arr), passes=passes,
        required_rate=required_rate, threshold=threshold, claim=claim,
        stat_min=float(arr.min()) if len(arr) else float("nan"),
        stat_mean=float(arr.mean()) if len(arr) else float("nan"),
        stat_max=float(arr.max()) if len(arr) else float("nan"),
        verdict=verdict,
    )


def mbeta_norm_prediction(d: int, m: int) -> float:
    """Finite-size value of ||Mbeta|| for m >= d.

    Mbeta is the Gram matrix of the m x d matrix of centred squares
    h2 = v^2 - 1/d with its diagonal removed. Those entries are i.i.d. with
    variance 2/d^2, so the top of the Gram spectrum sits at the
    Marchenko-Pastur edge (2/d^2)(sqrt m + sqrt d)^2, and the removed
    diagonal (each entry close to 2/d) shifts it down by 2/d. The value
    tends to the limit 2m/d^2 as m/d grows.
    """
    return 2.0 / d**2 * (math.sqrt(m) + math.sqrt(d)) ** 2 - 2.0 / d


def lemma_suite(
    seed: int = 0,
    trials: int = 50,
    sizes: Sequence[tuple[int, int]] = DEFAULT_LEMMA_SIZES,
    threads: int = 0,
    quick: bool = False,
) -> list[LemmaRow]:
    """Statistical verification rows for the quantitative lemmas.

    Per size (d, m): interaction-part spectrum band (the lower edge, and the
    lift of the top above the largest diagonal entry), squared-radii norm
    band, Woodbury scalar ranges, diagonal-part norm, offdiagonal norm bounds
    with recorded slack, series-tail observation, and the split-residual norm
    at the default truncation depth. Pass thresholds are finite-size bands
    (the squared-overlap norm is held to its value predicted at (d, m), not
    to its limit); rows whose claims are asymptotic-only are marked OBSERVE
    and never asserted.
    quick=True keeps only the decomposition-level rows (spectrum, radii,
    scalars, diagonal norm), skipping the expensive norm and residual rows.
    """
    rows: list[LemmaRow] = []
    for d, m in sizes:
        if d < 1 or m < 1:
            raise UsageError(f"sizes must be positive, got ({d},{m})")
        k_depth = neumann.default_depth(d)

        def one(t: int) -> dict:
            s = sampling.sample_vectors(sampling.trial_seed(seed, t), d, m)
            dec = construction.decompose(s)
            rep_a = dec.a_spectrum
            out = {
                "lam_min": rep_a.lambda_min,
                # lift of the top eigenvalue above the largest diagonal entry
                "lam_max_excess": rep_a.lambda_max
                - float(np.max(np.diagonal(dec.A))),
                "eta_ratio": float(dec.eta @ dec.eta) / (2 * m / d),
                "r_ratio": dec.r / (m / d),
                "u": dec.u,
                "abs_s": abs(dec.s),
                "denom_ratio": (dec.s**2 - dec.r * dec.u) / (m / d),
                "md_stat": float(np.max(np.abs(dec.md)))
                / math.sqrt(math.log(d) / d),
            }
            if quick:
                return out
            out["mbeta_ratio"] = spectral.spectral_norm(
                dec.mbeta
            ).norm_estimate / mbeta_norm_prediction(d, m)
            out["malpha_ratio"] = spectral.spectral_norm(
                dec.malpha
            ).norm_estimate / ((3 * d * math.sqrt(m) + 2 * m) / d**2)
            out["t_norm"] = dec.t_norm_est
            out["sumvv_ratio"] = spectral.spectral_norm(
                s.vectors.T @ s.vectors
            ).norm_estimate / (m / d)
            try:
                cand = construction.solve_weights(dec, s)
            except construction.SingularMatrixError:
                out["norm_r"] = None
                out["split_residual"] = None
                return out
            out["norm_r"] = spectral.spectral_norm(cand.R).norm_estimate
            if dec.t_norm_est < 1.0:
                _r1, _r2, er = construction.assemble_R_split(
                    dec, s, lambda x: neumann.neumann_apply(dec, x, k_depth), cand
                )
                out["split_residual"] = spectral.spectral_norm(er).norm_estimate
            else:
                out["split_residual"] = None
            return out

        samples = _run_trials(one, trials, threads)

        def col(key: str) -> list[float]:
            return [s[key] for s in samples if s.get(key) is not None]

        rows.append(_lemma_row(
            "a-spectrum-lower", d, m, col("lam_min"),
            lambda x: x >= 0.5, 1.0, ">= 0.5 in 100% of trials",
            "interaction part stays above 0.5 I",
        ))
        rows.append(_lemma_row(
            "a-spectrum-upper", d, m, col("lam_max_excess"),
            lambda x: x <= 0.5, 1.0,
            "lambda_max(A) - max_i A_ii <= 0.5 in 100% of trials",
            "off-diagonal parts lift the top of the spectrum by at most 1/2",
        ))
        rows.append(_lemma_row(
            "eta-norm-band", d, m, col("eta_ratio"),
            lambda x: 0.8 <= x <= 1.2, 0.95,
            "||eta||^2 / (2m/d) in [0.8, 1.2], >= 95%",
            "||eta||^2 concentrates at 2m/d",
        ))
        rows.append(_lemma_row(
            "scalar-r", d, m, col("r_ratio"),
            lambda x: 2 / 3 <= x <= 2, 0.95,
            "r / (m/d) in [2/3, 2], >= 95%",
            "r tracks m/d",
        ))
        rows.append(_lemma_row(
            "scalar-u", d, m, col("u"),
            lambda x: -1.0 <= x <= -0.5, 0.95,
            "u in [-1, -1/2], >= 95%",
            "u stays near -1",
        ))
        rows.append(_lemma_row(
            "scalar-s", d, m, col("abs_s"),
            lambda x: x <= 1.2, 0.95,
            "|s| <= 1.2, >= 95%",
            "|s| stays near 1",
        ))
        rows.append(_lemma_row(
            "scalar-denominator", d, m, col("denom_ratio"),
            lambda x: x >= 0.1, 0.95,
            "(s^2 - r u) / (m/d) >= 0.1, >= 95%",
            "Woodbury denominator bounded away from zero",
        ))
        joint = [
            1.0 if (2 / 3 <= s["r_ratio"] <= 2 and -1 <= s["u"] <= -0.5
                    and s["abs_s"] <= 1.2 and s["denom_ratio"] >= 0.1)
            else 0.0
            for s in samples
        ]
        rows.append(_lemma_row(
            "scalars-joint", d, m, joint,
            lambda x: x > 0.5, 0.95,
            "all four scalar bands jointly, >= 95%",
            "invertibility scalars all in range",
        ))
        rows.append(_lemma_row(
            "md-norm", d, m, col("md_stat"),
            lambda x: x <= 5.0, 0.95,
            "||diag part|| <= 5 sqrt(log d / d), >= 95%",
            "diagonal part norm is O(sqrt(log d / d))",
        ))
        if quick:
            continue
        rows.append(_lemma_row(
            "mbeta-norm", d, m, col("mbeta_ratio"),
            lambda x: x <= 1.3, 0.95,
            "||squared-overlap part|| <= 1.3 ((2/d^2)(sqrt m + sqrt d)^2 "
            "- 2/d), >= 95%",
            "norm is (1+o(1)) 2m/d^2",
        ))
        rows.append(_lemma_row(
            "malpha-norm", d, m, col("malpha_ratio"),
            lambda x: x <= 1.3, 0.95,
            "||cross-overlap part|| <= 1.3 (3 d sqrt(m) + 2m)/d^2, >= 95%",
            "norm is at most (1+o(1)) (3 d sqrt(m) + 2m)/d^2",
        ))
        rows.append(_lemma_row(
            "t-norm", d, m, col("t_norm"), None, None,
            "observed (series converges iff < 1)",
            "perturbation norm is o(1); not asserted at desk scale",
        ))
        rows.append(_lemma_row(
            "sumvv-ratio", d, m, col("sumvv_ratio"), None, None,
            "observed ratio to m/d",
            "||sum of outer products|| is (1+o(1)) m/d for m >> d",
        ))
        n_div = sum(1 for s in samples if s["split_residual"] is None)
        rows.append(_lemma_row(
            f"split-residual-K{k_depth}", d, m, col("split_residual"),
            lambda x: x < 0.05, 0.95,
            f"||E_R|| < 0.05 at depth K={k_depth}, >= 95% of convergent "
            f"draws ({n_div} divergent skipped)",
            "split residual norm is o(1)",
        ))
        rows.append(_lemma_row(
            "r-norm", d, m, col("norm_r"),
            lambda x: x < 0.9, 0.95,
            "||R|| < 0.9, >= 95% of convergent draws",
            "perturbation norm is at most 1/2 asymptotically",
        ))
    return rows


# ---------------------------------------------------------------------------
# serialization helpers


def _jsonable(value):
    if isinstance(value, TrialRecord):
        return {k: _jsonable(v) for k, v in record_payload(value).items()}
    if is_dataclass(value) and not isinstance(value, type):
        return {f.name: _jsonable(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    return value


def render_json(payload) -> str:
    return json.dumps(_jsonable(payload), indent=2, sort_keys=True) + "\n"


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        # plain-float repr (shortest round-trip); never numpy's repr form
        return repr(float(value))
    return str(value)


def render_csv(rows: Sequence, fields: Sequence[str]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(fields)
    for row in rows:
        if isinstance(row, dict):
            writer.writerow([_csv_cell(row.get(f)) for f in fields])
        else:
            writer.writerow([_csv_cell(getattr(row, f)) for f in fields])
    return buf.getvalue()


def _lemma_csv_rows(rows: Sequence[LemmaRow]) -> list[dict]:
    return [
        {**{f: getattr(r, f) for f in LEMMA_FIELDS}, "rate": r.rate}
        for r in rows
    ]


def _write_outputs(base: str, fmt: str | None, json_text: str, csv_text: str,
                   stdout) -> None:
    """Write report files next to `base`; both formats unless one is forced."""
    wrote = []
    if fmt in (None, "json"):
        path = base if base.endswith(".json") else base + ".json"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json_text)
        wrote.append(path)
    if fmt in (None, "csv"):
        path = base if base.endswith(".csv") else base + ".csv"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(csv_text)
        wrote.append(path)
    print("wrote " + " ".join(wrote), file=stdout)


# ---------------------------------------------------------------------------
# subcommand implementations


def cmd_fit(args, stdout) -> int:
    if args.d < 1 or args.m < 1:
        raise UsageError(f"d and m must be >= 1, got d={args.d} m={args.m}")
    rec = run_fit_trial(args.seed, args.d, args.m)
    payload = {"schema": SCHEMA_VERSION, "command": "fit",
               "record": record_payload(rec)}
    json_text = render_json(payload)
    csv_text = render_csv([record_payload(rec)], FIT_FIELDS)
    if args.format == "csv":
        stdout.write(csv_text)
    else:
        stdout.write(json_text)
    if args.out:
        _write_outputs(args.out, args.format, json_text, csv_text, stdout)
    return 0


def cmd_sweep(args, stdout) -> int:
    d_list = args.d_list if args.d_list else list(DEFAULT_GRID_D)
    ratios = args.ratios if args.ratios is not None else list(DEFAULT_GRID_RATIOS)
    report = run_sweep(d_list, ratios, args.trials, args.seed, args.threads)
    json_text = render_json(report)
    csv_text = render_csv(report.cells, SWEEP_FIELDS)
    if args.out:
        _write_outputs(args.out, args.format, json_text, csv_text, stdout)
    else:
        stdout.write(csv_text if args.format == "csv" else json_text)
    for warning in report.monotonicity_warnings:
        print(f"warning: non-monotone feasibility: {warning}", file=sys.stderr)
    return 130 if report.interrupted else 0


def cmd_verify_lemmas(args, stdout) -> int:
    sizes = args.sizes if args.sizes else list(DEFAULT_LEMMA_SIZES)
    rows = lemma_suite(args.seed, args.trials, sizes, args.threads, args.quick)
    for row in rows:
        rate = "" if row.rate is None else f" rate={row.rate:.3f}"
        need = "" if row.required_rate is None else f" need>={row.required_rate}"
        stdout.write(
            f"{row.verdict:7s} {row.name:22s} d={row.d} m={row.m} "
            f"trials={row.trials}{rate}{need} "
            f"stat[min/mean/max]=[{row.stat_min!r}, {row.stat_mean!r}, "
            f"{row.stat_max!r}] :: {row.threshold}\n"
        )
    json_text = render_json({
        "schema": SCHEMA_VERSION, "command": "verify-lemmas",
        "seed": args.seed, "trials": args.trials,
        "sizes": [list(s) for s in sizes], "rows": rows,
    })
    csv_text = render_csv(_lemma_csv_rows(rows), LEMMA_FIELDS + ("rate",))
    if args.out:
        _write_outputs(args.out, args.format, json_text, csv_text, stdout)
    failed = [r for r in rows if r.verdict == "FAIL"]
    if failed:
        print(f"{len(failed)} lemma row(s) FAILED", file=sys.stderr)
    return 0


BLOCK_FIELDS = ("labels", "vertex_factor", "pur_factor", "edge_factor", "product")


def cmd_block_value(args, stdout) -> int:
    shape = graphmat.get_shape(args.shape)
    if shape.has_squares and args.m is None:
        raise UsageError(f"shape {shape.name} requires --m")
    m = args.m if args.m is not None else 1
    breakdown = graphmat.block_value(shape, args.d, m, args.q, args.dv)
    stdout.write(
        f"shape={breakdown.shape_name} d={breakdown.d} m={breakdown.m} "
        f"q={breakdown.q} dv={breakdown.dv} "
        f"admissible={len(breakdown.rows)}/{breakdown.candidates}\n"
    )
    stdout.write("labels vertex_factor pur_factor edge_factor product\n")
    for row in breakdown.rows:
        stdout.write(
            f"{row.labels} {row.vertex_factor!r} {row.pur_factor!r} "
            f"{row.edge_factor!r} {row.product!r}\n"
        )
    stdout.write(f"total {breakdown.total!r}\n")
    if args.verify:
        rep = graphmat.verify_block_bound(
            shape, args.d, m, args.q, args.trials, args.seed, args.dv
        )
        for name, ok, measured, bound in rep.rows():
            stdout.write(
                f"{'PASS' if ok else 'FAIL'} {name}: measured {measured!r} "
                f"vs bound {bound!r}\n"
            )
    if args.out:
        payload = {"schema": SCHEMA_VERSION, "command": "block-value",
                   "breakdown": {
                       "shape": breakdown.shape_name, "d": breakdown.d,
                       "m": breakdown.m, "q": breakdown.q, "dv": breakdown.dv,
                       "total": breakdown.total,
                       "candidates": breakdown.candidates,
                       "rows": breakdown.rows,
                   }}
        _write_outputs(args.out, args.format, render_json(payload),
                       render_csv(breakdown.rows, BLOCK_FIELDS), stdout)
    return 0


def cmd_trace_mc(args, stdout) -> int:
    shape = graphmat.get_shape(args.shape)
    if shape.has_squares and args.m is None:
        raise UsageError(f"shape {shape.name} requires --m")
    m = args.m if args.m is not None else 1
    rep = graphmat.verify_block_bound(
        shape, args.d, m, args.q, args.trials, args.seed, args.dv
    )
    stdout.write(
        f"shape={rep.shape_name} d={rep.d} m={rep.m} q={rep.q} "
        f"trials={rep.trials} dimension={rep.dimension}\n"
        f"trace mc mean {rep.mc_mean!r} stderr {rep.mc_stderr!r}\n"
        f"block value B {rep.block_total!r} "
        f"trace bound dim*B^2q {rep.trace_bound!r}\n"
        f"{'PASS' if rep.trace_pass else 'FAIL'} trace: "
        f"mean <= bound + 3 stderr\n"
        f"{'PASS' if rep.norm_pass else 'FAIL'} norm: max realized "
        f"{rep.max_norm!r} <= 1.2 B = {rep.norm_bound!r}\n"
    )
    if args.out:
        payload = {"schema": SCHEMA_VERSION, "command": "trace-mc",
                   "report": {f: getattr(rep, f)
                              for f in rep.__dataclass_fields__}}
        csv_rows = [{f: getattr(rep, f) for f in rep.__dataclass_fields__}]
        _write_outputs(args.out, args.format, render_json(payload),
                       render_csv(csv_rows, tuple(rep.__dataclass_fields__)),
                       stdout)
    return 0


NORM_FIELDS = ("shape", "d", "m", "trials", "mean_norm", "max_norm",
               "asymptotic_bound", "block_value_bound")


def _asymptotic_norm_bound(name: str, d: int, m: int) -> float | None:
    if name == "goe":
        return 2.0
    if name == "mbeta":
        return 2.0 * m / d**2
    if name == "malpha":
        return (3.0 * d * math.sqrt(m) + 2.0 * m) / d**2
    if name == "sumvv":
        return m / d
    return None


def cmd_norms(args, stdout) -> int:
    names = [args.shape] if args.shape else [s.name for s in graphmat.catalog()]
    rows = []
    for name in names:
        shape = graphmat.get_shape(name)
        m = args.m if args.m is not None else 1
        if shape.has_squares and args.m is None:
            raise UsageError(f"shape {name} requires --m")
        norms = []
        for t in range(args.trials):
            s = sampling.sample_vectors(
                sampling.trial_seed(args.seed, t), args.d, max(m, 1)
            )
            mat = graphmat.realize(shape, s)
            if shape.is_diagonal:
                norms.append(float(np.max(np.abs(np.diagonal(mat)))))
            else:
                norms.append(spectral.spectral_norm(mat).norm_estimate)
        bound = graphmat.block_value(shape, args.d, m, args.q, args.dv).total
        rows.append({
            "shape": name, "d": args.d, "m": m, "trials": args.trials,
            "mean_norm": float(np.mean(norms)),
            "max_norm": float(np.max(norms)),
            "asymptotic_bound": _asymptotic_norm_bound(name, args.d, m),
            "block_value_bound": bound,
        })
    for row in rows:
        ab = row["asymptotic_bound"]
        stdout.write(
            f"{row['shape']:8s} d={row['d']} m={row['m']} "
            f"trials={row['trials']} mean {row['mean_norm']!r} "
            f"max {row['max_norm']!r} asymptotic "
            f"{'-' if ab is None else repr(ab)} "
            f"block-value {row['block_value_bound']!r}\n"
        )
    if args.out:
        payload = {"schema": SCHEMA_VERSION, "command": "norms", "rows": rows}
        _write_outputs(args.out, args.format, render_json(payload),
                       render_csv(rows, NORM_FIELDS), stdout)
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _seed_type(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"seed must be an integer, got {text!r}")
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError("seed must fit in an unsigned 64-bit word")
    return value


def _ratio_type(text: str) -> float:
    # accepts "0.25" and "1/4"
    try:
        if "/" in text:
            num, den = text.split("/", 1)
            return float(num) / float(den)
        return float(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"bad ratio {text!r}")


def _size_type(text: str) -> tuple[int, int]:
    try:
        d_text, m_text = text.split(":", 1)
        return int(d_text), int(m_text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad size {text!r}; expected d:m, e.g. 500:2500"
        )


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # route argparse failures through the usual exit-code-1 path
        raise UsageError(message)


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--seed", type=_seed_type, default=0,
                     help="base seed (u64); trials use seed XOR index")
    sub.add_argument("--out", type=str, default=None,
                     help="path stem for report files")
    sub.add_argument("--format", choices=("csv", "json"), default=None,
                     help="restrict output to one format")
    sub.add_argument("--threads", type=int, default=0,
                     help="worker threads; 0 = auto (results identical)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ellipsoidlab",
                     description="ellipsoid-fitting numerical laboratory")
    subs = parser.add_subparsers(dest="command", required=True)

    p_fit = subs.add_parser("fit", parents=[], help="one fit trial")
    p_fit.add_argument("--d", type=int, required=True)
    p_fit.add_argument("--m", type=int, required=True)
    _add_common(p_fit)
    p_fit.set_defaults(func=cmd_fit)

    p_sweep = subs.add_parser("sweep", help="feasibility-rate grid")
    p_sweep.add_argument("--d-list", type=int, nargs="*", default=None)
    p_sweep.add_argument("--ratios", type=_ratio_type, nargs="*", default=None)
    p_sweep.add_argument("--trials", type=int, default=50)
    _add_common(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_lem = subs.add_parser("verify-lemmas", help="statistical lemma suite")
    p_lem.add_argument("--trials", type=int, default=50)
    p_lem.add_argument("--sizes", type=_size_type, nargs="*", default=None,
                       help="d:m pairs, e.g. 500:2500 400:1600")
    p_lem.add_argument("--quick", action="store_true",
                       help="decomposition-level rows only")
    _add_common(p_lem)
    p_lem.set_defaults(func=cmd_verify_lemmas)

    p_blk = subs.add_parser("block-value", help="labeling table and total")
    p_blk.add_argument("--shape", type=str, required=True)
    p_blk.add_argument("--d", type=int, required=True)
    p_blk.add_argument("--m", type=int, default=None)
    p_blk.add_argument("--q", type=int, required=True)
    p_blk.add_argument("--dv", type=int, default=None)
    p_blk.add_argument("--verify", action="store_true",
                       help="run the Monte Carlo bound check")
    p_blk.add_argument("--trials", type=int, default=50)
    _add_common(p_blk)
    p_blk.set_defaults(func=cmd_block_value)

    p_mc = subs.add_parser("trace-mc", help="trace-moment Monte Carlo")
    p_mc.add_argument("--shape", type=str, required=True)
    p_mc.add_argument("--d", type=int, required=True)
    p_mc.add_argument("--m", type=int, default=None)
    p_mc.add_argument("--q", type=int, required=True)
    p_mc.add_argument("--trials", type=int, default=100)
    p_mc.add_argument("--dv", type=int, default=None)
    _add_common(p_mc)
    p_mc.set_defaults(func=cmd_trace_mc)

    p_norms = subs.add_parser("norms", help="realized norms vs bounds")
    p_norms.add_argument("--shape", type=str, default=None,
                         help="one shape; default all")
    p_norms.add_argument("--d", type=int, required=True)
    p_norms.add_argument("--m", type=int, default=None)
    p_norms.add_argument("--q", type=int, default=2)
    p_norms.add_argument("--trials", type=int, default=10)
    p_norms.add_argument("--dv", type=int, default=None)
    _add_common(p_norms)
    p_norms.set_defaults(func=cmd_norms)

    return parser


def main(argv: Sequence[str] | None = None, stdout=None) -> int:
    stdout = stdout if stdout is not None else sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        return args.func(args, stdout)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (graphmat.UnknownShapeError, graphmat.DimensionTooSmallError,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    except Exception as exc:  # internal failure contract: exit 2
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
