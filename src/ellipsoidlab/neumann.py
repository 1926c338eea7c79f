"""Truncated Neumann series for A^{-1} and truncation-error measurement.

With T = -(Malpha + Mbeta + MD + (1/d) I) we have A = I - T, so whenever
||T|| < 1 the inverse expands as A^{-1} = sum_k T^k. Full-scale experiments
use plain degree-K partial sums applied by Horner recursion; the per-matrix
occurrence-capped sum over ordered products is kept only as an exact
small-scale oracle (truncated_T0_exact).
"""
from __future__ import annotations

import math

import numpy as np

from .construction import Decomposition


class DivergentSeriesError(RuntimeError):
    """||T|| reached 1; the series cannot converge."""


class SizeLimitError(RuntimeError):
    """Exact-oracle enumeration requested beyond its m/degree guard rails."""


#: per-matrix occurrence caps (Malpha, Mbeta, MD, (1/d)I) in oracle mode
DEFAULT_CAPS = (3, 3, 3, 1)

_ORACLE_MAX_M = 64
_ORACLE_MAX_DEG = 6


def default_depth(d: int) -> int:
    """Default truncation degree: ceil(log2 d) + 4."""
    return math.ceil(math.log2(max(2, d))) + 4


def _check_convergent(dec: Decomposition) -> None:
    if dec.t_norm_est >= 1.0:
        raise DivergentSeriesError(
            f"||T|| = {dec.t_norm_est:.4f} >= 1: Neumann series diverges"
        )


def neumann_apply(dec: Decomposition, x: np.ndarray, k: int) -> np.ndarray:
    """Apply the degree-k partial sum sum_{j<=k} T^j to x by Horner recursion.

    Each step costs one A matvec: T y = y - A y. Never forms any power of T.
    """
    if k < 0:
        raise ValueError(f"truncation degree must be >= 0, got {k}")
    _check_convergent(dec)
    x = np.asarray(x, dtype=float)
    y = x.copy()
    for _ in range(k):
        y = x + (y - dec.A @ y)
    return y


def truncated_T0_exact(
    dec: Decomposition,
    caps: tuple[int, int, int, int] = DEFAULT_CAPS,
    maxdeg: int = 4,
) -> np.ndarray:
    """Exact capped truncation: sum over ordered products of the four parts.

    Enumerates every sequence (Q_1..Q_k), k <= maxdeg, drawn from
    {Malpha, Mbeta, MD, (1/d)I} with at most caps[i] occurrences of part i,
    and sums (-1)^k Q_1 ... Q_k. Exponential in maxdeg; guarded to m <= 64,
    maxdeg <= 6.
    """
    if dec.m > _ORACLE_MAX_M or maxdeg > _ORACLE_MAX_DEG:
        raise SizeLimitError(
            f"oracle mode limited to m <= {_ORACLE_MAX_M}, maxdeg <= {_ORACLE_MAX_DEG}"
            f" (got m={dec.m}, maxdeg={maxdeg})"
        )
    if len(caps) != 4 or min(caps) < 0:
        raise ValueError(f"caps must be four nonnegative integers, got {caps}")
    if maxdeg < 0:
        raise ValueError(f"maxdeg must be >= 0, got {maxdeg}")
    parts = (
        dec.malpha,
        dec.mbeta,
        np.diag(dec.md),
        np.eye(dec.m) / dec.d,
    )
    total = np.eye(dec.m)  # the empty product

    def extend(prefix: np.ndarray, depth: int, used: list[int]) -> None:
        nonlocal total
        if depth == maxdeg:
            return
        for i, part in enumerate(parts):
            if used[i] == caps[i]:
                continue
            product = prefix @ part
            total += (-1.0) ** (depth + 1) * product
            used[i] += 1
            extend(product, depth + 1, used)
            used[i] -= 1

    extend(np.eye(dec.m), 0, [0, 0, 0, 0])
    return total


def truncation_error(dec: Decomposition, k: int) -> float:
    """Spectral norm of A^{-1} minus the degree-k partial sum, in closed form.

    On an eigenvalue lam of A the difference has eigenvalue (1 - lam)^{k+1} /
    lam. While ||T|| < 1 every lam lies in (0, 2), where that modulus falls
    on (0, 1] and rises on [1, 2), so the norm is attained at lambda_min or
    lambda_max of A.
    """
    if k < 0:
        raise ValueError(f"truncation degree must be >= 0, got {k}")
    _check_convergent(dec)
    rep = dec.a_spectrum
    return max(
        abs(1.0 - lam) ** (k + 1) / lam for lam in (rep.lambda_min, rep.lambda_max)
    )
