"""Dense reference computations the benchmark checks each item against.

Every quantity is recomputed from the sampled points with plain numpy and
scipy: squared Gram matrices built entrywise, direct solves (Cholesky for
the positive definite M, LU for A), and for the block-bound matrices
Frobenius-norm traces and Cholesky certificates of the norm. None of it
calls the program's construction or graphmat code; only the input points
come from the program's own `sampling` module, because choosing inputs is
its job.

Floats from direct solves on both sides compare within DIRECT_RTOL;
verdicts (trace/norm pass) and counts compare exactly.
"""
from __future__ import annotations

import math

import numpy as np
import scipy.linalg as sla

DIRECT_RTOL = 1e-8
#: exact-fit certificate: max_i |v_i^T Lambda v_i - 1|
RESIDUAL_MAX = 1e-8


def close(a, b, rtol: float) -> bool:
    """Relative comparison that treats None/nan on both sides as equal."""
    if a is None or b is None:
        return a is None and b is None
    a, b = float(a), float(b)
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


def squared_gram(v: np.ndarray) -> np.ndarray:
    g = v @ v.T
    return g * g


def offdiag(mat: np.ndarray) -> np.ndarray:
    out = mat.copy()
    np.fill_diagonal(out, 0.0)
    return out


def weighted_outer(v: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum_i w_i v_i v_i^T."""
    return v.T @ (w[:, None] * v)


def construct(v: np.ndarray) -> dict:
    """Direct solves of M w = eta and of A x = (1, eta), and what they give.

    A = M - (1/d)(J + 1 eta^T + eta 1^T) directly (not from its parts); the
    scalars r, s, u come from the two solves against A.
    """
    m, d = v.shape
    eta = np.einsum("ij,ij->i", v, v) - 1.0
    gram_sq = squared_gram(v)
    w = sla.solve(gram_sq, eta, assume_a="pos")
    a_mat = gram_sq - (1.0 + eta[:, None] + eta[None, :]) / d
    x_one, x_eta = sla.solve(a_mat, np.column_stack([np.ones(m), eta])).T
    return {
        "R": weighted_outer(v, w),
        "r": float(x_one.sum()) / d,
        "s": 1.0 + float(eta @ x_one) / d,
        "u": -1.0 + float(eta @ x_eta) / d,
    }


def hermite4(x: np.ndarray, d: int) -> np.ndarray:
    return x**4 - 6.0 * x * x / d + 3.0 / d**2


def shape_matrix(name: str, v: np.ndarray, goe: np.ndarray) -> np.ndarray:
    """Graph matrix of a catalog shape, written from the shape's edge sums.

    Diagonal shapes come back as their diagonal (a vector).
    """
    m, d = v.shape
    v2 = v * v
    h2 = v2 - 1.0 / d
    if name == "goe":
        return goe
    if name == "malpha":  # sum_{a != b} v_ia v_ib v_ja v_jb, i != j
        return offdiag(squared_gram(v) - v2 @ v2.T)
    if name == "mbeta":
        return offdiag(h2 @ h2.T)
    if name == "md1":  # sum_{a != b} h2(v_ia) h2(v_ib)
        return h2.sum(axis=1) ** 2 - (h2 * h2).sum(axis=1)
    if name == "md2":
        return hermite4(v, d).sum(axis=1)
    if name == "md3":
        return h2.sum(axis=1)
    if name == "sumvv":
        return offdiag(v.T @ v)
    raise KeyError(name)


def trace_power(mat: np.ndarray, q: int) -> float:
    """tr((M M^T)^q) = ||M^q||_F^2 for a symmetric matrix or a diagonal vector."""
    if mat.ndim == 1:
        return float(np.sum(mat ** (2 * q)))
    power = np.linalg.matrix_power(mat, q)
    return float(np.sum(power * power))


def _positive_definite(mat: np.ndarray) -> bool:
    try:
        np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        return False
    return True


def certifies_max_norm(mats, norm: float, rtol: float) -> bool:
    """True iff max_k ||M_k|| lies within rtol of norm.

    For symmetric M, ||M|| < c exactly when c I - M and c I + M are positive
    definite, so Cholesky factorizations at c = norm (1 +- rtol) bracket the
    largest norm without an eigensolve.
    """
    def below(mat, c):
        if mat.ndim == 1:
            return float(np.max(np.abs(mat))) < c
        eye = c * np.eye(mat.shape[0])
        return _positive_definite(eye - mat) and _positive_definite(eye + mat)

    return (all(below(mat, norm * (1 + rtol)) for mat in mats)
            and not all(below(mat, norm * (1 - rtol)) for mat in mats))
