"""Candidate construction: the Gram system, its structured decomposition,
the rank-2 Woodbury route to M^{-1} eta, and the assembled d x d pieces.

The m x m Gram matrix M[i,j] = <v_i, v_j>^2 splits as M = A + B where B has
rank 2 and A is a near-identity perturbation:

    A = Malpha + Mbeta + MD + (1 + 1/d) I,
    B = (1/d) (J + 1 eta^T + eta 1^T).

Malpha collects the off-diagonal coordinate-pair cross terms, Mbeta the
off-diagonal second-Hermite alignments, and MD is diagonal with the further
split MD = MD1 + MD2 + (2 + 2/d) MD3. The weight vector solving M w = eta
yields the candidate Lambda = I - sum_i w_i v_i v_i^T.

Each draw costs one m x m x d product and one factorization: A is built in
place as the squared Gram minus B, factored once (Cholesky, else LU), and
M^{-1} eta = c1 A^{-1} eta + c2 A^{-1} 1 follows from the two solves against
A by the Woodbury identity. M itself is never factored.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.linalg as sla
from scipy.linalg import lapack

from . import graphmat, spectral
from .sampling import SampleSet


class SingularMatrixError(RuntimeError):
    """A required linear solve failed or left a large residual."""


class DegenerateScalarsError(RuntimeError):
    """The Woodbury 2x2 correction is numerically singular (s^2 - ru ~ 0)."""


class IllConditionedWarning(UserWarning):
    """Condition estimate of a solve exceeded the 1e8 policy threshold."""


_COND_THRESHOLD = 1e8
_RESIDUAL_TOL = 1e-8
# rows of B subtracted per step while A is built, so no m x m temporary
_BLOCK_ROWS = 128


def _factored_solver(mat: np.ndarray, anorm: float):
    """Factor a symmetric matrix for repeated solves.

    Tries Cholesky first (the expected near-identity SPD case), falling back
    to pivoted LU. Returns (solve, cond_estimate, method). cond_estimate is
    1/rcond from the LAPACK 1-norm estimator on the factorization, given the
    1-norm anorm of mat.
    """
    try:
        c, lower = sla.cho_factor(mat)
    except np.linalg.LinAlgError:
        pass
    else:
        rcond, info = lapack.dpocon(c, anorm, uplo="L" if lower else "U")
        cond = float("inf") if rcond == 0 else 1.0 / float(rcond)
        return (lambda b: sla.cho_solve((c, lower), b)), cond, "cholesky"
    with warnings.catch_warnings():
        # a singular U shows up in the residual check instead
        warnings.simplefilter("ignore", sla.LinAlgWarning)
        lu, piv = sla.lu_factor(mat)
    rcond, info = lapack.dgecon(lu, anorm, norm="1")
    cond = float("inf") if rcond == 0 else 1.0 / float(rcond)
    return (lambda b: sla.lu_solve((lu, piv), b)), cond, "lu"


def _check_solution(x, residual, b, what: str) -> None:
    """Raise SingularMatrixError unless x is finite and each column of the
    residual is within 1e-8 max(1, |b|) of its right-hand side."""
    if not np.all(np.isfinite(x)):
        raise SingularMatrixError(f"solve against {what} produced non-finite values")
    rel = np.linalg.norm(residual, axis=0) / np.maximum(1.0, np.linalg.norm(b, axis=0))
    if np.max(rel) > _RESIDUAL_TOL:
        raise SingularMatrixError(
            f"solve against {what} left relative residual {np.max(rel):.3e}"
        )


def _b_rows(eta: np.ndarray, rows: slice, d: int) -> np.ndarray:
    """Rows of B = (1/d)(J + 1 eta^T + eta 1^T); exactly symmetric entries."""
    return (1.0 + (eta[rows, None] + eta[None, :])) / d


@dataclass
class Decomposition:
    """A's factorization, the diagonal parts, and the Woodbury scalars.

    A and its factor are the only m x m arrays held. Diagonal parts (md, md1, md2, md3) are
    length-m vectors holding the diagonals. M, Malpha, Mbeta and B are
    computed on each access and not cached: M = A + B, Malpha and Mbeta
    through `graphmat.realize` on the sample, B from eta (it is rank 2).
    """

    d: int
    m: int
    sample: SampleSet = field(repr=False)
    eta: np.ndarray  # length m, |v_i|^2 - 1
    md: np.ndarray  # length m: diagonal of M_D
    md1: np.ndarray
    md2: np.ndarray
    md3: np.ndarray
    A: np.ndarray  # m x m
    r: float
    s: float
    u: float
    a_norm1: float  # ||A||_1
    cond_a: float  # 1-norm condition estimate of A
    ainv_one: np.ndarray  # A^{-1} 1
    ainv_eta: np.ndarray  # A^{-1} eta
    _solve_a: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    _a_spectrum: spectral.SpectralReport | None = field(default=None, repr=False)

    @property
    def B(self) -> np.ndarray:
        """Rank-2 part (1/d)(J + 1 eta^T + eta 1^T), assembled on demand."""
        return _b_rows(self.eta, slice(None), self.d)

    @property
    def M(self) -> np.ndarray:
        """The squared Gram matrix <v_i, v_j>^2 as A + B, assembled on demand."""
        out = self.B
        out += self.A
        return out

    @property
    def malpha(self) -> np.ndarray:
        """Off-diagonal coordinate-pair part, realized on demand."""
        return graphmat.realize("malpha", self.sample)

    @property
    def mbeta(self) -> np.ndarray:
        """Off-diagonal second-Hermite part, realized on demand."""
        return graphmat.realize("mbeta", self.sample)

    def apply_ainv(self, x: np.ndarray) -> np.ndarray:
        """Solve A y = x using the cached factorization."""
        return self._solve_a(x)

    def apply_b(self, x: np.ndarray) -> np.ndarray:
        """B x in O(m), without forming B."""
        total = float(x.sum())
        return ((total + float(self.eta @ x)) + total * self.eta) / self.d

    @property
    def a_spectrum(self) -> spectral.SpectralReport:
        """Extreme eigenvalues of A, from one eigensolve (cached)."""
        if self._a_spectrum is None:
            self._a_spectrum = spectral.spectral_norm(self.A)
        return self._a_spectrum

    @property
    def t_norm_est(self) -> float:
        """||T|| for T = I - A: the larger of |1 - lambda| at A's spectrum ends."""
        rep = self.a_spectrum
        return max(abs(1.0 - rep.lambda_min), abs(1.0 - rep.lambda_max))


@dataclass(frozen=True)
class Candidate:
    """Weight vector and the candidate it induces."""

    w: np.ndarray
    Lambda: np.ndarray  # d x d, I - R
    R: np.ndarray  # d x d, sum_i w_i v_i v_i^T
    residual: float  # max_i |v_i^T Lambda v_i - 1|
    cond_m: float  # upper estimate of cond_1(M) (0 when w = 0 shortcut)


def decompose(sample: SampleSet) -> Decomposition:
    """Build A, the diagonal parts, and the scalars r, s, u.

    A comes from one product: the squared Gram, minus B row block by row
    block. It is factored once; the scalars come from the solves for
    A^{-1} 1 and A^{-1} eta, and failure of those solves raises
    SingularMatrixError (callers mark the trial degenerate).
    """
    v = sample.vectors
    m, d = v.shape
    v2 = v * v
    sq_norms = v2.sum(axis=1)
    eta = sq_norms - 1.0

    h2 = v2 - 1.0 / d
    md = sq_norms**2 - (2.0 / d) * sq_norms - 1.0
    md1 = eta**2 - np.einsum("ij,ij->i", h2, h2)
    md2 = np.einsum("ij,ij->i", v2, v2) - (6.0 / d) * sq_norms + 3.0 / d
    md3 = eta

    a_mat = v @ v.T
    np.multiply(a_mat, a_mat, out=a_mat)  # now M[i,j] = <v_i,v_j>^2
    a_norm1 = 0.0
    for start in range(0, m, _BLOCK_ROWS):
        rows = slice(start, start + _BLOCK_ROWS)
        a_mat[rows] -= _b_rows(eta, rows, d)
        # A is symmetric, so its largest absolute row sum is its 1-norm
        a_norm1 = max(a_norm1, float(np.abs(a_mat[rows]).sum(axis=1).max()))

    solve_a, cond_a, _ = _factored_solver(a_mat, a_norm1)
    rhs = np.column_stack([np.ones(m), eta])
    x = solve_a(rhs)
    _check_solution(x, a_mat @ x - rhs, rhs, "A")
    ainv_one = np.ascontiguousarray(x[:, 0])
    ainv_eta = np.ascontiguousarray(x[:, 1])
    r = float(ainv_one.sum() / d)
    s = 1.0 + float(eta @ ainv_one) / d
    u = -1.0 + float(eta @ ainv_eta) / d

    return Decomposition(
        d=d,
        m=m,
        sample=sample,
        eta=eta,
        md=md,
        md1=md1,
        md2=md2,
        md3=md3,
        A=a_mat,
        r=r,
        s=s,
        u=u,
        a_norm1=a_norm1,
        cond_a=cond_a,
        ainv_one=ainv_one,
        ainv_eta=ainv_eta,
        _solve_a=solve_a,
    )


def _candidate_from_w(sample: SampleSet, w: np.ndarray, cond_m: float) -> Candidate:
    v = sample.vectors
    r_mat = (v * w[:, None]).T @ v
    lam = -r_mat
    lam[np.diag_indices(sample.d)] += 1.0
    residual = float(np.max(np.abs(np.einsum("ij,ij->i", v @ lam, v) - 1.0)))
    return Candidate(w=w, Lambda=lam, R=r_mat, residual=residual, cond_m=cond_m)


def _cond_m_estimate(dec: Decomposition) -> float:
    """O(m) upper estimate of cond_1(M) from A's factorization.

    With B = U C U^T, U = [1, eta], Woodbury bounds
    ||M^{-1}||_1 <= ||A^{-1}||_1 + ||A^{-1}U||_1 ||K^{-1}||_1 ||U^T A^{-1}||_1,
    where the capacitance K = C^{-1} + U^T A^{-1} U = d [[r, s], [s, u]] and
    ||A^{-1}||_1 is the LAPACK estimate behind cond_a; ||M||_1 <= ||A||_1 +
    ||B||_1, bounding B's 1-norm by that of its three rank-1 terms.
    """
    d, eta = dec.d, dec.eta
    abs_eta = np.abs(eta)
    b_norm1 = (dec.m * (1.0 + float(abs_eta.max())) + float(abs_eta.sum())) / d
    abs_one, abs_eta_sol = np.abs(dec.ainv_one), np.abs(dec.ainv_eta)
    ainv_u = max(float(abs_one.sum()), float(abs_eta_sol.sum()))
    ut_ainv = float((abs_one + abs_eta_sol).max())
    kinv = max(abs(dec.u) + abs(dec.s), abs(dec.s) + abs(dec.r)) / (
        d * abs(dec.s**2 - dec.r * dec.u)
    )
    ainv_norm1 = dec.cond_a / dec.a_norm1
    return (dec.a_norm1 + b_norm1) * (ainv_norm1 + ainv_u * kinv * ut_ainv)


def solve_weights(dec: Decomposition, sample: SampleSet) -> Candidate:
    """Solve M w = eta by Woodbury on A's factorization and assemble
    Lambda = I - sum w_i v_i v_i^T.

    Factors nothing. Raises DegenerateScalarsError when s^2 - ru ~ 0 and
    SingularMatrixError when w is not finite or |M w - eta| exceeds
    1e-8 max(1, |eta|); M w is computed as A w + B w.
    """
    eta = dec.eta
    if not np.any(eta):
        # exact all-zero right-hand side: w = 0, Lambda = I
        return _candidate_from_w(sample, np.zeros(dec.m), 0.0)
    w = woodbury_inverse_eta(dec)
    cond_m = _cond_m_estimate(dec)
    if cond_m > _COND_THRESHOLD:
        warnings.warn(
            f"M condition estimate {cond_m:.3e} exceeds {_COND_THRESHOLD:.0e}",
            IllConditionedWarning,
        )
    _check_solution(w, dec.A @ w + dec.apply_b(w) - eta, eta, "M")
    return _candidate_from_w(sample, w, cond_m)


def _woodbury_coefficients(dec: Decomposition):
    denom = dec.s**2 - dec.r * dec.u
    if abs(denom) <= 1e-12 * max(1.0, abs(dec.r * dec.u)):
        raise DegenerateScalarsError(
            f"s^2 - ru = {denom:.3e} is numerically degenerate"
        )
    return (dec.r + dec.s) / denom, -(dec.u + dec.s) / denom


def woodbury_inverse_eta(dec: Decomposition) -> np.ndarray:
    """M^{-1} eta via the rank-2 update: c1 A^{-1} eta + c2 A^{-1} 1."""
    c1, c2 = _woodbury_coefficients(dec)
    return c1 * dec.ainv_eta + c2 * dec.ainv_one


def assemble_R_split(
    dec: Decomposition,
    sample: SampleSet,
    t0_apply: Callable[[np.ndarray], np.ndarray],
    candidate: Candidate | None = None,
):
    """Split R into the two truncated-inverse pieces plus the remainder.

    R1 uses weights c1 * T0(eta), R2 uses c2 * T0(1); the remainder is
    E_R = R - R1 - R2 with R from solve_weights. Pass a precomputed
    candidate to reuse its R.
    """
    c1, c2 = _woodbury_coefficients(dec)
    v = sample.vectors
    w1 = c1 * np.asarray(t0_apply(dec.eta.copy()))
    w2 = c2 * np.asarray(t0_apply(np.ones(dec.m)))
    r1 = (v * w1[:, None]).T @ v
    r2 = (v * w2[:, None]).T @ v
    if candidate is None:
        candidate = solve_weights(dec, sample)
    er = candidate.R - r1 - r2
    return r1, r2, er
