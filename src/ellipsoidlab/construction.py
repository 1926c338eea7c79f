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
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.linalg as sla
from scipy.linalg import lapack

from .sampling import SampleSet
from . import spectral


class SingularMatrixError(RuntimeError):
    """A required linear solve failed or left a large residual."""


class DegenerateScalarsError(RuntimeError):
    """The Woodbury 2x2 correction is numerically singular (s^2 - ru ~ 0)."""


class IllConditionedWarning(UserWarning):
    """Condition estimate of a solve exceeded the 1e8 policy threshold."""


_COND_THRESHOLD = 1e8
_RESIDUAL_TOL = 1e-8


def _factored_solver(mat: np.ndarray):
    """Factor a symmetric matrix for repeated solves.

    Tries Cholesky first (the expected near-identity SPD case), falling back
    to pivoted LU. Returns (solve, cond_estimate, method). cond_estimate is
    1/rcond from the LAPACK 1-norm estimator on the factorization.
    """
    anorm = float(np.linalg.norm(mat, 1))
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


def _checked_solve(solve, mat, b, what: str) -> np.ndarray:
    x = solve(b)
    b_norm = float(np.linalg.norm(b))
    if not np.all(np.isfinite(x)):
        raise SingularMatrixError(f"solve against {what} produced non-finite values")
    residual = float(np.linalg.norm(mat @ x - b))
    if residual > _RESIDUAL_TOL * max(1.0, b_norm):
        raise SingularMatrixError(
            f"solve against {what} left relative residual {residual / max(1.0, b_norm):.3e}"
        )
    return x


@dataclass
class Decomposition:
    """All structured pieces of M plus the Woodbury scalars.

    Diagonal parts (md, md1, md2, md3) are stored as length-m vectors holding
    the diagonals. B is assembled on access from eta (it is rank 2, storing it
    dense would only burn memory at large m).
    """

    d: int
    m: int
    M: np.ndarray  # m x m, <v_i,v_j>^2
    eta: np.ndarray  # length m, |v_i|^2 - 1
    malpha: np.ndarray  # m x m, zero diagonal
    mbeta: np.ndarray  # m x m, zero diagonal
    md: np.ndarray  # length m: diagonal of M_D
    md1: np.ndarray
    md2: np.ndarray
    md3: np.ndarray
    A: np.ndarray  # m x m
    r: float
    s: float
    u: float
    cond_a: float
    ainv_one: np.ndarray  # A^{-1} 1
    ainv_eta: np.ndarray  # A^{-1} eta
    _solve_a: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    _a_spectrum: spectral.SpectralReport | None = field(default=None, repr=False)

    @property
    def B(self) -> np.ndarray:
        """Rank-2 part (1/d)(J + 1 eta^T + eta 1^T), assembled on demand."""
        return (1.0 + self.eta[:, None] + self.eta[None, :]) / self.d

    def apply_ainv(self, x: np.ndarray) -> np.ndarray:
        """Solve A y = x using the cached factorization."""
        return self._solve_a(x)

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
    cond_m: float  # condition estimate of the M solve (0 when w = 0 shortcut)


def build_gram(sample: SampleSet):
    """Return (M, eta): M[i,j] = <v_i, v_j>^2 and eta_i = |v_i|^2 - 1."""
    v = sample.vectors
    p = v @ v.T
    m_mat = p * p
    eta = np.einsum("ij,ij->i", v, v) - 1.0
    return m_mat, eta


def decompose(sample: SampleSet) -> Decomposition:
    """Build the full decomposition and the scalars r, s, u.

    Fast paths: Mbeta via one product of the entrywise-h2 matrix, Malpha as
    offdiag(M) minus offdiag of the entrywise-squares Gram. The scalars come
    from two solves against A; failure of those solves raises
    SingularMatrixError (callers mark the trial degenerate).
    """
    v = sample.vectors
    m, d = v.shape
    v2 = v * v
    sq_norms = v2.sum(axis=1)
    eta = sq_norms - 1.0

    gram = v @ v.T
    np.multiply(gram, gram, out=gram)  # now <v_i,v_j>^2
    m_mat = gram

    w_mat = v2 @ v2.T  # W[i,j] = sum_a v_i[a]^2 v_j[a]^2
    malpha = m_mat - w_mat
    np.fill_diagonal(malpha, 0.0)
    del w_mat

    h2 = v2 - 1.0 / d
    h2_diag = np.einsum("ij,ij->i", h2, h2)  # sum_a h2(v_i[a])^2
    mbeta = h2 @ h2.T
    np.fill_diagonal(mbeta, 0.0)

    md = sq_norms**2 - (2.0 / d) * sq_norms - 1.0
    md1 = eta**2 - h2_diag
    md2 = np.einsum("ij,ij->i", v2, v2) - (6.0 / d) * sq_norms + 3.0 / d
    md3 = eta

    a_mat = malpha + mbeta
    idx = np.arange(m)
    a_mat[idx, idx] = md + 1.0 + 1.0 / d

    solve_a, cond_a, _ = _factored_solver(a_mat)
    ones = np.ones(m)
    ainv_one = _checked_solve(solve_a, a_mat, ones, "A")
    ainv_eta = _checked_solve(solve_a, a_mat, eta, "A")
    r = float(ainv_one.sum() / d)
    s = 1.0 + float(eta @ ainv_one) / d
    u = -1.0 + float(eta @ ainv_eta) / d

    return Decomposition(
        d=d,
        m=m,
        M=m_mat,
        eta=eta,
        malpha=malpha,
        mbeta=mbeta,
        md=md,
        md1=md1,
        md2=md2,
        md3=md3,
        A=a_mat,
        r=r,
        s=s,
        u=u,
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


def solve_weights(dec: Decomposition, sample: SampleSet) -> Candidate:
    """Solve M w = eta directly and assemble Lambda = I - sum w_i v_i v_i^T."""
    eta = dec.eta
    if not np.any(eta):
        # exact all-zero right-hand side: w = 0, Lambda = I
        return _candidate_from_w(sample, np.zeros(dec.m), 0.0)
    solve_m, cond_m, _ = _factored_solver(dec.M)
    if cond_m > _COND_THRESHOLD:
        warnings.warn(
            f"M condition estimate {cond_m:.3e} exceeds {_COND_THRESHOLD:.0e}",
            IllConditionedWarning,
        )
    w = _checked_solve(solve_m, dec.M, eta, "M")
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
    E_R = R - R1 - R2 with R from the exact M solve. Pass a precomputed
    candidate to skip refactoring M.
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
