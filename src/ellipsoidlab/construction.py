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
place as the squared Gram minus B, factored once, and M^{-1} eta =
c1 A^{-1} eta + c2 A^{-1} 1 follows from the two solves against A by the
Woodbury identity. M itself is never factored. The factor is a float32
Cholesky factor whose solves are refined to float64 accuracy against the
float64 A; float64 pivoted LU is the fallback when that fails.

A is symmetric, and only its upper triangle is built and kept: dsyrk
writes one triangle of the Gram, the pass that squares it and subtracts B
covers that triangle, and spotrf, dsymv and eigvalsh read only it.
Everything else reads A through `Decomposition.apply_a`, `diag_a` and
`a_spectrum`; the full matrix is assembled only on access to
`Decomposition.A`.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.linalg as sla
from scipy.linalg import blas, lapack

from . import graphmat, spectral
from .graphmat import _BELOW, _BLOCK_ROWS, _mirror
from .sampling import SampleSet


class SingularMatrixError(RuntimeError):
    """A required linear solve failed or left a large residual."""


class DegenerateScalarsError(RuntimeError):
    """The Woodbury 2x2 correction is numerically singular (s^2 - ru ~ 0)."""


class IllConditionedWarning(UserWarning):
    """Condition estimate of a solve exceeded the 1e8 policy threshold."""


_COND_THRESHOLD = 1e8
_RESIDUAL_TOL = 1e-8
# LAPACK DSPOSV's cap on refinement steps before it falls back to float64
_MAX_REFINE = 30


def _columns(x: np.ndarray) -> np.ndarray:
    """The columns of a vector (one column) or of an m x k array, as views."""
    return x.reshape(len(x), -1).T


def _solve32(c: np.ndarray, b: np.ndarray) -> np.ndarray:
    """A^{-1} b in float64 from A's float32 Cholesky factor c (lower).

    Two strsv calls per column: spotrs goes through the blocked strsm,
    which is several times slower for one or two right-hand sides.
    """
    x = np.empty(b.shape)
    for b_col, x_col in zip(_columns(b), _columns(x)):
        y = blas.strsv(c, b_col.astype(np.float32), lower=1, overwrite_x=1)
        x_col[:] = blas.strsv(c, y, lower=1, trans=1, overwrite_x=1)
    return x


def _symv(a_upper: np.ndarray, x: np.ndarray, alpha: float = 1.0,
          y: np.ndarray | None = None) -> np.ndarray:
    """alpha A x (+ y) by dsymv, reading only A's upper triangle: half the
    memory traffic of a general product."""
    # a_upper.T is the Fortran-ordered view, whose lower triangle is A's
    # upper one, so f2py copies nothing
    if y is None:
        return blas.dsymv(alpha, a_upper.T, x, lower=1)
    return blas.dsymv(alpha, a_upper.T, x, beta=1.0, y=y, lower=1)


def _residual(a_upper: np.ndarray, x: np.ndarray, b: np.ndarray) -> np.ndarray:
    """b - A x in float64, column by column."""
    r = np.empty(b.shape)
    for x_col, b_col, r_col in zip(_columns(x), _columns(b), _columns(r)):
        r_col[:] = _symv(a_upper, x_col, -1.0, b_col)
    return r


def _refined_solve(a_upper: np.ndarray, c: np.ndarray, a_norm1: float, b: np.ndarray):
    """Solve A x = b with A's float32 Cholesky factor c, refined in float64.

    Each step adds the correction solved from the float64 residual b - A x.
    Refinement stops one step after LAPACK DSPOSV's rule ||b - A x||_inf <=
    sqrt(m) eps64 ||A||_1 ||x||_inf holds in every column: the rule bounds
    the backward error, but at cond(A) ~ 1e6 the iterate it accepts can be
    off by ~1e-11 relative, and the extra step brings that to the ~1e-13 of
    a float64 direct solve. Returns (x, b - A x, steps), or None when the
    rule is not met within _MAX_REFINE steps.
    """
    bound = np.sqrt(a_upper.shape[0]) * np.finfo(np.float64).eps * a_norm1
    x = _solve32(c, b)
    residual = _residual(a_upper, x, b)
    for steps in range(1, _MAX_REFINE + 1):
        met = np.all(np.abs(residual).max(axis=0) <= bound * np.abs(x).max(axis=0))
        x += _solve32(c, residual)
        residual = _residual(a_upper, x, b)
        if met:
            return x, residual, steps
    return None


def _build_a(v: np.ndarray, eta: np.ndarray):
    """A's upper triangle in float64, its float32 copy, and ||A||_1.

    One dsyrk writes the Gram's upper triangle; the other one is not read.
    Then one pass per block of _BLOCK_ROWS rows squares the block's entries
    on and right of the diagonal, subtracts B's, adds their absolute values
    to the row and column sums, and rounds them to float32, while the block
    is still in cache. A is symmetric, so its column j's absolute sum is
    that of the triangle's row j plus that of its column j, less |A_jj|.
    """
    m, d = v.shape
    # dsyrk(v.T, trans=1) = v v^T, in Fortran order with the lower triangle
    # written; its transpose is the C-ordered upper triangle. v.T is the
    # Fortran-ordered view of v, so f2py copies nothing
    a_upper = blas.dsyrk(1.0, v.T, trans=1, lower=1).T
    a32 = np.empty((m, m), dtype=np.float32)
    # the one block-sized temporary: B's entries, then |A|'s
    buf = np.empty((min(_BLOCK_ROWS, m), m))
    row_sums = np.empty(m)
    col_sums = np.zeros(m)
    for start in range(0, m, _BLOCK_ROWS):
        rows, cols = slice(start, start + _BLOCK_ROWS), slice(start, None)
        block = a_upper[rows, cols]
        height = len(block)
        scratch = buf[:height, : m - start]
        np.multiply(block, block, out=block)  # now M[i,j] = <v_i,v_j>^2
        block -= _b_block(eta, rows, cols, d, out=scratch)
        # the pass also covered the diagonal square's lower part; clear it
        block[:, :height][_BELOW[:height, :height]] = 0.0
        abs_block = np.abs(block, out=scratch)
        row_sums[rows] = abs_block.sum(axis=1)
        col_sums[cols] += abs_block.sum(axis=0)
        a32[rows, cols] = block
    a_norm1 = float((row_sums + col_sums - np.abs(np.diagonal(a_upper))).max())
    return a_upper, a32, a_norm1


def _factored_solver(v: np.ndarray, eta: np.ndarray, rhs: np.ndarray):
    """Build A, factor it once and solve A X = rhs.

    A is near-identity, so a float32 Cholesky factor is a good enough
    preconditioner for float64 iterative refinement to reach float64
    accuracy in two or three steps (LAPACK's DSPOSV scheme). If spotrf fails or
    refinement misses its stopping rule, the float32 factor is dropped and
    A is factored by float64 pivoted LU instead.

    Returns (A's upper triangle, ||A||_1, solve, cond_estimate, method,
    (x, rhs - A x, refinement steps)). solve(b) applies A^{-1} with the same
    factor; method is "mixed" or "lu". cond_estimate is 1/rcond from the
    LAPACK 1-norm estimator on the factor. The float32 copy of A is made
    here, so that nothing else holds it when the fallback releases it.
    """
    a_upper, a32, a_norm1 = _build_a(v, eta)
    # a32.T is the Fortran-ordered view, whose lower triangle is A's upper
    # one, so spotrf factors it in place instead of copying it again
    c, info = lapack.spotrf(a32.T, lower=1, overwrite_a=1, clean=0)
    first = None if info else _refined_solve(a_upper, c, a_norm1, rhs)
    if first is not None:
        rcond, _info = lapack.spocon(c, a_norm1, uplo="L")
        cond = float("inf") if rcond == 0 else 1.0 / float(rcond)

        def solve(b):
            out = _refined_solve(a_upper, c, a_norm1, b)
            if out is None:
                raise SingularMatrixError("iterative refinement against A did not converge")
            return out[0]

        return a_upper, a_norm1, solve, cond, "mixed", first
    del a32, c  # released before LU's float64 copy of A
    # LU reads the whole matrix; mirrored in place, the triangle stays valid
    a_mat = _mirror(a_upper)
    with warnings.catch_warnings():
        # a singular U shows up in the residual check instead
        warnings.simplefilter("ignore", sla.LinAlgWarning)
        lu, piv = sla.lu_factor(a_mat)
    rcond, _info = lapack.dgecon(lu, a_norm1, norm="1")
    cond = float("inf") if rcond == 0 else 1.0 / float(rcond)
    x = sla.lu_solve((lu, piv), rhs)
    return (a_mat, a_norm1, (lambda b: sla.lu_solve((lu, piv), b)), cond, "lu",
            (x, rhs - a_mat @ x, 0))


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


def _b_block(eta: np.ndarray, rows: slice, cols: slice, d: int,
             out: np.ndarray | None = None) -> np.ndarray:
    """A block of B = (1/d)(J + 1 eta^T + eta 1^T); exactly symmetric entries.

    Written into `out` when given, else into a new array.
    """
    out = np.add(eta[rows, None], eta[None, cols], out=out)
    out += 1.0
    out /= d
    return out


@dataclass
class Decomposition:
    """A's factorization, the diagonal parts, and the Woodbury scalars.

    A's upper triangle, kept in a float64 m x m array, plus a float32
    Cholesky factor of it (half an m x m array) are the only m x m arrays
    held; on the LU fallback the array holds all of A (mirrored in place)
    and the factor is a float64 LU. A is read through `apply_a` (dsymv on
    the triangle), `diag_a` and `a_spectrum` (eigvalsh on the triangle).
    Diagonal parts (md, md1, md2, md3) are length-m vectors holding the
    diagonals. A, M, Malpha, Mbeta and B are
    computed on each access and not cached: A by mirroring a copy of the
    triangle, M = A + B, Malpha and Mbeta through `graphmat.realize` on the
    sample, B from eta (it is rank 2).
    """

    d: int
    m: int
    sample: SampleSet = field(repr=False)
    eta: np.ndarray  # length m, |v_i|^2 - 1
    md: np.ndarray  # length m: diagonal of M_D
    md1: np.ndarray
    md2: np.ndarray
    md3: np.ndarray
    _a_upper: np.ndarray = field(repr=False)  # m x m, A's upper triangle
    r: float
    s: float
    u: float
    a_norm1: float  # ||A||_1
    cond_a: float  # 1-norm condition estimate of A
    solver: str  # "mixed" (float32 Cholesky, float64 refinement) or "lu"
    refine_steps: int  # refinement steps of the A X = [1, eta] solve (0 for LU)
    ainv_one: np.ndarray  # A^{-1} 1
    ainv_eta: np.ndarray  # A^{-1} eta
    _solve_a: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    _a_spectrum: spectral.SpectralReport | None = field(default=None, repr=False)

    @property
    def A(self) -> np.ndarray:
        """The full symmetric A, assembled on demand from the triangle."""
        return _mirror(self._a_upper.copy())

    @property
    def diag_a(self) -> np.ndarray:
        """A's diagonal, a read-only view of the stored triangle's."""
        return np.diagonal(self._a_upper)

    def apply_a(self, x: np.ndarray) -> np.ndarray:
        """A x for a length-m vector or an m x k array x, by dsymv on the
        stored triangle, column by column."""
        x = np.asarray(x, dtype=float)
        out = np.empty(x.shape)
        for x_col, out_col in zip(_columns(x), _columns(out)):
            out_col[:] = _symv(self._a_upper, x_col)
        return out

    @property
    def B(self) -> np.ndarray:
        """Rank-2 part (1/d)(J + 1 eta^T + eta 1^T), assembled on demand."""
        return _b_block(self.eta, slice(None), slice(None), self.d)

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
        """Solve A y = x using the cached factorization.

        On the mixed path the solve is refined to float64 accuracy and
        raises SingularMatrixError if refinement does not converge.
        """
        return self._solve_a(x)

    def apply_b(self, x: np.ndarray) -> np.ndarray:
        """B x in O(m), without forming B."""
        total = float(x.sum())
        return ((total + float(self.eta @ x)) + total * self.eta) / self.d

    @property
    def a_spectrum(self) -> spectral.SpectralReport:
        """Extreme eigenvalues of A, from one eigensolve (cached)."""
        if self._a_spectrum is None:
            # eigvalsh reads the lower triangle, and that of the stored
            # array's transpose is A's; A is symmetric by construction, so
            # neither a mirrored copy nor a symmetry check is needed
            eigs = np.linalg.eigvalsh(self._a_upper.T)
            self._a_spectrum = spectral.SpectralReport.from_eigenvalues(eigs)
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

    A's upper triangle comes from one product: the squared Gram's triangle,
    minus B's, row block by row block. It is factored once; the scalars
    come from the solves for A^{-1} 1 and A^{-1} eta, and failure of those
    solves raises SingularMatrixError (callers mark the trial degenerate).
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
    del v2, h2  # m x d, released before A's pass holds its block temporary

    rhs = np.column_stack([np.ones(m), eta])
    a_upper, a_norm1, solve_a, cond_a, solver, (x, residual, refine_steps) = (
        _factored_solver(v, eta, rhs)
    )
    _check_solution(x, residual, rhs, "A")
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
        _a_upper=a_upper,
        r=r,
        s=s,
        u=u,
        a_norm1=a_norm1,
        cond_a=cond_a,
        solver=solver,
        refine_steps=refine_steps,
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
    _check_solution(w, dec.apply_a(w) + dec.apply_b(w) - eta, eta, "M")
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
