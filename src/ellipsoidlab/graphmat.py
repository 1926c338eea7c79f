"""Graph-matrix shapes, realization, the block-value bound calculus, and the
one trial loop that measures realized traces and norms against it.

A shape is a small template graph: square vertices range over point indices
[m], circles over coordinates [d], and each edge carries a Hermite index.
The realization sums products of scaled Hermite values over injective
per-type vertex labelings. The block-value function B_q bounds the expected
2q-trace by enumerating step-labelings {F,R,S,H} of the edges and charging
vertex, pur, and edge factors per the localized deduction rules.

A zero-diagonal vector shape (malpha, mbeta, sumvv) is built once, as the
lower triangle of one Fortran-ordered array that dsyrk writes. The trial
loop hands that array to an eigensolver that overwrites it instead of
copying it, so a trial holds one m x m array; `realize` mirrors the same
triangle in place.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import product as iter_product

import numpy as np
import scipy.linalg as sla
from scipy.linalg import blas

from . import sampling
from .hermite import EdgeFactorTable, edge_factor_table, hermite_scaled_eval
from .sampling import SampleSet


# rows per step of the passes over a stored triangle (here and in
# construction's A), so no m x m temporary; at m ~ 3000, 32 float64 rows and
# their temporary stay in a 2 MB L2 cache and ran faster than 128
_BLOCK_ROWS = 32
# the strictly lower part of a diagonal block, which a triangle leaves out
_BELOW = np.tri(_BLOCK_ROWS, k=-1, dtype=bool)
# LAPACK driver of the in-place eigensolves: at m = 800, single-threaded,
# evr took 40.8 ms and evd 42.1 ms (median of 45 solves each)
_EIG_DRIVER = "evr"


class UnknownShapeError(ValueError):
    """Shape name not in the catalog."""


class DimensionTooSmallError(ValueError):
    """Requested dimensions cannot index the realized matrix at all."""


SQUARE = "square"
CIRCLE = "circle"


@dataclass(frozen=True)
class Shape:
    """Template graph: vertices with types, boundary tuples, directed edges.

    Edges are listed in traversal order from the U boundary toward the V
    boundary; each is (src, dst, hermite_index).
    """

    name: str
    vertices: tuple[tuple[str, str], ...]
    u_boundary: tuple[str, ...]
    v_boundary: tuple[str, ...]
    edges: tuple[tuple[str, str, int], ...]

    def __post_init__(self):
        ids = {vid for vid, _ in self.vertices}
        if len(ids) != len(self.vertices):
            raise ValueError(f"duplicate vertex ids in shape {self.name}")
        for kind in (kind for _, kind in self.vertices):
            if kind not in (SQUARE, CIRCLE):
                raise ValueError(f"vertex type must be square or circle, got {kind}")
        if not self.u_boundary or not self.v_boundary:
            raise ValueError(f"shape {self.name} must have nonempty boundaries")
        for vid in self.u_boundary + self.v_boundary:
            if vid not in ids:
                raise ValueError(f"boundary vertex {vid} not in vertex list")
        for src, dst, t in self.edges:
            if src not in ids or dst not in ids:
                raise ValueError(f"edge ({src},{dst}) references unknown vertex")
            if not (0 <= t <= 4):
                raise ValueError(f"Hermite index must be in 0..4, got {t}")

    @property
    def kind_of(self) -> dict[str, str]:
        return dict(self.vertices)

    @property
    def is_diagonal(self) -> bool:
        return self.u_boundary == self.v_boundary

    @property
    def has_squares(self) -> bool:
        return any(kind == SQUARE for _, kind in self.vertices)


def _build_catalog() -> tuple[Shape, ...]:
    return (
        Shape(
            name="goe",
            vertices=(("a", CIRCLE), ("b", CIRCLE)),
            u_boundary=("a",),
            v_boundary=("b",),
            edges=(("a", "b", 1),),
        ),
        Shape(
            name="malpha",
            vertices=(("i", SQUARE), ("j", SQUARE), ("a", CIRCLE), ("b", CIRCLE)),
            u_boundary=("i",),
            v_boundary=("j",),
            edges=(("i", "a", 1), ("a", "j", 1), ("i", "b", 1), ("b", "j", 1)),
        ),
        Shape(
            name="mbeta",
            vertices=(("i", SQUARE), ("a", CIRCLE), ("j", SQUARE)),
            u_boundary=("i",),
            v_boundary=("j",),
            edges=(("i", "a", 2), ("a", "j", 2)),
        ),
        Shape(
            name="md1",
            vertices=(("i", SQUARE), ("a", CIRCLE), ("b", CIRCLE)),
            u_boundary=("i",),
            v_boundary=("i",),
            edges=(("i", "a", 2), ("i", "b", 2)),
        ),
        Shape(
            name="md2",
            vertices=(("i", SQUARE), ("a", CIRCLE)),
            u_boundary=("i",),
            v_boundary=("i",),
            edges=(("i", "a", 4),),
        ),
        Shape(
            name="md3",
            vertices=(("i", SQUARE), ("a", CIRCLE)),
            u_boundary=("i",),
            v_boundary=("i",),
            edges=(("i", "a", 2),),
        ),
        Shape(
            name="sumvv",
            vertices=(("a", CIRCLE), ("i", SQUARE), ("b", CIRCLE)),
            u_boundary=("a",),
            v_boundary=("b",),
            edges=(("a", "i", 1), ("i", "b", 1)),
        ),
    )


_CATALOG = _build_catalog()
_BY_NAME = {shape.name: shape for shape in _CATALOG}


def catalog() -> tuple[Shape, ...]:
    """The fixed shape catalog."""
    return _CATALOG


def get_shape(name: str) -> Shape:
    try:
        return _BY_NAME[name]
    except KeyError:
        known = ", ".join(sorted(_BY_NAME))
        raise UnknownShapeError(f"unknown shape {name!r}; catalog: {known}") from None


def default_block_cap() -> int:
    """Default D_V: twice the largest vertex count in the catalog."""
    return 2 * max(len(shape.vertices) for shape in _CATALOG)


def _as_shape(shape: Shape | str) -> Shape:
    if isinstance(shape, str):
        return get_shape(shape)
    if shape.name not in _BY_NAME or _BY_NAME[shape.name] != shape:
        raise UnknownShapeError(f"shape {shape.name!r} is not the catalog shape")
    return shape


def _goe(seed: int, d: int) -> np.ndarray:
    """The two-circle shape: a symmetric Gaussian matrix with entry variance
    1/d, keyed by a trial's seed. It reads no vector set."""
    return sampling.sample_goe(seed, d, 1.0 / d).entries


def _diagonal(name: str, v: np.ndarray, d: int) -> np.ndarray:
    """Diagonal of a diagonal shape (md1, md2, md3) as a length-m vector."""
    if name == "md1":
        h2 = hermite_scaled_eval(2, v, d)
        row = h2.sum(axis=1)
        return row * row - np.einsum("ij,ij->i", h2, h2)
    if name == "md2":
        return hermite_scaled_eval(4, v, d).sum(axis=1)
    if name == "md3":
        return hermite_scaled_eval(2, v, d).sum(axis=1)
    raise UnknownShapeError(f"no diagonal realization for shape {name!r}")


def _offdiagonal_lower(name: str, v: np.ndarray, d: int) -> np.ndarray:
    """Lower triangle of a zero-diagonal vector shape (malpha, mbeta, sumvv),
    in one Fortran-ordered array. dsyrk writes only that triangle; the
    strictly upper one is not written, and nothing reads it.

    v.T and h2.T are the Fortran-ordered views of C-ordered arrays, so f2py
    copies no operand.
    """
    if name == "malpha":
        # the squared Gram (v v^T)^2 in place, less the a = b terms
        # (v*v)(v*v)^T, which a second dsyrk subtracts into the same array:
        # one m x m array in all
        out = blas.dsyrk(1.0, v.T, trans=1, lower=1)
        out *= out
        vv = v * v
        blas.dsyrk(-1.0, vv.T, beta=1.0, c=out, trans=1, lower=1, overwrite_c=1)
    elif name == "mbeta":
        h2 = hermite_scaled_eval(2, v, d)
        out = blas.dsyrk(1.0, h2.T, trans=1, lower=1)
    elif name == "sumvv":
        out = blas.dsyrk(1.0, v.T, lower=1)
    else:
        raise UnknownShapeError(f"no realization for shape {name!r}")
    np.fill_diagonal(out, 0.0)
    return out


def _mirror(upper: np.ndarray) -> np.ndarray:
    """Copy the upper triangle onto the lower one in place and return the
    full symmetric matrix; block by block, so no n x n temporary."""
    for start in range(0, len(upper), _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, len(upper))
        upper[stop:, start:stop] = upper[start:stop, stop:].T
        square = upper[start:stop, start:stop]
        below = _BELOW[: stop - start, : stop - start]
        square[below] = square.T[below]
    return upper


def realize(shape: Shape | str, sample: SampleSet) -> np.ndarray:
    """Materialize the graph matrix for a shape from sampled data.

    Sums over injective per-type labelings. All catalog shapes admit a fast
    algebraic path; degenerate dimensions where no injective labeling exists
    come out as exact zero matrices (empty sums), never errors. A
    zero-diagonal vector shape is the trial loop's one triangle, mirrored in
    place, so the full matrix is its only m x m array.
    """
    shape = _as_shape(shape)
    v = sample.vectors
    m, d = v.shape
    if d < 1 or (shape.has_squares and m < 1):
        raise DimensionTooSmallError(
            f"shape {shape.name} needs d >= 1 and m >= 1, got (d={d}, m={m})"
        )
    if not shape.has_squares:
        return _goe(sample.seed, d)
    if shape.is_diagonal:
        return np.diag(_diagonal(shape.name, v, d))
    # the transpose of the Fortran-ordered lower triangle is a C-ordered
    # upper one
    return _mirror(_offdiagonal_lower(shape.name, v, d).T)


@dataclass(frozen=True)
class LabelingRow:
    """One admissible step-labeling and its charged factors."""

    labels: str  # one of F/R/S/H per edge, traversal order
    vertex_factor: float
    pur_factor: float
    edge_factor: float
    product: float


@dataclass(frozen=True)
class BlockValueBreakdown:
    shape_name: str
    d: int
    m: int
    q: int
    dv: int
    rows: tuple[LabelingRow, ...]
    total: float
    candidates: int  # 4^edges, before admissibility filtering

    def row_for(self, labels: str) -> LabelingRow:
        for row in self.rows:
            if row.labels == labels:
                return row
        raise KeyError(f"no admissible labeling {labels!r}")


def _admissible(shape: Shape, labels: tuple[str, ...]) -> bool:
    # A fresh step opens a brand-new vertex; within the block that vertex
    # cannot also be entered by a return/surprise or touched by a
    # high-multiplicity step under another identity (the F-then-R exclusion,
    # generalized). Multiple F arrivals at one vertex stay admissible.
    for vid, _ in shape.vertices:
        f_target = False
        rh_incident = False
        s_target = False
        for (src, dst, _t), lab in zip(shape.edges, labels):
            if dst == vid and lab == "F":
                f_target = True
            if lab in ("R", "H") and vid in (src, dst):
                rh_incident = True
            if dst == vid and lab == "S":
                s_target = True
        if f_target and (rh_incident or s_target):
            return False
    return True


def _vertex_factor(shape: Shape, labels: tuple[str, ...], d: int, m: int) -> float:
    factor = 1.0
    for vid, kind in shape.vertices:
        weight = float(m if kind == SQUARE else d)
        can_first = vid not in shape.u_boundary and not any(
            dst == vid and lab in ("S", "R", "H")
            for (_s, dst, _t), lab in zip(shape.edges, labels)
        )
        can_last = vid not in shape.v_boundary and not any(
            vid in (src, dst) and lab in ("F", "S", "H")
            for (src, dst, _t), lab in zip(shape.edges, labels)
        )
        factor *= weight ** (0.5 * (can_first + can_last))
    return factor


def _pur_factor(
    shape: Shape, labels: tuple[str, ...], q: int, dv: int
) -> float:
    kind_of = shape.kind_of
    exponent = 0
    r_count = 0
    r_touches_square = False
    for (src, dst, _t), lab in zip(shape.edges, labels):
        if lab == "S":
            exponent += 2
        elif lab == "H":
            exponent += 2 if kind_of[dst] == SQUARE else 1
        elif lab == "R":
            r_count += 1
            if SQUARE in (kind_of[src], kind_of[dst]):
                r_touches_square = True
    base = float(2 * q * dv) ** exponent
    # unforced-return surcharge: only labelings with several returns where a
    # square is involved pay the factor 2 (a lone return is forced)
    if r_count >= 2 and r_touches_square:
        base *= 2.0
    return base


def block_value(
    shape: Shape | str,
    d: int,
    m: int,
    q: int,
    dv: int | None = None,
) -> BlockValueBreakdown:
    """Enumerate step-labelings and total the block-value bound B_q.

    Walks all 4^edges label assignments in traversal order, drops the
    inadmissible ones, and charges vertexFactor * purFactor * edgeFactor
    per survivor. Deterministic row order (lexicographic in F,R,S,H).
    """
    shape = _as_shape(shape)
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    if shape.has_squares and m < 1:
        raise ValueError(f"shape {shape.name} needs m >= 1, got {m}")
    if dv is None:
        dv = default_block_cap()
    table = edge_factor_table(d, q, dv)
    rows = []
    total = 0.0
    for labels in iter_product("FRSH", repeat=len(shape.edges)):
        if not _admissible(shape, labels):
            continue
        vf = _vertex_factor(shape, labels, d, m)
        pf = _pur_factor(shape, labels, q, dv)
        ef = 1.0
        for (_s, _d2, t), lab in zip(shape.edges, labels):
            ef *= table.factor(t, lab)
        prod = vf * pf * ef
        rows.append(LabelingRow("".join(labels), vf, pf, ef, prod))
        total += prod
    return BlockValueBreakdown(
        shape_name=shape.name,
        d=d,
        m=m,
        q=q,
        dv=dv,
        rows=tuple(rows),
        total=total,
        candidates=4 ** len(shape.edges),
    )


def _matrix_dimension(shape: Shape, d: int, m: int) -> int:
    kind = shape.kind_of[shape.u_boundary[0]]
    return m if kind == SQUARE else d


def _trace_and_norm(
    shape: Shape, key: int, v: np.ndarray | None, d: int, q: int
) -> tuple[float, float]:
    """tr((M M^T)^q) and spectral norm of one trial's matrix: a diagonal
    shape as its vector, every other shape by one dense eigensolve on the
    one array that holds it, which LAPACK overwrites instead of copying."""
    if shape.is_diagonal:
        diag = _diagonal(shape.name, v, d)
        return float(np.sum(diag ** (2 * q))), float(np.max(np.abs(diag)))
    # goe's entries are symmetric and C-ordered; their transpose is the
    # Fortran-ordered view of the same matrix
    lower = _offdiagonal_lower(shape.name, v, d) if shape.has_squares else _goe(key, d).T
    eigs = sla.eigvalsh(lower, lower=True, overwrite_a=True, check_finite=False,
                        driver=_EIG_DRIVER)
    return float(np.sum(eigs ** (2 * q))), float(np.max(np.abs(eigs)))


def _trial_measures(
    shapes: Sequence[Shape], d: int, m: int, q: int, trials: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """The trial loop: tr((M M^T)^q) and ||M|| of each shape on each trial.

    Trial t is keyed by trial_seed(seed, t) and drawn once for all shapes:
    the vector set sample_vectors(key, d, max(m, 1)) only if some shape has
    square vertices, the goe matrix from the key alone. Each shape's matrix
    is one array, eigensolved in place, and dropped before the next shape
    is built. Returns two len(shapes) x trials arrays, traces and norms.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    traces = np.empty((len(shapes), trials))
    norms = np.empty((len(shapes), trials))
    reads_vectors = any(shape.has_squares for shape in shapes)
    for t in range(trials):
        key = sampling.trial_seed(seed, t)
        v = sampling.sample_vectors(key, d, max(m, 1)).vectors if reads_vectors else None
        for k, shape in enumerate(shapes):
            traces[k, t], norms[k, t] = _trace_and_norm(shape, key, v, d, q)
    return traces, norms


@dataclass(frozen=True)
class BlockBoundReport:
    """verify_block_bound outcome: one row per check."""

    shape_name: str
    d: int
    m: int
    q: int
    dv: int
    trials: int
    dimension: int
    block_total: float
    mc_mean: float
    mc_stderr: float
    trace_bound: float  # dimension * B^{2q}
    trace_pass: bool
    max_norm: float
    norm_bound: float  # 1.2 * B
    norm_pass: bool

    @property
    def passed(self) -> bool:
        return self.trace_pass and self.norm_pass

    def rows(self) -> list[tuple[str, bool, float, float]]:
        return [
            ("trace", self.trace_pass, self.mc_mean, self.trace_bound),
            ("norm", self.norm_pass, self.max_norm, self.norm_bound),
        ]


def verify_block_bound(
    shape: Shape | str,
    d: int,
    m: int,
    q: int,
    trials: int,
    seed: int,
    dv: int | None = None,
) -> BlockBoundReport:
    """Check the block-value bound against Monte Carlo evidence.

    (a) mean tr((MM^T)^q) <= dimension * B^{2q} within 3 standard errors;
    (b) every realized spectral norm <= 1.2 * B.
    """
    shape = _as_shape(shape)
    dim = _matrix_dimension(shape, d, m)
    if dim > 2000:
        raise ValueError(f"matrix dimension {dim} exceeds the dense guard (2000)")
    breakdown = block_value(shape, d, m, q, dv)
    (traces,), (norms,) = _trial_measures((shape,), d, m, q, trials, seed)
    max_norm = float(norms.max())
    mean = float(traces.mean())
    stderr = float(traces.std(ddof=1) / trials**0.5) if trials > 1 else 0.0
    trace_bound = dim * breakdown.total ** (2 * q)
    norm_bound = 1.2 * breakdown.total
    return BlockBoundReport(
        shape_name=shape.name,
        d=d,
        m=m,
        q=q,
        dv=breakdown.dv,
        trials=trials,
        dimension=dim,
        block_total=breakdown.total,
        mc_mean=mean,
        mc_stderr=stderr,
        trace_bound=trace_bound,
        trace_pass=mean <= trace_bound + 3 * stderr,
        max_norm=max_norm,
        norm_bound=norm_bound,
        norm_pass=max_norm <= norm_bound,
    )
