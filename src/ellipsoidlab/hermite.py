"""Hermite polynomial evaluation, exact Gaussian moments, and edge-factor tables.

Everything here is exact or closed-form: moments are computed symbolically
with rational arithmetic (Fraction) so oracle tests can demand equality,
and the factor tables are the fixed per-label constants used by the
block-value calculus in graphmat.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Union

import numpy as np

ArrayLike = Union[float, np.ndarray]

#: labels a walk step can take: fresh, return, surprise, high-multiplicity
STEP_LABELS = ("F", "R", "S", "H")


def hermite_eval(t: int, x: ArrayLike) -> ArrayLike:
    """Probabilists' Hermite polynomial h_t(x).

    Recurrence: h_0 = 1, h_1 = x, h_{k+1}(x) = x h_k(x) - k h_{k-1}(x).
    Accepts scalars or arrays.
    """
    if t < 0:
        raise ValueError(f"Hermite index must be >= 0, got {t}")
    x = np.asarray(x, dtype=float)
    prev = np.ones_like(x)
    if t == 0:
        return prev if prev.ndim else float(prev)
    cur = x.copy()
    for k in range(1, t):
        prev, cur = cur, x * cur - k * prev
    return cur if cur.ndim else float(cur)


def hermite_scaled_eval(t: int, x: ArrayLike, d: int) -> ArrayLike:
    """Variance-1/d scaled Hermite value, orthogonal family under N(0, 1/d).

    Equals d^(-t/2) * h_t(x * sqrt(d)), evaluated as polynomials in x with
    coefficients in 1/d rather than by rescaling x, by multiplication only:
    numpy's float pow x**4 alone takes ~20x longer than the whole h4 below.
    E[h_t(x)^2] = t!/d^t under N(0,1/d).
    """
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    x = np.asarray(x, dtype=float)
    if t == 1:
        out = x
    elif t == 2:
        out = x * x - 1.0 / d
    elif t == 3:
        out = x * (x * x - 3.0 / d)
    elif t == 4:
        x2 = x * x
        out = x2 * (x2 - 6.0 / d) + 3.0 / d**2
    else:
        raise ValueError(f"scaled Hermite index must be in 1..4, got {t}")
    return out if out.ndim else float(out)


# Scaled polynomials as {degree: coefficient} with exact Fraction coefficients
# in 1/d; the moment engine multiplies these out and integrates monomials.
def _scaled_poly(t: int, d: int) -> dict[int, Fraction]:
    inv = Fraction(1, d)
    if t == 0:
        return {0: Fraction(1)}
    if t == 1:
        return {1: Fraction(1)}
    if t == 2:
        return {2: Fraction(1), 0: -inv}
    if t == 3:
        return {3: Fraction(1), 1: -3 * inv}
    if t == 4:
        return {4: Fraction(1), 2: -6 * inv, 0: 3 * inv * inv}
    raise ValueError(f"Hermite index must be in 0..4, got {t}")


def _poly_mul(p: dict[int, Fraction], q: dict[int, Fraction]) -> dict[int, Fraction]:
    out: dict[int, Fraction] = {}
    for da, ca in p.items():
        for db, cb in q.items():
            out[da + db] = out.get(da + db, Fraction(0)) + ca * cb
    return out


def _double_factorial(n: int) -> int:
    # (2k-1)!! for odd n; by convention (-1)!! = 1
    out = 1
    for j in range(n, 0, -2):
        out *= j
    return out


def _moment(powers: Mapping[int, int], d: int) -> Fraction:
    """Exact E_{x~N(0,1/d)}[prod_t h_t(x)^{a_t}], no degree cap."""
    poly = {0: Fraction(1)}
    for t, a in powers.items():
        if a < 0:
            raise ValueError(f"exponent must be >= 0, got {a} for index {t}")
        base = _scaled_poly(t, d)
        for _ in range(a):
            poly = _poly_mul(poly, base)
    total = Fraction(0)
    inv = Fraction(1, d)
    for deg, coeff in poly.items():
        if deg % 2:
            continue  # odd Gaussian moments vanish
        total += coeff * _double_factorial(deg - 1) * inv ** (deg // 2)
    return total


def hermite_moment(powers: Mapping[int, int], d: int) -> Fraction:
    """Exact mixed moment E_{x~N(0,1/d)}[prod_t h_t(x)^{a_t}] as a Fraction.

    `powers` maps Hermite index (0..4) to its exponent. The pattern may hold
    at most 12 factor copies in total; E[x^{2k}] = (2k-1)!!/d^k closes the sum.
    """
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if sum(powers.values()) > 12:
        raise ValueError(
            f"moment pattern holds {sum(powers.values())} factors, cap is 12"
        )
    return _moment(powers, d)


@dataclass(frozen=True)
class EdgeFactorTable:
    """Per-label, per-index analytic edge weights.

    The pure table covers h1/h2 edges; h3/h4 edges and mixed patterns use the
    flat per-copy values below. Each value dominates the exact Hermite moment
    of any multiplicity pattern a length-2q walk can place on the edge.
    """

    d: int
    q: int  # walk half-length
    dv: int  # block size cap (max vertices per block)

    def __post_init__(self):
        if self.d < 1 or self.q < 1 or self.dv < 1:
            raise ValueError(
                f"d, q, D_V must all be >= 1, got ({self.d}, {self.q}, {self.dv})"
            )

    def factor(self, t: int, label: str) -> float:
        """Weight for one copy of an index-t edge carrying the given step label."""
        if label not in STEP_LABELS:
            raise ValueError(f"label must be one of {STEP_LABELS}, got {label!r}")
        rd = self.d**0.5
        if t == 1:
            return 2 * self.q / rd if label == "H" else 1.0 / rd
        if t == 2:
            return 8 * self.q**2 / self.d if label == "H" else 2**0.5 / self.d
        if t in (3, 4):
            # h3/h4 copies take the flat mixed-scheme value whatever the label
            return self.high_order_copy
        raise ValueError(f"no factor for Hermite index {t}")

    @property
    def mixed_low_copy(self) -> float:
        """Per-copy value for an h1/h2 edge stepped F or R inside a mixed pattern."""
        return 2**0.25 / self.d**0.5

    @property
    def high_order_copy(self) -> float:
        """Per-copy value for H steps in mixed patterns and every h3/h4 copy."""
        return 32 * self.q * self.dv / self.d**0.5

    @property
    def h2_copy_in_h1h1h2(self) -> float:
        """Per-h2-copy value in the special h1,h1,h2 coincidence pattern."""
        return 2**0.5 / self.d**0.5


def edge_factor_table(d: int, q: int, dv: int) -> EdgeFactorTable:
    """Build the factor table for dimension d, walk half-length q, block cap D_V."""
    return EdgeFactorTable(d=d, q=q, dv=dv)
