"""Hermite values, exact moments, and edge-factor domination checks."""
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ellipsoidlab import hermite


def _explicit(t: int, x: np.ndarray) -> np.ndarray:
    if t == 0:
        return np.ones_like(x)
    if t == 1:
        return x
    if t == 2:
        return x * x - 1
    if t == 3:
        return x**3 - 3 * x
    return x**4 - 6 * x**2 + 3


def test_eval_matches_explicit_polynomials():
    x = np.linspace(-3, 3, 41)
    for t in range(5):
        assert np.allclose(hermite.hermite_eval(t, x), _explicit(t, x),
                           atol=1e-12)


def test_eval_scalar_returns_float():
    out = hermite.hermite_eval(3, 2.0)
    assert isinstance(out, float)
    assert out == 2.0


def test_eval_negative_index_raises():
    with pytest.raises(ValueError):
        hermite.hermite_eval(-1, 0.0)


@given(st.integers(0, 8), st.floats(-5, 5))
def test_eval_parity(t, x):
    left = hermite.hermite_eval(t, -x)
    right = (-1) ** t * hermite.hermite_eval(t, x)
    assert left == pytest.approx(right, rel=1e-9, abs=1e-9)


def test_scaled_matches_rescaled_monic():
    # the variance-1/d family is d^{-t/2} h_t(x sqrt(d))
    rng = np.random.default_rng(0)
    x = rng.standard_normal(100) / 4
    for d in (1, 3, 50):
        for t in (1, 2, 3, 4):
            expect = hermite.hermite_eval(t, x * math.sqrt(d)) / d ** (t / 2)
            got = hermite.hermite_scaled_eval(t, x, d)
            assert np.allclose(got, expect, rtol=1e-10, atol=1e-14)


def _exact_scaled(t: int, x: Fraction, d: int) -> Fraction:
    inv = Fraction(1, d)
    return (x, x * x - inv, x**3 - 3 * inv * x,
            x**4 - 6 * inv * x * x + 3 * inv * inv)[t - 1]


def test_scaled_matches_exact_rational_values():
    # points x sqrt(d) at least 0.2 from every root of He_1..He_4, where
    # cancellation stays mild
    points = (-3.7, -2.9, -1.3, -0.45, 0.3, 1.2, 2.6, 4.1)
    for d in (1, 7, 200):
        for t in (1, 2, 3, 4):
            for z in points:
                x = z / math.sqrt(d)
                want = float(_exact_scaled(t, Fraction(x), d))
                got = hermite.hermite_scaled_eval(t, x, d)
                assert abs(got - want) <= 1e-13 * abs(want), (d, t, z, got, want)


def test_scaled_scalar_and_validation():
    assert isinstance(hermite.hermite_scaled_eval(2, 0.5, 4), float)
    with pytest.raises(ValueError):
        hermite.hermite_scaled_eval(0, 0.5, 4)
    with pytest.raises(ValueError):
        hermite.hermite_scaled_eval(5, 0.5, 4)
    with pytest.raises(ValueError):
        hermite.hermite_scaled_eval(2, 0.5, 0)


def test_moment_orthogonality_exact():
    for d in (1, 2, 7, 100):
        for t in range(5):
            assert hermite.hermite_moment({t: 2}, d) == Fraction(
                math.factorial(t), d**t)
            for u in range(t):
                assert hermite.hermite_moment({t: 1, u: 1}, d) == 0


def test_moment_mixed_coincidence_exact():
    for d in (1, 2, 7, 100):
        assert hermite.hermite_moment({1: 2, 2: 1}, d) == Fraction(2, d * d)


def test_moment_quadrature_oracle():
    # independent numerical check via Gauss-Hermite-e quadrature
    nodes, weights = np.polynomial.hermite_e.hermegauss(40)
    weights = weights / weights.sum()
    patterns = ({1: 2, 2: 2}, {2: 3}, {1: 1, 3: 1, 4: 1}, {4: 2, 2: 1},
                {1: 4})
    for d in (2, 5):
        x = nodes / math.sqrt(d)
        for powers in patterns:
            vals = np.ones_like(x)
            for t, a in powers.items():
                vals = vals * np.asarray(
                    hermite.hermite_scaled_eval(t, x, d)) ** a
            numeric = float(weights @ vals)
            exact = float(hermite.hermite_moment(powers, d))
            assert numeric == pytest.approx(exact, rel=1e-10, abs=1e-13)


def test_moment_validation():
    with pytest.raises(ValueError):
        hermite.hermite_moment({1: 13}, 4)
    with pytest.raises(ValueError):
        hermite.hermite_moment({5: 1}, 4)
    with pytest.raises(ValueError):
        hermite.hermite_moment({1: -1}, 4)
    with pytest.raises(ValueError):
        hermite.hermite_moment({1: 2}, 0)
    assert hermite.hermite_moment({0: 12}, 3) == 1


def test_factor_table_values():
    tab = hermite.edge_factor_table(d=10000, q=40, dv=2)
    rd = 100.0
    assert tab.factor(1, "F") == 1 / rd
    assert tab.factor(1, "R") == 1 / rd
    assert tab.factor(1, "S") == 1 / rd
    assert tab.factor(1, "H") == 80 / rd
    assert tab.factor(2, "F") == pytest.approx(math.sqrt(2) / 10000)
    assert tab.factor(2, "H") == pytest.approx(8 * 40**2 / 10000)
    for lab in hermite.STEP_LABELS:
        assert tab.factor(3, lab) == tab.high_order_copy
        assert tab.factor(4, lab) == tab.high_order_copy
    assert tab.high_order_copy == pytest.approx(32 * 40 * 2 / rd)
    assert tab.mixed_low_copy == pytest.approx(2**0.25 / rd)
    assert tab.h2_copy_in_h1h1h2 == pytest.approx(math.sqrt(2) / rd)


def test_factor_validation():
    tab = hermite.edge_factor_table(4, 1, 1)
    with pytest.raises(ValueError):
        tab.factor(1, "X")
    with pytest.raises(ValueError):
        tab.factor(0, "F")
    with pytest.raises(ValueError):
        tab.factor(5, "F")
    with pytest.raises(ValueError):
        hermite.edge_factor_table(0, 1, 1)
    with pytest.raises(ValueError):
        hermite.edge_factor_table(4, 0, 1)
    with pytest.raises(ValueError):
        hermite.edge_factor_table(4, 1, 0)


def _copy_bound(tab: hermite.EdgeFactorTable, t: int, k: int) -> float:
    # charge a k-fold traversal as first-visit, matching return, rest high
    return tab.factor(t, "F") * tab.factor(t, "R") * tab.factor(t, "H") ** (k - 2)


def test_factors_dominate_moments_small_k():
    for d in (2, 10, 100):
        for t in (1, 2, 3, 4):
            for k in range(2, 9):
                mom = abs(float(hermite.hermite_moment({t: k}, d)))
                q = max(1, (k + 1) // 2)
                tab = hermite.edge_factor_table(d, q, 1)
                assert mom <= _copy_bound(tab, t, k) * (1 + 1e-12)


def _dfact(n: int) -> int:
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def test_factors_dominate_moments_large_k():
    # closed forms: E h1^k = (k-1)!!/d^{k/2}; E h2^k by binomial expansion
    for d in (10, 400):
        for k in (10, 16, 32, 64):
            q = k // 2
            tab = hermite.edge_factor_table(d, q, 1)
            mom1 = Fraction(_dfact(k - 1), d ** (k // 2))
            assert float(mom1) <= _copy_bound(tab, 1, k)
            mom2 = sum(
                Fraction((-1) ** (k - j) * math.comb(k, j)
                         * (_dfact(2 * j - 1) if j else 1))
                for j in range(k + 1)
            ) / Fraction(d**k)
            assert abs(float(mom2)) <= _copy_bound(tab, 2, k)


def test_mixed_h1h1h2_pattern_dominated():
    for d in (2, 10, 400):
        tab = hermite.edge_factor_table(d, 1, 1)
        exact = float(hermite.hermite_moment({1: 2, 2: 1}, d))
        bound = tab.mixed_low_copy**2 * tab.h2_copy_in_h1h1h2
        assert exact == 2 / d**2
        assert bound == pytest.approx(2 / d**1.5)
        assert exact <= bound * (1 + 1e-12)
