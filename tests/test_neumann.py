"""Geometric-series application of A^{-1} and the capped ordered enumerator."""
import numpy as np
import pytest

import oracles
from ellipsoidlab import construction, neumann, sampling


@pytest.fixture(scope="module")
def dec48():
    # ||I - A|| ~ 0.5 here, comfortably inside the convergence region
    return construction.decompose(sampling.sample_vectors(0, 400, 800))


# ---------------------------------------------------------------------------
# depth heuristic


def test_default_depth_values():
    assert neumann.default_depth(400) == 13
    assert neumann.default_depth(2) == 5
    assert neumann.default_depth(1) == 5
    assert neumann.default_depth(1024) == 14


# ---------------------------------------------------------------------------
# series application


def test_depth_zero_is_identity(dec48):
    x = np.arange(800, dtype=float)
    assert np.array_equal(neumann.neumann_apply(dec48, x, 0), x)
    with pytest.raises(ValueError):
        neumann.neumann_apply(dec48, x, -1)


def test_divergent_regime_raises():
    # m/d^2 = 1/25 puts ||I - A|| above 1 for every seed tried
    for seed in range(3):
        dec = construction.decompose(sampling.sample_vectors(seed, 100, 400))
        assert dec.t_norm_est >= 1.0
        x = np.ones(400)
        with pytest.raises(neumann.DivergentSeriesError, match="diverges"):
            neumann.neumann_apply(dec, x, 8)
        with pytest.raises(neumann.DivergentSeriesError, match="diverges"):
            neumann.truncation_error(dec, 8)


def test_truncation_error_tail_bound(dec48):
    t = dec48.t_norm_est
    assert t < 1.0
    for k in (1, 2, 5, 10, 20):
        err = neumann.truncation_error(dec48, k)
        assert err <= t ** (k + 1) / (1.0 - t) * (1.0 + 1e-6)


def test_truncation_error_matches_dense_difference(dec48):
    ainv = np.linalg.inv(dec48.A)
    for k in (1, 5, 10):
        diff = ainv - oracles.dense_partial_sum(dec48, k)
        want = float(np.max(np.abs(np.linalg.eigvalsh((diff + diff.T) / 2))))
        assert neumann.truncation_error(dec48, k) == pytest.approx(want, abs=1e-10)


def test_truncation_error_monotone(dec48):
    errs = [neumann.truncation_error(dec48, k) for k in (1, 3, 5, 8, 13)]
    assert all(a >= b for a, b in zip(errs, errs[1:]))


def test_apply_matches_dense_partial_sum(dec48):
    x = np.random.default_rng(0).standard_normal(800)
    got = neumann.neumann_apply(dec48, x, 5)
    want = oracles.dense_partial_sum(dec48, 5) @ x
    assert np.allclose(got, want, atol=1e-10 * np.linalg.norm(x))


# ---------------------------------------------------------------------------
# split-residual decay at a size where the series barely converges


def test_split_residual_shrinks_with_depth():
    sizes_checked = 0
    worst8 = 0.0
    worst64 = 0.0
    from ellipsoidlab import spectral

    for seed in range(20):
        s = sampling.sample_vectors(seed, 200, 800)
        dec = construction.decompose(s)
        if dec.t_norm_est >= 1.0:
            continue  # a few seeds sit past the edge; divergence is contractual
        norms = []
        for depth in (8, 64):
            _r1, _r2, er = construction.assemble_R_split(
                dec, s, lambda x, k=depth: neumann.neumann_apply(dec, x, k))
            norms.append(spectral.spectral_norm(er).norm_estimate)
        n8, n64 = norms
        assert n64 <= n8 * (1.0 + 1e-9)
        worst8 = max(worst8, n8)
        worst64 = max(worst64, n64)
        sizes_checked += 1
    assert sizes_checked >= 10
    assert worst8 < 0.25
    assert worst64 < 0.05


def test_split_residual_strictly_decays_single_seed():
    from ellipsoidlab import spectral

    s = sampling.sample_vectors(6, 200, 800)
    dec = construction.decompose(s)
    assert dec.t_norm_est < 1.0
    norms = []
    for depth in (8, 12, 24, 48, 64):
        _r1, _r2, er = construction.assemble_R_split(
            dec, s, lambda x, k=depth: neumann.neumann_apply(dec, x, k))
        norms.append(spectral.spectral_norm(er).norm_estimate)
    assert all(a > b for a, b in zip(norms, norms[1:]))
    assert norms[0] == pytest.approx(0.1967, abs=1e-3)


def test_divergent_seed_raises_through_split():
    s = sampling.sample_vectors(4, 200, 800)
    dec = construction.decompose(s)
    assert dec.t_norm_est >= 1.0
    with pytest.raises(neumann.DivergentSeriesError):
        construction.assemble_R_split(
            dec, s, lambda x: neumann.neumann_apply(dec, x, 8))


# ---------------------------------------------------------------------------
# capped ordered-product enumerator


@pytest.fixture(scope="module")
def small_dec():
    return construction.decompose(sampling.sample_vectors(5, 6, 8))


def test_t0_zero_caps_is_identity(small_dec):
    for maxdeg in (0, 4):
        got = neumann.truncated_T0_exact(small_dec, caps=(0, 0, 0, 0),
                                         maxdeg=maxdeg)
        assert np.array_equal(got, np.eye(8))


def test_t0_single_factor_terms(small_dec):
    # only the scaled-identity slot open: I - I/d survives
    got = neumann.truncated_T0_exact(small_dec, caps=(0, 0, 0, 1), maxdeg=3)
    assert np.allclose(got, np.eye(8) - np.eye(8) / 6, atol=1e-14)
    got = neumann.truncated_T0_exact(small_dec, caps=(1, 0, 0, 0), maxdeg=1)
    assert np.allclose(got, np.eye(8) - small_dec.malpha, atol=1e-14)


@pytest.mark.parametrize("caps,maxdeg", [
    ((3, 3, 3, 1), 3),
    ((2, 2, 2, 1), 4),
    ((4, 4, 4, 4), 4),
])
def test_t0_matches_brute_enumerator(small_dec, caps, maxdeg):
    got = neumann.truncated_T0_exact(small_dec, caps=caps, maxdeg=maxdeg)
    want = oracles.brute_t0(small_dec, caps, maxdeg)
    assert np.allclose(got, want, atol=1e-10)


def test_t0_uncapped_equals_plain_partial_sum():
    dec = construction.decompose(sampling.sample_vectors(9, 10, 12))
    for k in (0, 1, 2, 4):
        got = neumann.truncated_T0_exact(dec, caps=(k, k, k, k), maxdeg=k)
        want = oracles.dense_partial_sum(dec, k)
        assert np.allclose(got, want, atol=1e-12)


def test_t0_guards(small_dec):
    big = construction.decompose(sampling.sample_vectors(0, 35, 70))
    with pytest.raises(neumann.SizeLimitError):
        neumann.truncated_T0_exact(big)
    with pytest.raises(neumann.SizeLimitError):
        neumann.truncated_T0_exact(small_dec, maxdeg=7)
    with pytest.raises(ValueError):
        neumann.truncated_T0_exact(small_dec, caps=(1, 1, 1))
    with pytest.raises(ValueError):
        neumann.truncated_T0_exact(small_dec, maxdeg=-1)
