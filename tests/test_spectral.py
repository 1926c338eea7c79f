"""Spectral reports against matrices with known spectra."""
import numpy as np
import pytest

from ellipsoidlab import spectral


def _with_spectrum(eigs, seed):
    """Q diag(eigs) Q^T for a random orthogonal Q: a symmetric matrix whose
    spectrum is known exactly."""
    eigs = np.asarray(eigs, dtype=float)
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((len(eigs),) * 2))
    msym = (q * eigs) @ q.T
    return (msym + msym.T) / 2


def test_known_diagonal_both_ends():
    rep = spectral.spectral_norm(np.diag([-3.0, 1.0, 2.0]))
    assert rep.norm_estimate == pytest.approx(3.0, rel=1e-9)
    assert rep.lambda_min == pytest.approx(-3.0, rel=1e-9)
    assert rep.lambda_max == pytest.approx(2.0, rel=1e-9)


def test_zero_matrix():
    rep = spectral.spectral_norm(np.zeros((4, 4)))
    assert (rep.norm_estimate, rep.lambda_min, rep.lambda_max) == (0, 0, 0)


def test_one_by_one():
    rep = spectral.spectral_norm(np.array([[-2.5]]))
    assert rep.norm_estimate == 2.5
    assert rep.lambda_min == -2.5 and rep.lambda_max == -2.5


def test_empty_matrix():
    rep = spectral.spectral_norm(np.zeros((0, 0)))
    assert (rep.norm_estimate, rep.lambda_min, rep.lambda_max) == (0, 0, 0)


def test_input_validation():
    with pytest.raises(ValueError):
        spectral.spectral_norm(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        spectral.spectral_norm(np.zeros((2, 3)))


def test_matches_dense_eigensolver():
    rng = np.random.default_rng(1)
    for n in (5, 40, 300):
        eigs = rng.uniform(-2.0, 3.0, n)
        rep = spectral.spectral_norm(_with_spectrum(eigs, n))
        assert rep.norm_estimate == pytest.approx(np.max(np.abs(eigs)), rel=1e-10)
        assert rep.lambda_min == pytest.approx(eigs.min(), rel=1e-10)
        assert rep.lambda_max == pytest.approx(eigs.max(), rel=1e-10)


def test_near_equal_modulus_ends():
    # the two ends nearly tie in modulus; power iteration stopped unconverged
    # here after 10091 steps with lambda_max 1.2303 and the norm at -lambda_min
    eigs = np.random.default_rng(4).uniform(-1.0, 1.0, 150)
    eigs[:2] = -1.2344, 1.2347
    rep = spectral.spectral_norm(_with_spectrum(eigs, 5))
    assert rep.lambda_min == pytest.approx(-1.2344, abs=1e-9)
    assert rep.lambda_max == pytest.approx(1.2347, abs=1e-9)
    assert rep.norm_estimate == pytest.approx(1.2347, abs=1e-9)


def test_deterministic_report():
    rng = np.random.default_rng(2)
    x = rng.standard_normal((30, 30))
    msym = x + x.T
    assert spectral.spectral_norm(msym) == spectral.spectral_norm(msym)


def test_psd_check():
    rng = np.random.default_rng(3)
    b = rng.standard_normal((20, 8))
    gram = b @ b.T  # PSD with a 12-dimensional nullspace
    assert spectral.psd_check(gram)
    assert not spectral.psd_check(gram - 0.1 * np.eye(20))
    assert spectral.psd_check(gram - 0.1 * np.eye(20), slack=0.2)
    # default slack is 1e-8 * norm, absorbing rounding-level negativity
    assert spectral.psd_check(np.diag([1.0, -1e-12]))
    assert not spectral.psd_check(np.diag([1.0, -1.0]))
