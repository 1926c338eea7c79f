"""Spectral norms and PSD certification for symmetric matrices.

Each report is one dense symmetric eigensolve (`numpy.linalg.eigvalsh`), so
both spectrum ends are exact to rounding and no verdict rests on an
iteration that stopped early.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SpectralReport:
    norm_estimate: float
    lambda_min: float
    lambda_max: float


def spectral_norm(msym: np.ndarray) -> SpectralReport:
    """Norm and extreme eigenvalues of a symmetric matrix."""
    msym = np.asarray(msym, dtype=float)
    if msym.ndim != 2 or msym.shape[0] != msym.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {msym.shape}")
    if msym.shape[0] == 0:
        return SpectralReport(0.0, 0.0, 0.0)
    scale = float(np.max(np.abs(msym)))
    asym = float(np.max(np.abs(msym - msym.T)))
    if asym > 1e-10 * max(1.0, scale):
        raise ValueError(f"matrix not symmetric: max asymmetry {asym:.3e}")
    eigs = np.linalg.eigvalsh(msym)
    lam_min, lam_max = float(eigs[0]), float(eigs[-1])
    return SpectralReport(
        norm_estimate=max(abs(lam_min), abs(lam_max)),
        lambda_min=lam_min,
        lambda_max=lam_max,
    )


def psd_check(msym: np.ndarray, slack: float | None = None) -> bool:
    """True iff lambda_min(msym) >= -slack. Default slack: 1e-8 * norm."""
    report = spectral_norm(msym)
    if slack is None:
        slack = 1e-8 * report.norm_estimate
    return report.lambda_min >= -slack
