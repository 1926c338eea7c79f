"""Numerical laboratory for identity-perturbation ellipsoid fitting.

Samples Gaussian points, builds the perturbed-identity candidate via the
squared-Gram linear system, decomposes the system matrix into structured
parts, and verifies the quantitative behavior (spectra, scalar ranges, norm
bounds, series truncation, graph-matrix trace moments) at desk scale.
"""
from .construction import (
    Candidate,
    Decomposition,
    DegenerateScalarsError,
    IllConditionedWarning,
    SingularMatrixError,
    assemble_R_split,
    decompose,
    solve_weights,
    woodbury_inverse_eta,
)
from .graphmat import (
    BlockBoundReport,
    BlockValueBreakdown,
    DimensionTooSmallError,
    LabelingRow,
    Shape,
    UnknownShapeError,
    block_value,
    catalog,
    default_block_cap,
    get_shape,
    realize,
    verify_block_bound,
)
from .harness import (
    LemmaRow,
    SweepCell,
    SweepReport,
    TrialRecord,
    lemma_suite,
    main,
    run_fit_trial,
    run_sweep,
)
from .hermite import (
    EdgeFactorTable,
    edge_factor_table,
    hermite_eval,
    hermite_moment,
    hermite_scaled_eval,
)
from .neumann import (
    DEFAULT_CAPS,
    DivergentSeriesError,
    SizeLimitError,
    default_depth,
    neumann_apply,
    truncated_T0_exact,
    truncation_error,
)
from .sampling import GoeMatrix, SampleSet, sample_goe, sample_vectors, trial_seed
from .spectral import SpectralReport, psd_check, spectral_norm

__all__ = [
    "BlockBoundReport",
    "BlockValueBreakdown",
    "Candidate",
    "DEFAULT_CAPS",
    "Decomposition",
    "DegenerateScalarsError",
    "DimensionTooSmallError",
    "DivergentSeriesError",
    "EdgeFactorTable",
    "GoeMatrix",
    "IllConditionedWarning",
    "LabelingRow",
    "LemmaRow",
    "SampleSet",
    "Shape",
    "SingularMatrixError",
    "SizeLimitError",
    "SpectralReport",
    "SweepCell",
    "SweepReport",
    "TrialRecord",
    "UnknownShapeError",
    "assemble_R_split",
    "block_value",
    "catalog",
    "decompose",
    "default_block_cap",
    "default_depth",
    "edge_factor_table",
    "get_shape",
    "hermite_eval",
    "hermite_moment",
    "hermite_scaled_eval",
    "lemma_suite",
    "main",
    "neumann_apply",
    "psd_check",
    "realize",
    "run_fit_trial",
    "run_sweep",
    "sample_goe",
    "sample_vectors",
    "solve_weights",
    "spectral_norm",
    "trial_seed",
    "truncated_T0_exact",
    "truncation_error",
    "verify_block_bound",
    "woodbury_inverse_eta",
]
