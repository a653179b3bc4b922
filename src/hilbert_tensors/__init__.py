"""Finite and truncated infinite dimensional Hilbert tensors.

Construction and entry access, naive / fast / integral evaluation paths,
extremal H- and Z-eigenvalue solvers with certificates, sine-bound and
monotonicity verification sweeps, and certified truncations of the
infinite-dimensional operators.
"""

from .analysis import (
    BoundReport,
    EmbeddingReport,
    InequalityReport,
    MonotonicityReport,
    PositiveDefiniteReport,
    bound_sweep,
    check_positive_definite,
    embedding_check,
    hilbert_inequality_check,
    monotonicity_sweep,
)
from .core import (
    BudgetError,
    GeneratingVector,
    HilbertTensor,
    SequenceVector,
    convolution_power,
    hankel_apply,
    spectral_bound_h,
    spectral_bound_z,
)
from .eigensolvers import (
    EigenResult,
    h_spectral_radius,
    z_spectral_radius,
)
from .infinite import (
    PI_OVER_SQRT6,
    CertifiedNorm,
    NormSearchReport,
    apply_infinite,
    f_infinity,
    norm_search,
    operator_norm_constant,
    t_infinity,
)
from .rng import SplitMix64

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "BudgetError",
    "CertifiedNorm",
    "EigenResult",
    "EmbeddingReport",
    "GeneratingVector",
    "HilbertTensor",
    "InequalityReport",
    "MonotonicityReport",
    "NormSearchReport",
    "PI_OVER_SQRT6",
    "PositiveDefiniteReport",
    "SequenceVector",
    "SplitMix64",
    "apply_infinite",
    "bound_sweep",
    "check_positive_definite",
    "convolution_power",
    "embedding_check",
    "f_infinity",
    "h_spectral_radius",
    "hankel_apply",
    "hilbert_inequality_check",
    "monotonicity_sweep",
    "norm_search",
    "operator_norm_constant",
    "spectral_bound_h",
    "spectral_bound_z",
    "t_infinity",
    "z_spectral_radius",
]
