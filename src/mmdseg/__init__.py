"""MMD-based offline detection of multiple distributional changepoints."""

from .amoc import (
    AmocConfig,
    AmocResult,
    amoc_statistic,
    permutation_test,
)
from .benchmark import BenchmarkCell, BenchmarkReport, run_benchmark
from .errors import ConfigurationError, DataError, DegenerateBandwidthError
from .kernel import gaussian_kernel, gram_matrix, l2_distance, median_heuristic
from .metrics import hausdorff, match, subset_match, superset_match
from .mmd import RhoCurve, mmd_squared_groups, mmd_squared_split, rho_curve, rho_values
from .oracle import mixture_mmd, oracle_curve, oracle_rho_single, oracle_rho_two
from .segment import (
    DetectionResult,
    Segmentation,
    detect_forward,
    detect_s,
    detect_ss,
    detect_u,
)
from .simulate import (
    GeneratedSample,
    ModelSpec,
    brownian_bridge,
    generate,
    grid,
    kl_curve,
)

__version__ = "0.1.0"

__all__ = [
    "AmocConfig",
    "AmocResult",
    "BenchmarkCell",
    "BenchmarkReport",
    "ConfigurationError",
    "DataError",
    "DegenerateBandwidthError",
    "DetectionResult",
    "GeneratedSample",
    "ModelSpec",
    "RhoCurve",
    "Segmentation",
    "amoc_statistic",
    "brownian_bridge",
    "detect_forward",
    "detect_s",
    "detect_ss",
    "detect_u",
    "gaussian_kernel",
    "generate",
    "gram_matrix",
    "grid",
    "hausdorff",
    "kl_curve",
    "l2_distance",
    "match",
    "median_heuristic",
    "mixture_mmd",
    "mmd_squared_groups",
    "mmd_squared_split",
    "oracle_curve",
    "oracle_rho_single",
    "oracle_rho_two",
    "permutation_test",
    "rho_curve",
    "rho_values",
    "run_benchmark",
    "subset_match",
    "superset_match",
]
