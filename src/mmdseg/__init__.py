"""MMD-based offline detection of multiple distributional changepoints."""

from .amoc import AmocConfig, AmocResult, permutation_test
from .benchmark import BenchmarkCell, BenchmarkReport, run_benchmark
from .errors import ConfigurationError, DataError, DegenerateBandwidthError
from .kernel import gram_matrix, median_heuristic
from .metrics import hausdorff, match, subset_match, superset_match
from .mmd import RhoCurve, rho_curve, rho_values
from .oracle import oracle_curve
from .segment import (
    DetectionResult,
    Segmentation,
    detect_forward,
    detect_s,
    detect_ss,
    detect_u,
)
from .simulate import GeneratedSample, ModelSpec, generate, grid

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
    "detect_forward",
    "detect_s",
    "detect_ss",
    "detect_u",
    "generate",
    "gram_matrix",
    "grid",
    "hausdorff",
    "match",
    "median_heuristic",
    "oracle_curve",
    "permutation_test",
    "rho_curve",
    "rho_values",
    "run_benchmark",
    "subset_match",
    "superset_match",
]
