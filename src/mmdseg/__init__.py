"""MMD-based offline detection of multiple distributional changepoints."""

from .amoc import AmocConfig, AmocResult, permutation_test
from .benchmark import BenchmarkCell, BenchmarkReport, run_benchmark
from .errors import ConfigurationError, DataError, DegenerateBandwidthError
from .metrics import hausdorff, match, subset_match, superset_match
from .mmd import rho_curve, rho_values
from .oracle import oracle_curve
from .segment import (
    DetectionResult,
    Segmentation,
    detect_forward,
    detect_s,
    detect_ss,
    detect_u,
    prepare,
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
    "Segmentation",
    "detect_forward",
    "detect_s",
    "detect_ss",
    "detect_u",
    "generate",
    "grid",
    "hausdorff",
    "match",
    "oracle_curve",
    "permutation_test",
    "prepare",
    "rho_curve",
    "rho_values",
    "run_benchmark",
    "subset_match",
    "superset_match",
]
