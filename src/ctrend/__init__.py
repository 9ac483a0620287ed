"""Estimation of within-cohort trends of a state variable on a year x age
lattice from repeated cross-sectional survey data.

The pipeline: ingest measurements, assemble a penalized weighted
least-squares system (second-difference smoothing of the level and trend
surfaces), tune the penalty weights to smoothness targets, fit, and compare
mean trends between adjacent year x age clusters with F tests.
"""

__version__ = "0.1.0"

from .design import (
    LinearSystem,
    build_system_aggregated,
    build_system_raw,
    build_u2uc,
)
from .errors import CtrendError
from .grid import CellIndex, Frame, ParameterLayout
from .inference import ClusterGrid, ComparisonColumns, cluster_means, compare_adjacent
from .ingest import (
    CellColumns,
    MeasurementColumns,
    ValidationReport,
    aggregate,
    load_measurements,
)
from .solver import FitResult, check_uniqueness, solve
from .synth import SamplingPlan, TrueModel, full_coverage_plan, generate, survey_plan, true_level
from .tuner import SmoothnessReport, SmoothnessTargets, fstat, smoothness_field, tune

__all__ = [
    "CellColumns",
    "CellIndex",
    "ClusterGrid",
    "ComparisonColumns",
    "CtrendError",
    "FitResult",
    "Frame",
    "LinearSystem",
    "MeasurementColumns",
    "ParameterLayout",
    "SamplingPlan",
    "SmoothnessReport",
    "SmoothnessTargets",
    "TrueModel",
    "ValidationReport",
    "aggregate",
    "build_system_aggregated",
    "build_system_raw",
    "build_u2uc",
    "check_uniqueness",
    "cluster_means",
    "compare_adjacent",
    "fstat",
    "full_coverage_plan",
    "generate",
    "load_measurements",
    "smoothness_field",
    "solve",
    "survey_plan",
    "true_level",
    "tune",
]
