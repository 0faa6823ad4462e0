"""Covariance of asynchronously observed series and its intrinsic data loss.

The estimator sums increment products over every pair of overlapping
observation intervals.  Telescoping that sum cancels some observations
completely; this package evaluates the estimator, finds the cancelled
(nonextant) points by three independent methods, and measures the
expected loss under two-rate Poisson observation times.
"""

from .adversary import (
    DEFAULT_SEED,
    AdversaryConfig,
    attach_random_walk,
    generate_inputs,
    generate_poisson,
    theoretical_loss,
)
from .core import (
    LabelSequence,
    ObservationSeries,
    OverlapSet,
    enumerate_overlaps,
    merge_labels,
    validate_series,
)
from .errors import (
    CrossSeriesTie,
    DetectorDisagreement,
    EmptyPattern,
    IndexOutOfRange,
    LengthMismatch,
    NonMonotoneTimes,
    NonPositiveRate,
    RejectionBudgetExceeded,
    TooFewPoints,
    ValidationError,
    ZeroOverlaps,
)
from .estimator import TermList, hy_covariance, point_coefficients, telescope_rows
from .montecarlo import LossTable, TrialSummary, loss_table, run_experiment
from .nonextant import (
    NonextantReport,
    OpenInterval,
    count_pattern,
    data_loss_ratio,
    detect_interval_rule,
    detect_label_rule,
    nonextant_interval,
    oracle_detect,
    overlap_count,
)

__version__ = "0.1.0"

__all__ = [
    "AdversaryConfig",
    "CrossSeriesTie",
    "DEFAULT_SEED",
    "DetectorDisagreement",
    "EmptyPattern",
    "IndexOutOfRange",
    "LabelSequence",
    "LengthMismatch",
    "LossTable",
    "NonMonotoneTimes",
    "NonPositiveRate",
    "NonextantReport",
    "ObservationSeries",
    "OpenInterval",
    "OverlapSet",
    "RejectionBudgetExceeded",
    "TermList",
    "TooFewPoints",
    "TrialSummary",
    "ValidationError",
    "ZeroOverlaps",
    "attach_random_walk",
    "count_pattern",
    "data_loss_ratio",
    "detect_interval_rule",
    "detect_label_rule",
    "enumerate_overlaps",
    "generate_inputs",
    "generate_poisson",
    "hy_covariance",
    "loss_table",
    "merge_labels",
    "nonextant_interval",
    "oracle_detect",
    "overlap_count",
    "point_coefficients",
    "run_experiment",
    "telescope_rows",
    "theoretical_loss",
    "validate_series",
]
