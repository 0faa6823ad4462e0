"""Covariance of asynchronously observed series and its intrinsic data loss.

The estimator sums increment products over every pair of overlapping
observation intervals.  Telescoping that sum cancels some observations
completely; this package evaluates the estimator, finds the cancelled
(nonextant) points by three independent methods, and measures the
expected loss under two-rate Poisson observation times.

Importing the package loads nothing else: each name of ``__all__`` and each
submodule is imported on first use (PEP 562), so ``import hyf`` and the
``hyf`` command's ``--version`` and ``--help`` start without numpy.
"""

import importlib

# the submodule that defines each name of __all__
_ORIGINS = {
    "adversary": (
        "DEFAULT_SEED",
        "AdversaryConfig",
        "attach_random_walk",
        "generate_inputs",
        "generate_poisson",
        "theoretical_loss",
    ),
    "core": (
        "LabelSequence",
        "ObservationSeries",
        "OverlapSet",
        "enumerate_overlaps",
        "merge_labels",
        "validate_series",
    ),
    "errors": (
        "CrossSeriesTie",
        "DetectorDisagreement",
        "EmptyPattern",
        "IndexOutOfRange",
        "LengthMismatch",
        "NonMonotoneTimes",
        "NonPositiveRate",
        "RejectionBudgetExceeded",
        "TooFewPoints",
        "ValidationError",
        "ZeroOverlaps",
    ),
    "estimator": ("TermList", "hy_covariance", "point_coefficients", "telescope_rows"),
    "montecarlo": ("LossTable", "TrialSummary", "loss_table", "run_experiment"),
    "nonextant": (
        "NonextantReport",
        "OpenInterval",
        "count_pattern",
        "data_loss_ratio",
        "detect_interval_rule",
        "detect_label_rule",
        "nonextant_interval",
        "oracle_detect",
        "overlap_count",
    ),
}
_ORIGIN = {name: module for module, names in _ORIGINS.items() for name in names}
__all__ = sorted(_ORIGIN)

_SUBMODULES = (
    "_output",
    "adversary",
    "cli",
    "core",
    "entry",
    "errors",
    "estimator",
    "montecarlo",
    "nonextant",
    "ticks",
)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_ORIGIN[name]}"), name)
    # later lookups find the name here, not through this function
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
