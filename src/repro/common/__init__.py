"""Shared low-level utilities: validation, RNG handling, distance kernels.

These helpers are deliberately free of any clustering logic so that every
subsystem (indexes, sequential algorithms, the UniK pipeline, the tuning
stack) builds on one consistent foundation.
"""

from repro.common.exceptions import (
    ConfigurationError,
    DatasetError,
    NotFittedError,
    ReproError,
    RunTimeoutError,
    ValidationError,
    WorkerCrashError,
)
from repro.common.rng import ensure_rng
from repro.common.validation import (
    check_data_matrix,
    check_k,
    check_positive,
    check_probability,
)

#: status literal that marks a failed record: a harness cell's
#: ``FailedRun`` in the evaluation log and a serving ``FailedRequest``
FAILED_STATUS = "failed"

__all__ = [
    "FAILED_STATUS",
    "ReproError",
    "ValidationError",
    "ConfigurationError",
    "DatasetError",
    "NotFittedError",
    "RunTimeoutError",
    "WorkerCrashError",
    "ensure_rng",
    "check_data_matrix",
    "check_k",
    "check_positive",
    "check_probability",
]
