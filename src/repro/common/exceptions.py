"""Exception hierarchy for the repro package.

All library errors derive from :class:`ReproError` so callers can catch a
single base class at API boundaries while tests can assert on the precise
subclass.
"""


class ReproError(Exception):
    """Base class for every error raised by the repro package."""


class ValidationError(ReproError, ValueError):
    """Raised when user-supplied data or parameters fail validation."""


class ConfigurationError(ReproError, ValueError):
    """Raised when an algorithm or knob configuration is inconsistent."""


class DatasetError(ReproError, ValueError):
    """Raised by the dataset registry for unknown or malformed datasets."""


class NotFittedError(ReproError, RuntimeError):
    """Raised when a model is used before ``fit`` has been called."""


class RunTimeoutError(ReproError, TimeoutError):
    """A harness run exceeded its wall-clock budget and was cancelled.

    The evaluation runtime kills the worker, records the run and moves
    on.  Timeouts are never retried: a hang is almost always a
    config-dependent pathology (e.g. a degenerate index build) that would
    hang again."""


class WorkerCrashError(ReproError, RuntimeError):
    """A worker process died (signal, ``os._exit``, unpicklable result)
    before reporting a result.  The run is recorded, never retried, and
    the supervising pool keeps running the remaining runs."""


class RegistryError(ReproError, RuntimeError):
    """Base class for model-registry failures (``repro.serve.registry``):
    unknown keys, malformed manifests, unusable payload files."""


class RegistryVersionError(RegistryError):
    """A registry record carries a schema version this reader does not
    understand.  Version 1 records are migrated transparently on read;
    anything newer than the current writer raises this instead of
    misreading the payload.  Carries the offending version for test
    assertions."""

    def __init__(self, message: str, *, version: int = -1) -> None:
        super().__init__(message)
        self.version = version


class RegistryCorruptionError(RegistryError):
    """A registry artifact failed digest verification: the bytes on disk
    disagree with the digest recorded in the manifest at save time
    (a flipped bit, a hand-edited payload, a torn write).  ``repro
    registry verify`` converts this into a classified non-zero exit."""

    def __init__(self, message: str, *, key: str = "", artifact: str = "") -> None:
        super().__init__(message)
        self.key = key
        self.artifact = artifact


class ServeError(ReproError, RuntimeError):
    """Base class for serving-path failures (``repro.serve``)."""


class DeadlineExceededError(ServeError, TimeoutError):
    """A serving request's deadline passed before (or while) its batch
    executed; the micro-batcher degrades the request to a structured
    :class:`~repro.serve.batching.FailedRequest` carrying this class
    name as its ``error_type``."""
