"""Exception hierarchy for the Amalur reproduction library.

All library-raised errors derive from :class:`AmalurError` so that callers
can catch a single base class at API boundaries.
"""

from __future__ import annotations


class AmalurError(Exception):
    """Base class for all errors raised by this library."""


class SchemaError(AmalurError):
    """Raised when a schema is malformed or two schemas are incompatible."""


class TableError(AmalurError):
    """Raised for invalid table construction or access."""


class MappingError(AmalurError):
    """Raised for invalid schema mappings or mapping matrices."""


class MatchingError(AmalurError):
    """Raised when schema matching or entity resolution fails."""


class FactorizationError(AmalurError):
    """Raised when a factorized operator cannot be applied."""


class CostModelError(AmalurError):
    """Raised for invalid cost-model inputs."""


class BackendError(AmalurError):
    """Raised for invalid compute-backend configuration or operands."""


class FederatedError(AmalurError):
    """Raised for federated-learning protocol violations."""


class PrivacyError(FederatedError):
    """Raised when an operation would violate a declared privacy constraint."""


class PlanError(AmalurError):
    """Raised when the optimizer cannot produce or execute a plan."""


class CatalogError(AmalurError):
    """Raised for metadata-catalog lookup/registration failures."""


class TransientError(AmalurError):
    """A failure that is expected to succeed on retry (flaky I/O, an
    injected fault, a lost page): the retryable class of
    :class:`repro.reliability.retry.RetryPolicy`."""


class IntegrityError(AmalurError):
    """Data failed a checksum or structural validation (torn spill write,
    corrupt checkpoint segment). Never blindly retryable — the corrupted
    artifact must be rebuilt from its source."""


class PoisonTaskError(AmalurError):
    """A parallel task kept failing after every retry attempt; carries the
    originating site and block index so the failing unit of work is
    identifiable from the message alone."""

    def __init__(self, message: str, site: str = "", index: int = -1):
        super().__init__(message)
        self.site = site
        self.index = index


class CheckpointError(AmalurError):
    """Raised for invalid checkpoint layout, lookup or restore requests."""


class ServiceError(AmalurError):
    """Base class for online-serving failures (:mod:`repro.serving`)."""


class RequestTimeout(ServiceError):
    """Raised when a serving request misses its per-request deadline."""


class CapacityExceeded(ServiceError):
    """Raised when the service rejects a request: full queue or row cap."""


class StaleDatasetError(ServiceError):
    """Raised when a resident dataset is too stale to serve the request
    (accumulated deltas passed the staleness threshold and automatic
    rebuild is disabled, the request pinned an outdated version, or a
    rebuild failed and the session degraded to serving its last good
    snapshot)."""


class CircuitOpenError(ServiceError):
    """Raised when a session's circuit breaker is open: repeated handler
    failures tripped it, and requests are rejected immediately until the
    cool-down elapses and a half-open probe succeeds."""
