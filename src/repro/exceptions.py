"""Exception hierarchy for the :mod:`repro` package.

All library-raised errors derive from :class:`FrappError` so callers can
catch framework failures without also swallowing programming errors such
as :class:`TypeError`.
"""

from __future__ import annotations


class FrappError(Exception):
    """Base class for all errors raised by the repro/FRAPP library."""


class SchemaError(FrappError):
    """A schema or attribute definition is invalid or inconsistent."""


class DataError(FrappError):
    """A dataset is malformed (wrong shape, out-of-domain values, ...)."""


class PrivacyError(FrappError):
    """A privacy requirement is unsatisfiable or violated.

    Raised, for example, when ``(rho1, rho2)`` imply ``gamma <= 1`` (no
    perturbation matrix can satisfy the amplification bound), or when a
    user-supplied matrix breaks the row-ratio constraint of Eq. (2).
    """


class MatrixError(FrappError):
    """A perturbation matrix is invalid (not Markov, not invertible, ...)."""


class ReconstructionError(FrappError):
    """Distribution reconstruction failed (singular system, bad inputs)."""


class MiningError(FrappError):
    """Frequent-itemset mining was asked to do something impossible."""


class ExperimentError(FrappError):
    """An experiment configuration is invalid or an experiment failed."""


class ServiceError(FrappError):
    """A perturbation-service request failed (bad wire data, I/O, ...).

    Attributes
    ----------
    status:
        The HTTP status code the service maps this error to.
    code:
        A short machine-readable error code (``"bad_request"``, ...).
    details:
        Extra JSON-able context included in the structured error body.
    """

    def __init__(self, message, *, status: int = 400, code: str = "bad_request",
                 details: dict | None = None):
        super().__init__(message)
        self.status = int(status)
        self.code = str(code)
        self.details = dict(details or {})


class ServiceUnavailableError(ServiceError):
    """The service could not be reached (refused, reset, torn response).

    Raised by the client when the transport fails before a complete
    HTTP response arrives: connection refused, connection reset, a
    response torn mid-frame.  Never raised for structured server
    refusals -- those keep their own types.  The request **may or may
    not** have been applied server-side; only requests carrying an
    idempotency key (or GETs) are safe to retry blindly.
    """

    def __init__(self, message, *, code: str = "unavailable",
                 details: dict | None = None):
        super().__init__(message, status=503, code=code, details=details)


class ServiceTimeoutError(ServiceUnavailableError):
    """A single request attempt timed out at the socket level.

    The per-attempt counterpart of :class:`DeadlineExceededError`:
    one socket send/receive exceeded the attempt timeout.  Retryable
    under the same rules as :class:`ServiceUnavailableError`.
    """

    def __init__(self, message, *, details: dict | None = None):
        super().__init__(message, code="timeout", details=details)
        self.status = 504


class ServiceOverloadedError(ServiceError):
    """The server shed this request under admission control (HTTP 429).

    The overload contract: the request was refused *before* any state
    changed, so it is always safe to retry -- after honouring
    :attr:`retry_after`.  Raised by the client once its retry budget
    (attempts or deadline) is exhausted.

    Attributes
    ----------
    retry_after:
        Server-suggested seconds to wait before retrying (``None``
        when the server did not say).
    """

    def __init__(self, message, *, retry_after: float | None = None,
                 details: dict | None = None):
        super().__init__(
            message, status=429, code="overloaded", details=details
        )
        self.retry_after = None if retry_after is None else float(retry_after)


class DeadlineExceededError(ServiceError):
    """A client-side overall deadline expired before a request succeeded.

    Raised by :class:`~repro.service.client.ServiceClient` when its
    :class:`~repro.service.client.RetryPolicy` runs out of deadline (or
    attempts with the deadline already spent) -- instead of sleeping
    past it.  Carries the error of the last attempt for diagnosis.

    Attributes
    ----------
    attempts:
        Request attempts performed before giving up.
    last_error:
        The exception the final attempt raised (``None`` when the
        deadline expired before any attempt failed).
    """

    def __init__(self, message, *, attempts: int = 0, last_error=None,
                 details: dict | None = None):
        super().__init__(
            message, status=504, code="deadline_exceeded", details=details
        )
        self.attempts = int(attempts)
        self.last_error = last_error


class BudgetExceededError(ServiceError, PrivacyError):
    """A submission would breach a tenant's cumulative privacy budget.

    Mapped by the service to HTTP 403 with a structured error body; the
    :attr:`~ServiceError.details` dict carries the tenant's cumulative
    and projected ``(rho1, rho2)`` state so refusals are auditable.
    """

    def __init__(self, message, *, details: dict | None = None):
        super().__init__(
            message, status=403, code="budget_exceeded", details=details
        )


class UnknownMechanismError(ExperimentError, ValueError):
    """An unregistered mechanism name (or spec) was requested.

    Raised by the mechanism registry (:mod:`repro.mechanisms.registry`)
    with a message listing the registered names.  Subclasses both
    :class:`ExperimentError` and :class:`ValueError` so the historical
    call sites -- the driver factory raised ``ValueError``, the
    experiment runner ``ExperimentError`` -- keep catching it.
    """
