"""Synchronous client for a running ``frapp serve`` daemon.

Stdlib-only (``http.client``), one keep-alive connection per client.
Structured error bodies come back as the same exception types the
server raised: a 403 budget refusal raises
:class:`~repro.exceptions.BudgetExceededError` with the ledger's
structured details attached, a 429 shed raises
:class:`~repro.exceptions.ServiceOverloadedError` carrying the server's
``Retry-After`` hint, everything else a
:class:`~repro.exceptions.ServiceError` with the server's status and
code.  Obtain one via :func:`repro.api.connect`.

Retry semantics
---------------
Transport failures (refused/reset connections, socket timeouts) raise
the typed :class:`~repro.exceptions.ServiceUnavailableError` /
:class:`~repro.exceptions.ServiceTimeoutError` subclasses.  A request
is retried only when doing so is provably safe:

* **reads** (GETs, reconstruction, mining) and **stateless perturbs**
  are side-effect-free;
* **keyed writes** (``idempotency_key`` in the body) replay their
  journaled response server-side instead of re-applying;
* HTTP 429 sheds happen *before* any state change by contract, so an
  overloaded refusal is always retryable (honouring ``Retry-After``).

Unkeyed writes are never retried -- the client cannot know whether the
lost response acknowledged applied state.  Attach a
:class:`RetryPolicy` for exponential backoff with deterministic seeded
jitter, per-attempt timeouts and an overall deadline; without one, a
single transparent reconnect covers the server closing an idle
keep-alive socket.  When the deadline (or attempt budget) is spent the
client raises :class:`~repro.exceptions.DeadlineExceededError` wrapping
the last failure.
"""

from __future__ import annotations

import http.client
import json
import random
import time
import uuid
from dataclasses import dataclass

from repro.exceptions import (
    BudgetExceededError,
    DeadlineExceededError,
    ServiceError,
    ServiceOverloadedError,
    ServiceTimeoutError,
    ServiceUnavailableError,
)


@dataclass(frozen=True)
class RetryPolicy:
    """Backoff schedule for retryable :class:`ServiceClient` requests.

    Attributes
    ----------
    max_attempts:
        Total tries per request (first attempt included).
    base_delay, multiplier, max_delay:
        Exponential backoff: attempt ``k`` waits
        ``min(max_delay, base_delay * multiplier**(k-1))`` seconds
        before retrying (before jitter).
    jitter:
        Fraction of each delay randomised away (``0.5`` keeps 50-100%
        of the nominal delay).  Drawn from a generator seeded with
        ``seed``, so retry schedules are reproducible.
    deadline:
        Overall wall-clock budget per request, in seconds; when
        spending it would be exceeded the client raises
        :class:`~repro.exceptions.DeadlineExceededError` instead of
        sleeping past it.  ``None`` disables the deadline.
    attempt_timeout:
        Socket timeout applied to each individual attempt (capped by
        the remaining deadline).  ``None`` uses the client's timeout.
    seed:
        Seed of the jitter generator.
    """

    max_attempts: int = 4
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.5
    deadline: float | None = 30.0
    attempt_timeout: float | None = None
    seed: int = 0

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ServiceError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise ServiceError(f"jitter must lie in [0, 1], got {self.jitter}")

    def delay(self, attempt: int, rng: random.Random) -> float:
        """Jittered backoff before retry number ``attempt`` (1-based)."""
        nominal = min(
            self.max_delay, self.base_delay * self.multiplier ** (attempt - 1)
        )
        return nominal * (1.0 - self.jitter * rng.random())


#: Policy used when a client has none attached: one transparent
#: reconnect (the server may have closed an idle keep-alive socket
#: under us), no sleeping, still restricted to retry-safe requests.
_RECONNECT_ONLY = RetryPolicy(
    max_attempts=2, base_delay=0.0, max_delay=0.0, jitter=0.0, deadline=None
)


class ServiceClient:
    """Talk JSON over HTTP/1.1 to a :class:`~repro.service.ServiceServer`.

    Parameters
    ----------
    host, port:
        Where ``frapp serve`` is listening.
    timeout:
        Socket timeout in seconds for each request.
    retry:
        Optional :class:`RetryPolicy`.  When set, retry-safe requests
        back off and retry on transport failures and 429 sheds, and
        ``submit`` / ``open_collection`` auto-generate idempotency
        keys so their retries are exactly-once.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 8417, *,
                 timeout: float = 60.0, retry: RetryPolicy | None = None):
        self.host = str(host)
        self.port = int(port)
        self.timeout = float(timeout)
        self.retry = retry
        self._rng = random.Random((retry or _RECONNECT_ONLY).seed)
        self._connection: http.client.HTTPConnection | None = None

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def _auto_key(self) -> str | None:
        """A fresh idempotency key, when a retrying policy makes one useful."""
        if self.retry is None or self.retry.max_attempts < 2:
            return None
        return uuid.uuid4().hex

    def _prepare_connection(self, timeout: float) -> http.client.HTTPConnection:
        if self._connection is None:
            self._connection = http.client.HTTPConnection(
                self.host, self.port, timeout=timeout
            )
        connection = self._connection
        connection.timeout = timeout
        if connection.sock is not None:
            connection.sock.settimeout(timeout)
        return connection

    def _attempt(self, method, path, payload, headers, timeout):
        """One request/response exchange, transport errors typed."""
        try:
            connection = self._prepare_connection(timeout)
            connection.request(method, path, body=payload, headers=headers)
            response = connection.getresponse()
            raw = response.read()
        except TimeoutError as error:
            self.close()
            raise ServiceTimeoutError(
                f"request to {self.host}:{self.port} timed out after "
                f"{timeout:g}s: {error}"
            ) from None
        except ConnectionRefusedError as error:
            self.close()
            raise ServiceUnavailableError(
                f"connection to {self.host}:{self.port} refused: {error}"
            ) from None
        except (ConnectionError, http.client.HTTPException, OSError) as error:
            self.close()
            raise ServiceUnavailableError(
                f"connection to {self.host}:{self.port} failed: "
                f"{type(error).__name__}: {error}"
            ) from None
        try:
            decoded = json.loads(raw.decode("utf-8")) if raw else {}
        except (ValueError, RecursionError) as error:
            # As in wire.parse_response: bad bytes, bad JSON, integers
            # past the digit limit, or nesting too deep to parse.
            raise ServiceError(
                f"server returned a non-JSON body (status {response.status}): "
                f"{error}",
                status=502,
                code="bad_gateway",
            ) from None
        if response.status >= 400:
            raise self._as_error(
                response.status, decoded, response.getheader("Retry-After")
            )
        return decoded

    def _request(self, method: str, path: str, body: dict | None = None, *,
                 idempotent: bool | None = None) -> dict:
        payload = None
        headers = {}
        if body is not None:
            payload = json.dumps(body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        if idempotent is None:
            idempotent = method == "GET" or (
                isinstance(body, dict) and "idempotency_key" in body
            )
        policy = self.retry or _RECONNECT_ONLY
        start = time.monotonic()
        attempts = 0
        while True:
            remaining = None
            if policy.deadline is not None:
                remaining = policy.deadline - (time.monotonic() - start)
                if remaining <= 0:
                    raise DeadlineExceededError(
                        f"deadline of {policy.deadline:g}s spent before "
                        f"attempt {attempts + 1} of {method} {path}",
                        attempts=attempts,
                    )
            timeout = self.timeout
            if policy.attempt_timeout is not None:
                timeout = min(timeout, policy.attempt_timeout)
            if remaining is not None:
                timeout = min(timeout, remaining)
            attempts += 1
            try:
                return self._attempt(method, path, payload, headers, timeout)
            except ServiceOverloadedError as error:
                # Sheds happen before any state change, so a 429 is
                # always retryable; honour the server's backoff hint.
                # Backing off takes wall-clock time, though, so it only
                # happens under an explicitly attached policy.
                if self.retry is None:
                    raise
                delay = max(
                    policy.delay(attempts, self._rng), error.retry_after or 0.0
                )
                self._backoff(policy, attempts, delay, start, error, method,
                              path)
            except (ServiceTimeoutError, ServiceUnavailableError) as error:
                if not idempotent:
                    raise
                self._backoff(policy, attempts,
                              policy.delay(attempts, self._rng), start, error,
                              method, path)

    def _backoff(self, policy, attempts, delay, start, error, method, path):
        """Sleep before the next retry, or raise when out of budget."""
        if attempts >= policy.max_attempts:
            raise error
        if policy.deadline is not None:
            remaining = policy.deadline - (time.monotonic() - start)
            if delay >= remaining:
                raise DeadlineExceededError(
                    f"deadline of {policy.deadline:g}s spent after "
                    f"{attempts} attempt(s) of {method} {path}: {error}",
                    attempts=attempts,
                    last_error=error,
                ) from error
        if delay > 0:
            time.sleep(delay)

    @staticmethod
    def _as_error(status: int, body: dict,
                  retry_after_header: str | None = None) -> ServiceError:
        error = body.get("error") if isinstance(body, dict) else None
        if not isinstance(error, dict):
            return ServiceError(
                f"server error (status {status})", status=status,
                code="unknown_error",
            )
        code = str(error.get("code", "unknown_error"))
        message = str(error.get("message", f"server error (status {status})"))
        details = {
            key: value
            for key, value in error.items()
            if key not in ("code", "message")
        }
        if code == "budget_exceeded":
            return BudgetExceededError(message, details=details)
        if code == "overloaded" or status == 429:
            retry_after = details.get("retry_after")
            if retry_after is None and retry_after_header:
                try:
                    retry_after = float(retry_after_header)
                except ValueError:
                    retry_after = None
            return ServiceOverloadedError(
                message, retry_after=retry_after, details=details
            )
        return ServiceError(message, status=status, code=code, details=details)

    def close(self) -> None:
        """Close the underlying connection (reopened on next request)."""
        if self._connection is not None:
            try:
                self._connection.close()
            finally:
                self._connection = None

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"ServiceClient(host={self.host!r}, port={self.port})"

    # ------------------------------------------------------------------
    # endpoints
    # ------------------------------------------------------------------
    def health(self) -> dict:
        """``GET /v1/health`` -- liveness, schema, admission counters."""
        return self._request("GET", "/v1/health")

    def register_tenant(self, tenant: str, *, rho1: float | None = None,
                        rho2: float | None = None,
                        idempotency_key: str | None = None) -> dict:
        """Register ``tenant`` with an optional explicit budget.

        Registration is idempotent server-side (re-registering the same
        budget returns the existing ledger), so retries are safe.
        """
        body: dict = {"tenant": tenant}
        if rho1 is not None:
            body["rho1"] = float(rho1)
        if rho2 is not None:
            body["rho2"] = float(rho2)
        if idempotency_key is not None:
            body["idempotency_key"] = idempotency_key
        return self._request("POST", "/v1/tenants", body, idempotent=True)

    def open_collection(self, tenant: str, collection: str = "default", *,
                        mechanism: dict | None = None,
                        seed: int | None = None,
                        idempotency_key: str | None = None) -> dict:
        """Open a collection, charging its mechanism to the tenant budget.

        Raises :class:`~repro.exceptions.BudgetExceededError` when the
        tenant's cumulative ``(rho1, rho2)`` budget refuses the charge.
        With a retry policy attached an idempotency key is generated
        automatically, so a retried open never charges twice.
        """
        body: dict = {"tenant": tenant, "collection": collection}
        if mechanism is not None:
            body["mechanism"] = mechanism
        if seed is not None:
            body["seed"] = int(seed)
        key = idempotency_key if idempotency_key is not None else self._auto_key()
        if key is not None:
            body["idempotency_key"] = key
        return self._request("POST", "/v1/collections", body)

    def perturb(self, records, *, mechanism: dict | None = None,
                seed: int | None = None,
                idempotency_key: str | None = None) -> dict:
        """Stateless perturbation (no tenant, no spool, no charge)."""
        body: dict = {"records": _as_rows(records)}
        if mechanism is not None:
            body["mechanism"] = mechanism
        if seed is not None:
            body["seed"] = int(seed)
        if idempotency_key is not None:
            body["idempotency_key"] = idempotency_key
        return self._request("POST", "/v1/perturb", body, idempotent=True)

    def submit(self, tenant: str, records, *, collection: str = "default",
               return_records: bool = False,
               idempotency_key: str | None = None) -> dict:
        """Submit records for micro-batched perturbation and spooling.

        With a retry policy attached an idempotency key is generated
        automatically, making the submission exactly-once across
        retries, crashes and restarts.
        """
        body: dict = {
            "tenant": tenant,
            "collection": collection,
            "records": _as_rows(records),
        }
        if return_records:
            body["return_records"] = True
        key = idempotency_key if idempotency_key is not None else self._auto_key()
        if key is not None:
            body["idempotency_key"] = key
        return self._request("POST", "/v1/submit", body)

    def reconstruct(self, tenant: str, itemsets, *,
                    collection: str = "default") -> dict:
        """Reconstructed supports of ``itemsets`` over the spool."""
        return self._request(
            "POST",
            "/v1/reconstruct",
            {
                "tenant": tenant,
                "collection": collection,
                "itemsets": [_as_wire_itemset(its) for its in itemsets],
            },
            idempotent=True,
        )

    def mine(self, tenant: str, *, collection: str = "default",
             min_support: float = 0.02, max_length: int | None = None) -> dict:
        """Apriori mining over the collection's reconstructed supports."""
        body: dict = {
            "tenant": tenant,
            "collection": collection,
            "min_support": float(min_support),
        }
        if max_length is not None:
            body["max_length"] = int(max_length)
        return self._request("POST", "/v1/mine", body, idempotent=True)

    def ledger(self, tenant: str | None = None) -> dict:
        """Ledger summary of every tenant, or one tenant's full ledger."""
        path = "/v1/ledger" if tenant is None else f"/v1/ledger/{tenant}"
        return self._request("GET", path)


def _as_rows(records) -> list:
    """Accept a dataset, array or nested list and emit wire rows."""
    rows = getattr(records, "records", records)
    tolist = getattr(rows, "tolist", None)
    return tolist() if tolist is not None else list(rows)


def _as_wire_itemset(itemset) -> dict:
    """Accept an :class:`~repro.mining.itemsets.Itemset` or a wire dict."""
    if isinstance(itemset, dict):
        return itemset
    return {
        "attributes": list(itemset.attributes),
        "values": list(itemset.values),
    }
