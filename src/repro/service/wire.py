"""Wire schema of the always-on perturbation service.

Requests and responses are JSON objects over HTTP/1.1.  This module is
the single place the formats live: field validation for every endpoint
body, record encoding/decoding against the service schema, and the
structured error body that carries refusals (including the ledger's
HTTP 403 budget refusals) to clients.

Error body::

    {"error": {"code": "budget_exceeded",
               "message": "...",
               ...structured details...}}

Records travel as JSON arrays of category-index rows
(``[[0, 3, 1, ...], ...]``), validated against the schema on arrival;
responses reuse the same encoding.  Itemsets travel as
``{"attributes": [...], "values": [...]}`` pairs, matching
:class:`repro.mining.itemsets.Itemset`.
"""

from __future__ import annotations

import hashlib
import itertools
import json

import numpy as np

from repro.data.backing import record_dtype, validate_in_domain
from repro.data.schema import Schema
from repro.exceptions import DataError, FrappError, ServiceError
from repro.mining.itemsets import Itemset

#: Wire-format version announced by ``GET /v1/health``.
WIRE_VERSION = 1

#: Hard cap on records per request (keeps request bodies bounded).
MAX_RECORDS_PER_REQUEST = 100_000

#: Longest accepted client-generated idempotency key.
MAX_IDEMPOTENCY_KEY_LENGTH = 200

#: HTTP reason phrases for every status the service emits.
REASON_PHRASES = {
    200: "OK",
    400: "Bad Request",
    403: "Forbidden",
    404: "Not Found",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


def error_body(error: ServiceError) -> dict:
    """The structured error body for a :class:`ServiceError`."""
    body = {"code": error.code, "message": str(error)}
    body.update(error.details)
    return {"error": body}


def require(body: dict, field: str, kind=None):
    """Fetch a required field from a request body, with type checking."""
    if not isinstance(body, dict):
        raise ServiceError("request body must be a JSON object")
    if field not in body:
        raise ServiceError(f"missing required field {field!r}")
    value = body[field]
    if kind is not None and not isinstance(value, kind):
        expected = kind.__name__ if isinstance(kind, type) else kind
        raise ServiceError(
            f"field {field!r} must be {expected}, got {type(value).__name__}"
        )
    return value


def tenant_name(body: dict) -> str:
    """Validated ``tenant`` field (a path-safe non-empty identifier)."""
    name = require(body, "tenant", str)
    if not name or not all(c.isalnum() or c in "-_." for c in name):
        raise ServiceError(
            f"tenant names must be non-empty and [-_.a-zA-Z0-9], got {name!r}"
        )
    return name


def collection_name(body: dict) -> str:
    """Validated ``collection`` field (defaults to ``"default"``)."""
    name = body.get("collection", "default")
    if not isinstance(name, str) or not name or not all(
        c.isalnum() or c in "-_." for c in name
    ):
        raise ServiceError(
            f"collection names must be non-empty and [-_.a-zA-Z0-9], got {name!r}"
        )
    return name


def idempotency_key(body: dict) -> str | None:
    """Validated optional ``idempotency_key`` field of a request body.

    Keys are client-generated opaque tokens: non-empty printable
    strings without whitespace, at most
    :data:`MAX_IDEMPOTENCY_KEY_LENGTH` characters.  ``None`` when the
    request carries no key.
    """
    key = body.get("idempotency_key") if isinstance(body, dict) else None
    if key is None:
        return None
    if (
        not isinstance(key, str)
        or not key
        or len(key) > MAX_IDEMPOTENCY_KEY_LENGTH
        or any(c.isspace() or not c.isprintable() for c in key)
    ):
        raise ServiceError(
            f"field 'idempotency_key' must be a non-empty printable string "
            f"of at most {MAX_IDEMPOTENCY_KEY_LENGTH} characters without "
            f"whitespace, got {key!r}"
        )
    return key


def seed(body: dict) -> int | None:
    """Validated optional ``seed`` field: a non-negative integer.

    JSON ``true``/``false`` are not integers here, and negative seeds
    are refused before any state changes (NumPy would reject them
    only later, mid-request).  ``None`` when the request carries no
    seed.
    """
    value = body.get("seed")
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise ServiceError(
            f"field 'seed' must be a non-negative integer, got {value!r}"
        )
    return value


def payload_digest(payload) -> str:
    """Stable digest of a JSON-able request payload.

    The dedup journal stores this next to each idempotency key so a
    key reused with a *different* payload is detected as a conflict
    (HTTP 409) instead of silently replaying the original response.
    Canonical form: sorted keys, minimal separators, SHA-256.
    """
    encoded = json.dumps(
        payload, sort_keys=True, separators=(",", ":"), allow_nan=False
    )
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


def frame_response(
    status: int, payload: dict, *, close: bool = False,
    headers: dict | None = None,
) -> bytes:
    """Serialise one JSON response into a complete HTTP/1.1 frame.

    The single place response framing lives: the server writes these
    bytes verbatim, and :func:`parse_response` inverts them exactly
    (property-tested round trip).  ``headers`` adds extra header lines
    (e.g. ``Retry-After``) after the fixed ones.
    """
    body = json.dumps(payload).encode("utf-8")
    extra = "".join(
        f"{name}: {value}\r\n" for name, value in (headers or {}).items()
    )
    head = (
        f"HTTP/1.1 {status} {REASON_PHRASES.get(status, 'Error')}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"{extra}"
        f"Connection: {'close' if close else 'keep-alive'}\r\n"
        f"\r\n"
    ).encode("latin-1")
    return head + body


def parse_response(frame: bytes) -> tuple[int, dict, dict]:
    """Parse a complete frame from :func:`frame_response`.

    Returns ``(status, headers, payload)`` with header names
    lower-cased.  Raises :class:`~repro.exceptions.ServiceError` on a
    torn or malformed frame (missing header terminator, malformed
    ``Content-Length``, truncated or oversized body, a payload that does
    not parse as JSON) -- the conditions a client must treat as
    "response never arrived".
    """
    head, sep, body = frame.partition(b"\r\n\r\n")
    if not sep:
        raise ServiceError("torn response: no header terminator")
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split(" ", 2)
    if len(parts) < 2 or parts[0] != "HTTP/1.1" or not parts[1].isdigit():
        raise ServiceError(f"malformed status line: {lines[0]!r}")
    status = int(parts[1])
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    raw_length = headers.get("content-length", "0") or "0"
    if not raw_length.isdecimal():
        raise ServiceError(f"malformed Content-Length header: {raw_length!r}")
    length = int(raw_length)
    if len(body) != length:
        raise ServiceError(
            f"torn response body: Content-Length {length}, got {len(body)} bytes"
        )
    try:
        payload = json.loads(body.decode("utf-8")) if body else {}
    except (ValueError, RecursionError) as error:
        # ValueError covers undecodable bytes, bad JSON and integers
        # past the interpreter's digit limit; RecursionError, nesting
        # too deep to parse.
        raise ServiceError(f"response body is not valid JSON: {error}") from None
    return status, headers, payload


def decode_records(schema: Schema, rows) -> np.ndarray:
    """Decode a JSON ``records`` payload into a validated compact array.

    Every row must be a list of the schema's width, and every cell
    exactly an ``int`` (JSON booleans, floats and strings are refused,
    not cast) inside its attribute's domain.
    """
    if not isinstance(rows, list) or not rows:
        raise ServiceError("field 'records' must be a non-empty array of rows")
    if len(rows) > MAX_RECORDS_PER_REQUEST:
        raise ServiceError(
            f"at most {MAX_RECORDS_PER_REQUEST} records per request, "
            f"got {len(rows)}"
        )
    width = schema.n_attributes
    if set(map(type, rows)) != {list} or set(map(len, rows)) != {width}:
        raise ServiceError(
            f"records must be rows of {width} cells, one per attribute"
        )
    cells = list(itertools.chain.from_iterable(rows))
    # Exactly int: JSON true/false decode to bool, and a cast would turn
    # 0.5 into category 0 and "1" into 1.
    kinds = set(map(type, cells))
    if kinds != {int}:
        names = ", ".join(sorted(kind.__name__ for kind in kinds - {int}))
        raise ServiceError(f"records must be rows of integers, got {names} cells")
    try:
        records = np.fromiter(cells, dtype=np.int64, count=len(cells))
    except OverflowError:
        raise ServiceError("record cells out of the int64 range") from None
    records = records.reshape(len(rows), width)
    try:
        validate_in_domain(schema, records)
    except DataError as error:
        raise ServiceError(str(error)) from None
    return records.astype(record_dtype(schema))


def encode_records(records: np.ndarray) -> list:
    """Encode a record array as JSON rows (inverse of decode)."""
    return np.asarray(records, dtype=np.int64).tolist()


def decode_itemsets(schema: Schema, payload) -> list[Itemset]:
    """Decode a JSON ``itemsets`` payload into :class:`Itemset` objects."""
    if not isinstance(payload, list) or not payload:
        raise ServiceError("field 'itemsets' must be a non-empty array")
    cards = schema.cardinalities
    itemsets = []
    for entry in payload:
        if not isinstance(entry, dict):
            raise ServiceError(
                "each itemset must be {'attributes': [...], 'values': [...]}"
            )
        attributes = entry.get("attributes")
        values = entry.get("values")
        if not isinstance(attributes, list) or not isinstance(values, list):
            raise ServiceError(
                "each itemset must be {'attributes': [...], 'values': [...]}"
            )
        if len(attributes) != len(values):
            raise ServiceError(
                f"itemset attributes/values length mismatch in {entry!r}"
            )
        if any(
            isinstance(x, bool) or not isinstance(x, int)
            for x in attributes + values
        ):
            raise ServiceError(
                f"itemset attributes and values must be integers in {entry!r}"
            )
        try:
            itemset = Itemset(zip(attributes, values))
        except FrappError as error:
            raise ServiceError(f"invalid itemset {entry!r}: {error}") from None
        attrs = itemset.attributes
        if any(a < 0 or a >= schema.n_attributes for a in attrs):
            raise ServiceError(
                f"itemset attributes {attrs} out of range for "
                f"{schema.n_attributes} attributes"
            )
        if any(not 0 <= v < cards[a] for a, v in itemset.items):
            raise ServiceError(
                f"itemset values {itemset.values} out of the domain of "
                f"attributes {attrs}"
            )
        itemsets.append(itemset)
    return itemsets


def encode_itemset(itemset: Itemset) -> dict:
    """Encode one itemset for the wire (inverse of decode)."""
    return {
        "attributes": list(itemset.attributes),
        "values": list(itemset.values),
    }


def schema_descriptor(schema: Schema) -> dict:
    """The schema block ``GET /v1/health`` announces to clients."""
    return {
        "attributes": [
            {"name": attr.name, "categories": list(attr.categories)}
            for attr in schema
        ],
    }
