"""Stable content-addressed cache keys.

A cell's key is the SHA-256 of its canonicalised parameter spec plus
the code fingerprint of the :mod:`repro` package, so a cached result is
reused only when *everything* that could change the numbers -- the
mechanism, the dataset spec, the experiment parameters, the seed
derivation, and the library source itself -- is unchanged.

Canonicalisation rules (:func:`canonical_json`): dict keys are sorted,
tuples become lists, floats use ``repr`` round-tripping (so ``19.0``
and ``19`` stay distinct), and only JSON-representable scalars are
accepted -- anything else is a :class:`~repro.exceptions.ExperimentError`
at keying time rather than a silent cache aliasing bug later.

Examples
--------
>>> canonical_json({"b": 1, "a": (2.0, None)})
'{"a":[2.0,null],"b":1}'
>>> key = cache_key({"mechanism": "DET-GD", "seed": 1}, "fingerprint")
>>> len(key), key == cache_key({"seed": 1, "mechanism": "DET-GD"}, "fingerprint")
(64, True)
>>> cache_key({"seed": 2, "mechanism": "DET-GD"}, "fingerprint") == key
False
"""

from __future__ import annotations

import hashlib
import json

from repro.canonical import canonicalise
from repro.exceptions import ExperimentError


def canonical_json(obj) -> str:
    """Render ``obj`` as deterministic, separator-free, key-sorted JSON."""
    return json.dumps(
        canonicalise(obj), sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def cache_key(spec: dict, fingerprint: str) -> str:
    """SHA-256 hex key of a cell spec under one code fingerprint."""
    if not isinstance(spec, dict):
        raise ExperimentError(f"cell spec must be a dict, got {type(spec).__name__}")
    digest = hashlib.sha256()
    digest.update(fingerprint.encode("utf-8"))
    digest.update(b"\x00")
    digest.update(canonical_json(spec).encode("utf-8"))
    return digest.hexdigest()
