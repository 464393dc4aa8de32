"""Content-addressed experiment-result store.

The persistence layer behind the experiment orchestrator
(:mod:`repro.experiments.orchestrator`): every experiment cell --
one mechanism on one dataset under one parameterisation -- is keyed by
a stable hash of its full spec plus a fingerprint of the library
source, and its result (JSON payload + optional numpy arrays) is
committed atomically to an on-disk object directory with an index
manifest.

* :mod:`repro.store.keys` -- canonical JSON and :func:`cache_key`;
* :mod:`repro.store.fingerprint` -- :func:`code_fingerprint` over the
  package source (total cache invalidation on any code change);
* :mod:`repro.store.store` -- :class:`ResultStore`: atomic writes,
  checksum-verified reads, corruption-as-miss semantics, ``ls/rm/gc``
  maintenance, and concurrent-writer safety: processes sharing one
  store each compute the cells they miss, and their commits agree.
"""

from repro.store.fingerprint import code_fingerprint, package_source_files
from repro.store.keys import cache_key, canonical_json
from repro.store.store import (
    STORE_VERSION,
    CacheEntry,
    ResultStore,
    atomic_write_bytes,
    default_store_root,
)

__all__ = [
    "CacheEntry",
    "ResultStore",
    "STORE_VERSION",
    "atomic_write_bytes",
    "cache_key",
    "canonical_json",
    "code_fingerprint",
    "default_store_root",
    "package_source_files",
]
