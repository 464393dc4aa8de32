"""The content-addressed on-disk result store.

Layout (under one root directory)::

    objects/<key>.json   -- commit record: meta + JSON payload + checksums
    objects/<key>.npz    -- optional numpy arrays (written *before* the json)
    manifest.json        -- derived index for fast listing (``frapp cache ls``)
    manifest.lock        -- advisory lock serialising manifest rewrites

Durability contract
-------------------
* **Atomic commits.** Both entry files are written to a temporary name
  and ``os.replace``-d into place; the ``.json`` rename is the commit
  point.  A crash mid-``put`` leaves at worst an orphan ``.npz``, which
  :meth:`ResultStore.gc` reclaims.
* **Self-verifying reads.** The commit record embeds SHA-256 checksums
  of the canonical payload and of the ``.npz`` bytes; :meth:`ResultStore.get`
  verifies both (plus JSON well-formedness) and treats any mismatch --
  truncation, bit rot, concurrent torture -- as a cache miss, deleting
  the broken entry so it is recomputed rather than trusted.
* **Concurrent writers.** Entries are keyed by content hash, so two
  writers racing on the same cell write byte-identical files and any
  interleaving of atomic renames is fine.  The manifest is *derived*:
  it is rebuilt from a directory scan under an exclusive file lock, and
  :meth:`ResultStore.entries` always scans ``objects/`` directly, so a
  stale manifest can never hide or invent entries.  ``put`` itself
  never touches the manifest (commits stay O(1)); it is refreshed by
  the maintenance operations, by :meth:`ResultStore.read_manifest`
  when missing, and once per orchestrator run that computed anything.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.exceptions import ExperimentError
from repro.faultpoints import reach
from repro.store.keys import canonical_json

try:  # pragma: no cover - platform dependent
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None

#: Entry-format version; bump on incompatible layout changes.
STORE_VERSION = 1


def default_store_root() -> Path:
    """The default cache directory: ``$REPRO_CACHE_DIR`` or ``~/.cache/frapp``."""
    raw = os.environ.get("REPRO_CACHE_DIR")
    if raw:
        return Path(raw).expanduser()
    return Path("~/.cache/frapp").expanduser()


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def atomic_write_bytes(path, data: bytes, *, fsync: bool = False) -> None:
    """Write ``data`` to ``path`` atomically (write-temp + ``os.replace``).

    The store's durability primitive, exposed for other on-disk state
    (the service's per-tenant privacy ledgers): a crash mid-write leaves
    either the old file or the new one, never a torn mix.  With
    ``fsync`` the temp file is flushed to stable storage before the
    rename, so the new contents survive power loss once the call
    returns.
    """
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            if fsync:
                handle.flush()
                os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except FileNotFoundError:
            pass
        raise


@dataclass(frozen=True)
class CacheEntry:
    """One committed store entry, as listed by :meth:`ResultStore.entries`."""

    key: str
    meta: dict
    size: int


class ResultStore:
    """Content-addressed result cache over one directory.

    Parameters
    ----------
    root:
        Directory holding the store (created on first use).
    """

    def __init__(self, root):
        self.root = Path(root)
        self.objects_dir = self.root / "objects"
        self.objects_dir.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------
    # paths
    # ------------------------------------------------------------------
    def _json_path(self, key: str) -> Path:
        return self.objects_dir / f"{key}.json"

    def _npz_path(self, key: str) -> Path:
        return self.objects_dir / f"{key}.npz"

    def _atomic_write(self, path: Path, data: bytes) -> None:
        atomic_write_bytes(path, data)

    # ------------------------------------------------------------------
    # read / write
    # ------------------------------------------------------------------
    def put(
        self,
        key: str,
        payload: dict,
        arrays: dict | None = None,
        meta: dict | None = None,
    ) -> None:
        """Commit one entry (atomically; safe under concurrent writers).

        O(1) in the store size: the derived manifest is deliberately
        *not* rebuilt here -- call :meth:`refresh_manifest` after a
        batch of commits.
        """
        if not isinstance(payload, dict):
            raise ExperimentError(
                f"payload must be a dict, got {type(payload).__name__}"
            )
        npz_sha = None
        if arrays:
            buffer = io.BytesIO()
            np.savez(buffer, **arrays)
            blob = buffer.getvalue()
            npz_sha = _sha256(blob)
            self._atomic_write(self._npz_path(key), blob)
        # Crash-recovery test hook: a process killed here has written
        # the .npz but not the .json commit record -- the orphan state
        # gc() reclaims and get() never serves.
        reach("store:mid-commit")
        payload_json = canonical_json(payload)
        record = {
            "version": STORE_VERSION,
            "key": key,
            "meta": dict(meta or {}),
            "created": time.time(),
            "payload": json.loads(payload_json),
            "payload_sha256": _sha256(payload_json.encode("utf-8")),
            "npz_sha256": npz_sha,
        }
        self._atomic_write(
            self._json_path(key),
            json.dumps(record, sort_keys=True, indent=1).encode("utf-8"),
        )

    def _load_record(self, key: str):
        """Parse and verify one commit record; ``None`` when missing/corrupt."""
        path = self._json_path(key)
        try:
            record = json.loads(path.read_bytes())
        except FileNotFoundError:
            return None
        except (ValueError, OSError):
            return None
        if not isinstance(record, dict) or record.get("version") != STORE_VERSION:
            return None
        if record.get("key") != key:
            return None
        payload = record.get("payload")
        try:
            expected = _sha256(canonical_json(payload).encode("utf-8"))
        except ExperimentError:
            return None
        if expected != record.get("payload_sha256"):
            return None
        return record

    def get(self, key: str):
        """``(payload, arrays)`` for a committed entry, or ``None``.

        Any verification failure discards the entry (a later ``put``
        recomputes it) -- corruption is a miss, never an exception.
        """
        record = self._load_record(key)
        if record is None:
            if self._json_path(key).exists():
                self.discard(key)
            return None
        arrays = {}
        npz_sha = record.get("npz_sha256")
        if npz_sha is not None:
            try:
                blob = self._npz_path(key).read_bytes()
            except OSError:
                self.discard(key)
                return None
            if _sha256(blob) != npz_sha:
                self.discard(key)
                return None
            with np.load(io.BytesIO(blob)) as npz:
                arrays = {name: npz[name] for name in npz.files}
        return record["payload"], arrays

    def __contains__(self, key: str) -> bool:
        return self._load_record(key) is not None

    def discard(self, key: str) -> None:
        """Remove one entry's files (missing files are fine)."""
        for path in (self._json_path(key), self._npz_path(key)):
            try:
                path.unlink()
            except FileNotFoundError:
                pass

    # ------------------------------------------------------------------
    # listing / maintenance
    # ------------------------------------------------------------------
    def _entry_size(self, key: str) -> int:
        size = 0
        for path in (self._json_path(key), self._npz_path(key)):
            try:
                size += path.stat().st_size
            except FileNotFoundError:
                pass
        return size

    def entries(self) -> list[CacheEntry]:
        """Every committed, verifiable entry (scans ``objects/`` directly)."""
        found = []
        for path in sorted(self.objects_dir.glob("*.json")):
            key = path.stem
            record = self._load_record(key)
            if record is None:
                continue
            meta = record.get("meta", {})
            found.append(CacheEntry(key=key, meta=meta, size=self._entry_size(key)))
        return found

    def remove(self, prefix: str) -> int:
        """Remove every entry whose key starts with ``prefix``; returns count.

        The prefix is matched literally (``str.startswith``), never
        interpreted as a glob pattern.
        """
        if not prefix:
            raise ExperimentError("refusing to remove with an empty key prefix")
        removed = 0
        for path in list(self.objects_dir.glob("*.json")):
            if path.stem.startswith(prefix):
                self.discard(path.stem)
                removed += 1
        if removed:
            self.refresh_manifest()
        return removed

    def clear(self) -> int:
        """Remove every entry; returns the number removed."""
        removed = 0
        for path in list(self.objects_dir.glob("*.json")):
            self.discard(path.stem)
            removed += 1
        self.refresh_manifest()
        return removed

    def gc(self, keep_fingerprint: str) -> int:
        """Reclaim stale and broken entries; returns the number removed.

        Removes entries whose recorded code fingerprint differs from
        ``keep_fingerprint`` (they can never hit again), unverifiable
        commit records, and orphan ``.npz`` / ``.tmp-*`` files left by
        interrupted writes.
        """
        removed = 0
        for path in list(self.objects_dir.glob("*.json")):
            key = path.stem
            record = self._load_record(key)
            if record is None or record["meta"].get("fingerprint") != keep_fingerprint:
                self.discard(key)
                removed += 1
        for path in list(self.objects_dir.glob("*.npz")):
            if not self._json_path(path.stem).exists():
                path.unlink()
                removed += 1
        # temp files stranded by a hard kill mid-_atomic_write
        for path in list(self.objects_dir.glob(".tmp-*")):
            path.unlink()
            removed += 1
        self.refresh_manifest()
        return removed

    # ------------------------------------------------------------------
    # manifest
    # ------------------------------------------------------------------
    def refresh_manifest(self) -> dict:
        """Rebuild ``manifest.json`` from a directory scan, under a lock.

        The manifest is a *derived* index (listing convenience only);
        the ``objects/`` directory stays the source of truth, so a
        racing writer can at worst leave the manifest momentarily
        behind the directory, never inconsistent with itself.
        """
        manifest = {
            "version": STORE_VERSION,
            "entries": {
                entry.key: dict(entry.meta, size=entry.size)
                for entry in self.entries()
            },
        }
        data = json.dumps(manifest, sort_keys=True, indent=1).encode("utf-8")
        lock_path = self.root / "manifest.lock"
        with open(lock_path, "w") as lock:
            if fcntl is not None:
                fcntl.flock(lock, fcntl.LOCK_EX)
            try:
                fd, tmp = tempfile.mkstemp(dir=self.root, prefix=".manifest-")
                with os.fdopen(fd, "wb") as handle:
                    handle.write(data)
                os.replace(tmp, self.root / "manifest.json")
            finally:
                if fcntl is not None:
                    fcntl.flock(lock, fcntl.LOCK_UN)
        return manifest

    def read_manifest(self) -> dict:
        """The last written manifest (rebuilt when missing or unreadable)."""
        try:
            manifest = json.loads((self.root / "manifest.json").read_bytes())
            if isinstance(manifest, dict) and manifest.get("version") == STORE_VERSION:
                return manifest
        except (OSError, ValueError):
            pass
        return self.refresh_manifest()
