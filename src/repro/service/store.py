"""Content-addressed, versioned result store shared by the service.

:class:`ResultStore` generalizes
:class:`~repro.experiments.parallel.ResultCache` from a private runner
cache into the artifact store that schedulers and API workers share:

* **Content-addressed keys** — an entry's name is
  :func:`~repro.experiments.parallel.job_key`, the same digest the
  cache has always used, so a store opened over an existing
  ``--cache-dir`` serves every previously cached result.
* **Integrity index** — ``index.json`` records each entry's payload
  SHA-256 and size.  Reads by key verify bytes against the index
  before serving; a mismatch quarantines the entry (reusing the
  cache's quarantine machinery) and reads as a miss, so a flipped bit
  on disk can never reach an HTTP client.
* **Atomic compare-and-publish writes** — all writes go through
  :meth:`ResultCache.publish_path` (fsynced temp file, first-writer-
  wins ``os.replace``), so concurrent schedulers/threads/processes
  cannot tear an entry, and the index update is folded in under a
  process-local lock.
* **Operator tooling** — :meth:`verify` re-hashes every entry against
  the index, :meth:`gc` drains the quarantine and stale temp files and
  prunes orphaned index rows, :meth:`reindex` rebuilds the index from
  the payloads.  The ``repro cache`` CLI drives all three.

The index is maintained by whichever process owns the store (the
service); plain :class:`ResultCache` writers sharing the directory
don't update it, and the store heals: an unindexed entry is validated
by unpickling on first read and indexed then.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from repro.experiments.config import SystemConfig
from repro.experiments.parallel import (
    CACHE_SCHEMA_VERSION,
    STALE_TMP_SECONDS,
    ResultCache,
    job_key,
)
from repro.experiments.runner import MixResult

#: Index document schema version.
INDEX_SCHEMA = 1


def payload_digest(data: bytes) -> str:
    """Integrity digest of one stored payload."""
    return hashlib.sha256(data).hexdigest()


@dataclass
class StoreStats:
    """What :meth:`ResultStore.stats` reports (and ``repro cache stats``)."""

    entries: int = 0
    bytes: int = 0
    indexed: int = 0
    quarantined: int = 0
    quarantined_bytes: int = 0
    stale_tmp: int = 0

    def as_dict(self) -> dict:
        return {
            "entries": self.entries,
            "bytes": self.bytes,
            "indexed": self.indexed,
            "quarantined": self.quarantined,
            "quarantined_bytes": self.quarantined_bytes,
            "stale_tmp": self.stale_tmp,
        }


@dataclass
class VerifyReport:
    """Outcome of a full-store integrity pass."""

    ok: int = 0
    healed: int = 0  # unindexed entries validated and indexed
    corrupt: list[str] = field(default_factory=list)
    missing: list[str] = field(default_factory=list)  # indexed, no file

    @property
    def clean(self) -> bool:
        return not self.corrupt and not self.missing

    def as_dict(self) -> dict:
        return {
            "ok": self.ok,
            "healed": self.healed,
            "corrupt": sorted(self.corrupt),
            "missing": sorted(self.missing),
        }


@dataclass
class GCReport:
    """What one :meth:`ResultStore.gc` pass removed."""

    quarantined_removed: int = 0
    tmp_removed: int = 0
    index_pruned: int = 0

    def as_dict(self) -> dict:
        return {
            "quarantined_removed": self.quarantined_removed,
            "tmp_removed": self.tmp_removed,
            "index_pruned": self.index_pruned,
        }


class ResultStore(ResultCache):
    """A :class:`ResultCache` with an integrity index and key-level API.

    Everything the cache guarantees still holds (atomic fsynced
    publishes, quarantine of undecodable entries, version-stamped
    digests); the store adds byte-level reads/writes by key — what an
    HTTP service needs — and digest verification on every keyed read.
    """

    INDEX_NAME = "index.json"

    def __init__(
        self, cache_dir: str | os.PathLike, version: int = CACHE_SCHEMA_VERSION
    ) -> None:
        super().__init__(cache_dir, version)
        self._lock = threading.RLock()
        self._entries: dict[str, dict] = {}
        self._load_index()

    # ------------------------------------------------------------------
    # keys and paths

    def key_for(self, config: SystemConfig, apps: Sequence[str]) -> str:
        """The content-addressed key (hex digest) of one job."""
        return job_key(config, apps, self.version)

    def path_for_key(self, key: str) -> Path:
        if not key or any(c not in "0123456789abcdef" for c in key):
            raise ValueError(f"malformed store key {key!r}")
        return self.cache_dir / f"{key}.pkl"

    def has(self, key: str) -> bool:
        return self.path_for_key(key).exists()

    def keys(self) -> list[str]:
        """Keys of every entry currently on disk, sorted."""
        return sorted(p.stem for p in self.cache_dir.glob("*.pkl"))

    # ------------------------------------------------------------------
    # index persistence

    @property
    def index_path(self) -> Path:
        return self.cache_dir / self.INDEX_NAME

    def _load_index(self) -> None:
        try:
            with open(self.index_path) as handle:
                doc = json.load(handle)
        except (FileNotFoundError, ValueError):
            self._entries = {}
            return
        if doc.get("schema") != INDEX_SCHEMA:
            self._entries = {}
            return
        entries = doc.get("entries", {})
        self._entries = entries if isinstance(entries, dict) else {}

    def _save_index(self) -> None:
        doc = {
            "schema": INDEX_SCHEMA,
            "entries": {k: self._entries[k] for k in sorted(self._entries)},
        }
        tmp = self.index_path.with_name(
            f"{self.index_path.name}.{os.getpid()}.{threading.get_ident()}.tmp"
        )
        with open(tmp, "w") as handle:
            json.dump(doc, handle, indent=2, sort_keys=True)
            handle.write("\n")
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self.index_path)

    def _index_entry(self, key: str, data: bytes) -> None:
        self._entries[key] = {
            "sha256": payload_digest(data),
            "size": len(data),
        }
        self._save_index()

    def index_record(self, key: str) -> dict | None:
        """The index row (sha256, size) for ``key``, if indexed."""
        record = self._entries.get(key)
        return dict(record) if record is not None else None

    # ------------------------------------------------------------------
    # reads

    def get_bytes(self, key: str) -> bytes | None:
        """Raw payload bytes for ``key``, integrity-checked.

        An indexed entry must hash to its recorded digest; an unindexed
        one (written by a plain :class:`ResultCache`) must unpickle to a
        valid :class:`MixResult`, after which it is indexed so later
        reads pay only the hash.  Any failure quarantines the entry and
        reads as a miss — corruption never propagates to a caller.
        """
        path = self.path_for_key(key)
        try:
            data = path.read_bytes()
        except FileNotFoundError:
            self.misses += 1
            return None
        except OSError as exc:  # pragma: no cover - unreadable file
            self._quarantine(path, f"{type(exc).__name__}: {exc}")
            return None
        with self._lock:
            record = self._entries.get(key)
            if record is not None:
                if payload_digest(data) != record.get("sha256"):
                    del self._entries[key]
                    self._save_index()
                    self._quarantine(path, "payload digest mismatch")
                    return None
            else:
                if not self._decodes(data):
                    self._quarantine(path, "unindexed entry failed to decode")
                    return None
                self._index_entry(key, data)
        self.hits += 1
        return data

    def get_by_key(self, key: str) -> MixResult | None:
        """Decode the stored :class:`MixResult` under ``key``."""
        data = self.get_bytes(key)
        if data is None:
            return None
        result = pickle.loads(data)
        if not self._valid_payload(result):
            self._quarantine(
                self.path_for_key(key),
                f"payload is {type(result).__name__}, not a MixResult",
            )
            self.hits -= 1
            return None
        return result

    @classmethod
    def _decodes(cls, data: bytes) -> bool:
        try:
            return cls._valid_payload(pickle.loads(data))
        except Exception:
            return False

    # ------------------------------------------------------------------
    # writes

    def publish(self, key: str, data: bytes) -> bool:
        """Compare-and-publish ``data`` under ``key``; True if installed.

        Losing the publish race is not an error — the winner's bytes
        are the same deterministic pickle — but either way the index
        ends up describing what is on disk.
        """
        path = self.path_for_key(key)
        with self._lock:
            published = self.publish_path(path, data)
            if published:
                self._index_entry(key, data)
            elif key not in self._entries:
                try:
                    self._index_entry(key, path.read_bytes())
                except OSError:  # pragma: no cover - entry vanished
                    pass
        return published

    def put(
        self, config: SystemConfig, apps: Sequence[str], result: MixResult
    ) -> bool:
        return self.publish(
            self.key_for(config, apps),
            pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL),
        )

    # ------------------------------------------------------------------
    # maintenance

    def stats(self) -> StoreStats:
        stats = StoreStats()
        for path in sorted(self.cache_dir.glob("*.pkl")):
            stats.entries += 1
            try:
                stats.bytes += path.stat().st_size
            except OSError:  # pragma: no cover - racing unlink
                pass
        with self._lock:
            stats.indexed = len(self._entries)
        if self.quarantine_dir.is_dir():
            for path in sorted(self.quarantine_dir.iterdir()):
                stats.quarantined += 1
                try:
                    stats.quarantined_bytes += path.stat().st_size
                except OSError:  # pragma: no cover - racing unlink
                    pass
        stats.stale_tmp = len(sorted(self.cache_dir.glob("*.tmp")))
        return stats

    def integrity(self) -> dict:
        """Cheap integrity summary for health/readiness reporting.

        Counts only — no hashing, no decoding — so ``/healthz`` can
        include it on every poll: entries on disk vs. indexed, the
        quarantine population, and the corrupt-read counter this
        process has accumulated.  A full :meth:`verify` remains the
        authoritative (and expensive) check.
        """
        with self._lock:
            indexed = len(self._entries)
        entries = len(sorted(self.cache_dir.glob("*.pkl")))
        quarantined = (
            len(sorted(self.quarantine_dir.iterdir()))
            if self.quarantine_dir.is_dir()
            else 0
        )
        return {
            "entries": entries,
            "indexed": indexed,
            "quarantined": quarantined,
            "corrupt_reads": self.corrupt,
        }

    def verify(self) -> VerifyReport:
        """Re-hash every entry against the index; quarantine mismatches."""
        report = VerifyReport()
        with self._lock:
            on_disk = {p.stem: p for p in sorted(self.cache_dir.glob("*.pkl"))}
            for key in sorted(set(self._entries) | set(on_disk)):
                path = on_disk.get(key)
                if path is None:
                    report.missing.append(key)
                    del self._entries[key]
                    continue
                try:
                    data = path.read_bytes()
                except OSError:  # pragma: no cover - unreadable file
                    report.corrupt.append(key)
                    self._quarantine(path, "unreadable during verify")
                    continue
                record = self._entries.get(key)
                if record is None:
                    if self._decodes(data):
                        self._entries[key] = {
                            "sha256": payload_digest(data),
                            "size": len(data),
                        }
                        report.healed += 1
                    else:
                        report.corrupt.append(key)
                        self._quarantine(path, "undecodable during verify")
                    continue
                if payload_digest(data) != record.get("sha256"):
                    report.corrupt.append(key)
                    del self._entries[key]
                    self._quarantine(path, "digest mismatch during verify")
                else:
                    report.ok += 1
            self._save_index()
        return report

    def reindex(self) -> int:
        """Rebuild the index from the payloads; returns entry count."""
        with self._lock:
            self._entries = {}
            for path in sorted(self.cache_dir.glob("*.pkl")):
                try:
                    data = path.read_bytes()
                except OSError:  # pragma: no cover - racing unlink
                    continue
                if self._decodes(data):
                    self._entries[path.stem] = {
                        "sha256": payload_digest(data),
                        "size": len(data),
                    }
            self._save_index()
            return len(self._entries)

    def gc(self) -> GCReport:
        """Drain the quarantine, remove temp orphans, prune the index.

        Quarantined entries exist only so repeated reads don't re-pay
        the decode failure; once an operator has inspected (or stopped
        caring about) them they are dead weight — before this existed
        ``quarantine/`` grew silently forever.
        """
        report = GCReport()
        if self.quarantine_dir.is_dir():
            for path in sorted(self.quarantine_dir.iterdir()):
                try:
                    path.unlink()
                    report.quarantined_removed += 1
                except OSError:  # pragma: no cover - racing unlink
                    pass
        # Only *stale* temp files are orphans.  A young tmp belongs to
        # a writer between fsync and os.link; unlinking it under that
        # writer turns its atomic publish into a FileNotFoundError.
        now = time.time()  # repro: allow(DET002) file-age housekeeping, not simulation
        for tmp in sorted(self.cache_dir.glob("*.tmp")):
            try:
                if now - tmp.stat().st_mtime > STALE_TMP_SECONDS:
                    tmp.unlink()
                    report.tmp_removed += 1
            except OSError:  # pragma: no cover - racing unlink
                pass
        with self._lock:
            live = {p.stem for p in sorted(self.cache_dir.glob("*.pkl"))}
            orphans = [k for k in self._entries if k not in live]
            for key in orphans:
                del self._entries[key]
            if orphans:
                self._save_index()
            report.index_pruned = len(orphans)
        return report


__all__ = [
    "GCReport",
    "INDEX_SCHEMA",
    "ResultStore",
    "StoreStats",
    "VerifyReport",
    "job_key",
    "payload_digest",
]
