"""One crash-safe JSONL log: the durable state of batches and the service.

A :class:`Journal` owns everything about an append-only file of JSON
objects, one per line, so the record vocabularies built on it
(:class:`~repro.experiments.resilience.BatchJournal`,
:class:`~repro.service.supervision.LeaseLog`, the campaign scheduler's
queue) never open, parse or fsync a file themselves.  A fresh log is
truncated and starts with one schema header.  A resumed log is
replayed once, at open, into :attr:`Journal.replayed`: blank lines and
torn lines (the interrupted write of a killed process) are skipped,
and an unterminated tail is newline-terminated before anything is
appended.  :meth:`Journal.append` writes one sorted-key JSON line and
flushes and fsyncs it under the journal's own lock, because a
service's scheduler, supervisor and API threads share one log.
Records carry no timestamps (``repro lint --deep`` treats
:meth:`Journal.append` as a TNT003 determinism sink).
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path
from typing import Any

#: Log schema version, written in the header of every fresh log.
SCHEMA = 1

#: One log record: a JSON object.
Record = dict[str, Any]
PathArg = str | os.PathLike[str]


def _parse(text: str) -> list[Record]:
    records: list[Record] = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except ValueError:
            # A torn write from a killed process: the event it
            # described never durably happened.
            continue
        if isinstance(record, dict):
            records.append(record)
    return records


def read_records(path: PathArg) -> list[Record]:
    """Every intact record of the log at ``path``, in order.

    Safe to call while another process appends; a missing file reads
    as empty.
    """
    try:
        return _parse(Path(path).read_text(errors="replace"))
    except FileNotFoundError:
        return []


class Journal:
    """An append-only, fsynced JSONL log (see the module docstring)."""

    def __init__(self, path: PathArg, resume: bool = False) -> None:
        self.path = Path(path).expanduser()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        resume = resume and self.path.exists()
        data = self.path.read_bytes() if resume else b""
        #: The records a resumed log already held (empty when fresh).
        #: The owner empties it once its vocabularies have read it.
        self.replayed = _parse(data.decode(errors="replace"))
        self._handle = open(self.path, "a")
        if not resume:
            self._handle.truncate(0)
            self.append({"event": "log-start", "schema": SCHEMA})
        elif data[-1:] not in (b"", b"\n"):
            self._handle.write("\n")
            self._handle.flush()

    def append(self, record: Record) -> None:
        """Durably append one record (flushed and fsynced on return)."""
        line = json.dumps(record, sort_keys=True) + "\n"
        with self._lock:
            self._handle.write(line)
            self._handle.flush()
            os.fsync(self._handle.fileno())

    def read(self) -> list[Record]:
        """Every intact record now in the log, this run's included."""
        return read_records(self.path)

    def close(self) -> None:
        with self._lock:
            if not self._handle.closed:
                self._handle.close()


__all__ = ["SCHEMA", "Journal", "read_records"]
