"""Batch execution with a persistent result cache.

Every figure of the paper fans out dozens of *independent*
``(config, apps)`` simulations.  :func:`run_many` is the one path that
fan-out takes -- :class:`~repro.experiments.runner.Runner` and the
service scheduler both call it -- and it serves each job from the
first layer that has it:

1. **In-process memo** — a plain dict owned by the caller (a
   runner's memo, the scheduler's), so repeated requests are free.
2. **Persistent on-disk cache** — :class:`ResultCache` pickles each
   :class:`~repro.experiments.runner.MixResult` under
   :func:`job_key`, a digest of ``config.cache_key()``, the app tuple
   and a schema version stamp.  Reruns of a figure sweep (or a
   different driver needing the same baselines) complete without
   simulating anything.
3. **Fresh simulation** — remaining misses are deduplicated and run by
   :func:`~repro.experiments.resilience.execute_jobs`, serially or
   across a process pool.  Results are collected *by submission
   index*, never by completion order, so the output is deterministic
   and bit-identical to a serial run (each simulation is already
   deterministic given its config).
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import logging
import os
import pickle
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Sequence

from repro.analysis.sanitizer import SimSanitizer
from repro.experiments.config import SystemConfig
from repro.experiments.resilience import (
    BatchJournal,
    ResilienceStats,
    RetryPolicy,
    execute_jobs,
)
from repro.experiments.runner import MixResult, run_mix
from repro.faults import FaultPlan
from repro.telemetry import Telemetry
from repro.telemetry.manifest import run_id

log = logging.getLogger("repro.experiments.parallel")

#: ``*.tmp`` orphans older than this are removed on cache init; younger
#: ones may belong to a concurrent writer mid-``put`` and are left alone.
STALE_TMP_SECONDS = 3600.0

#: Bump whenever the meaning of cached results changes (simulator
#: semantics, MixResult schema, profile calibration, ...).  A bump
#: silently invalidates every previously written cache entry.
#: v2: MixResult grew the ``metrics`` telemetry-snapshot field.
CACHE_SCHEMA_VERSION = 2


def job_key(
    config: SystemConfig,
    apps: Sequence[str],
    version: int = CACHE_SCHEMA_VERSION,
) -> str:
    """The content-addressed key of one job: the SHA-256 hex digest of
    ``(version, config.cache_key(), apps)``.

    The one derivation behind cache file names, store keys and the
    service client's idempotency keys.
    """
    raw = (version, config.cache_key(), tuple(apps))
    return hashlib.sha256(repr(raw).encode()).hexdigest()


def _interned_strings(dc):
    """A copy of dataclass ``dc`` with every string field re-interned.

    A config that crossed a process boundary holds fresh (unpickled)
    string objects, while a locally built one holds compile-time
    interned literals shared with the simulator internals.  The values
    are equal either way, but the *object sharing* differs, so pickles
    of the two results differ byte-wise.  Re-interning in the worker
    restores the sharing, making pooled cache/store writes
    byte-identical to serial ones.
    """
    changes = {
        f.name: sys.intern(value)
        for f in dataclasses.fields(dc)
        if isinstance(value := getattr(dc, f.name), str)
    }
    return dataclasses.replace(dc, **changes) if changes else dc


def _worker_job(
    config: SystemConfig, apps: tuple[str, ...]
) -> tuple[SystemConfig, tuple[str, ...]]:
    """Normalize an unpickled job in the worker (see _interned_strings)."""
    config = _interned_strings(config)
    if config.core is not None:
        config = dataclasses.replace(config, core=_interned_strings(config.core))
    return config, tuple(sys.intern(a) for a in apps)


def _simulate(
    config: SystemConfig,
    apps: tuple[str, ...],
    metrics: bool = False,
    sanitize: bool = False,
) -> MixResult:
    """The one simulation entry point, in-process or in a pool worker.

    Module-level so it pickles across the pool.  ``metrics`` gives the
    run a live metric registry whose snapshot travels back on
    ``MixResult.metrics`` (plain builtins, so it pickles).
    ``sanitize`` checks the run under a
    :class:`~repro.analysis.sanitizer.SimSanitizer` of its own and
    raises :class:`~repro.analysis.sanitizer.SanitizerError` on any
    violation; the checks are observe-only, so the result is
    bit-identical to a plain run.
    """
    config, apps = _worker_job(config, apps)
    telemetry = Telemetry() if metrics else None
    sanitizer = None
    if sanitize:
        sanitizer = SimSanitizer(
            tracer=telemetry.tracer if telemetry is not None else None
        )
    result = run_mix(config, apps, telemetry=telemetry, sanitizer=sanitizer)
    if sanitizer is not None:
        sanitizer.raise_if_violations()
    return result


class ResultCache:
    """Persistent, versioned store of :class:`MixResult` objects.

    Entries are one pickle file per job under ``cache_dir``, named by
    :func:`job_key`.  Writes go
    through a per-pid temp file that is fsynced before
    :func:`os.replace`, so neither concurrent workers nor a host crash
    can leave a torn or zero-length "valid" entry behind.

    An entry that cannot be read back — truncated pickle, garbage
    bytes, or a payload that is not a :class:`MixResult` of the
    expected shape — is *quarantined*: moved to
    ``cache_dir/quarantine/`` (so the next lookup doesn't pay to fail
    on it again), counted in ``corrupt`` (separately from ``misses``),
    and logged with its path.  Lookups still just return ``None``;
    corruption is never raised at the reader.
    """

    def __init__(
        self, cache_dir: str | os.PathLike, version: int = CACHE_SCHEMA_VERSION
    ) -> None:
        self.cache_dir = Path(cache_dir).expanduser()
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        self.version = version
        self.hits = 0
        self.misses = 0
        #: Entries quarantined because they could not be decoded.
        self.corrupt = 0
        self._sweep_stale_tmp()

    def _sweep_stale_tmp(self) -> None:
        """Remove ``*.tmp`` orphans left by crashed writers.

        Only files older than :data:`STALE_TMP_SECONDS` are removed: a
        young temp file may belong to a live concurrent ``put`` whose
        ``os.replace`` has not happened yet.
        """
        now = time.time()  # repro: allow(DET002) file-age housekeeping, not simulation
        for tmp in sorted(self.cache_dir.glob("*.tmp")):
            try:
                if now - tmp.stat().st_mtime > STALE_TMP_SECONDS:
                    tmp.unlink()
                    log.warning("removed stale cache temp file %s", tmp)
            except OSError:
                pass  # already gone, or unreadable -- leave it

    # ------------------------------------------------------------------

    @property
    def quarantine_dir(self) -> Path:
        return self.cache_dir / "quarantine"

    def path_for(self, config: SystemConfig, apps: Sequence[str]) -> Path:
        """Cache file path for one job (exposed for inspection/tests)."""
        return self.cache_dir / f"{job_key(config, apps, self.version)}.pkl"

    def _quarantine(self, path: Path, reason: str) -> None:
        self.corrupt += 1
        target = self.quarantine_dir / path.name
        try:
            self.quarantine_dir.mkdir(exist_ok=True)
            os.replace(path, target)
        except OSError:
            # Lost a race (another reader quarantined it, or a writer
            # healed it); the warning below still records the sighting.
            target = path
        log.warning(
            "quarantined corrupt cache entry %s -> %s (%s); will re-simulate",
            path.name, target, reason,
        )

    def get(self, config: SystemConfig, apps: Sequence[str]) -> MixResult | None:
        path = self.path_for(config, apps)
        # Unpickling corrupt bytes can raise nearly anything (ValueError,
        # UnpicklingError, EOFError, ImportError, ...); any failure to
        # read an entry means re-simulating, never raising.
        try:
            with open(path, "rb") as handle:
                result = pickle.load(handle)
        except FileNotFoundError:
            self.misses += 1
            return None
        except Exception as exc:
            self._quarantine(path, f"{type(exc).__name__}: {exc}")
            return None
        if not self._valid_payload(result):
            self._quarantine(
                path, f"payload is {type(result).__name__}, not a MixResult"
            )
            return None
        self.hits += 1
        return result

    @staticmethod
    def _valid_payload(result: object) -> bool:
        """Schema check: only a well-formed :class:`MixResult` may escape.

        A wrong-type payload (hand-edited file, version skew, a pickle
        of something else entirely) would otherwise propagate into
        figure drivers and corrupt their output silently.
        """
        return (
            isinstance(result, MixResult)
            and isinstance(getattr(result, "apps", None), tuple)
            and getattr(result, "core", None) is not None
            and getattr(result, "hierarchy", None) is not None
        )

    def put(
        self, config: SystemConfig, apps: Sequence[str], result: MixResult
    ) -> bool:
        """Persist ``result``; returns whether this call published it.

        All writes go through :meth:`publish_path` (atomic first-writer-
        wins compare-and-publish), so two runners sharing a ``cache_dir``
        but not an in-process memo cannot race on the same key: each
        writer stages a privately named temp file and the first
        hard-link into place wins, the loser discards its
        (bit-identical) bytes.
        """
        return self.publish_path(
            self.path_for(config, apps),
            pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL),
        )

    def publish_path(self, path: Path, data: bytes) -> bool:
        """Atomically publish ``data`` at ``path``; first writer wins.

        The temp file is named by pid *and* thread id: two threads of
        one process (two runners sharing a cache_dir, a scheduler next
        to an API worker) stage to different files instead of
        interleaving writes into one.  The staged file is then
        hard-linked into place — link(2) fails if the name already
        exists, so of any number of racing writers *exactly one*
        observes success, with no check-then-act window.  An existing
        entry is left untouched — every writer of a key produces the
        same deterministic bytes, so the loser just drops its copy;
        readers only ever observe a complete entry either way.
        Returns True when this call installed the entry.
        """
        if path.exists():
            return False
        tmp = path.with_name(
            f"{path.name}.{os.getpid()}.{threading.get_ident()}.tmp"
        )
        with open(tmp, "wb") as handle:
            handle.write(data)
            # Without the fsync a host crash can surface the rename but
            # not the data, leaving a zero-length entry that passes the
            # atomic-replace contract while holding nothing.
            handle.flush()
            os.fsync(handle.fileno())
        try:
            os.link(tmp, path)
            published = True
        except FileExistsError:
            published = False
        except OSError:  # pragma: no cover - fs without hard links
            # Degrade to replace: content is still atomic and correct,
            # only the exactly-one-True return is best-effort here.
            published = not path.exists()
            if published:
                os.replace(tmp, path)
                return True
        try:
            tmp.unlink()
        except OSError:  # pragma: no cover - already swept
            pass
        return published

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        # Counting only -- entry order cannot influence the result.
        return sum(1 for _ in self.cache_dir.glob("*.pkl"))  # repro: allow(DET006) count only

    def clear(self) -> None:
        for entry in sorted(self.cache_dir.glob("*.pkl")):
            try:
                entry.unlink()
            except OSError:
                pass


def run_many(
    jobs: Sequence,
    parallelism: int = 1,
    cache: ResultCache | None = None,
    memo: dict | None = None,
    collect_metrics: bool = False,
    sanitize: bool = False,
    policy: RetryPolicy | None = None,
    journal: BatchJournal | None = None,
    stats: ResilienceStats | None = None,
    fault_plan: FaultPlan | None = None,
    record: Callable[..., None] | None = None,
) -> list[MixResult]:
    """Run a list of ``(config, apps)`` jobs, in parallel where possible.

    Results are returned in job order.  Duplicate jobs (same config
    identity and apps) are simulated once; all layers — ``memo`` (an
    in-process dict keyed ``(config.cache_key(), apps)``), the
    persistent ``cache``, and fresh simulation — are consulted in that
    order.  ``parallelism=1`` runs everything serially in-process,
    which is bit-identical to the pooled path and is the deterministic
    default.  ``collect_metrics`` gives each fresh simulation a live
    metric registry whose snapshot rides back on ``MixResult.metrics``;
    ``sanitize`` runs each under its own invariant checker.

    Fresh simulations execute through the fault-tolerant executor
    (:func:`repro.experiments.resilience.execute_jobs`): ``policy``
    adds per-job timeouts, bounded retries, and broken-pool recovery;
    ``journal`` makes the batch crash-safe and resumable (a job
    journaled complete on a previous, interrupted invocation is served
    from the cache without re-simulating); ``stats`` accumulates
    retry/timeout/crash counters; ``fault_plan`` deterministically
    injects failures (chaos testing).  Each fresh result is memoized
    and written to the cache *as it completes* — before its journal
    line — so an interruption at any point loses at most in-flight
    work.  Any failed job raises a
    :class:`~repro.common.errors.JobFailureError` subclass carrying the
    failing job's identity, with the original exception as its
    ``__cause__``.

    ``record(config, apps, source, wall_s, result)``, when given, is
    called once per job in job order after the batch: ``source`` is
    ``"memo"``, ``"disk-cache"``, ``"simulated"`` (in-process) or
    ``"pool"``, and ``wall_s`` is the job's own simulation time (0 for
    a served result).
    """
    normalized = [(config, tuple(apps)) for config, apps in jobs]
    results: list[MixResult | None] = [None] * len(normalized)
    served: list[tuple[str, float]] = [("memo", 0.0)] * len(normalized)
    indices_for: dict[tuple, list[int]] = {}
    todo: list[tuple[tuple, SystemConfig, tuple[str, ...]]] = []
    for i, (config, apps) in enumerate(normalized):
        key = (config.cache_key(), apps)
        if key in indices_for:  # duplicate of a miss seen earlier
            indices_for[key].append(i)
            continue
        cached = memo.get(key) if memo is not None else None
        if cached is None and cache is not None:
            cached = cache.get(config, apps)
            if cached is not None:
                served[i] = ("disk-cache", 0.0)
                if memo is not None:
                    memo[key] = cached
                # A journaled-complete job resumed from the cache: the
                # whole point of --resume.  (A cache hit without a
                # journal entry is ordinary cross-run reuse.)
                if (
                    journal is not None and stats is not None
                    and journal.completed(run_id(config, apps))
                ):
                    stats.resumed_jobs += 1
        if cached is not None:
            results[i] = cached
            continue
        indices_for[key] = [i]
        todo.append((key, config, apps))

    if todo:
        simulate: Callable[..., MixResult] = _simulate
        if collect_metrics or sanitize:
            simulate = functools.partial(
                _simulate, metrics=collect_metrics, sanitize=sanitize
            )

        def persist(
            todo_index: int, result: MixResult, source: str, wall_s: float
        ) -> None:
            key, config, apps = todo[todo_index]
            if memo is not None:
                memo[key] = result
            if cache is not None:
                cache.put(config, apps, result)
            served[indices_for[key][0]] = (
                "pool" if source == "pool" else "simulated", wall_s
            )

        fresh = execute_jobs(
            [(config, apps) for _, config, apps in todo],
            simulate,
            parallelism=parallelism,
            policy=policy,
            journal=journal,
            stats=stats,
            fault_plan=fault_plan,
            on_complete=persist,
        )
        for (key, _, _), result in zip(todo, fresh):
            for i in indices_for[key]:
                results[i] = result
    if record is not None:
        for (config, apps), result, (source, wall_s) in zip(
            normalized, results, served
        ):
            record(config, apps, source, wall_s, result)
    return results  # fully populated; None only if a job list was empty


__all__ = [
    "CACHE_SCHEMA_VERSION",
    "BatchJournal",
    "ResilienceStats",
    "ResultCache",
    "RetryPolicy",
    "job_key",
    "run_many",
]
