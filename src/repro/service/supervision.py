"""Lease-based job supervision for the campaign scheduler.

The scheduler trusts its worker machinery: a batch that wedges
(a hung pool worker with no timeout policy, an OOM-killed process
whose pool never surfaces the break, a scheduler thread stuck in a
syscall) holds its jobs in ``running`` forever, and a ``kill -9`` of
the whole service orphans every in-flight job until someone notices.
This module closes that gap with one mechanism — the **lease**:

* Every job entering execution is granted a persisted lease: a
  ``grant`` record in the service log (``service/log.jsonl``, a
  :class:`~repro.common.journal.Journal`) naming the job key, its run
  id, the holding batch, and the attempt number, plus an in-memory
  heartbeat deadline.
* Progress is the heartbeat.  The :class:`Supervisor` thread watches
  the content-addressed store: a lease whose result has landed is
  released; any landing renews every sibling lease (a batch that is
  completing jobs is alive, however slow).
* A lease that outlives its deadline with no progress anywhere means
  the worker is wedged.  The supervisor *reclaims* it: a ``reclaim``
  record is written, the wedged worker processes are killed (the
  scheduler's callback), and the job re-queues with its attempt
  history — so a hang converges to the same recovery path a crash or
  an OOM kill already takes (broken pool → rebuild → retry).
* A ``kill -9`` of the whole service leaves ``grant`` records with no
  ``release``.  On ``resume=True`` those orphans are detected,
  journaled as reclaimed, and counted — and because the queue replay
  re-runs exactly the jobs whose results are not in the store, a
  resumed scheduler never double-runs or orphans a job.

The log is the exactly-once proof: for any recovered deployment,
:meth:`LeaseLog.completions` must map every job key to exactly one
``release``/``done`` event, however many grants, reclaims, and
process deaths happened in between.  The chaos suite asserts this.

Determinism note: lease records carry durations and attempt counts,
never wall-clock timestamps — deadlines live only in memory (monotonic
clock) and are meaningless across processes, so nothing
nondeterministic is persisted.
"""

from __future__ import annotations

import logging
import threading
import time
from dataclasses import dataclass
from typing import Callable, Iterable

from repro.common.journal import Journal

log = logging.getLogger("repro.service.supervision")

#: The record events a lease log writes.
LEASE_EVENTS = ("grant", "release", "reclaim")

#: Default heartbeat budget: a batch must complete *some* job (or be
#: explicitly renewed) this often or it is considered wedged.
DEFAULT_LEASE_S = 30.0

#: Terminal outcomes a release record may carry.
RELEASE_OUTCOMES = ("done", "failed", "requeued", "shutdown")


@dataclass
class Lease:
    """One in-flight job's liveness contract (in-memory view)."""

    key: str
    run_id: str
    holder: str
    attempt: int
    lease_s: float
    #: Monotonic heartbeat deadline; renewals push it forward.
    deadline: float
    renewals: int = 0

    def renew(self, now: float) -> None:
        self.deadline = now + self.lease_s
        self.renewals += 1

    def expired(self, now: float) -> bool:
        return now >= self.deadline

    def as_dict(self) -> dict:
        return {
            "key": self.key,
            "run_id": self.run_id,
            "holder": self.holder,
            "attempt": self.attempt,
            "renewals": self.renewals,
        }


@dataclass
class SupervisionStats:
    """Counters for everything the supervision layer did.

    Mirrored into the scheduler's manifest (``extra["supervision"]``)
    and the ``/healthz`` document, so an operator — or the chaos
    harness — can see what a deployment survived.
    """

    granted: int = 0
    released: int = 0
    renewals: int = 0
    reclaimed: int = 0
    orphans_recovered: int = 0
    worker_kills: int = 0
    requeues: int = 0
    scheduler_crashes: int = 0
    shed: int = 0
    read_only_rejections: int = 0
    deadline_rejections: int = 0

    def as_dict(self) -> dict:
        return {
            "granted": self.granted,
            "released": self.released,
            "renewals": self.renewals,
            "reclaimed": self.reclaimed,
            "orphans_recovered": self.orphans_recovered,
            "worker_kills": self.worker_kills,
            "requeues": self.requeues,
            "scheduler_crashes": self.scheduler_crashes,
            "shed": self.shed,
            "read_only_rejections": self.read_only_rejections,
            "deadline_rejections": self.deadline_rejections,
        }

    @property
    def eventful(self) -> bool:
        """Whether anything beyond plain grant/release happened."""
        plain = {"granted", "released", "renewals"}
        return any(v for k, v in self.as_dict().items() if k not in plain)


class LeaseLog:
    """The lease records of a crash-safe :class:`Journal`.

    The scheduler hands in its one service log.  If the journal was
    resumed, every orphaned grant it replayed (a grant the killed
    process never released) is resolved: if ``has_result`` says the
    job's result landed, the orphan gets the ``release/done`` record
    the crash swallowed — the store entry is proof the job completed,
    and without the compensating record the exactly-once proof
    (:meth:`completions`) would undercount a job that did run.
    Orphans with no result are reclaimed with ``reason="orphaned"`` so
    the scheduler re-runs them.
    """

    def __init__(
        self,
        journal: Journal,
        stats: SupervisionStats | None = None,
        has_result: Callable[[str], bool] | None = None,
    ) -> None:
        self.journal = journal
        self.stats = stats if stats is not None else SupervisionStats()
        self._active: dict[str, Lease] = {}
        orphans = self._orphans(self.journal.replayed)
        completed = 0
        for grant in orphans:
            key = grant["key"]
            record = {
                "key": key,
                "holder": grant.get("holder", ""),
                "attempt": grant.get("attempt", 0),
            }
            if has_result is not None and has_result(key):
                # The killed process wrote this result but died before
                # a supervisor tick could release the lease (the store
                # write and the release are separate fsyncs, so a
                # kill -9 can land between them).
                self.journal.append(
                    {"event": "release", "outcome": "done", **record}
                )
                self.stats.released += 1
                completed += 1
            else:
                self.journal.append(
                    {"event": "reclaim", "reason": "orphaned", **record}
                )
                self.stats.reclaimed += 1
            self.stats.orphans_recovered += 1
        if orphans:
            log.warning(
                "recovered %d orphaned lease(s) from the previous "
                "deployment (%d already had results)",
                len(orphans),
                completed,
            )

    @staticmethod
    def _orphans(records: list[dict]) -> list[dict]:
        """Grant records never released or reclaimed, by key."""
        open_grants: dict[str, dict] = {}
        for record in records:
            event = record.get("event")
            key = record.get("key")
            if event == "grant" and isinstance(key, str):
                open_grants[key] = record
            elif event in ("release", "reclaim") and isinstance(key, str):
                open_grants.pop(key, None)
        return [open_grants[k] for k in sorted(open_grants)]

    # ------------------------------------------------------------------
    # the lease lifecycle

    def grant(
        self,
        key: str,
        run_id: str,
        holder: str,
        attempt: int,
        lease_s: float = DEFAULT_LEASE_S,
        now: float | None = None,
    ) -> Lease:
        """Grant (or re-grant) the lease for one in-flight job."""
        now = time.monotonic() if now is None else now
        lease = Lease(
            key=key,
            run_id=run_id,
            holder=holder,
            attempt=attempt,
            lease_s=lease_s,
            deadline=now + lease_s,
        )
        self._active[key] = lease
        self.journal.append(
            {
                "event": "grant",
                "key": key,
                "run": run_id,
                "holder": holder,
                "attempt": attempt,
                "lease_s": lease_s,
            }
        )
        self.stats.granted += 1
        return lease

    def renew(self, key: str, now: float | None = None) -> bool:
        """Heartbeat: push the lease deadline forward (in-memory only)."""
        lease = self._active.get(key)
        if lease is None:
            return False
        lease.renew(time.monotonic() if now is None else now)
        self.stats.renewals += 1
        return True

    def renew_all(self, now: float | None = None) -> int:
        now = time.monotonic() if now is None else now
        for lease in self._active.values():
            lease.renew(now)
            self.stats.renewals += 1
        return len(self._active)

    def release(self, key: str, outcome: str = "done") -> bool:
        """Release an active lease; False if no lease is held for ``key``."""
        if outcome not in RELEASE_OUTCOMES:
            raise ValueError(f"unknown release outcome {outcome!r}")
        lease = self._active.pop(key, None)
        if lease is None:
            return False
        self.journal.append(
            {
                "event": "release",
                "key": key,
                "holder": lease.holder,
                "attempt": lease.attempt,
                "outcome": outcome,
            }
        )
        self.stats.released += 1
        return True

    def reclaim(self, key: str, reason: str) -> Lease | None:
        """Forcibly take back an active lease (the holder is wedged/dead)."""
        lease = self._active.pop(key, None)
        if lease is None:
            return None
        self.journal.append(
            {
                "event": "reclaim",
                "key": key,
                "holder": lease.holder,
                "attempt": lease.attempt,
                "reason": reason,
            }
        )
        self.stats.reclaimed += 1
        return lease

    # ------------------------------------------------------------------
    # queries

    def active(self) -> dict[str, Lease]:
        return dict(self._active)

    def held(self, key: str) -> bool:
        return key in self._active

    def expired(self, now: float | None = None) -> list[Lease]:
        now = time.monotonic() if now is None else now
        return [
            self._active[key]
            for key in sorted(self._active)
            if self._active[key].expired(now)
        ]

    def states(self) -> dict:
        """Lease-state summary for health/readiness reporting."""
        return {
            "held": len(self._active),
            "granted": self.stats.granted,
            "released": self.stats.released,
            "reclaimed": self.stats.reclaimed,
            "orphans_recovered": self.stats.orphans_recovered,
        }

    # ------------------------------------------------------------------
    # the exactly-once proof

    def history(self) -> list[dict]:
        """Every durable lease event, in order (read back from disk)."""
        return [
            record for record in self.journal.read()
            if record.get("event") in LEASE_EVENTS
        ]

    def completions(self) -> dict[str, int]:
        """``key -> count of release/done events`` over the whole log.

        For a correctly recovered deployment every executed job maps to
        exactly ``1`` — the chaos harness's exactly-once assertion.
        """
        return lease_completions(self.journal.read())


class Supervisor:
    """The scheduler's watchdog thread.

    Periodically, under the scheduler's lock:

    1. releases leases whose results have landed in the store (landing
       *is* the heartbeat);
    2. renews every remaining lease if anything landed this tick — a
       slow batch that is making progress is healthy;
    3. reclaims leases past their deadline and hands them to
       ``on_expired`` (the scheduler kills the wedged workers and
       requeues the jobs);
    4. if the scheduler thread itself has crashed, reclaims everything
       (nothing will ever land) so lease state reflects reality while
       the API degrades to read-only.

    All dependencies are injected, so the supervisor is unit-testable
    with plain callables — no scheduler required.
    """

    def __init__(
        self,
        leases: LeaseLog,
        cond: threading.Condition,
        has_result: Callable[[str], bool],
        on_expired: Callable[[list[Lease]], None],
        is_crashed: Callable[[], bool] = lambda: False,
        on_landed: Callable[[str], None] | None = None,
        poll_s: float = 0.25,
    ) -> None:
        self.leases = leases
        self.cond = cond
        self.has_result = has_result
        self.on_expired = on_expired
        self.is_crashed = is_crashed
        self.on_landed = on_landed
        self.poll_s = poll_s
        self.ticks = 0
        self._wake = threading.Event()
        self._thread: threading.Thread | None = None

    # ------------------------------------------------------------------

    def tick(self, now: float | None = None) -> list[Lease]:
        """One supervision pass; returns the leases reclaimed (if any)."""
        now = time.monotonic() if now is None else now
        with self.cond:
            self.ticks += 1
            active = self.leases.active()
            landed = [
                key for key in sorted(active) if self.has_result(key)
            ]
            for key in landed:
                self.leases.release(key, "done")
                if self.on_landed is not None:
                    self.on_landed(key)
            if landed:
                # Progress anywhere proves the worker is alive; give
                # every sibling a fresh heartbeat window.
                self.leases.renew_all(now)
                self.cond.notify_all()
            if self.is_crashed():
                reclaimed = [
                    lease
                    for lease in (
                        self.leases.reclaim(key, "scheduler-crashed")
                        for key in sorted(self.leases.active())
                    )
                    if lease is not None
                ]
            else:
                reclaimed = []
                for lease in self.leases.expired(now):
                    taken = self.leases.reclaim(lease.key, "lease-expired")
                    if taken is not None:
                        reclaimed.append(taken)
        if reclaimed:
            # Outside the lock: the callback may kill processes and
            # mutate scheduler state under its own locking discipline.
            self.on_expired(reclaimed)
        return reclaimed

    def _loop(self) -> None:
        while not self._wake.wait(self.poll_s):
            try:
                self.tick()
            except Exception:  # pragma: no cover - defensive watchdog
                log.exception("supervisor tick failed")

    def start(self) -> "Supervisor":
        if self._thread is None:
            self._wake.clear()
            self._thread = threading.Thread(
                target=self._loop, name="repro-supervisor", daemon=True
            )
            self._thread.start()
        return self

    def stop(self, timeout: float | None = 5.0) -> None:
        self._wake.set()
        if self._thread is not None:
            self._thread.join(timeout)
            self._thread = None


def lease_completions(records: Iterable[dict]) -> dict[str, int]:
    """``key -> count of release/done events`` among ``records``.

    :meth:`LeaseLog.completions` over a log this process does not own
    (``lease_completions(read_records(path))``).
    """
    counts: dict[str, int] = {}
    for record in records:
        if record.get("event") == "release" and record.get("outcome") == "done":
            key = record.get("key")
            if isinstance(key, str):
                counts[key] = counts.get(key, 0) + 1
    return counts


def kill_worker_processes() -> int:
    """SIGKILL every live child worker process; returns the body count.

    The wedged-worker reclamation path: pool workers are the only
    child processes a scheduler owns, and killing them converges a
    hang onto the exact recovery path an OOM kill already takes —
    ``BrokenProcessPool`` → pool rebuild → bounded retry.
    """
    import multiprocessing

    killed = 0
    for proc in multiprocessing.active_children():
        try:
            proc.kill()
            killed += 1
        except Exception:  # pragma: no cover - already-dead race
            pass
    return killed


__all__ = [
    "DEFAULT_LEASE_S",
    "LEASE_EVENTS",
    "Lease",
    "LeaseLog",
    "RELEASE_OUTCOMES",
    "Supervisor",
    "SupervisionStats",
    "kill_worker_processes",
    "lease_completions",
]
