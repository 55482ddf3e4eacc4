"""Per-layer tracing from outside the program.

:class:`Tracer` replaces public entry points of the repo's modules with
wrappers that record a span around every call: call counts, self time
(span minus the time covered by nested traced spans on the same
thread) and a few counters read from arguments and return values.
Nothing inside ``src/`` is edited; :meth:`Tracer.installed` puts every
original function back when it exits.

Spans live in per-thread records so the served workload's scheduler
thread, HTTP handler threads and client thread never share a counter.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import threading
import time
from collections import defaultdict

#: Per-layer metrics of the traced run, in BENCHMARK.json order.
PER_LAYER = (
    ("build.calls", "count"),
    ("build.self_s", "s"),
    ("core.self_s", "s"),
    ("sim.cycles", "count"),
    ("sim.instructions", "count"),
    ("events.calls", "count"),
    ("events.fired", "count"),
    ("events.self_s", "s"),
    ("cache.accesses", "count"),
    ("cache.l2_hit_ratio", "ratio"),
    ("cache.mshr_merges", "count"),
    ("cache.self_s", "s"),
    ("dram.requests", "count"),
    ("dram.row_hit_ratio", "ratio"),
    ("dram.read_latency_cyc", "cycles"),
    ("dram.self_s", "s"),
    ("uops.generated", "count"),
    ("uops.self_s", "s"),
    ("sched.jobs", "count"),
    ("sched.wait_s", "s"),
    ("store.writes", "count"),
    ("store.bytes_written", "bytes"),
    ("store.write_s", "s"),
    ("store.read_s", "s"),
    ("api.reads", "count"),
    ("api.lru_hit_ratio", "ratio"),
    ("api.self_s", "s"),
    ("api.read_p99_ms", "ms"),
    ("trace.overhead", "ratio"),
)

#: Exact counts: they repeat run to run and are pinned at the default seed.
PINNED_COUNTS = (
    "sim.cycles",
    "sim.instructions",
    "events.fired",
    "dram.requests",
    "uops.generated",
    "store.writes",
)


class _ThreadRecord:
    __slots__ = ("calls", "self_s", "counts", "stack")

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        #: Child-time accumulators of the open spans, innermost last.
        self.stack: list[float] = []


class Tracer:
    """Spans and counters around the repo's public entry points."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._records: list[_ThreadRecord] = []
        self._lock = threading.Lock()
        #: ``(owner, attribute name, original)`` of every live wrapper.
        self.patched: list[tuple[object, str, object]] = []
        #: Submit time of each job identity (scheduler layer).
        self._submitted: dict[tuple, float] = {}
        self._waits: list[float] = []

    # ------------------------------------------------------------------
    # recording

    def _record(self) -> _ThreadRecord:
        record = getattr(self._local, "record", None)
        if record is None:
            record = _ThreadRecord()
            self._local.record = record
            with self._lock:
                self._records.append(record)
        return record

    def count(self, name: str, value: float = 1) -> None:
        self._record().counts[name] += value

    def wrap(self, owner, name: str, layer: str, after=None, before=None) -> None:
        """Replace ``owner.name`` with a span-recording wrapper.

        ``before(args)`` runs before the call and ``after(args, result)``
        after it returns; both see the positional arguments (``self``
        first for methods).  An entry point the program no longer has
        is skipped, so its layer reads 0.
        """
        original = vars(owner).get(name)
        if original is None:
            return
        label = f"{layer}:{name}"
        record_of = self._record
        clock = time.perf_counter

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            record = record_of()
            if before is not None:
                before(args)
            stack = record.stack
            stack.append(0.0)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = clock() - start
                child = stack.pop()
                if stack:
                    stack[-1] += elapsed
                record.self_s[layer] += elapsed - child
                record.calls[label] += 1
            if after is not None:
                after(args, result)
            return result

        setattr(owner, name, wrapper)
        self.patched.append((owner, name, original))

    def restore(self) -> None:
        """Put every original entry point back, newest wrapper first."""
        while self.patched:
            owner, name, original = self.patched.pop()
            setattr(owner, name, original)

    # ------------------------------------------------------------------
    # entry points

    def install(self) -> None:
        """Wrap the public entry points of every measured layer."""
        from repro.cache.hierarchy import MemoryHierarchy
        from repro.common.events import EventQueue
        from repro.cpu.core import SMTCore
        from repro.dram import schedulers
        from repro.dram.system import MemorySystem
        from repro.experiments import parallel, runner
        from repro.service.api import PayloadLRU, ServiceApp
        from repro.service.scheduler import CampaignScheduler
        from repro.service.store import ResultStore
        from repro.workloads.generator import SyntheticStream

        self.wrap(runner, "build_system", "build")
        self.wrap(runner, "run_mix", "job", before=self._job_start, after=self._job_done)
        self.wrap(parallel, "run_mix", "job", before=self._job_start, after=self._job_done)
        self.wrap(SMTCore, "run", "core", after=self._core_done)
        self.wrap(EventQueue, "run_until", "events", after=self._events_fired)
        self.wrap(MemoryHierarchy, "load", "cache")
        self.wrap(MemoryHierarchy, "store", "cache")
        self.wrap(MemorySystem, "submit", "dram")
        for cls in vars(schedulers).values():
            if isinstance(cls, type) and issubclass(cls, schedulers.Scheduler):
                self.wrap(cls, "select", "dram")
        self.wrap(SyntheticStream, "next_uop", "uops")
        self.wrap(CampaignScheduler, "submit_job", "sched", before=self._job_submitted)
        self.wrap(ResultStore, "publish", "store.write", after=self._published)
        self.wrap(ResultStore, "get_bytes", "store.read")
        self.wrap(parallel.ResultCache, "get", "store.read")
        self.wrap(ServiceApp, "payload", "api")
        self.wrap(PayloadLRU, "get", "api", after=self._lru_lookup)

    @contextlib.contextmanager
    def installed(self):
        """Trace inside the block; originals are back when it exits."""
        self.install()
        try:
            yield self
        finally:
            self.restore()

    # ------------------------------------------------------------------
    # probes (run just outside the wrapped call's span)

    def _job_submitted(self, args) -> None:
        _, config, apps = args[:3]
        with self._lock:
            self._submitted.setdefault((config.cache_key(), tuple(apps)), time.perf_counter())

    def _job_start(self, args) -> None:
        identity = (args[0].cache_key(), tuple(args[1]))
        with self._lock:
            submitted = self._submitted.pop(identity, None)
            if submitted is not None:
                self._waits.append(time.perf_counter() - submitted)

    def _job_done(self, args, result) -> None:
        self.count("cache.mshr_merges", result.hierarchy.mshr_merges)
        dram = result.dram
        if dram is not None:
            self.count("dram.row_hits", dram.row_buffer.hits)
            self.count("dram.row_accesses", dram.row_buffer.total)
            self.count("dram.read_latency_sum", dram.read_latency_sum)
            self.count("dram.reads", dram.reads)

    def _core_done(self, args, result) -> None:
        core = args[0]
        self.count("sim.cycles", core.cycle)
        self.count("sim.instructions", sum(t.committed for t in core.threads))
        l2 = getattr(getattr(core.hierarchy, "l2", None), "stats", None)
        if l2 is not None:
            self.count("cache.l2_hits", l2.hits)
            self.count("cache.l2_accesses", l2.total)

    def _events_fired(self, args, fired) -> None:
        if fired:
            self.count("events.fired", fired)

    def _published(self, args, result) -> None:
        self.count("store.bytes_written", len(args[2]))

    def _lru_lookup(self, args, data) -> None:
        if data is not None:
            self.count("api.lru_hits")

    # ------------------------------------------------------------------
    # results

    def totals(self) -> tuple[dict, dict, dict]:
        """Merged ``(calls, self_s, counts)`` over every thread."""
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        counts: dict[str, float] = defaultdict(float)
        with self._lock:
            records = list(self._records)
        for record in records:
            for key, value in record.calls.items():
                calls[key] += value
            for key, value in record.self_s.items():
                self_s[key] += value
            for key, value in record.counts.items():
                counts[key] += value
        return calls, self_s, counts

    def metrics(self, read_latencies_s: list[float]) -> dict[str, float]:
        """Every per-layer metric except ``trace.overhead``."""
        calls, self_s, counts = self.totals()

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        lru_gets = calls["api:get"]
        served = calls["api:payload"] > 0 and len(read_latencies_s) >= 2
        p99 = (
            statistics.quantiles(read_latencies_s, n=100, method="inclusive")[98] * 1e3
            if served
            else 0.0
        )
        with self._lock:
            waits = list(self._waits)
        return {
            "build.calls": calls["build:build_system"],
            "build.self_s": self_s["build"],
            "core.self_s": self_s["core"],
            "sim.cycles": counts["sim.cycles"],
            "sim.instructions": counts["sim.instructions"],
            "events.calls": calls["events:run_until"],
            "events.fired": counts["events.fired"],
            "events.self_s": self_s["events"],
            "cache.accesses": calls["cache:load"] + calls["cache:store"],
            "cache.l2_hit_ratio": ratio(counts["cache.l2_hits"], counts["cache.l2_accesses"]),
            "cache.mshr_merges": counts["cache.mshr_merges"],
            "cache.self_s": self_s["cache"],
            "dram.requests": calls["dram:submit"],
            "dram.row_hit_ratio": ratio(counts["dram.row_hits"], counts["dram.row_accesses"]),
            "dram.read_latency_cyc": ratio(counts["dram.read_latency_sum"], counts["dram.reads"]),
            "dram.self_s": self_s["dram"],
            "uops.generated": calls["uops:next_uop"],
            "uops.self_s": self_s["uops"],
            "sched.jobs": len(waits),
            "sched.wait_s": statistics.fmean(waits) if waits else 0.0,
            "store.writes": calls["store.write:publish"],
            "store.bytes_written": counts["store.bytes_written"],
            "store.write_s": self_s["store.write"],
            "store.read_s": self_s["store.read"],
            "api.reads": calls["api:payload"],
            "api.lru_hit_ratio": ratio(counts["api.lru_hits"], lru_gets),
            "api.self_s": self_s["api"],
            "api.read_p99_ms": p99,
        }
