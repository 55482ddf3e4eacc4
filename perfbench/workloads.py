"""The benchmark's three workloads, each built from one of the paper's experiments.

A workload goes through four steps inside one fresh interpreter:
``setup`` (everything before the first job is submitted), ``campaign``
(the timed simulations), ``read`` (timed warm reads of finished
results) and ``verify`` (the figure table and simulated-instruction
count, untimed).  Nothing is shared between interpreters, so every
sample starts with an empty µop stream memo and an empty result store.

* ``fig10-mem8``: Figure 10's six DRAM schedulers on 8-MEM through a
  plain ``Runner`` (the CLI's default path): the stall-window kernel,
  MSHRs and every DRAM scheduler.
* ``fetch-ilp8``: Figure 2's four fetch policies on 8-ILP, the
  compute-bound control: per-µop fetch/dispatch and µop generation
  dominate and DRAM is idle, so a DRAM change must read "no change".
* ``served-fig10``: a ``ResultStore``, ``CampaignScheduler(workers=1)``
  and the HTTP API in one process, driven by one closed-loop
  ``ServiceClient``: Figure 10 over 2-MEM and 4-MEM cold, then every
  result read back round-robin.
"""

from __future__ import annotations

import hashlib
import threading
import time
from pathlib import Path

#: Warm reads per sample, round-robin over the campaign's results.
#: 1,000 leaves ten reads beyond the 99th percentile.
READS = 1000


def _config(seed: int, instructions: int):
    from repro.experiments.config import SystemConfig

    return SystemConfig(
        instructions_per_thread=instructions,
        warmup_instructions=instructions // 4,
        seed=seed,
    )


def _simulated_instructions(jobs, results) -> int:
    """Warm-up plus measured instructions committed, summed over jobs."""
    return sum(
        result.core.total_committed + len(apps) * config.warmup_instructions
        for (config, apps), result in zip(jobs, results)
    )


class FigureWorkload:
    """One figure driver run through a plain ``Runner``."""

    def __init__(self, experiment: str, mixes: list[str], instructions: int) -> None:
        self.experiment = experiment
        self.mixes = mixes
        self.instructions = instructions

    def setup(self, seed: int, workdir: Path) -> None:
        from repro.experiments.figures import EXPERIMENTS
        from repro.experiments.runner import Runner

        self.workdir = workdir
        self.config = _config(seed, self.instructions)
        self.driver = EXPERIMENTS[self.experiment]
        self.runner = Runner()

    def campaign(self) -> float:
        start = time.perf_counter()
        self.result = self.driver(self.config, self.runner, mixes=self.mixes)
        return time.perf_counter() - start

    def prepare_reads(self) -> None:
        """Publish every result to an on-disk result cache (untimed).

        The warm read of a local campaign is what a ``--cache-dir``
        rerun does: one ``ResultCache.get`` per job.
        """
        from repro.experiments.parallel import ResultCache
        from repro.service.jobs import campaign_jobs

        self.jobs = campaign_jobs(self.experiment, self.config, self.mixes)
        self.results = self.runner.run_many(self.jobs)
        self.cache = ResultCache(self.workdir / "cache")
        for (config, apps), result in zip(self.jobs, self.results):
            self.cache.put(config, apps, result)

    def read(self, count: int) -> tuple[list[float], int]:
        """Time ``count`` warm reads; returns latencies and failures."""
        latencies, failures = [], 0
        jobs, results, get = self.jobs, self.results, self.cache.get
        for i in range(count):
            config, apps = jobs[i % len(jobs)]
            start = time.perf_counter()
            got = get(config, apps)
            latencies.append(time.perf_counter() - start)
            if got is None or got.core != results[i % len(jobs)].core:
                failures += 1
        return latencies, failures

    def verify(self) -> tuple[list, int, int]:
        """``(figure rows, simulated instructions, jobs)``."""
        rows = [list(row) for row in self.result.rows]
        return rows, _simulated_instructions(self.jobs, self.results), len(self.jobs)

    def close(self) -> None:
        pass


class ServedWorkload:
    """Store, scheduler and HTTP API in one process; one client."""

    experiment = "fig10"
    mixes = ["2-MEM", "4-MEM"]

    def __init__(self, instructions: int) -> None:
        self.instructions = instructions
        self.server = None
        self.scheduler = None

    def setup(self, seed: int, workdir: Path) -> None:
        from repro.service.api import make_server
        from repro.service.client import ServiceClient
        from repro.service.scheduler import CampaignScheduler
        from repro.service.store import ResultStore

        self.config = _config(seed, self.instructions)
        self.store = ResultStore(workdir / "store")
        self.scheduler = CampaignScheduler(self.store, workers=1).start()
        self.server = make_server(self.scheduler)
        self.thread = threading.Thread(target=self.server.serve_forever, daemon=True)
        self.thread.start()
        self.client = ServiceClient(self.server.url, timeout=120, retries=0)

    def campaign(self) -> float:
        """Submit the campaign; stop the clock when the scheduler drains.

        ``drain`` returns on the scheduler's own completion signal, so
        the timing has no polling quantum.
        """
        start = time.perf_counter()
        status = self.client.submit_campaign(self.experiment, self.config, self.mixes)
        drained = self.scheduler.drain(timeout=150)
        elapsed = time.perf_counter() - start
        if not drained:
            raise RuntimeError("campaign did not drain within 150 s")
        self.keys = sorted(status["states"])
        return elapsed

    def prepare_reads(self) -> None:
        pass

    def read(self, count: int) -> tuple[list[float], int]:
        """Time ``count`` payload reads round-robin, one at a time.

        ``ServiceClient`` opens a connection per request and checks the
        payload digest the server sends; the bytes are also checked
        against the store's index afterwards.
        """
        from repro.service.client import ServiceError

        latencies, bodies = [], []
        keys, fetch = self.keys, self.client.fetch_bytes
        for i in range(count):
            key = keys[i % len(keys)]
            start = time.perf_counter()
            try:
                data = fetch(key)
            except ServiceError:
                data = None
            latencies.append(time.perf_counter() - start)
            bodies.append((key, data))
        failures = 0
        for key, data in bodies:
            record = self.store.index_record(key)
            if data is None or record is None or hashlib.sha256(data).hexdigest() != record["sha256"]:
                failures += 1
        return latencies, failures

    def verify(self) -> tuple[list, int, int]:
        from repro.experiments.figures import figure10
        from repro.experiments.runner import Runner
        from repro.service.jobs import campaign_jobs

        runner = Runner(cache=self.store)
        rows = [list(row) for row in figure10(self.config, runner, mixes=self.mixes).rows]
        jobs = campaign_jobs(self.experiment, self.config, self.mixes)
        results = runner.run_many(jobs)
        return rows, _simulated_instructions(jobs, results), len(jobs)

    def close(self) -> None:
        if self.server is not None:
            self.server.shutdown()
            self.server.server_close()
            self.thread.join(timeout=30)
        if self.scheduler is not None:
            self.scheduler.stop(timeout=30)


#: name -> factory taking the per-thread instruction budget.
WORKLOADS = {
    "fig10-mem8": lambda n: FigureWorkload("fig10", ["8-MEM"], n),
    "fetch-ilp8": lambda n: FigureWorkload("fig2", ["8-ILP"], n),
    "served-fig10": ServedWorkload,
}

#: Per-thread instruction budget of each workload (warm-up is a quarter
#: of it on top).
INSTRUCTIONS = {"fig10-mem8": 300, "fetch-ilp8": 1200, "served-fig10": 400}

#: Samples in an end-to-end run, one input seed each.  A campaign's
#: simulated cycles vary over seeds with a coefficient of variation of
#: ~11%, so a run takes the median over this many inputs; the count is
#: fixed so a faster program measures exactly the same inputs as a
#: slower one.
SAMPLES = {"fig10-mem8": 7, "fetch-ilp8": 7, "served-fig10": 6}
