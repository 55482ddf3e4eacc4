"""Pool workers must not outlive a batch process killed by SIGKILL.

A ``kill -9`` runs no cleanup, so nothing in the dying process can shut
its pool down.  Each worker therefore watches its own parent
(``resilience._exit_with_owner``) and exits once it is gone.  The test
runs a real 2-worker batch whose jobs hang, kills the batch process,
and requires every worker to be gone (or a zombie awaiting its new
parent) within 5 s.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro

pytestmark = pytest.mark.chaos

BATCH = """
from repro.experiments.config import SystemConfig
from repro.experiments.parallel import run_many
from repro.faults import FaultPlan, FaultSpec

config = SystemConfig(
    scale=32, instructions_per_thread=300, warmup_instructions=100, seed=99
)
plan = FaultPlan(specs=(FaultSpec(kind="hang", seconds=120.0, attempt=None),))
run_many(
    [(config, ("gzip",)), (config, ("mcf",))], parallelism=2, fault_plan=plan
)
"""


def _stat(pid: int) -> tuple[str, int] | None:
    """``(state, ppid)`` of a live process, None once it is gone."""
    try:
        text = Path(f"/proc/{pid}/stat").read_text()
    except (FileNotFoundError, ProcessLookupError):
        return None
    fields = text.rsplit(")", 1)[1].split()
    return fields[0], int(fields[1])


def _children(pid: int) -> list[int]:
    found = []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            stat = _stat(int(entry.name))
            if stat is not None and stat[1] == pid:
                found.append(int(entry.name))
    return sorted(found)


@pytest.mark.skipif(
    not Path("/proc/self/stat").exists(), reason="needs /proc"
)
def test_workers_exit_when_batch_process_is_killed():
    src_dir = str(Path(repro.__file__).resolve().parents[1])
    env = {**os.environ}
    env["PYTHONPATH"] = os.pathsep.join(
        [src_dir, *filter(None, [env.get("PYTHONPATH")])]
    )
    proc = subprocess.Popen([sys.executable, "-c", BATCH], env=env)
    workers: list[int] = []
    try:
        deadline = time.monotonic() + 60
        while len(workers) < 2:
            assert proc.poll() is None, "batch exited before hanging"
            assert time.monotonic() < deadline, "pool never started"
            time.sleep(0.1)
            workers = _children(proc.pid)
        time.sleep(1.0)  # both jobs dispatched and hanging
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=30)

        deadline = time.monotonic() + 5
        alive = workers
        while alive and time.monotonic() < deadline:
            time.sleep(0.1)
            alive = [
                pid for pid in alive
                if (stat := _stat(pid)) is not None and stat[0] != "Z"
            ]
        assert not alive, f"pool workers {alive} outlived the killed batch"
    finally:
        proc.kill()
        for pid in workers:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
