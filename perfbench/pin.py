"""Regenerate ``pins.json``: the exact outputs of every input the default seed uses.

    python3 perfbench/pin.py

For each workload, runs the traced sample of the default seed (figure
table, job and instruction counts, exact per-layer counts) and an
untraced sample of every other input seed of the default end-to-end
run.  Re-pin only for a change that alters simulated results on
purpose, and say so in CHANGES.md; a speed-only change must leave the
pins as they are.
"""

from __future__ import annotations

import json
import os
import shutil

from run import DEFAULT_SEED, PINS, ROOT, input_seed, outputs, spawn
from workloads import SAMPLES, WORKLOADS


def main() -> int:
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    pins: dict = {"workloads": {}}
    try:
        for name in WORKLOADS:
            pinned = pins["workloads"][name] = {}
            for index in range(SAMPLES[name]):
                seed = input_seed(DEFAULT_SEED, index)
                sample = spawn(name, seed, workdir, *(("--trace",) if index == 0 else ()))
                if sample is None:
                    print(f"{name} seed {seed}: sample failed; pins left unchanged")
                    return 1
                pinned[str(seed)] = outputs(sample)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    PINS.write_text(json.dumps(pins, indent=1) + "\n")
    print(f"wrote {PINS.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
