"""One cold sample of one workload, in a fresh interpreter.

Run by ``run.py``; prints one JSON object on its last stdout line.
``--setup-only`` stops right after set-up, so a run can take several
set-up measurements without paying for several campaigns.  The parent
records ``time.monotonic()`` just before it spawns this process;
``t_submit`` is the same clock here, so their difference is the set-up
time including interpreter start.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from layers import Tracer
from workloads import INSTRUCTIONS, READS, WORKLOADS


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](INSTRUCTIONS[args.workload])
    try:
        workload.setup(args.seed, args.workdir)
        t_submit = time.monotonic()
        if args.setup_only:
            print(json.dumps({"t_submit": t_submit}))
            return 0
        tracer = Tracer() if args.trace else None

        def traced():
            return tracer.installed() if tracer is not None else contextlib.nullcontext()

        with traced():
            campaign_s = workload.campaign()
        workload.prepare_reads()
        with traced():
            latencies, read_failures = workload.read(READS)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        rows, instructions_done, jobs = workload.verify()
    finally:
        workload.close()
    sample = {
        "seed": args.seed,
        "t_submit": t_submit,
        "campaign_s": campaign_s,
        "instructions": instructions_done,
        "jobs": jobs,
        "reads": len(latencies),
        "read_failures": read_failures,
        "read_p50_ms": statistics.median(latencies) * 1e3,
        "peak_rss_mb": rss_mb,
        "table": rows,
    }
    if tracer is not None:
        sample["layers"] = tracer.metrics(latencies)
    print(json.dumps(sample))
    return 0


if __name__ == "__main__":
    sys.exit(main())
