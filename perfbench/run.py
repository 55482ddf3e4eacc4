"""Benchmark entry point: one workload, one seed, at most ``--seconds``.

    python3 perfbench/run.py --workload fig10-mem8 --seed 2005 --seconds 44 --trace 0

Run from the root of a checkout.  Every sample is a fresh interpreter
(``sample.py``), so each campaign starts cold, as a user's fresh
``python -m repro fig10`` process does.

``--trace 0`` alternates set-up-only probes with untraced samples, one
input seed per sample (``input_seed``), and prints the end-to-end
metrics as medians over the samples.  ``--trace 1`` runs one untraced
and two traced samples on the run's own seed and prints the per-layer
metrics.

Every sample must reproduce the outputs pinned for its seed in
``pins.json`` (figure table, job and instruction counts and, traced,
the exact per-layer counts) and agree with any earlier sample of the
same seed; one that does not counts all of its operations as failed.
The last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from layers import PER_LAYER, PINNED_COUNTS  # noqa: E402
from workloads import SAMPLES, WORKLOADS  # noqa: E402

END_TO_END = (
    ("campaign_s", "s"),
    ("sim_kips", "kinstr/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("read_p50_ms", "ms"),
)
PINS = HERE / "pins.json"
#: The workload seed when none is given, as in the repo's BENCH_*.json files.
DEFAULT_SEED = 2005
#: Host-normalized times are seconds on a host where ``reference.py``
#: takes this long (about its time on the VM the benchmark was built on).
REFERENCE_S = 0.25
#: A sample that takes longer than this is killed and counted failed.
SAMPLE_TIMEOUT_S = 150
#: Traced samples per traced run: two, so the exact counts of two cold
#: interpreters are compared.
TRACED_SAMPLES = 2
#: Environment that would change what is measured or send loopback
#: traffic to a proxy.
_DROPPED_ENV = (
    "REPRO_ENGINE", "REPRO_SANITIZE", "REPRO_FAULT_PLAN", "PYTHONPATH",
    "http_proxy", "https_proxy", "all_proxy",
    "HTTP_PROXY", "HTTPS_PROXY", "ALL_PROXY",
)


def child_env(workdir: Path) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in _DROPPED_ENV}
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(HERE)])
    env["TMPDIR"] = str(workdir)
    env["REPRO_MANIFEST_DIR"] = str(workdir / "manifests")
    env["NO_PROXY"] = env["no_proxy"] = "127.0.0.1,localhost"
    return env


def spawn(workload: str, seed: int, workdir: Path, *flags: str) -> dict | None:
    """Run one ``sample.py`` to completion; its JSON result, or None.

    Adds ``setup_s``: from just before the spawn to the child's first
    job submission, on the system-wide monotonic clock.
    """
    sample_dir = workdir / "sample"
    shutil.rmtree(sample_dir, ignore_errors=True)
    sample_dir.mkdir(parents=True)
    argv = [
        sys.executable, str(HERE / "sample.py"),
        "--workload", workload, "--seed", str(seed),
        "--workdir", str(sample_dir), *flags,
    ]
    start = time.monotonic()
    try:
        proc = subprocess.run(
            argv, cwd=ROOT, env=child_env(workdir), capture_output=True,
            text=True, timeout=SAMPLE_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"sample timed out after {SAMPLE_TIMEOUT_S} s", file=sys.stderr)
        return None
    finally:
        shutil.rmtree(sample_dir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    try:
        sample = json.loads(lines[-1]) if proc.returncode == 0 else None
    except (IndexError, ValueError):
        sample = None
    if sample is None:
        print(f"sample failed ({proc.returncode}):\n{proc.stderr[-2000:]}", file=sys.stderr)
        return None
    sample["setup_s"] = sample["t_submit"] - start
    return sample


def input_seed(seed: int, index: int) -> int:
    """The simulation seed of sample ``index`` of a run at ``seed``.

    7919 is prime, so runs at different seeds below 7919 never share
    an input.
    """
    return seed + 7919 * index


def load_pins(workload: str) -> dict[int, dict]:
    """Pinned outputs of ``workload``, keyed by simulation seed."""
    pins = json.loads(PINS.read_text())["workloads"].get(workload, {})
    return {int(seed): outputs for seed, outputs in pins.items()}


def outputs(sample: dict) -> dict:
    """What a sample must reproduce exactly: table, instructions, counts."""
    out = {"jobs": sample["jobs"], "instructions": sample["instructions"], "table": sample["table"]}
    if "layers" in sample:
        out["counts"] = {name: sample["layers"][name] for name in PINNED_COUNTS}
    return out


def well_formed(table: list) -> bool:
    """Every figure value is a finite positive number."""
    values = [v for row in table for v in row[1:]]
    return bool(values) and all(isinstance(v, float) and 0 < v < math.inf for v in values)


def check(samples: list[dict | None], pins: dict[int, dict]) -> tuple[int, int]:
    """``(attempted, failed)`` operations over a run's samples.

    An operation is one simulated job or one warm read.  A sample must
    reproduce the pinned outputs of its seed, and an earlier sample of
    the same seed in the run; otherwise, or if its figure holds a value
    that is not finite and positive, all of its operations fail.  A
    sample that crashed counts as one failed operation, and a wrong
    read fails that read.
    """
    reference = {seed: dict(pinned) for seed, pinned in pins.items()}
    attempted = failed = 0
    for sample in samples:
        if sample is None:
            attempted += 1
            failed += 1
            continue
        ops = sample["jobs"] + sample["reads"]
        attempted += ops
        got = outputs(sample)
        expected = reference.setdefault(sample["seed"], {})
        for key, value in got.items():
            expected.setdefault(key, value)
        if not well_formed(got["table"]) or any(expected[k] != v for k, v in got.items()):
            failed += ops
        else:
            failed += sample["read_failures"]
    return attempted, failed


def median(values) -> float:
    return float(statistics.median(values))


def reference_s(workdir: Path) -> float | None:
    """Seconds one fresh interpreter takes to run ``reference.py``."""
    start = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "reference.py")], cwd=ROOT,
            env=child_env(workdir), capture_output=True, text=True,
            timeout=SAMPLE_TIMEOUT_S,
        )
        return json.loads(proc.stdout)["t_end"] - start
    except (subprocess.TimeoutExpired, ValueError, KeyError):
        return None


def run_untraced(workload: str, seed: int, workdir: Path, deadline: float):
    """Alternate set-up probes, reference probes and samples.

    Each sample simulates its own input seed.  Times are scaled by
    ``REFERENCE_S`` over the mean reference time of the run, which
    takes out host speed drift common to the reference and the program.
    """
    spawn(workload, seed, workdir, "--setup-only")  # compiles bytecode; untimed
    samples, setups, references = [], [], []
    iteration_s = 0.0
    for index in range(SAMPLES[workload]):
        if samples and time.monotonic() + iteration_s > deadline:
            break
        began = time.monotonic()
        probe = spawn(workload, seed, workdir, "--setup-only")
        references.append(reference_s(workdir))
        sample = spawn(workload, input_seed(seed, index), workdir)
        samples.append(sample)
        setups.extend(s["setup_s"] for s in (probe, sample) if s is not None)
        iteration_s = max(iteration_s, time.monotonic() - began)
    good = [s for s in samples if s is not None]
    references = [r for r in references if r is not None]
    if not good or not references:
        return samples, {}, {}
    raw = {
        "campaign_s": median(s["campaign_s"] for s in good),
        "sim_kips": median(s["instructions"] / s["campaign_s"] / 1e3 for s in good),
        "setup_s": median(setups),
        "peak_rss_mb": median(s["peak_rss_mb"] for s in good),
        # Each sample's reads last well under a second, inside one of the
        # host's speed phases, so sample medians fall into two modes; a
        # median over samples would flip between them and the mean moves
        # smoothly with the share of each.
        "read_p50_ms": statistics.fmean(s["read_p50_ms"] for s in good),
        "reference_s": statistics.fmean(references),
    }
    scale = REFERENCE_S / raw["reference_s"]
    metrics = {
        "campaign_s": raw["campaign_s"] * scale,
        "sim_kips": raw["sim_kips"] / scale,
        "setup_s": raw["setup_s"] * scale,
        "peak_rss_mb": raw["peak_rss_mb"],
        "read_p50_ms": raw["read_p50_ms"] * scale,
    }
    return samples, metrics, raw


def run_traced(workload: str, seed: int, workdir: Path):
    """One untraced sample, then traced ones, all on the run's seed."""
    untraced = spawn(workload, seed, workdir)
    traced = [spawn(workload, seed, workdir, "--trace") for _ in range(TRACED_SAMPLES)]
    samples = [untraced, *traced]
    good = [s for s in traced if s is not None]
    if untraced is None or not good:
        return samples, {}, {}
    metrics = {
        name: median(s["layers"][name] for s in good)
        for name, _unit in PER_LAYER
        if name != "trace.overhead"
    }
    metrics["trace.overhead"] = median(s["campaign_s"] for s in good) / untraced["campaign_s"]
    return samples, metrics, {}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=44)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    # Samples inherit this: every sample of the run on one CPU (the
    # highest-numbered one), so none migrates between CPUs mid-campaign.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    deadline = time.monotonic() + args.seconds
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    try:
        if args.trace:
            samples, values, raw = run_traced(args.workload, args.seed, workdir)
            units = dict(PER_LAYER)
        else:
            samples, values, raw = run_untraced(args.workload, args.seed, workdir, deadline)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run is using it
    attempted, failed = check(samples, load_pins(args.workload))
    ran = [s for s in samples if s is not None]
    print(f"{args.workload} seed={args.seed}: {len(ran)} of {len(samples)} samples")
    for sample in ran:
        print(f"  seed {sample['seed']}: campaign {sample['campaign_s']:.3f} s, set-up {sample['setup_s']:.3f} s")
    for name, value in values.items():
        print(f"  {name:24s} {value:14.6g} {units[name]}")
    for name, value in raw.items():
        print(f"  raw {name:20s} {value:14.6g}")
    result = {
        "correct": bool(values) and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
