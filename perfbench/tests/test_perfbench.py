"""Self-tests of the benchmark harness.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from layers import PER_LAYER, PINNED_COUNTS, Tracer  # noqa: E402
from workloads import SAMPLES, WORKLOADS, FigureWorkload, ServedWorkload  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_benchmark_json_follows_the_contract():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert BENCHMARK["paths"] == ["perfbench"]
    assert isinstance(BENCHMARK["run_seconds"], int) and 1 <= BENCHMARK["run_seconds"] <= 60
    names = []
    for workload in BENCHMARK["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in BENCHMARK["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
        names.append(metric["name"])
    for metric in BENCHMARK["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        names.append(metric["name"])
    for metric in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    assert all(NAME.match(name) for name in names), names
    assert len(names) == len(set(names))
    setup = next(m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in BENCHMARK["end_to_end"])


def test_metric_tables_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == list(PER_LAYER)


def _sample(seed: int, pinned: dict, traced: bool, reads: int = 10) -> dict:
    sample = {
        "seed": seed,
        "jobs": pinned["jobs"],
        "instructions": pinned["instructions"],
        "table": json.loads(json.dumps(pinned["table"])),
        "reads": reads,
        "read_failures": 0,
    }
    if traced:
        sample["layers"] = dict(pinned["counts"])
    return sample


def _default_run(workload: str) -> tuple[dict, list[dict]]:
    """Pins of ``workload`` and samples that reproduce them."""
    pins = run.load_pins(workload)
    seed = run.DEFAULT_SEED
    samples = [_sample(seed, pins[seed], traced=True)]
    for index in range(SAMPLES[workload]):
        seed = run.input_seed(run.DEFAULT_SEED, index)
        samples.append(_sample(seed, pins[seed], traced=False))
    return pins, samples


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_input_of_the_default_seed_is_pinned(workload):
    pins, samples = _default_run(workload)
    ops = sum(s["jobs"] + s["reads"] for s in samples)
    assert run.check(samples, pins) == (ops, 0)


def test_corrupted_pin_fails_every_operation_of_the_sample():
    pins, samples = _default_run("fig10-mem8")
    ops = [s["jobs"] + s["reads"] for s in samples]
    seed = run.input_seed(run.DEFAULT_SEED, 1)
    corrupted = json.loads(json.dumps({str(k): v for k, v in pins.items()}))
    corrupted[str(seed)]["table"][0][2] += 1e-12
    corrupted = {int(k): v for k, v in corrupted.items()}
    assert run.check(samples, corrupted) == (sum(ops), ops[2])
    corrupted = {k: json.loads(json.dumps(v)) for k, v in pins.items()}
    corrupted[run.DEFAULT_SEED]["counts"]["uops.generated"] += 1
    assert run.check(samples, corrupted) == (sum(ops), ops[0])


def test_held_out_seed_requires_samples_to_agree():
    pinned = run.load_pins("fetch-ilp8")[run.DEFAULT_SEED]
    first, second = _sample(7, pinned, traced=True), _sample(7, pinned, traced=True)
    second["layers"]["sim.cycles"] += 1
    ops = pinned["jobs"] + 10
    assert run.check([first, second], {}) == (2 * ops, ops)
    assert run.check([first, None], {}) == (ops + 1, 1)
    first["read_failures"] = 3
    assert run.check([first], {}) == (ops, 3)
    first["table"][0][1] = float("nan")
    assert run.check([first], {}) == (ops, ops)


def test_tracer_measures_every_layer_and_restores_entry_points(tmp_path):
    tracer = Tracer()
    local = FigureWorkload("fig10", ["2-MEM"], 40)
    served = ServedWorkload(40)
    local.setup(7, tmp_path / "local")
    served.setup(7, tmp_path / "served")
    try:
        with tracer.installed():
            patched = list(tracer.patched)
            local.campaign()
            served.campaign()
            served.read(40)
    finally:
        served.close()
    assert len(patched) >= 17
    for owner, name, original in patched:
        assert vars(owner)[name] is original, f"{owner}.{name} still wrapped"
    layers = tracer.metrics([0.001] * 40)
    for name, _unit in PER_LAYER:
        if name != "trace.overhead":
            assert layers[name] > 0, name


def test_cold_samples_generate_identical_uops(tmp_path):
    first = run.spawn("fetch-ilp8", 3, tmp_path, "--trace")
    second = run.spawn("fetch-ilp8", 3, tmp_path, "--trace")
    assert first is not None and second is not None
    assert first["layers"]["uops.generated"] > 0
    for name in PINNED_COUNTS:
        assert first["layers"][name] == second["layers"][name], name
    # A second campaign in one warm process replays the µop memo, which
    # is why every sample is a fresh interpreter.
    counts = []
    for _ in range(2):
        tracer = Tracer()
        workload = FigureWorkload("fig2", ["8-ILP"], 60)
        workload.setup(3, tmp_path)
        with tracer.installed():
            workload.campaign()
        counts.append(tracer.metrics([])["uops.generated"])
    if counts[1] == counts[0]:
        pytest.skip("the program keeps no µop memo across campaigns")
    assert counts[1] < counts[0] / 2


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fetch-ilp8",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
