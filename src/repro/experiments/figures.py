"""One driver per figure of the paper's evaluation (Section 5).

Each ``figureN()`` function reproduces the corresponding figure's
experiment and returns an :class:`ExperimentResult` with structured
rows plus a paper-style rendering.  Drivers accept a
:class:`~repro.experiments.config.SystemConfig` so callers (tests,
benches, the CLI) control the instruction budget and scale, and an
optional mix subset so smoke runs stay fast.

The registry :data:`EXPERIMENTS` maps short names (``"fig1"`` ...
``"fig10"``) to drivers; :func:`run_experiment` is the generic entry
point used by the CLI and the benchmark harness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.experiments.config import SystemConfig
from repro.experiments.report import format_table
from repro.experiments.runner import Runner
from repro.metrics.breakdown import cpi_breakdown
from repro.metrics.concurrency import bucket_outstanding, bucket_thread_counts
from repro.metrics.speedup import weighted_speedup
from repro.workloads.mixes import MIXES, all_mix_names
from repro.workloads.spec2000 import PROFILES

#: Mixes with meaningful memory behaviour (Figures 7 and 10 drop ILP).
MEMORY_BOUND_MIXES = (
    "2-MIX", "2-MEM", "4-MIX", "4-MEM", "8-MIX", "8-MEM",
)

#: Figure 4 bucket labels (computed once for the table header).
_OUTSTANDING_LABELS = ("1", "2-3", "4-7", "8-15", "16+")


@dataclass
class ExperimentResult:
    """Structured result of one reproduced figure."""

    name: str
    description: str
    headers: list[str]
    rows: list[tuple]
    notes: str = ""
    extra: dict = field(default_factory=dict)

    def render(self, floatfmt: str = ".3f") -> str:
        text = format_table(
            self.headers,
            self.rows,
            floatfmt=floatfmt,
            title=f"{self.name}: {self.description}",
        )
        if self.notes:
            text += f"\n{self.notes}"
        return text

    def to_csv(self) -> str:
        """Rows as CSV text (header line first)."""
        import csv
        import io

        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(self.headers)
        writer.writerows(self.rows)
        return buffer.getvalue()

    def save_csv(self, path) -> None:
        """Write :meth:`to_csv` output to ``path``."""
        with open(path, "w", newline="") as handle:
            handle.write(self.to_csv())

    def as_dicts(self) -> list[dict]:
        """Rows as dictionaries keyed by header names."""
        return [dict(zip(self.headers, row)) for row in self.rows]


def _mix_names(subset: Sequence[str] | None, default: Sequence[str]) -> list[str]:
    if subset is None:
        return list(default)
    unknown = [m for m in subset if m not in MIXES]
    if unknown:
        raise KeyError(f"unknown mixes {unknown}; known: {all_mix_names()}")
    return list(subset)


def _ws_jobs(runner: Runner, config: SystemConfig, mix) -> list[tuple]:
    """Jobs a ``runner.weighted_speedup(config, mix)`` call will need:
    the multiprogrammed run plus one baseline per app."""
    return [
        (config, mix.apps),
        *(runner.baseline_job(config, app) for app in mix.apps),
    ]


# Every driver below plans its complete job list up front and submits
# it through ``runner.run_many`` before computing anything.  With the
# default serial Runner the batch runs in-process (results land in the
# runner's memo and the loops below read them back for free); with
# ``Runner(jobs=N)`` the whole figure fans out across worker processes.


# ---------------------------------------------------------------------------
# Figure 1


def figure1(
    config: SystemConfig | None = None,
    runner: Runner | None = None,
    apps: Sequence[str] | None = None,
) -> ExperimentResult:
    """CPI breakdown of the SPEC2000 applications (Figure 1).

    Each application runs single-threaded on four systems (real,
    perfect L3, perfect L2, perfect L1); the CPI differences give the
    proc/L2/L3/mem components.  Rows are sorted by rising CPI_mem, as
    in the paper.
    """
    config = config or SystemConfig()
    runner = runner or Runner()
    if apps is None:
        apps = sorted(PROFILES)
    variants = (
        config,
        config.with_(perfect_l3=True),
        config.with_(perfect_l3=True, perfect_l2=True),
        config.with_(perfect_l3=True, perfect_l2=True, perfect_l1=True),
    )
    runner.run_many(
        [runner.baseline_job(v, app) for app in apps for v in variants]
    )
    breakdowns = []
    for app in apps:
        cpi_real = 1.0 / runner.single_ipc(config, app)
        cpi_pl3 = 1.0 / runner.single_ipc(config.with_(perfect_l3=True), app)
        cpi_pl2 = 1.0 / runner.single_ipc(
            config.with_(perfect_l3=True, perfect_l2=True), app
        )
        cpi_pl1 = 1.0 / runner.single_ipc(
            config.with_(perfect_l3=True, perfect_l2=True, perfect_l1=True), app
        )
        breakdowns.append(
            cpi_breakdown(app, cpi_real, cpi_pl3, cpi_pl2, cpi_pl1)
        )
    breakdowns.sort(key=lambda b: b.cpi_mem)
    return ExperimentResult(
        name="Figure 1",
        description="CPI breakdown of SPEC2000 applications "
        "(sorted by rising CPI_mem)",
        headers=["app", "CPI_proc", "CPI_L2", "CPI_L3", "CPI_mem", "CPI_total"],
        rows=[b.as_row() for b in breakdowns],
        notes="MEM applications cluster at the bottom (largest CPI_mem); "
        "mcf should be last.",
    )


# ---------------------------------------------------------------------------
# Figure 2


def figure2(
    config: SystemConfig | None = None,
    runner: Runner | None = None,
    mixes: Sequence[str] | None = None,
    policies: Sequence[str] = ("icount", "stall", "dg", "dwarn"),
) -> ExperimentResult:
    """Weighted speedup of the four fetch policies (Figure 2).

    Single-thread baselines are shared across policies (a fetch policy
    cannot meaningfully affect a one-thread run), so WS values are
    directly comparable between columns.
    """
    config = config or SystemConfig()
    runner = runner or Runner()
    names = _mix_names(mixes, all_mix_names())
    baseline_config = config.with_(fetch_policy="icount")
    jobs = []
    for mix_name in names:
        mix = MIXES[mix_name]
        jobs.extend(runner.baseline_job(baseline_config, app) for app in mix.apps)
        jobs.extend(
            (config.with_(fetch_policy=policy), mix.apps) for policy in policies
        )
    runner.run_many(jobs)
    rows = []
    for mix_name in names:
        mix = MIXES[mix_name]
        singles = [runner.single_ipc(baseline_config, app) for app in mix.apps]
        values = []
        for policy in policies:
            result = runner.run_mix(config.with_(fetch_policy=policy), mix)
            values.append(weighted_speedup(result.ipcs, singles))
        rows.append((mix_name, *values))
    return ExperimentResult(
        name="Figure 2",
        description="weighted speedup of four fetch policies "
        "(2-channel DDR SDRAM)",
        headers=["mix", *policies],
        rows=rows,
        notes="Expected shape: comparable for ILP mixes; the "
        "long-latency-aware policies beat ICOUNT on 8-MIX/8-MEM.",
    )


# ---------------------------------------------------------------------------
# Figure 3


def figure3(
    config: SystemConfig | None = None,
    runner: Runner | None = None,
    mixes: Sequence[str] | None = None,
    policies: Sequence[str] = ("icount", "dwarn"),
) -> ExperimentResult:
    """Performance loss due to DRAM accesses (Figure 3).

    For each mix and fetch policy, weighted speedup on the real
    2-channel system is reported as a percentage of the weighted
    speedup on a system with an infinitely large L3 (ICOUNT policy),
    the paper's reference point.

    Both weighted speedups are computed against the *same*
    single-thread baselines (on the infinite-L3 reference machine);
    using per-machine baselines would cancel the DRAM effect out of
    the ratio instead of exposing it.
    """
    config = config or SystemConfig()
    runner = runner or Runner()
    names = _mix_names(mixes, all_mix_names())
    reference_config = config.with_(perfect_l3=True, fetch_policy="icount")
    jobs = []
    for mix_name in names:
        mix = MIXES[mix_name]
        jobs.extend(
            runner.baseline_job(reference_config, app) for app in mix.apps
        )
        jobs.append((reference_config, mix.apps))
        jobs.extend(
            (config.with_(fetch_policy=policy), mix.apps) for policy in policies
        )
    runner.run_many(jobs)
    rows = []
    for mix_name in names:
        mix = MIXES[mix_name]
        singles = [
            runner.single_ipc(reference_config, app) for app in mix.apps
        ]
        reference = runner.run_mix(reference_config, mix)
        ws_reference = weighted_speedup(reference.ipcs, singles)
        values = []
        for policy in policies:
            result = runner.run_mix(config.with_(fetch_policy=policy), mix)
            ws = weighted_speedup(result.ipcs, singles)
            values.append(100.0 * ws / ws_reference if ws_reference else 0.0)
        rows.append((mix_name, *(f"{v:.1f}%" for v in values)))
    return ExperimentResult(
        name="Figure 3",
        description="weighted speedup relative to the infinite-L3 "
        "reference (=100%)",
        headers=["mix", *policies],
        rows=rows,
        notes="Expected shape: ILP mixes stay near 100%; MEM mixes lose "
        "most of their performance; DWarn recovers more than ICOUNT "
        "on the 8-thread mixes.",
    )


# ---------------------------------------------------------------------------
# Figures 4 and 5


def figure4(
    config: SystemConfig | None = None,
    runner: Runner | None = None,
    mixes: Sequence[str] | None = None,
) -> ExperimentResult:
    """Distribution of outstanding requests while DRAM is busy (Fig. 4)."""
    config = config or SystemConfig()
    runner = runner or Runner()
    names = _mix_names(mixes, all_mix_names())
    runner.run_many([(config, MIXES[m].apps) for m in names])
    rows = []
    for mix_name in names:
        result = runner.run_mix(config, MIXES[mix_name])
        dist = result.dram.busy_outstanding_distribution()
        buckets = bucket_outstanding(dist)
        rows.append(
            (mix_name, *(f"{100 * v:.1f}%" for v in buckets.values()))
        )
    return ExperimentResult(
        name="Figure 4",
        description="outstanding memory requests while the DRAM system "
        "is busy (time-weighted)",
        headers=["mix", *_OUTSTANDING_LABELS],
        rows=rows,
        notes="Expected shape: MEM mixes concentrate at 8+ outstanding "
        "requests; ILP mixes at 1-2.  An all-zero row means the mix "
        "made no main-memory accesses in the window (ILP mixes "
        "generate ~0.01/100 instructions).",
    )


def figure5(
    config: SystemConfig | None = None,
    runner: Runner | None = None,
    mixes: Sequence[str] | None = None,
) -> ExperimentResult:
    """Threads generating concurrent requests (Figure 5)."""
    config = config or SystemConfig()
    runner = runner or Runner()
    names = _mix_names(mixes, all_mix_names())
    runner.run_many([(config, MIXES[m].apps) for m in names])
    max_threads = max(MIXES[m].threads for m in names)
    rows = []
    for mix_name in names:
        mix = MIXES[mix_name]
        result = runner.run_mix(config, mix)
        dist = result.dram.thread_concurrency_distribution()
        buckets = bucket_thread_counts(dist, mix.threads)
        padded = [
            f"{100 * buckets.get(str(t), 0.0):.1f}%" if t <= mix.threads else "-"
            for t in range(1, max_threads + 1)
        ]
        rows.append((mix_name, *padded))
    return ExperimentResult(
        name="Figure 5",
        description="number of threads with outstanding requests when "
        "multiple requests are present",
        headers=["mix", *[str(t) for t in range(1, max_threads + 1)]],
        rows=rows,
        notes="Expected shape: for MEM mixes the requests come from "
        "(almost) all threads; for ILP mixes usually from one.  An "
        "all-zero row means the mix never had two requests "
        "outstanding at once.",
    )


# ---------------------------------------------------------------------------
# Figure 6


def figure6(
    config: SystemConfig | None = None,
    runner: Runner | None = None,
    mixes: Sequence[str] | None = None,
    channel_counts: Sequence[int] = (2, 4, 8),
) -> ExperimentResult:
    """Performance as the number of (independent) channels grows (Fig. 6)."""
    config = config or SystemConfig()
    runner = runner or Runner()
    names = _mix_names(mixes, all_mix_names())
    jobs = []
    for mix_name in names:
        for n in channel_counts:
            jobs.extend(
                _ws_jobs(runner, config.with_(channels=n, gang=1), MIXES[mix_name])
            )
    runner.run_many(jobs)
    rows = []
    for mix_name in names:
        mix = MIXES[mix_name]
        speedups = [
            runner.weighted_speedup(config.with_(channels=n, gang=1), mix)
            for n in channel_counts
        ]
        base = speedups[0] or 1.0
        rows.append((mix_name, *(s / base for s in speedups)))
    return ExperimentResult(
        name="Figure 6",
        description="weighted speedup vs channel count, normalized to "
        f"{channel_counts[0]} channels",
        headers=["mix", *(f"{n}ch" for n in channel_counts)],
        rows=rows,
        notes="Expected shape: large gains for MEM mixes (bandwidth "
        "bound), negligible for ILP mixes.",
    )


# ---------------------------------------------------------------------------
# Figure 7


def figure7(
    config: SystemConfig | None = None,
    runner: Runner | None = None,
    mixes: Sequence[str] | None = None,
    organizations: Sequence[tuple[int, int]] = (
        (2, 1), (2, 2), (4, 1), (4, 2), (4, 4), (8, 1), (8, 2), (8, 4),
    ),
) -> ExperimentResult:
    """Channel ganging organizations (Figure 7).

    ``(channels, gang)`` pairs label the paper's xC-yG organizations.
    Values are weighted speedups normalized to the same-channel-count
    independent (xC-1G) organization, so the cost of ganging reads
    directly from the table.
    """
    config = config or SystemConfig()
    runner = runner or Runner()
    names = _mix_names(mixes, MEMORY_BOUND_MIXES)
    labels = [f"{c}C-{g}G" for c, g in organizations]
    jobs = []
    for mix_name in names:
        for channels, gang in organizations:
            jobs.extend(
                _ws_jobs(
                    runner,
                    config.with_(channels=channels, gang=gang),
                    MIXES[mix_name],
                )
            )
    runner.run_many(jobs)
    rows = []
    for mix_name in names:
        mix = MIXES[mix_name]
        raw = {}
        for channels, gang in organizations:
            raw[(channels, gang)] = runner.weighted_speedup(
                config.with_(channels=channels, gang=gang), mix
            )
        values = []
        for channels, gang in organizations:
            base = raw.get((channels, 1)) or 1.0
            values.append(raw[(channels, gang)] / base)
        rows.append((mix_name, *values))
    return ExperimentResult(
        name="Figure 7",
        description="channel ganging: WS relative to the independent "
        "(1G) organization with the same channel count",
        headers=["mix", *labels],
        rows=rows,
        notes="Expected shape: ganged organizations lose performance on "
        "memory-bound mixes (up to tens of percent).",
    )


# ---------------------------------------------------------------------------
# Figures 8 and 9


def _mapping_miss_rates(
    config: SystemConfig,
    runner: Runner,
    names: Sequence[str],
    dram_type: str,
) -> list[tuple]:
    runner.run_many(
        [
            (config.with_(dram_type=dram_type, mapping=mapping), MIXES[m].apps)
            for m in names
            for mapping in ("page", "xor")
        ]
    )
    rows = []
    for mix_name in names:
        mix = MIXES[mix_name]
        values = []
        for mapping in ("page", "xor"):
            result = runner.run_mix(
                config.with_(dram_type=dram_type, mapping=mapping), mix
            )
            values.append(f"{100 * result.row_buffer_miss_rate:.1f}%")
        rows.append((mix_name, *values))
    return rows


def figure8(
    config: SystemConfig | None = None,
    runner: Runner | None = None,
    mixes: Sequence[str] | None = None,
) -> ExperimentResult:
    """Row-buffer miss rates, page vs XOR mapping, DDR SDRAM (Fig. 8)."""
    config = config or SystemConfig()
    runner = runner or Runner()
    names = _mix_names(mixes, all_mix_names())
    return ExperimentResult(
        name="Figure 8",
        description="row-buffer miss rates under page and XOR mappings "
        "(2-channel DDR SDRAM, 8 banks)",
        headers=["mix", "page", "xor"],
        rows=_mapping_miss_rates(config, runner, names, "ddr"),
        notes="Expected shape: XOR reduces miss rates moderately; rates "
        "rise with the thread count and stay high for MEM mixes "
        "(few banks).",
    )


def figure9(
    config: SystemConfig | None = None,
    runner: Runner | None = None,
    mixes: Sequence[str] | None = None,
) -> ExperimentResult:
    """Row-buffer miss rates on Direct Rambus (many banks) (Fig. 9)."""
    config = config or SystemConfig()
    runner = runner or Runner()
    names = _mix_names(mixes, all_mix_names())
    return ExperimentResult(
        name="Figure 9",
        description="row-buffer miss rates under page and XOR mappings "
        "(2-channel Direct Rambus, 32 banks/chip)",
        headers=["mix", "page", "xor"],
        rows=_mapping_miss_rates(config, runner, names, "rdram"),
        notes="Expected shape: with many independent banks the XOR "
        "mapping is considerably more effective than on DDR.",
    )


# ---------------------------------------------------------------------------
# Figure 10


def figure10(
    config: SystemConfig | None = None,
    runner: Runner | None = None,
    mixes: Sequence[str] | None = None,
    schedulers: Sequence[str] = (
        "fcfs", "hit-first", "age-based",
        "request-based", "rob-based", "iq-based",
    ),
) -> ExperimentResult:
    """Thread-aware access scheduling (Figure 10).

    Weighted speedups for the single-thread-era policies (FCFS,
    hit-first, age-based) and the paper's three thread-aware schemes,
    normalized to FCFS.
    """
    config = config or SystemConfig()
    runner = runner or Runner()
    names = _mix_names(mixes, MEMORY_BOUND_MIXES)
    jobs = []
    for mix_name in names:
        for scheduler in schedulers:
            jobs.extend(
                _ws_jobs(runner, config.with_(scheduler=scheduler), MIXES[mix_name])
            )
    runner.run_many(jobs)
    rows = []
    for mix_name in names:
        mix = MIXES[mix_name]
        speedups = {}
        for scheduler in schedulers:
            speedups[scheduler] = runner.weighted_speedup(
                config.with_(scheduler=scheduler), mix
            )
        base = speedups[schedulers[0]] or 1.0
        rows.append((mix_name, *(speedups[s] / base for s in schedulers)))
    return ExperimentResult(
        name="Figure 10",
        description="DRAM access schedulers: WS normalized to FCFS",
        headers=["mix", *schedulers],
        rows=rows,
        notes="Expected shape: thread-aware schemes gain most on MEM "
        "mixes, with the request-based scheme strongest on 2-MEM.",
    )


# ---------------------------------------------------------------------------
# Section 5.1 text statistic (not a numbered figure)


def issue_coverage(
    config: SystemConfig | None = None,
    runner: Runner | None = None,
    mixes: Sequence[str] | None = None,
    policies: Sequence[str] = ("icount", "dwarn"),
) -> ExperimentResult:
    """Integer-issue coverage under different fetch policies.

    Section 5.1 explains ICOUNT's loss on 8-MIX with this statistic:
    under DWarn the processor can issue at least one integer
    instruction during 92.2% of cycles; under ICOUNT only 43.8%.
    This driver reports the same measurement.
    """
    config = config or SystemConfig()
    runner = runner or Runner()
    names = _mix_names(mixes, ("8-MIX", "8-MEM", "4-MEM"))
    runner.run_many(
        [
            (config.with_(fetch_policy=policy), MIXES[m].apps)
            for m in names
            for policy in policies
        ]
    )
    rows = []
    for mix_name in names:
        mix = MIXES[mix_name]
        values = []
        for policy in policies:
            result = runner.run_mix(config.with_(fetch_policy=policy), mix)
            values.append(f"{100 * result.core.int_issue_coverage:.1f}%")
        rows.append((mix_name, *values))
    return ExperimentResult(
        name="Issue coverage (Section 5.1)",
        description="% of cycles with at least one integer instruction "
        "issued",
        headers=["mix", *policies],
        rows=rows,
        notes="Paper (8-MIX): 92.2% under DWarn vs 43.8% under ICOUNT.",
    )


# ---------------------------------------------------------------------------
# registry

ExperimentFn = Callable[..., ExperimentResult]

EXPERIMENTS: dict[str, ExperimentFn] = {
    "fig1": figure1,
    "fig2": figure2,
    "fig3": figure3,
    "fig4": figure4,
    "fig5": figure5,
    "fig6": figure6,
    "fig7": figure7,
    "fig8": figure8,
    "fig9": figure9,
    "fig10": figure10,
    "coverage": issue_coverage,
}


def run_experiment(name: str, **kwargs) -> ExperimentResult:
    """Run a figure driver by registry name (e.g. ``"fig6"``)."""
    try:
        fn = EXPERIMENTS[name]
    except KeyError:
        raise KeyError(
            f"unknown experiment {name!r}; known: {sorted(EXPERIMENTS)}"
        ) from None
    return fn(**kwargs)
