"""Experiment harness: configurations, runners, and per-figure drivers.

* :mod:`repro.experiments.config` -- :class:`SystemConfig`, one object
  describing a complete simulated system (Table 1 defaults).
* :mod:`repro.experiments.runner` -- build-and-run plumbing and
  :class:`Runner`, the caching front-end every driver submits its
  jobs to (serial or, with ``jobs > 1``, across a process pool).
* :mod:`repro.experiments.figures` -- one driver per paper figure
  (``figure1()`` ... ``figure10()``), each returning structured rows
  and able to print a paper-style table.
* :mod:`repro.experiments.parallel` -- ``run_many``, the one batch
  path (memo, cache, dedup, fresh simulation), and
  :class:`ResultCache` (a persistent on-disk store of simulation
  results).
* :mod:`repro.experiments.resilience` -- fault-tolerant batch
  execution: :class:`RetryPolicy` (timeouts/retries/pool recovery),
  :class:`BatchJournal` (crash-safe resume), and
  :class:`ResilienceStats` (what a batch survived).
"""

from repro.experiments.config import SystemConfig
from repro.experiments.figures import EXPERIMENTS, run_experiment
from repro.experiments.parallel import ResultCache
from repro.experiments.resilience import (
    BatchJournal,
    ResilienceStats,
    RetryPolicy,
)
from repro.experiments.runner import (
    MixResult,
    Runner,
    run_mix,
    run_single,
)

__all__ = [
    "BatchJournal",
    "EXPERIMENTS",
    "MixResult",
    "ResilienceStats",
    "ResultCache",
    "RetryPolicy",
    "Runner",
    "SystemConfig",
    "run_experiment",
    "run_mix",
    "run_single",
]
