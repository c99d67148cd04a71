"""Resumable sharded sweep orchestration: one config file, one fleet run.

The orchestrator coordinates a sweep that is too big for one
:class:`~repro.experiments.executor.SweepExecutor` invocation as a
resumable DAG of stages::

    generate -> shard-0 .. shard-(N-1) -> fit -> report

* :mod:`repro.orchestrator.config` parses a declarative JSON config
  (matrix axes or a sweep preset, shard count, budget, record/output
  dirs) into a validated :class:`~repro.orchestrator.config.OrchestratorPlan`;
* :mod:`repro.orchestrator.shards` partitions the expanded matrix
  deterministically by scenario-hash prefix (shard ``i/N`` owns the
  scenarios with ``hash % N == i``), so any host can recompute its share
  from the config alone;
* :mod:`repro.orchestrator.dag` is the stage graph: explicit per-stage
  status, dependency-driven unblocking, and partial-completion
  propagation (a shard that salvaged records still unblocks ``fit``);
* :mod:`repro.orchestrator.state` journals progress as atomic
  append-only JSONL so a killed run resumes without re-executing
  completed stages;
* :mod:`repro.orchestrator.run` drives it all (``python -m repro
  orchestrate <config> [--resume] [--shard i/N] [--status]``) and makes
  the terminal ``report`` stage emit the same ``RESULTS.md`` /
  ``REPORT.json`` as a monolithic ``repro sweep`` + ``repro report``.
"""

from repro.orchestrator.config import ConfigError, OrchestratorPlan, load_plan
from repro.orchestrator.dag import (
    BLOCKED,
    COMPLETED,
    COMPLETED_PARTIAL,
    COMPLETED_SUCCESS,
    FAILED,
    NOT_STARTED,
    RUNNING,
    STATUSES,
    TERMINAL,
    Stage,
    StageGraph,
    StageGraphError,
    build_sweep_graph,
)
from repro.orchestrator.run import Orchestrator, drive
from repro.orchestrator.shards import parse_shard, shard_index, shard_specs
from repro.orchestrator.state import Journal, StateError, plan_fingerprint, replay

__all__ = [
    "BLOCKED",
    "COMPLETED",
    "COMPLETED_PARTIAL",
    "COMPLETED_SUCCESS",
    "FAILED",
    "NOT_STARTED",
    "RUNNING",
    "STATUSES",
    "TERMINAL",
    "ConfigError",
    "Journal",
    "Orchestrator",
    "OrchestratorPlan",
    "Stage",
    "StageGraph",
    "StageGraphError",
    "StateError",
    "build_sweep_graph",
    "drive",
    "load_plan",
    "parse_shard",
    "plan_fingerprint",
    "replay",
    "shard_index",
    "shard_specs",
]
