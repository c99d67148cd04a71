"""Scenario-sweep subsystem: declarative experiment matrices, run at scale.

The ROADMAP's north star is "as many scenarios as you can imagine"; this
package is the machinery for that.  A :class:`ScenarioSpec` names one
concrete ``(graph family, size, weight model, algorithm, seed)`` run; a
:class:`ScenarioMatrix` is the declarative cross product that expands to
many; a :class:`SweepExecutor` runs them serially or across worker
processes with deterministic per-scenario seeding and a JSON result cache
keyed by scenario hash (re-runs skip finished scenarios).  The registry
(:mod:`~repro.experiments.registry`) names the shared axes — graph
families, weight models, algorithms — and each algorithm family's
claimed round bound (:class:`ClaimedBound` / :data:`CLAIMED_BOUNDS`),
which the sweep-level analysis (:mod:`repro.analysis.sweep_report`)
compares fitted exponents against.  ``python -m repro sweep`` is the CLI
entry; :func:`repro.analysis.sweep_report.fit_groups` fits records into
the Table-1-style exponent table (``repro sweep``, ``repro table1``)
and ``python -m repro report`` turns cached record directories into the
committed cross-family results page.
"""

from repro.experiments.executor import (
    ScenarioFailure,
    SweepError,
    SweepExecutor,
)
from repro.experiments.registry import (
    ALGORITHMS,
    CLAIMED_BOUNDS,
    GRAPH_FAMILIES,
    SWEEP_PRESETS,
    WEIGHT_MODELS,
    ClaimedBound,
    make_graph,
)
from repro.experiments.runner import run_scenario
from repro.experiments.spec import ScenarioMatrix, ScenarioSpec

__all__ = [
    "ALGORITHMS",
    "CLAIMED_BOUNDS",
    "GRAPH_FAMILIES",
    "SWEEP_PRESETS",
    "WEIGHT_MODELS",
    "ClaimedBound",
    "ScenarioFailure",
    "ScenarioMatrix",
    "ScenarioSpec",
    "SweepError",
    "SweepExecutor",
    "make_graph",
    "run_scenario",
]
