"""Declarative sweep-orchestration configs: one checked-in file per fleet run.

A config is JSON (or YAML when pyyaml is installed, by file suffix) and
names the whole run, like ``examples/orchestrator_quick.json``::

    {"preset": "quick",
     "shards": 2,
     "workers": 1,
     "budget": 64,
     "records_dir": "results/orchestrator/records",
     "state_dir": "results/orchestrator/state",
     "results": "results/orchestrator/RESULTS.md",
     "json": "results/orchestrator/REPORT.json"}

``preset`` names a sweep preset; a ``matrix`` mapping of axis lists
(``{"families": [...], "sizes": [...]}``) replaces it.  ``shards``
partitions the scenarios by hash (``hash % N == i``), ``workers`` is
the worker-process count per shard stage, ``budget`` optionally caps
the expanded scenario count, and ``results`` / ``json`` default to
``<state_dir>/RESULTS.md`` and ``<state_dir>/REPORT.json``.

Parsing is strict: unknown or duplicate keys, a missing matrix, a
non-positive shard count, or a matrix that expands beyond ``budget``
raise :class:`ConfigError` naming the file and the problem.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.analysis.sweep_report import report_matrix
from repro.experiments.spec import ScenarioMatrix, ScenarioSpec
from repro.orchestrator.state import plan_fingerprint


class ConfigError(ValueError):
    """An orchestrator config file is missing, malformed, or invalid."""


def load_config(path: object) -> dict:
    """Read one JSON (or, with pyyaml, YAML) config file into a mapping.

    Fails closed: a missing or unreadable file, bytes that are not
    UTF-8, malformed syntax, a duplicate JSON key, or a non-mapping top
    level raise :class:`ConfigError` naming the file.
    """
    path = pathlib.Path(path)
    if not path.exists():
        raise ConfigError(f"config not found: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"unreadable config {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config {path} is not UTF-8 text: {exc}") from exc
    if path.suffix == ".json":

        def unique_keys(pairs):
            mapping = {}
            for key, value in pairs:
                if key in mapping:
                    raise ConfigError(f"duplicate key {key!r} in {path}")
                mapping[key] = value
            return mapping

        try:
            data = json.loads(text, object_pairs_hook=unique_keys)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"malformed JSON in {path}: {exc}") from exc
    elif path.suffix in (".yaml", ".yml"):
        try:
            import yaml
        except ImportError:
            raise ConfigError(
                f"config {path} is YAML, which needs pyyaml; install "
                f"pyyaml or write the config as JSON"
            ) from None
        try:
            data = yaml.safe_load(text)
        except yaml.YAMLError as exc:
            raise ConfigError(f"malformed YAML in {path}: {exc}") from exc
    else:
        raise ConfigError(
            f"config {path} must be .yaml, .yml, or .json"
        )
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError(
            f"config {path} must be a mapping at the top level, got "
            f"{type(data).__name__}"
        )
    return data


# ----------------------------------------------------------------------
# The validated plan
# ----------------------------------------------------------------------

#: matrix axes a ``matrix:`` block may set (ScenarioMatrix fields)
MATRIX_KEYS = (
    "families", "sizes", "algorithms", "seeds", "weights", "h_exponents",
    "blockers", "deliveries", "faults", "fault_seeds", "strict", "compress",
)

#: every legal top-level config key
CONFIG_KEYS = (
    "preset", "matrix", "shards", "workers", "budget", "verify",
    "records_dir", "state_dir", "results", "json",
)


@dataclass(frozen=True)
class OrchestratorPlan:
    """One validated fleet run: the matrix, the sharding, the outputs.

    Built by :func:`load_plan` from a config file; everything the run
    needs is explicit here, and :meth:`fingerprint` hashes the
    run-defining parts (scenario hashes, shard count, record dir,
    verify) so a resume against a journal from a *different* plan is
    refused instead of silently mixing runs.
    """

    matrix: ScenarioMatrix
    shards: int
    workers: int
    budget: Optional[int]
    verify: bool
    records_dir: str
    state_dir: str
    results_path: str
    json_path: str
    source: str = ""
    preset: Optional[str] = None

    def specs(self) -> List[ScenarioSpec]:
        """Expand the matrix, enforcing the scenario budget."""
        specs = self.matrix.expand()
        if self.budget is not None and len(specs) > self.budget:
            raise ConfigError(
                f"{self.source or 'plan'}: matrix expands to {len(specs)} "
                f"scenarios, over the budget of {self.budget}; raise "
                f"'budget' or shrink the axes"
            )
        return specs

    @property
    def journal_path(self) -> pathlib.Path:
        return pathlib.Path(self.state_dir) / "journal.jsonl"

    def fingerprint(self) -> str:
        """Hash of the run-defining plan parts (see class docstring)."""
        return plan_fingerprint({
            "scenario_hashes": sorted(s.key for s in self.matrix.expand()),
            "shards": self.shards,
            "records_dir": self.records_dir,
            "verify": self.verify,
        })


def _require_int(data: dict, key: str, source: str, default: int,
                 minimum: int = 1) -> int:
    value = data.get(key, default)
    if not isinstance(value, int) or isinstance(value, bool) \
            or value < minimum:
        raise ConfigError(
            f"{source}: '{key}' must be an integer >= {minimum}, got "
            f"{value!r}"
        )
    return value


def _build_matrix(data: dict, source: str) -> Tuple[ScenarioMatrix,
                                                    Optional[str]]:
    preset = data.get("preset")
    matrix_axes = data.get("matrix")
    if (preset is None) == (matrix_axes is None):
        raise ConfigError(
            f"{source}: exactly one of 'preset' or 'matrix' must be set"
        )
    if preset is not None:
        try:
            return report_matrix(preset), preset
        except ValueError as exc:
            raise ConfigError(f"{source}: {exc}") from exc
    if not isinstance(matrix_axes, dict):
        raise ConfigError(
            f"{source}: 'matrix' must be a mapping of scenario axes"
        )
    unknown = sorted(set(matrix_axes) - set(MATRIX_KEYS))
    if unknown:
        raise ConfigError(
            f"{source}: unknown matrix axes {unknown}; known axes: "
            f"{', '.join(MATRIX_KEYS)}"
        )
    try:
        matrix = ScenarioMatrix(**matrix_axes)
        matrix.expand()  # surface bad axis values at load time
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{source}: invalid matrix: {exc}") from exc
    return matrix, None


def plan_from_dict(data: dict, source: str = "config") -> OrchestratorPlan:
    """Validate a raw config mapping into an :class:`OrchestratorPlan`."""
    unknown = sorted(set(data) - set(CONFIG_KEYS))
    if unknown:
        raise ConfigError(
            f"{source}: unknown config keys {unknown}; known keys: "
            f"{', '.join(CONFIG_KEYS)}"
        )
    matrix, preset = _build_matrix(data, source)
    shards = _require_int(data, "shards", source, default=1)
    workers = _require_int(data, "workers", source, default=1)
    budget = None
    if data.get("budget") is not None:
        budget = _require_int(data, "budget", source, default=1)
    verify = data.get("verify", True)
    if not isinstance(verify, bool):
        raise ConfigError(
            f"{source}: 'verify' must be true or false, got {verify!r}"
        )
    for key in ("records_dir", "state_dir"):
        if not isinstance(data.get(key), str) or not data[key]:
            raise ConfigError(
                f"{source}: '{key}' is required and must be a path string"
            )
    state_dir = data["state_dir"]
    for key in ("results", "json"):
        if key in data and (not isinstance(data[key], str) or not data[key]):
            raise ConfigError(
                f"{source}: '{key}' must be a path string when given"
            )
    plan = OrchestratorPlan(
        matrix=matrix,
        shards=shards,
        workers=workers,
        budget=budget,
        verify=verify,
        records_dir=data["records_dir"],
        state_dir=state_dir,
        results_path=data.get(
            "results", str(pathlib.Path(state_dir) / "RESULTS.md")),
        json_path=data.get(
            "json", str(pathlib.Path(state_dir) / "REPORT.json")),
        source=source,
        preset=preset,
    )
    plan.specs()  # enforce the budget at load time, not mid-run
    return plan


def load_plan(path: object) -> OrchestratorPlan:
    """Load and validate one config file into an :class:`OrchestratorPlan`."""
    return plan_from_dict(load_config(path), source=str(path))


__all__ = [
    "CONFIG_KEYS",
    "MATRIX_KEYS",
    "ConfigError",
    "OrchestratorPlan",
    "load_config",
    "load_plan",
    "plan_from_dict",
]
