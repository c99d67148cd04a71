"""Declarative orchestrator configs: parsing, validation, fingerprints."""

from __future__ import annotations

import json
import pathlib
import sys

import pytest

from repro.orchestrator.config import (
    ConfigError,
    load_config,
    load_plan,
    plan_from_dict,
)

BASE = {
    "matrix": {
        "families": ["er", "path"],
        "sizes": [10, 14],
        "algorithms": ["naive-bf"],
        "seeds": [1, 2],
    },
    "shards": 2,
    "records_dir": "records",
    "state_dir": "state",
}

YAML_TEXT = """\
# a comment line
matrix:
  families: [er, path]
  sizes: [10, 14]
  algorithms: [naive-bf]
  seeds: [1, 2]
shards: 2            # trailing comment
workers: 1
budget: 16
records_dir: records
state_dir: state
"""


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoading:
    def test_json_config_loads(self, tmp_path):
        path = write(tmp_path, "cfg.json", json.dumps(BASE))
        plan = load_plan(path)
        assert plan.shards == 2
        assert plan.workers == 1  # default
        assert plan.budget is None
        assert len(plan.specs()) == 8

    def test_yaml_config_loads(self, tmp_path):
        pytest.importorskip("yaml")
        plan = load_plan(write(tmp_path, "cfg.yaml", YAML_TEXT))
        assert plan.shards == 2 and plan.budget == 16
        assert [s.key for s in plan.specs()] == [
            s.key for s in load_plan(
                write(tmp_path, "cfg.json", json.dumps(BASE))).specs()
        ]

    def test_yaml_without_pyyaml_names_pyyaml_and_json(
            self, tmp_path, monkeypatch):
        monkeypatch.setitem(sys.modules, "yaml", None)
        path = write(tmp_path, "cfg.yaml", YAML_TEXT)
        with pytest.raises(ConfigError, match="pyyaml.*JSON"):
            load_config(path)

    @pytest.mark.parametrize("text,key", [
        ('{"shards": 2, "state_dir": "s", "shards": 3}', "shards"),
        ('{"matrix": {"sizes": [10], "sizes": [14]}}', "sizes"),
    ], ids=["top-level", "in-matrix"])
    def test_duplicate_json_key_named(self, tmp_path, text, key):
        path = write(tmp_path, "cfg.json", text)
        with pytest.raises(ConfigError, match=f"duplicate key '{key}'"):
            load_config(path)

    def test_missing_config_named(self, tmp_path):
        with pytest.raises(ConfigError, match="config not found"):
            load_plan(tmp_path / "nope.yaml")

    def test_malformed_json_named(self, tmp_path):
        path = write(tmp_path, "cfg.json", "{not json")
        with pytest.raises(ConfigError, match="malformed JSON"):
            load_plan(path)

    def test_malformed_yaml_line_named(self, tmp_path):
        pytest.importorskip("yaml")
        path = write(tmp_path, "cfg.yaml", "shards: 2\n\tbad: tab\n")
        with pytest.raises(ConfigError, match="line 2"):
            load_config(path)

    def test_unknown_suffix_rejected(self, tmp_path):
        path = write(tmp_path, "cfg.toml", "shards = 2")
        with pytest.raises(ConfigError, match=r"\.yaml, \.yml, or \.json"):
            load_plan(path)

    def test_non_mapping_top_level_rejected(self, tmp_path):
        path = write(tmp_path, "cfg.json", "[1, 2]")
        with pytest.raises(ConfigError, match="mapping at the top level"):
            load_plan(path)


def with_overrides(**overrides) -> dict:
    data = {k: (dict(v) if isinstance(v, dict) else v)
            for k, v in BASE.items()}
    data.update(overrides)
    return {k: v for k, v in data.items() if v is not ...}


class TestValidation:
    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match=r"unknown config keys \['shardz'\]"):
            plan_from_dict(with_overrides(shardz=3))

    def test_preset_and_matrix_mutually_exclusive(self):
        with pytest.raises(ConfigError, match="exactly one of"):
            plan_from_dict(with_overrides(preset="quick"))
        with pytest.raises(ConfigError, match="exactly one of"):
            plan_from_dict(with_overrides(matrix=...))

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigError, match="unknown sweep preset"):
            plan_from_dict(with_overrides(matrix=..., preset="nope"))

    def test_preset_resolves_to_its_matrix(self):
        from repro.analysis.sweep_report import report_matrix

        plan = plan_from_dict(with_overrides(matrix=..., preset="quick"))
        assert plan.preset == "quick"
        assert [s.key for s in plan.specs()] == [
            s.key for s in report_matrix("quick").expand()
        ]

    def test_unknown_matrix_axis_rejected(self):
        bad = dict(BASE["matrix"], sizez=[10])
        with pytest.raises(ConfigError, match=r"unknown matrix axes \['sizez'\]"):
            plan_from_dict(with_overrides(matrix=bad))

    def test_invalid_axis_value_rejected(self):
        bad = dict(BASE["matrix"], families=["torus"])
        with pytest.raises(ConfigError, match="invalid matrix"):
            plan_from_dict(with_overrides(matrix=bad))

    @pytest.mark.parametrize("key", ["shards", "workers"])
    @pytest.mark.parametrize("value", [0, -1, "two", 1.5, True])
    def test_bad_counts_rejected(self, key, value):
        with pytest.raises(ConfigError, match=f"'{key}' must be an integer"):
            plan_from_dict(with_overrides(**{key: value}))

    def test_budget_enforced_at_load(self):
        with pytest.raises(ConfigError, match="over the budget of 4"):
            plan_from_dict(with_overrides(budget=4))

    def test_budget_at_exactly_matrix_size_passes(self):
        assert plan_from_dict(with_overrides(budget=8)).budget == 8

    def test_missing_dirs_rejected(self):
        with pytest.raises(ConfigError, match="'records_dir' is required"):
            plan_from_dict(with_overrides(records_dir=...))
        with pytest.raises(ConfigError, match="'state_dir' is required"):
            plan_from_dict(with_overrides(state_dir=...))

    def test_verify_must_be_bool(self):
        with pytest.raises(ConfigError, match="'verify' must be true or false"):
            plan_from_dict(with_overrides(verify="yes"))

    def test_output_paths_default_into_state_dir(self):
        plan = plan_from_dict(BASE)
        assert plan.results_path.endswith("RESULTS.md")
        assert plan.json_path.endswith("REPORT.json")
        assert plan.results_path.startswith("state")


def test_checked_in_example_config_loads():
    # the README quickstart points at this file; keep it loadable
    example = (pathlib.Path(__file__).resolve().parents[1]
               / "examples" / "orchestrator_quick.json")
    plan = load_plan(example)
    assert plan.preset == "quick"
    assert plan.shards == 2 and plan.verify is True
    assert len(plan.specs()) > 0


class TestFingerprint:
    def test_stable_across_loads(self, tmp_path):
        pytest.importorskip("yaml")
        a = load_plan(write(tmp_path, "a.json", json.dumps(BASE)))
        b = load_plan(write(tmp_path, "b.yaml", YAML_TEXT))
        # budget/workers differences do not change the run identity
        assert a.fingerprint() == b.fingerprint()

    def test_sensitive_to_matrix_and_sharding(self):
        base = plan_from_dict(BASE)
        smaller = plan_from_dict(with_overrides(
            matrix=dict(BASE["matrix"], seeds=[1])))
        resharded = plan_from_dict(with_overrides(shards=3))
        moved = plan_from_dict(with_overrides(records_dir="elsewhere"))
        prints = {p.fingerprint()
                  for p in (base, smaller, resharded, moved)}
        assert len(prints) == 4
