"""`repro orchestrate`: end-to-end CLI runs, status output, error paths."""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.cli import main
from repro.experiments.runner import run_scenario_dict
from repro.orchestrator.config import load_plan
from repro.orchestrator.run import Orchestrator

MATRIX = {
    "families": ["er", "path"],
    "sizes": [10],
    "algorithms": ["naive-bf"],
    "seeds": [1, 2],
}


def write_config(tmp_path, name="sweep.json", **overrides):
    data = {
        "matrix": dict(MATRIX),
        "shards": 2,
        "records_dir": str(tmp_path / "records"),
        "state_dir": str(tmp_path / "state"),
    }
    data.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


class TestFullRun:
    def test_orchestrate_runs_to_completion(self, tmp_path, capsys):
        config = write_config(tmp_path)
        rc = main(["orchestrate", str(config)])
        out = capsys.readouterr().out
        assert rc == 0
        for name in ("generate", "shard-0", "shard-1", "fit", "report"):
            assert name in out
        assert "completed_success" in out
        plan = load_plan(config)
        assert pathlib.Path(plan.results_path).exists()
        assert pathlib.Path(plan.json_path).exists()
        assert plan.journal_path.exists()
        payload = json.loads(pathlib.Path(plan.json_path).read_text())
        assert payload["scenarios"] == 4

    def test_single_shard_mode_leaves_rest_blocked(self, tmp_path, capsys):
        config = write_config(tmp_path)
        rc = main(["orchestrate", str(config), "--shard", "1/2"])
        out = capsys.readouterr().out
        assert rc == 0  # blocked non-terminal stages are expected here
        assert "waiting on: shard-0" in out
        assert not pathlib.Path(load_plan(config).json_path).exists()

    def test_rerun_without_resume_refused(self, tmp_path, capsys):
        config = write_config(tmp_path)
        assert main(["orchestrate", str(config)]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            main(["orchestrate", str(config)])
        assert "already has a journal" in str(exc.value)
        assert "--resume" in str(exc.value)
        # and with --resume the completed run is a cheap no-op
        assert main(["orchestrate", str(config), "--resume"]) == 0


class TestStatus:
    def test_status_before_any_run(self, tmp_path, capsys):
        config = write_config(tmp_path)
        rc = main(["orchestrate", str(config), "--status"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "no journal" in out and "(run not started)" in out
        assert "not_started" in out  # the table still renders

    def test_status_names_failing_stage_and_scenario_keys(
            self, tmp_path, capsys):
        config = write_config(tmp_path)
        plan = load_plan(config)
        specs = plan.specs()
        doomed = {specs[0].key}

        def flaky_runner(spec_dict, verify):
            record = run_scenario_dict(spec_dict, verify)
            if record["hash"] in doomed:
                raise RuntimeError("injected scenario failure")
            return record

        graph = Orchestrator(plan, runner=flaky_runner).run()
        assert graph.done()
        capsys.readouterr()
        rc = main(["orchestrate", str(config), "--status"])
        out = capsys.readouterr().out
        assert rc == 0
        # the owning shard completed partial, and the exact
        # `[fail] <key> <label>: <error>` line names the scenario
        assert "completed_partial" in out
        assert f"[fail] {specs[0].key} {specs[0].label}: " in out
        assert "injected scenario failure" in out

    def test_failed_run_exits_nonzero_and_names_stages(
            self, tmp_path, capsys, monkeypatch):
        config = write_config(tmp_path)

        def broken_runner(spec_dict, verify):
            raise RuntimeError("all scenarios broken")

        # the real CLI path, with the always-failing runner injected
        import repro.orchestrator

        class BrokenOrchestrator(Orchestrator):
            def __init__(self, plan, **kwargs):
                kwargs["runner"] = broken_runner
                super().__init__(plan, **kwargs)

        monkeypatch.setattr(
            repro.orchestrator, "Orchestrator", BrokenOrchestrator)
        rc = main(["orchestrate", str(config)])
        out = capsys.readouterr().out
        assert rc == 1
        # zero salvaged records -> failed shard, propagated to fit/report
        assert "orchestration finished with problems:" in out
        assert "shard-0 (failed)" in out
        assert "fit (failed)" in out and "report (failed)" in out
        assert "--resume retries only the failures" in out


class TestErrorPaths:
    def test_unknown_config_path(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["orchestrate", str(tmp_path / "missing.yaml")])
        assert "repro orchestrate: config not found" in str(exc.value)

    def test_malformed_yaml_names_line(self, tmp_path):
        pytest.importorskip("yaml")
        bad = tmp_path / "bad.yaml"
        bad.write_text("shards: 2\n\tbroken: tab indentation\n")
        with pytest.raises(SystemExit) as exc:
            main(["orchestrate", str(bad)])
        message = str(exc.value)
        assert "malformed YAML" in message and "line 2" in message

    @pytest.mark.parametrize("shard,needle", [
        ("2/2", "0 <= i <"),
        ("a/b", "invalid shard spec"),
        ("-1/2", "0 <= i <"),
        ("1", "invalid shard spec"),
    ])
    def test_invalid_shard_specs(self, tmp_path, shard, needle):
        config = write_config(tmp_path)
        with pytest.raises(SystemExit) as exc:
            # --shard=<spec> so argparse does not eat a leading '-'
            main(["orchestrate", str(config), f"--shard={shard}"])
        assert needle in str(exc.value)

    def test_shard_count_mismatch_names_plan_source(self, tmp_path):
        config = write_config(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["orchestrate", str(config), "--shard", "1/3"])
        message = str(exc.value)
        assert "--shard 1/3 does not match the plan's 2 shard(s)" in message
        assert str(config) in message
