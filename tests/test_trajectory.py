"""The perf-trajectory regression gate (schema, history, comparator, CLI).

Covers the satellite checklist explicitly: exact-metric regression
detection, noise-band edge cases (exactly-at-band, zero baseline wall),
schema-version and unknown-scenario rejection, and the
``--check``/``--update`` CLI round-trip on a tmp history.
"""

from __future__ import annotations

import json

import pytest

from repro.analysis import trajectory
from repro.analysis.trajectory import (
    BenchRecord,
    PerfScenario,
    TrajectoryError,
    append_history,
    compare_records,
    higher_is_better,
    interleaved_cpu_medians,
    latest_baselines,
    load_history,
    load_records_file,
    machine_fingerprint,
    make_record,
    records_payload,
    render_record_line,
    run_scenarios,
    write_history,
)
from repro.cli import main


def record(scenario="er-n64-fast", exact=None, timing=None, machine="m1",
           bench="perf_smoke"):
    return BenchRecord(
        bench=bench, scenario=scenario,
        exact=dict(exact or {}), timing=dict(timing or {}),
        git_sha="abc1234", machine=machine,
    )


def baselines(*records):
    return latest_baselines(records)


# ----------------------------------------------------------------------
# Schema
# ----------------------------------------------------------------------

def test_record_round_trips_through_dict():
    rec = record(exact={"rounds": 12873}, timing={"wall_s": 0.8})
    assert BenchRecord.from_dict(rec.to_dict()) == rec


def test_make_record_stamps_identity():
    rec = make_record("b", "s", exact={"rounds": 1})
    assert rec.machine == machine_fingerprint()
    assert rec.schema == trajectory.SCHEMA_VERSION
    assert rec.git_sha  # short sha in a checkout, "unknown" outside one


def test_foreign_schema_version_rejected():
    data = record().to_dict()
    data["schema"] = trajectory.SCHEMA_VERSION + 1
    with pytest.raises(TrajectoryError, match="schema version"):
        BenchRecord.from_dict(data)


@pytest.mark.parametrize("mutate", [
    lambda d: d.pop("bench"),
    lambda d: d.update(scenario=""),
    lambda d: d.update(exact={"rounds": "many"}),
    lambda d: d.update(timing={"wall_s": True}),
    lambda d: d.update(exact=[1, 2]),
])
def test_malformed_record_rejected(mutate):
    data = record(exact={"rounds": 1}, timing={"wall_s": 0.5}).to_dict()
    mutate(data)
    with pytest.raises(TrajectoryError):
        BenchRecord.from_dict(data)


def test_higher_is_better_naming_convention():
    assert higher_is_better("rounds_per_sec")
    assert higher_is_better("compressed_vs_fast_speedup")
    assert not higher_is_better("wall_s")
    assert not higher_is_better("best_wall_s")


# ----------------------------------------------------------------------
# History I/O
# ----------------------------------------------------------------------

def test_history_write_load_round_trip(tmp_path):
    path = tmp_path / "HISTORY.jsonl"
    recs = [record(exact={"rounds": 1}), record("er-n64-compressed",
                                                exact={"rounds": 1})]
    write_history(path, recs)
    assert load_history(path) == recs
    # one compact sorted-keys JSON object per line
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    assert all(json.loads(line) for line in lines)
    assert lines[0] == render_record_line(recs[0])
    assert "\n" not in lines[0]


def test_append_history_preserves_existing(tmp_path):
    path = tmp_path / "HISTORY.jsonl"
    first = record(exact={"rounds": 1})
    second = record(exact={"rounds": 2})
    append_history(path, [first])
    combined = append_history(path, [second])
    assert combined == [first, second]
    # append-only: later lines supersede earlier ones per scenario
    assert latest_baselines(combined)[second.key] == second


def test_missing_history_raises_with_hint(tmp_path):
    with pytest.raises(TrajectoryError, match="--update"):
        load_history(tmp_path / "nope.jsonl")


def test_corrupt_history_line_named(tmp_path):
    path = tmp_path / "HISTORY.jsonl"
    path.write_text(render_record_line(record()) + "\nnot json\n")
    with pytest.raises(TrajectoryError, match=":2"):
        load_history(path)


def test_records_payload_file_round_trip(tmp_path):
    from repro.analysis.sweep_report import write_json

    recs = [record(exact={"rounds": 3})]
    path = write_json(tmp_path / "PERF.json", records_payload(recs))
    assert load_records_file(path) == recs


def test_records_file_without_records_list_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{\"rows\": []}\n")
    with pytest.raises(TrajectoryError, match="records"):
        load_records_file(path)


# ----------------------------------------------------------------------
# Comparator: exact metrics are strict
# ----------------------------------------------------------------------

def test_exact_regression_detected_and_named():
    base = record(exact={"rounds": 12873, "messages": 283906})
    cur = record(exact={"rounds": 12999, "messages": 283906})
    cmp = compare_records(baselines(base), [cur])
    assert not cmp.ok
    (reg,) = cmp.regressions
    assert (reg.metric, reg.kind) == ("rounds", "exact")
    assert "er-n64-fast" in reg.describe() and "rounds" in reg.describe()


def test_exact_improvement_still_fails_strict_gate():
    base = record(exact={"rounds": 100})
    cur = record(exact={"rounds": 99})  # fewer rounds is still a diff
    cmp = compare_records(baselines(base), [cur])
    assert [r.kind for r in cmp.regressions] == ["exact"]


def test_identical_exact_metrics_pass():
    base = record(exact={"rounds": 100, "messages": 5})
    cmp = compare_records(baselines(base), [record(exact={"rounds": 100,
                                                          "messages": 5})])
    assert cmp.ok and cmp.checked == 2


def test_dropped_exact_metric_is_a_regression():
    base = record(exact={"rounds": 100, "messages": 5})
    cmp = compare_records(baselines(base), [record(exact={"rounds": 100})])
    assert [r.kind for r in cmp.regressions] == ["missing-metric"]


def test_new_exact_metric_is_noted_not_gated():
    base = record(exact={"rounds": 100})
    cmp = compare_records(
        baselines(base), [record(exact={"rounds": 100, "messages": 5})])
    assert cmp.ok and any("new exact metric" in s for s in cmp.skipped)


# ----------------------------------------------------------------------
# Comparator: timing metrics are noise-banded
# ----------------------------------------------------------------------

def test_timing_regression_beyond_band_fails():
    base = record(timing={"wall_s": 1.0})
    cmp = compare_records(baselines(base),
                          [record(timing={"wall_s": 1.26})], band=0.25)
    (reg,) = cmp.regressions
    assert (reg.metric, reg.kind) == ("wall_s", "timing")


def test_timing_exactly_at_band_passes():
    base = record(timing={"wall_s": 1.0})
    cmp = compare_records(baselines(base),
                          [record(timing={"wall_s": 1.25})], band=0.25)
    assert cmp.ok


def test_timing_within_band_passes():
    base = record(timing={"wall_s": 1.0})
    cmp = compare_records(baselines(base),
                          [record(timing={"wall_s": 1.1})], band=0.25)
    assert cmp.ok and cmp.checked == 1


def test_zero_baseline_wall_never_gates():
    base = record(timing={"wall_s": 0.0})
    cmp = compare_records(baselines(base),
                          [record(timing={"wall_s": 5.0})], band=0.25)
    assert cmp.ok
    assert any("zero baseline" in s for s in cmp.skipped)


def test_higher_is_better_direction_respected():
    base = record(timing={"rounds_per_sec": 1000.0})
    dropped = record(timing={"rounds_per_sec": 700.0})
    rose = record(timing={"rounds_per_sec": 2000.0})
    assert not compare_records(baselines(base), [dropped], band=0.25).ok
    cmp = compare_records(baselines(base), [rose], band=0.25)
    assert cmp.ok and cmp.improvements  # big wins are reported, not gated


def test_timing_skipped_across_machines():
    base = record(timing={"wall_s": 1.0}, machine="m1")
    cur = record(timing={"wall_s": 9.0}, machine="m2")
    cmp = compare_records(baselines(base), [cur])
    assert cmp.ok
    assert any("timing skipped" in s for s in cmp.skipped)


def test_exact_gates_even_across_machines():
    base = record(exact={"rounds": 100}, machine="m1")
    cur = record(exact={"rounds": 101}, machine="m2")
    assert not compare_records(baselines(base), [cur]).ok


def test_unknown_scenario_lands_in_new():
    cmp = compare_records({}, [record()])
    assert cmp.ok and len(cmp.new_scenarios) == 1


def test_negative_band_rejected():
    with pytest.raises(ValueError, match="band"):
        compare_records({}, [], band=-0.1)


# ----------------------------------------------------------------------
# Timing machinery
# ----------------------------------------------------------------------

def test_interleaved_cpu_medians_runs_every_entry():
    calls = {"a": 0, "b": 0}

    def bump(key):
        def run():
            calls[key] += 1
        return run

    medians = interleaved_cpu_medians({k: bump(k) for k in calls}, reps=3)
    assert calls == {"a": 3, "b": 3}
    assert set(medians) == {"a", "b"}
    assert all(t >= 0 for t in medians.values())


def test_interleaved_cpu_medians_rejects_zero_reps():
    with pytest.raises(ValueError, match="reps"):
        interleaved_cpu_medians({}, reps=0)


def test_run_scenarios_emits_schema_records():
    tiny = (PerfScenario("er-n12-fast", "er", 12, 1, "fast"),
            PerfScenario("er-n12-compressed", "er", 12, 1, "compressed"))
    records = run_scenarios(tiny, reps=1)
    assert [r.scenario for r in records] == [s.key for s in tiny]
    for rec in records:
        assert rec.schema == trajectory.SCHEMA_VERSION
        assert rec.exact["rounds"] > 0 and rec.exact["messages"] > 0
        assert rec.machine == machine_fingerprint()
    # all engine modes are equivalent executions: identical exact
    # metrics, which is exactly what the committed history pins
    assert records[0].exact == records[1].exact


def test_make_engine_net_rejects_unknown_engine():
    from repro.graphs import erdos_renyi

    with pytest.raises(ValueError, match="unknown engine"):
        trajectory.make_engine_net(erdos_renyi(8, p=0.5, seed=1), "warp")


# ----------------------------------------------------------------------
# CLI round-trip on a tmp history
# ----------------------------------------------------------------------

TINY = (PerfScenario("er-n12-fast", "er", 12, 1, "fast"),)


@pytest.fixture
def tiny_scenarios(monkeypatch):
    monkeypatch.setattr(trajectory, "PERF_SCENARIOS", TINY)
    return TINY


def perf(*argv):
    return main(["perf", *argv])


def test_cli_check_update_round_trip(tmp_path, tiny_scenarios, capsys):
    history = str(tmp_path / "HISTORY.jsonl")
    out = str(tmp_path / "PERF.json")
    # --check before any history: actionable failure
    with pytest.raises(SystemExit, match="--update"):
        perf("--check", "--history", history, "--out", out, "--reps", "1")
    # seed the history
    assert perf("--update", "--history", history, "--out", out,
                "--reps", "1") == 0
    assert "new scenario" in capsys.readouterr().out
    # replaying the just-measured records against it passes
    assert perf("--check", "--history", history, "--records", out) == 0
    assert "perf trajectory OK" in capsys.readouterr().out


def test_cli_check_fails_on_injected_regression(tmp_path, tiny_scenarios,
                                                capsys):
    history = tmp_path / "HISTORY.jsonl"
    out = str(tmp_path / "PERF.json")
    assert perf("--update", "--history", str(history), "--out", out,
                "--reps", "1") == 0
    capsys.readouterr()
    # synthetic regression: bump the baseline's rounds so the fresh
    # records disagree on a deterministic metric
    lines = [json.loads(line) for line in history.read_text().splitlines()]
    lines[0]["exact"]["rounds"] += 7
    tampered = tmp_path / "TAMPERED.jsonl"
    tampered.write_text("\n".join(
        json.dumps(line, sort_keys=True) for line in lines) + "\n")
    rc = perf("--check", "--history", str(tampered), "--records", out)
    printed = capsys.readouterr().out
    assert rc == 1
    assert "REGRESSION" in printed
    assert "rounds" in printed and "er-n12-fast" in printed  # names both


def test_cli_check_rejects_unknown_scenario(tmp_path, tiny_scenarios, capsys):
    history = tmp_path / "HISTORY.jsonl"
    out = str(tmp_path / "PERF.json")
    assert perf("--update", "--history", str(history), "--out", out,
                "--reps", "1") == 0
    capsys.readouterr()
    # drop the scenario from the history: the pinned set now outruns it
    tampered = tmp_path / "EMPTY.jsonl"
    tampered.write_text("")
    rc = perf("--check", "--history", str(tampered), "--records", out)
    printed = capsys.readouterr().out
    assert rc == 1
    assert "unknown-scenario" in printed and "er-n12-fast" in printed


def test_cli_update_prints_explicit_diff_on_change(tmp_path, tiny_scenarios,
                                                   capsys):
    history = tmp_path / "HISTORY.jsonl"
    out = str(tmp_path / "PERF.json")
    assert perf("--update", "--history", str(history), "--out", out,
                "--reps", "1") == 0
    capsys.readouterr()
    lines = [json.loads(line) for line in history.read_text().splitlines()]
    lines[0]["exact"]["rounds"] += 7
    history.write_text("\n".join(
        json.dumps(line, sort_keys=True) for line in lines) + "\n")
    assert perf("--update", "--history", str(history), "--records", out) == 0
    printed = capsys.readouterr().out
    assert "baseline changes:" in printed and "rounds" in printed
    # the appended record supersedes the tampered baseline
    latest = latest_baselines(load_history(history))
    rec = latest[("perf_smoke", "er-n12-fast")]
    assert rec.exact["rounds"] == lines[0]["exact"]["rounds"] - 7
    # re-checking against the refreshed history passes again
    assert perf("--check", "--history", str(history), "--records", out) == 0


def test_cli_check_and_update_are_exclusive(tmp_path):
    with pytest.raises(SystemExit, match="mutually exclusive"):
        perf("--check", "--update", "--history", str(tmp_path / "h.jsonl"))


def test_cli_rejects_unknown_pinned_scenario_key(tmp_path):
    with pytest.raises(SystemExit, match="unknown scenario"):
        perf("--scenarios", "er-n9999-warp",
             "--history", str(tmp_path / "h.jsonl"))


def test_cli_scenarios_subset_filter(tmp_path, capsys):
    history = str(tmp_path / "HISTORY.jsonl")
    assert perf("--update", "--history", history,
                "--out", str(tmp_path / "PERF.json"),
                "--reps", "1", "--scenarios", "er-n64-compressed") == 0
    printed = capsys.readouterr().out
    assert "er-n64-compressed" in printed
    assert "er-n64-strict" not in printed


# ----------------------------------------------------------------------
# the pinned serving scenario
# ----------------------------------------------------------------------

def test_serving_record_exact_metrics_are_deterministic():
    a = trajectory.run_serving_record(reps=1)
    assert (a.bench, a.scenario) == (trajectory.SERVING_BENCH,
                                     trajectory.SERVING_SCENARIO_KEY)
    # pure functions of the spec: the artifact carries no timestamps or
    # machine identity, so these gate strictly on any machine
    assert set(a.exact) == {"artifact_bytes", "n", "finite_pairs"}
    assert a.exact["n"] == 48
    assert a.exact["finite_pairs"] == 48 * 48  # the pinned er-48 is connected
    assert a.exact["artifact_bytes"] > 2 * 48 * 48 * 8  # both planes + header
    assert a.timing["query_batch_s"] > 0
    assert a.timing["queries_per_sec"] > 0
    b = trajectory.run_serving_record(reps=1)
    assert a.exact == b.exact  # bit-identical artifact either run


def test_cli_perf_scenarios_can_select_the_serving_record(
        tmp_path, tiny_scenarios, capsys):
    history = str(tmp_path / "HISTORY.jsonl")
    out = str(tmp_path / "PERF.json")
    assert perf("--update", "--history", history, "--out", out, "--reps",
                "1", "--scenarios", trajectory.SERVING_SCENARIO_KEY) == 0
    text = capsys.readouterr().out
    assert "serving_smoke/oracle-er-n48-fast" in text
    assert "er-n12-fast" not in text  # only the requested key was measured
    assert perf("--check", "--history", history, "--records", out) == 0


def test_cli_perf_unknown_scenario_lists_the_serving_key(tmp_path):
    with pytest.raises(SystemExit) as exc:
        perf("--history", str(tmp_path / "h.jsonl"), "--scenarios", "warp")
    message = str(exc.value)
    assert "unknown scenario(s) warp" in message
    assert trajectory.SERVING_SCENARIO_KEY in message
