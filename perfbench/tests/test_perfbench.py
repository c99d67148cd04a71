"""The benchmark's own tests: metric hygiene, smoke runs and failure paths.

Run from the repository root::

    python -m pytest perfbench/tests -q

The smoke runs use the tiny sizes (``--smoke``: n=64, the ``quick``
preset, 200 requests) and take about 15 s in all on a 2-CPU box.
"""

from __future__ import annotations

import json
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import metric_table as mt  # noqa: E402

UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run_bench(workload, trace=0, cwd=ROOT):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"),
           "--workload", workload, "--seed", "1", "--seconds", "0",
           "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=300)


def last_json(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------------
# metric hygiene
# ----------------------------------------------------------------------

def test_benchmark_json_names_the_workloads_and_command():
    assert set(mt.SPEC) == {"command", "paths", "run_seconds", "workloads",
                            "end_to_end", "per_layer"}
    assert mt.SPEC["paths"] == ["perfbench"]
    assert mt.SPEC["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in mt.SPEC["workloads"]] == list(mt.WORKLOADS)


def test_every_end_to_end_metric_is_exact_or_run_level():
    for m in mt.END_TO_END:
        assert m.kind in mt.KINDS, m.name
        assert (m.kind == "exact") == (m.unit == "count"), m.name
        assert 0 < m.bound <= 0.25, m.name
    setup = next(m for m in mt.END_TO_END if m.name == "setup_s")
    assert (setup.unit, setup.better) == ("s", "lower")
    assert setup.bound == max(m.bound for m in mt.END_TO_END)


def test_names_and_units_are_well_formed_and_unique():
    names = [m.name for m in mt.END_TO_END + mt.PER_LAYER]
    assert len(names) == len(set(names))
    for m in mt.END_TO_END + mt.PER_LAYER:
        assert mt.NAME_RE.match(m.name), m.name
        assert UNIT_RE.match(m.unit), m.unit
        assert m.better in ("lower", "higher")


def test_percentiles_need_ten_samples_beyond():
    assert mt.percentile(list(range(999)), 0.99) is None
    assert mt.percentile(list(range(1000)), 0.99) == 989
    assert mt.percentile(list(range(19)), 0.5) is None
    assert mt.percentile(list(range(20)), 0.5) == 9
    # every workload emits every metric, and the solver workloads make one
    # or 126 operations a run: too few for a latency percentile, so the
    # serve latencies are extras, not metrics
    for m in mt.END_TO_END + mt.PER_LAYER:
        assert not m.name.startswith(("query_", "serving.")), m.name


def test_host_times_are_scaled_by_their_phase_slowdown():
    import worker

    raw = {"wall_s": 12.0, "setup_s": 3.0, "rounds": 500,
           "peak_rss_mb": 40.0}
    out = worker.scaled(raw, worker.UNITS, setup=1.5, measure=1.2)
    assert out == pytest.approx({"wall_s": 10.0, "setup_s": 2.0,
                                 "rounds": 500, "peak_rss_mb": 40.0})
    layers = {"graphs.generate_s": 3.0, "csssp.host_s": 6.0,
              "congest.host_us_per_msg": 2.4, "blocker.q": 55}
    assert worker.scaled(layers, worker.UNITS, setup=1.5,
                         measure=1.2) == pytest.approx(
        {"graphs.generate_s": 2.0, "csssp.host_s": 5.0,
         "congest.host_us_per_msg": 2.0, "blocker.q": 55})
    # oracle-serve's solver layers run in set-up, and so are scaled by it
    assert worker.scaled(layers, worker.UNITS, setup=1.5, measure=1.2,
                         setup_names=set(layers)) == pytest.approx(
        {"graphs.generate_s": 2.0, "csssp.host_s": 4.0,
         "congest.host_us_per_msg": 1.6, "blocker.q": 55})
    extra = {"qps": 1000.0, "query_p50_ms": 0.6, "serving.build_s": 3.0}
    units = {"qps": "1/s", "query_p50_ms": "ms", "serving.build_s": "s"}
    assert worker.scaled(extra, units, setup=1.5, measure=1.2,
                         setup_names=worker.EXTRA_SETUP) == pytest.approx(
        {"qps": 1200.0, "query_p50_ms": 0.5, "serving.build_s": 2.0})


def test_speed_probe_phases_take_their_own_samples():
    import speed

    probe = speed.SpeedProbe()
    first = probe.end_phase()  # too few samples: tops up to the minimum
    assert len(probe.samples) == speed.MIN_SAMPLES and first > 0
    probe.sample(3 * speed.MIN_SAMPLES)
    assert probe.end_phase() > 0
    assert len(probe.samples) == 4 * speed.MIN_SAMPLES
    assert probe.spent == pytest.approx(sum(probe.samples))


def test_timed_runs_collect_garbage():
    for path in BENCH.glob("*.py"):
        assert "gc.disable" not in path.read_text(), path.name


# ----------------------------------------------------------------------
# smoke runs
# ----------------------------------------------------------------------

@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", mt.WORKLOADS)
def test_smoke_run_emits_every_metric(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    out = last_json(proc)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0
    assert out["attempted"] >= 1
    declared = {m.name: m for m in mt.metrics_for(bool(trace))}
    emitted = out["metrics"]
    assert set(emitted) == set(declared)
    for name, value in emitted.items():
        assert value["unit"] == declared[name].unit
        assert isinstance(value["value"], (int, float)) and value["value"] > 0
    extra = json.loads(re.search(r"^extra: (.*)$", proc.stdout, re.M)[1])
    if workload == mt.SERVE:
        # 200 requests: 2 beyond p99, so no query_p99_ms
        assert set(extra) == ({"serving.build_s", "serving.load_s",
                               "serving.server_p50_ms", "serving.store_misses",
                               "serving.store_miss_ratio",
                               "serving.artifact_bytes",
                               "serving.distance_p50_ms",
                               "serving.path_p50_ms"}
                              if trace else {"qps", "query_p50_ms"})
    elif workload == mt.SWEEP and trace:
        assert set(extra) == {"analysis.report_s",
                              "experiments.scenario_s.det-n43",
                              "experiments.scenario_s.naive-bf"}
    else:
        assert extra == {}
    if trace:
        assert "tracing overhead" in proc.stdout
        for layer in ("graphs", "congest", "serving"):
            assert re.search(rf"^{layer}\s", proc.stdout, re.M)


def copy_bench(into: pathlib.Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", into / "BENCHMARK.json")
    shutil.copytree(BENCH, into / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))


def test_tampered_expected_hash_fails_the_run(tmp_path):
    copy_bench(tmp_path)
    for name in ("src", "docs"):
        (tmp_path / name).symlink_to(ROOT / name)
    expected_file = tmp_path / "perfbench" / "expected.json"
    expected = json.loads(expected_file.read_text())
    expected[f"{mt.DET}/smoke"]["dist_sha256"] = "0" * 64
    expected_file.write_text(json.dumps(expected))
    proc = run_bench(mt.DET, cwd=tmp_path)
    assert proc.returncode == 1
    out = last_json(proc)
    assert out["correct"] is False and out["failed"] >= 1
    assert "dist_sha256" in proc.stderr


def test_without_the_program_the_run_fails_without_a_result(tmp_path):
    copy_bench(tmp_path)
    proc = run_bench(mt.DET, cwd=tmp_path)
    assert proc.returncode not in (0, 1)
    assert "{" not in proc.stdout
