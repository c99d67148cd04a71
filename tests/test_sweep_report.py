"""The sweep-level complexity report (repro.analysis.sweep_report).

Covers the record-loading contract (merging overlapping cache
directories, stale/hash-mismatch rejection), the flatness verdicts on
synthetic power laws, not-fittable series handling, determinism of the
rendered artifacts, and the ``repro report`` CLI including the
``--check`` freshness gate.
"""

from __future__ import annotations

import json
import math

import pytest

from repro.analysis.sweep_report import (
    RecordError,
    build_report,
    check_report,
    fit_groups,
    load_records,
    merge_records,
    render_results_md,
    report_matrix,
    strip_report_timing,
    validate_record,
    write_report,
)
from repro.cli import main
from repro.experiments import ScenarioMatrix, SweepExecutor
from repro.experiments.runner import RECORD_VERSION
from repro.experiments.spec import ScenarioSpec

from conftest import faulted_record


def run_sweep(cache_dir, sizes, algorithms=("naive-bf",), families=("er",)):
    matrix = ScenarioMatrix(families=families, sizes=sizes,
                            algorithms=algorithms, seeds=(1,))
    executor = SweepExecutor(cache_dir=str(cache_dir), workers=1)
    return executor.run(matrix.expand())


def fake_record(spec: ScenarioSpec, rounds, messages, wall=0.01) -> dict:
    """A record with the fields the report consumes, hash-consistent."""
    return {
        "version": RECORD_VERSION,
        "hash": spec.key,
        "spec": spec.to_dict(),
        "actual_n": spec.n,
        "rounds": rounds,
        "messages": messages,
        "timing": {"wall_s": wall},
    }


def synthetic_records(rounds_fn, sizes=(16, 24, 32, 48), algorithm="det-n43"):
    records = []
    for n in sizes:
        spec = ScenarioSpec(family="er", n=n, algorithm=algorithm)
        records.append(fake_record(spec, rounds_fn(n), 100 * n))
    return records


# ----------------------------------------------------------------------
# Loading, merging, rejection
# ----------------------------------------------------------------------

def test_merge_overlapping_record_dirs(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    run_sweep(d1, sizes=(10, 12))
    run_sweep(d2, sizes=(12, 14))  # n=12 overlaps d1
    merged = load_records([d1, d2])
    assert len(merged) == 3  # union, not concatenation
    assert sorted(r["spec"]["n"] for r in merged) == [10, 12, 14]
    # deterministic order regardless of directory order
    assert [r["hash"] for r in load_records([d2, d1])] == \
        [r["hash"] for r in merged]


def test_stale_record_version_rejected(tmp_path):
    (records,) = [run_sweep(tmp_path, sizes=(10,))]
    path = next(tmp_path.glob("*.json"))
    record = json.loads(path.read_text())
    record["version"] = RECORD_VERSION - 1
    path.write_text(json.dumps(record))
    with pytest.raises(RecordError, match="stale record"):
        load_records([tmp_path])
    assert records  # the original sweep itself was fine


def test_hash_mismatched_record_rejected(tmp_path):
    run_sweep(tmp_path, sizes=(10,))
    path = next(tmp_path.glob("*.json"))
    record = json.loads(path.read_text())
    record["spec"]["seed"] = 999  # spec no longer matches the stored hash
    path.write_text(json.dumps(record))
    with pytest.raises(RecordError, match="hash mismatch"):
        load_records([tmp_path])


def test_conflicting_duplicate_records_rejected(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    run_sweep(d1, sizes=(10,))
    run_sweep(d2, sizes=(10,))
    path = next(d2.glob("*.json"))
    record = json.loads(path.read_text())
    record["rounds"] += 1  # same scenario hash, different deterministic data
    path.write_text(json.dumps(record))
    with pytest.raises(RecordError, match="conflicting records"):
        load_records([d1, d2])


def test_missing_directory_rejected(tmp_path):
    with pytest.raises(RecordError, match="not a record directory"):
        load_records([tmp_path / "nope"])


def test_validate_record_requires_metrics():
    spec = ScenarioSpec(family="er", n=10, algorithm="naive-bf")
    record = fake_record(spec, 5, 10)
    del record["messages"]
    with pytest.raises(RecordError, match="missing 'messages'"):
        validate_record(record)


@pytest.mark.parametrize("spec", [[1], "er", 3, None],
                         ids=["list", "string", "number", "null"])
def test_validate_record_rejects_non_object_spec(spec):
    record = fake_record(ScenarioSpec(family="er", n=10,
                                      algorithm="naive-bf"), 5, 10)
    record["spec"] = spec
    with pytest.raises(RecordError, match="unreadable spec"):
        validate_record(record)


def test_validate_record_rejects_non_object_record():
    with pytest.raises(RecordError, match="JSON list, not an object"):
        validate_record([1, 2], source="r.json")


def test_load_records_rejects_top_level_array(tmp_path):
    (tmp_path / "r.json").write_text("[1, 2]")
    with pytest.raises(RecordError, match="not an object"):
        load_records([tmp_path])


def test_faulted_record_is_an_unreadable_spec(tmp_path):
    # A record from a release with the fault axis: its spec names keys
    # ScenarioSpec no longer has, which must read as unreadable, not as
    # a hand-edited "hash mismatch".
    (tmp_path / "f.json").write_text(json.dumps(faulted_record()))
    with pytest.raises(RecordError, match="unreadable spec.*fault"):
        load_records([tmp_path])


def test_merge_records_rejects_mismatched_source_names():
    spec = ScenarioSpec(family="er", n=10, algorithm="naive-bf")
    record = fake_record(spec, 5, 10)
    with pytest.raises(ValueError, match="source names"):
        merge_records([[record], [record]], sources=["only-one"])


def test_merge_records_identical_timing_divergence_ok(tmp_path):
    # Same scenario cached twice with different wall clocks merges fine:
    # timing is explicitly not part of the determinism contract.
    spec = ScenarioSpec(family="er", n=10, algorithm="naive-bf")
    a, b = fake_record(spec, 5, 10, wall=0.1), fake_record(spec, 5, 10, wall=9.9)
    merged = merge_records([[a], [b]])
    assert len(merged) == 1


# ----------------------------------------------------------------------
# Fitting, flatness, verdicts
# ----------------------------------------------------------------------

def test_flatness_flagging_on_synthetic_power_laws():
    # rounds = 7 n^{4/3} ln n is exactly the claimed O~(n^{4/3}) shape
    flat = fit_groups(synthetic_records(
        lambda n: 7.0 * n ** (4 / 3) * math.log(n)))
    assert len(flat) == 1 and flat[0].flat is True
    assert "supports" in flat[0].verdict
    assert flat[0].metrics["rounds"].adjusted_alpha == pytest.approx(0, abs=1e-6)

    # rounds = n^2 grows well beyond the claimed bound
    steep = fit_groups(synthetic_records(lambda n: float(n) ** 2))
    assert steep[0].flat is False
    assert "does not yet support" in steep[0].verdict
    assert steep[0].metrics["rounds"].normalized_alpha == pytest.approx(
        2 - 4 / 3, abs=1e-6)


def test_raw_and_normalized_exponents_recovered():
    fits = fit_groups(synthetic_records(lambda n: 3.0 * n ** 1.5))
    rounds = fits[0].metrics["rounds"]
    assert rounds.fit.alpha == pytest.approx(1.5, abs=1e-9)
    assert rounds.claimed_alpha == pytest.approx(4 / 3)
    assert rounds.normalized_alpha == pytest.approx(1.5 - 4 / 3, abs=1e-9)


def test_unknown_family_gets_no_bound_verdict():
    records = []
    for n in (16, 24):
        spec = ScenarioSpec(family="er", n=n, algorithm="3phase")
        records.append(fake_record(spec, 10 * n, 100 * n))
    fits = fit_groups(records)
    assert fits[0].bound is None and fits[0].flat is None
    assert "no claimed bound" in fits[0].verdict


def test_3phase_arms_fit_as_separate_groups():
    # Two blocker arms of one 3phase sweep are different algorithms:
    # averaging them into one group would fit neither.
    records = []
    for blocker, c in (("derandomized", 10), ("greedy", 30)):
        for n in (16, 24):
            spec = ScenarioSpec(family="er", n=n, algorithm="3phase",
                                blocker=blocker)
            records.append(fake_record(spec, c * n, 100 * n))
    fits = fit_groups(records)
    assert [f.algorithm for f in fits] == [
        "3phase(h=n^0.33,derandomized,pipelined)",
        "3phase(h=n^0.33,greedy,pipelined)",
    ]
    for f in fits:
        assert f.runs == 2
        assert f.metrics["rounds"].fit.alpha == pytest.approx(1.0)


def test_zero_valued_series_becomes_not_fittable_row():
    records = synthetic_records(lambda n: 10.0 * n)
    for rec in records:
        rec["messages"] = 0  # e.g. a trivial scenario that never sends
    fits = fit_groups(records)
    messages = fits[0].metrics["messages"]
    assert messages.fit is None
    assert "offending" in messages.error and "0.0" in messages.error
    # rounds still fit, so the family keeps its rounds verdict...
    assert fits[0].flat is True
    # ...and the rendered artifacts carry the not-fittable row.
    report = build_report(records)
    md = render_results_md(report)
    assert "not fittable" in md and "## Not-fittable series" in md
    payload = report["families"][0]["metrics"]["messages"]
    assert "error" in payload and "alpha" not in payload


def test_polylog_divisor_zero_surfaces_as_not_fittable():
    # actual_n == 1 makes the polylog divisor ln(n)^k zero: the group
    # must surface as not fittable, not crash with ZeroDivisionError.
    from repro.analysis.sweep_report import fit_metric
    from repro.experiments.registry import CLAIMED_BOUNDS

    records = synthetic_records(lambda n: 10.0 * n, sizes=(16, 24, 32))
    records[0]["actual_n"] = 1
    by_n = {r["spec"]["n"]: [r] for r in records}
    m = fit_metric(by_n, "rounds", CLAIMED_BOUNDS["det-n43"])
    assert m.error is not None and "normalized fit failed" in m.error
    fits = fit_groups(records)
    assert fits[0].verdict.startswith("not fittable")


def test_zero_rounds_series_not_fittable_verdict():
    records = synthetic_records(lambda n: 0.0)
    fits = fit_groups(records)
    assert fits[0].flat is None
    assert fits[0].verdict.startswith("not fittable")


# ----------------------------------------------------------------------
# Artifacts: determinism, freshness checking
# ----------------------------------------------------------------------

def test_report_deterministic_modulo_timing(tmp_path):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    run_sweep(d1, sizes=(10, 12, 14))
    run_sweep(d2, sizes=(10, 12, 14))  # fresh run: walls differ
    r1 = build_report(load_records([d1]))
    r2 = build_report(load_records([d2]))
    assert strip_report_timing(r1) == strip_report_timing(r2)
    assert render_results_md(r1) == render_results_md(r2)


def test_check_report_roundtrip_and_staleness(tmp_path):
    records = synthetic_records(lambda n: 5.0 * n ** 1.2)
    report = build_report(records)
    results, payload = tmp_path / "RESULTS.md", tmp_path / "REPORT.json"
    write_report(report, results_path=results, json_path=payload)
    assert check_report(report, results_path=results, json_path=payload) == []
    # timing-only divergence stays fresh
    bumped = dict(report, timing={"families": []})
    assert check_report(bumped, results_path=results, json_path=payload) == []
    # content divergence is stale
    results.write_text(results.read_text() + "edited\n")
    problems = check_report(report, results_path=results, json_path=payload)
    assert problems and "RESULTS.md is stale" in problems[0]


def test_check_report_handles_mangled_json(tmp_path):
    # Valid JSON that is not an object (truncation, conflict resolution)
    # must report stale, not crash.
    records = synthetic_records(lambda n: 5.0 * n ** 1.2)
    report = build_report(records)
    results, payload = tmp_path / "RESULTS.md", tmp_path / "REPORT.json"
    write_report(report, results_path=results, json_path=payload)
    for mangled in ("[]", '"x"', "not json at all"):
        payload.write_text(mangled)
        problems = check_report(report, results_path=results,
                                json_path=payload)
        assert problems == [f"{payload} is stale"]


def test_check_report_calls_non_utf8_artifacts_stale(tmp_path):
    report = build_report(synthetic_records(lambda n: 5.0 * n ** 1.2))
    results, payload = tmp_path / "RESULTS.md", tmp_path / "REPORT.json"
    results.write_bytes(b"\xff\xfe")
    payload.write_bytes(b'{"timing": "\xff"}')
    assert check_report(report, results_path=results, json_path=payload) == [
        f"{results} is stale", f"{payload} is stale"]


def test_report_matrix_covers_three_bounded_families():
    specs = report_matrix().expand()
    from repro.experiments.registry import CLAIMED_BOUNDS

    bounded = {s.algorithm for s in specs} & set(CLAIMED_BOUNDS)
    assert len(bounded) >= 3  # the acceptance bar for verdict coverage
    with pytest.raises(ValueError, match="unknown sweep preset"):
        report_matrix("nope")


def test_report_matrix_consumes_every_preset_axis(monkeypatch):
    # A preset key report_matrix() does not thread through must fail
    # loudly, not let `repro sweep --preset report` and the committed
    # report diverge silently.
    from repro.experiments.registry import SWEEP_PRESETS

    tampered = dict(SWEEP_PRESETS["report"], h_exponents=[0.5])
    monkeypatch.setitem(SWEEP_PRESETS, "report", tampered)
    with pytest.raises(ValueError, match="h_exponents"):
        report_matrix()


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------

def test_cli_report_writes_and_checks(tmp_path, capsys):
    cache = tmp_path / "records"
    run_sweep(cache, sizes=(10, 12, 14), algorithms=("naive-bf", "det-n43"))
    results, payload = tmp_path / "RESULTS.md", tmp_path / "REPORT.json"
    args = ["report", "--records", str(cache),
            "--results", str(results), "--json", str(payload)]
    assert main(args) == 0
    captured = capsys.readouterr()
    assert "wrote" in captured.err  # status stays off stdout
    assert "naive-bf" in captured.out  # the verdict table is the output
    md = results.read_text()
    assert "## Verdicts per claimed bound" in md
    data = json.loads(payload.read_text())
    assert data["scenarios"] == 6
    assert {f["algorithm"] for f in data["families"]} == {"naive-bf",
                                                          "det-n43"}
    # fresh immediately after writing
    assert main(args + ["--check"]) == 0
    capsys.readouterr()
    # stale docs/RESULTS.md fails the check
    results.write_text(md.replace("# Results", "# Stale results"))
    assert main(args + ["--check"]) == 1
    assert "stale" in capsys.readouterr().out


def test_cli_report_custom_records_does_not_clobber_defaults(
        tmp_path, monkeypatch, capsys):
    # `--records` without explicit output paths must not overwrite the
    # committed docs/RESULTS.md (a report over other records is a
    # different document than the committed report-preset one).
    cache = tmp_path / "records"
    run_sweep(cache, sizes=(10, 12))
    monkeypatch.chdir(tmp_path)
    committed = tmp_path / "docs" / "RESULTS.md"
    committed.parent.mkdir()
    committed.write_text("committed report\n")
    assert main(["report", "--records", str(cache)]) == 0
    captured = capsys.readouterr()
    assert "printing only" in captured.err
    assert "naive-bf" in captured.out  # the verdict table still prints
    assert committed.read_text() == "committed report\n"
    assert not (tmp_path / "benchmarks").exists()
    # naming one artifact writes that one and still spares the other
    out_md = tmp_path / "my.md"
    assert main(["report", "--records", str(cache),
                 "--results", str(out_md)]) == 0
    capsys.readouterr()
    assert out_md.exists()
    assert committed.read_text() == "committed report\n"
    assert not (tmp_path / "benchmarks").exists()


def test_cli_report_check_with_custom_records_requires_explicit_paths(
        tmp_path):
    cache = tmp_path / "records"
    run_sweep(cache, sizes=(10, 12))
    # Diffing arbitrary records against the committed report-preset
    # artifacts would always be stale; the CLI refuses instead.
    with pytest.raises(SystemExit, match="pass both"):
        main(["report", "--records", str(cache), "--check"])
    with pytest.raises(SystemExit, match="pass both"):
        # one explicit path is not enough: the other would silently
        # default to the committed artifact
        main(["report", "--records", str(cache), "--check",
              "--results", str(tmp_path / "r.md")])
    # --smoke + --records merges extra scenarios, so the committed
    # preset-only artifacts could never match
    with pytest.raises(SystemExit, match="cannot combine"):
        main(["report", "--records", str(cache), "--smoke", "--check"])


def test_cli_report_rejects_bad_records_dir(tmp_path):
    with pytest.raises(SystemExit, match="not a record directory"):
        main(["report", "--records", str(tmp_path / "missing"),
              "--results", str(tmp_path / "r.md"),
              "--json", str(tmp_path / "r.json")])


def test_cli_report_check_ignores_wall_clock(tmp_path, capsys):
    cache = tmp_path / "records"
    run_sweep(cache, sizes=(10, 12))
    results, payload = tmp_path / "RESULTS.md", tmp_path / "REPORT.json"
    base = ["report", "--records", str(cache),
            "--results", str(results), "--json", str(payload)]
    assert main(base) == 0
    # re-run the sweep into a second cache: same scenarios, new walls
    cache2 = tmp_path / "records2"
    run_sweep(cache2, sizes=(10, 12))
    assert main(["report", "--records", str(cache2),
                 "--results", str(results), "--json", str(payload),
                 "--check"]) == 0
    capsys.readouterr()


def test_cli_report_quick_preset_writes_only_named_paths(
        tmp_path, capsys, monkeypatch):
    results = tmp_path / "QUICK.md"
    payload = tmp_path / "QUICK.json"
    cache = tmp_path / "cache"
    # Shrink the preset so the test stays fast.
    from repro.experiments.registry import SWEEP_PRESETS

    monkeypatch.setitem(SWEEP_PRESETS, "quick", dict(
        SWEEP_PRESETS["quick"], families=["er"], sizes=[12],
        algorithms=["naive-bf"]))
    # The default artifact paths are relative to the CWD.
    monkeypatch.chdir(tmp_path)
    rc = main(["report", "--preset", "quick", "--cache-dir", str(cache),
               "--results", str(results), "--json", str(payload)])
    assert rc == 0
    report = json.loads(payload.read_text())
    assert report["scenarios"] == 1
    assert "naive-bf" in results.read_text()
    assert "naive-bf" in capsys.readouterr().out
    assert not (tmp_path / "docs").exists()
    assert not (tmp_path / "benchmarks").exists()
    # --check against the committed report-preset artifacts is refused.
    with pytest.raises(SystemExit, match="--results and --json"):
        main(["report", "--preset", "quick", "--check",
              "--cache-dir", str(cache)])
