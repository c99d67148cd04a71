"""The scenario-sweep subsystem: specs, expansion, execution, caching."""

from __future__ import annotations

import json

import pytest

from repro.experiments import (
    ScenarioMatrix,
    ScenarioSpec,
    SweepExecutor,
    make_graph,
    run_scenario,
)
from repro.experiments.executor import strip_timing
from repro.experiments.registry import ALGORITHMS
from repro.experiments.runner import (
    RECORD_VERSION,
    fault_plan_seed,
    scenario_seed,
)
from repro.experiments.spec import THREE_PHASE

# ---------------------------------------------------------------------------
# specs and hashing


def test_spec_key_is_stable_and_axis_sensitive():
    a = ScenarioSpec(family="er", n=16, algorithm="naive-bf", seed=1)
    assert a.key == ScenarioSpec(family="er", n=16, algorithm="naive-bf",
                                 seed=1).key
    for other in (
        ScenarioSpec(family="grid", n=16, algorithm="naive-bf", seed=1),
        ScenarioSpec(family="er", n=18, algorithm="naive-bf", seed=1),
        ScenarioSpec(family="er", n=16, algorithm="det-n43", seed=1),
        ScenarioSpec(family="er", n=16, algorithm="naive-bf", seed=2),
        ScenarioSpec(family="er", n=16, algorithm="naive-bf", seed=1,
                     weights="unit"),
        ScenarioSpec(family="er", n=16, algorithm="naive-bf", seed=1,
                     strict=False),
    ):
        assert other.key != a.key


def test_spec_roundtrips_through_dict():
    spec = ScenarioSpec(family="er", n=16, algorithm=THREE_PHASE, seed=3,
                        blocker="greedy", delivery="broadcast",
                        h_exponent=0.5)
    again = ScenarioSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
    assert again == spec and again.key == spec.key


def test_spec_validation():
    with pytest.raises(ValueError):
        ScenarioSpec(family="torus", n=16, algorithm="naive-bf")
    with pytest.raises(ValueError):
        ScenarioSpec(family="er", n=16, algorithm="does-not-exist")
    with pytest.raises(ValueError):
        ScenarioSpec(family="er", n=16, algorithm="naive-bf",
                     weights="negative")
    with pytest.raises(ValueError):  # driver axes only apply to 3phase
        ScenarioSpec(family="er", n=16, algorithm="naive-bf",
                     blocker="greedy")
    with pytest.raises(ValueError):
        ScenarioSpec(family="er", n=16, algorithm=THREE_PHASE,
                     blocker="imaginary")
    with pytest.raises(ValueError):  # zero weights exist only for er families
        ScenarioSpec(family="path", n=16, algorithm="naive-bf",
                     weights="zero")


def test_3phase_defaults_normalize_to_one_key():
    implicit = ScenarioSpec(family="er", n=16, algorithm=THREE_PHASE)
    explicit = ScenarioSpec(family="er", n=16, algorithm=THREE_PHASE,
                            blocker="derandomized", delivery="pipelined",
                            h_exponent=1 / 3)
    assert implicit == explicit and implicit.key == explicit.key
    # explicit zero is a real value, not "use the default"
    flat = ScenarioSpec(family="er", n=16, algorithm=THREE_PHASE,
                        h_exponent=0.0)
    assert flat.h_exponent == 0.0 and flat.key != implicit.key


def test_scenario_seed_ignores_driver_axes():
    base = ScenarioSpec(family="er", n=16, algorithm=THREE_PHASE, seed=1)
    other = ScenarioSpec(family="er", n=16, algorithm=THREE_PHASE, seed=1,
                         blocker="sampling", delivery="broadcast")
    assert scenario_seed(base) == scenario_seed(other)
    assert scenario_seed(base) != scenario_seed(
        ScenarioSpec(family="er", n=16, algorithm=THREE_PHASE, seed=2))


# ---------------------------------------------------------------------------
# matrix expansion


def test_matrix_expansion_is_the_cross_product():
    matrix = ScenarioMatrix(families=("er", "path"), sizes=(8, 12),
                            algorithms=("naive-bf", "det-n43"), seeds=(1, 2, 3))
    specs = matrix.expand()
    assert len(specs) == len(matrix) == 2 * 2 * 2 * 3
    assert len({s.key for s in specs}) == len(specs)  # all distinct
    assert specs == matrix.expand()  # deterministic order


def test_matrix_driver_axes_only_multiply_3phase():
    matrix = ScenarioMatrix(families=("er",), sizes=(12,),
                            algorithms=("naive-bf", THREE_PHASE),
                            deliveries=("pipelined", "broadcast"))
    specs = matrix.expand()
    # naive-bf collapses the delivery axis; 3phase crosses it.
    assert len(specs) == 1 + 2
    assert sum(s.algorithm == THREE_PHASE for s in specs) == 2


def test_weight_models():
    unit = make_graph("er", 12, seed=3, weights="unit")
    weights = {w for v in range(unit.n) for (_u, w, _tb) in unit.out_edges(v)}
    assert weights == {1.0}
    integer = make_graph("er", 12, seed=3, weights="integer")
    assert all(w == int(w) for v in range(integer.n)
               for (_u, w, _tb) in integer.out_edges(v))
    with pytest.raises(ValueError):
        make_graph("grid", 12, seed=3, weights="zero")  # er-only model
    with pytest.raises(ValueError):
        make_graph("er", 12, seed=3, weights="no-such-model")


# ---------------------------------------------------------------------------
# execution: serial == parallel, record contents


SMALL = ScenarioMatrix(families=("er", "path"), sizes=(8, 12),
                       algorithms=("naive-bf", "det-n43"), seeds=(1,))


def test_parallel_equals_serial(tmp_path):
    specs = SMALL.expand()
    assert len(specs) == 8
    serial = SweepExecutor(cache_dir=str(tmp_path / "s"), workers=1).run(specs)
    parallel = SweepExecutor(cache_dir=str(tmp_path / "p"), workers=2).run(specs)
    assert [r["hash"] for r in serial] == [s.key for s in specs]
    for a, b in zip(serial, parallel):
        assert strip_timing(a) == strip_timing(b)
        assert a["dist_sha256"] == b["dist_sha256"]
        assert a["rounds"] == b["rounds"]
    # the cache files are byte-identical modulo the timing block
    for p in sorted((tmp_path / "s").glob("*.json")):
        a = strip_timing(json.loads(p.read_text()))
        b = strip_timing(json.loads((tmp_path / "p" / p.name).read_text()))
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_cache_hit_skips_execution(tmp_path):
    specs = SMALL.expand()[:3]
    ex = SweepExecutor(cache_dir=str(tmp_path), workers=1)
    first = ex.run(specs)
    assert (ex.executed, ex.cached) == (3, 0)
    mtimes = {p.name: p.stat().st_mtime_ns for p in tmp_path.glob("*.json")}
    second = ex.run(specs)
    assert (ex.executed, ex.cached) == (0, 3)
    assert [strip_timing(r) for r in first] == [strip_timing(r) for r in second]
    # cached files were not rewritten
    assert mtimes == {p.name: p.stat().st_mtime_ns
                      for p in tmp_path.glob("*.json")}


def test_unverified_cache_entries_not_served_to_verifying_sweeps(tmp_path):
    specs = SMALL.expand()[:2]
    unverified = SweepExecutor(cache_dir=str(tmp_path), workers=1,
                               verify=False)
    unverified.run(specs)
    checking = SweepExecutor(cache_dir=str(tmp_path), workers=1, verify=True)
    records = checking.run(specs)
    assert (checking.executed, checking.cached) == (2, 0)
    assert all(r["verified"] for r in records)
    # and the healed cache now satisfies verifying sweeps
    checking.run(specs)
    assert (checking.executed, checking.cached) == (0, 2)
    # ... while a later --no-verify sweep happily reuses verified records
    unverified.run(specs)
    assert (unverified.executed, unverified.cached) == (0, 2)


def test_force_reruns_cached_scenarios(tmp_path):
    specs = SMALL.expand()[:2]
    SweepExecutor(cache_dir=str(tmp_path), workers=1).run(specs)
    ex = SweepExecutor(cache_dir=str(tmp_path), workers=1, force=True)
    ex.run(specs)
    assert (ex.executed, ex.cached) == (2, 0)


def test_corrupt_cache_entry_is_rerun(tmp_path):
    specs = SMALL.expand()[:1]
    ex = SweepExecutor(cache_dir=str(tmp_path), workers=1)
    ex.run(specs)
    path = ex.cache_path(specs[0])
    path.write_text("{ not json")
    ex.run(specs)
    assert ex.executed == 1
    assert json.loads(path.read_text())["hash"] == specs[0].key  # healed


@pytest.mark.parametrize("body", [b'{"hash": "\xff\xfe"}', b"[1, 2]"],
                         ids=["not-utf8", "not-an-object"])
def test_unusable_cache_entry_is_rerun(tmp_path, body):
    specs = SMALL.expand()[:1]
    ex = SweepExecutor(cache_dir=str(tmp_path), workers=1)
    ex.run(specs)
    path = ex.cache_path(specs[0])
    path.write_bytes(body)
    ex.run(specs)
    assert (ex.executed, ex.cached) == (1, 0)
    assert json.loads(path.read_text())["hash"] == specs[0].key  # healed


def test_record_contents_and_verification():
    spec = ScenarioSpec(family="er", n=12, algorithm="det-n43", seed=1)
    rec = run_scenario(spec)
    assert rec["hash"] == spec.key
    assert rec["spec"] == spec.to_dict()
    assert rec["verified"] is True
    assert rec["rounds"] > 0 and rec["messages"] > 0
    assert rec["finite_pairs"] == 12 * 12  # er graphs are connected
    assert set(rec["step_rounds"]) == set(rec["step_congestion"])
    assert rec["timing"]["wall_s"] > 0
    json.dumps(rec)  # JSON-safe end to end


#: The record layout ``RECORD_VERSION`` 2 stands for.  Caches are keyed by
#: scenario hash and served while the version matches, so a layout change
#: that keeps the version would serve pre-change records as fresh.
PINNED_RECORD_VERSION = 2
RECORD_KEYS = (
    "actual_n", "algorithm", "dist_sha256", "dist_sum", "finite_pairs",
    "graph", "hash", "max_node_congestion", "messages", "meta", "rounds",
    "spec", "step_congestion", "step_rounds", "timing", "verified",
    "version",
)
FAULTED_RECORD_KEYS = tuple(sorted(
    RECORD_KEYS + ("baseline", "fault_outcome", "faults")))
THREE_PHASE_META = ("blocker", "bottlenecks", "delivery", "h",
                    "pipeline_rounds", "q", "q_prime")
META_KEYS = {
    "det-n32": ("blocker", "delivery", "h", "q"),
    "det-n43": THREE_PHASE_META,
    "det-n53": ("blocker", "delivery", "h", "q"),
    "naive-bf": (),
    "rand-n43": THREE_PHASE_META,
}


@pytest.mark.parametrize("algorithm,faults", [
    *((a, "none") for a in sorted(ALGORITHMS)),
    ("naive-bf", "drop"),
])
def test_record_layout_is_pinned_to_record_version(algorithm, faults):
    spec = ScenarioSpec(family="er", n=10, algorithm=algorithm, seed=1,
                        strict=False, compress=faults == "none",
                        faults=faults)
    record = run_scenario(spec, verify=False)
    layout = (tuple(sorted(record)), tuple(sorted(record["meta"])))
    pinned = (FAULTED_RECORD_KEYS if faults != "none" else RECORD_KEYS,
              () if faults != "none" else META_KEYS[algorithm])
    assert (RECORD_VERSION, layout) == (PINNED_RECORD_VERSION, pinned), (
        f"{spec.label}: record layout {layout} (RECORD_VERSION "
        f"{RECORD_VERSION}) differs from the layout pinned for version "
        f"{PINNED_RECORD_VERSION}. A changed layout needs a RECORD_VERSION "
        f"bump in repro/experiments/runner.py, so cached records of the "
        f"old layout are re-run instead of served; then re-pin it here."
    )


def test_fast_engine_matches_strict_engine():
    strict = run_scenario(
        ScenarioSpec(family="er", n=12, algorithm="det-n43", seed=5))
    fast = run_scenario(
        ScenarioSpec(family="er", n=12, algorithm="det-n43", seed=5,
                     strict=False))
    assert strict["dist_sha256"] == fast["dist_sha256"]
    assert strict["rounds"] == fast["rounds"]
    assert strict["messages"] == fast["messages"]


def test_3phase_scenarios_run_all_deliveries():
    for delivery in ("pipelined", "broadcast"):
        rec = run_scenario(
            ScenarioSpec(family="er", n=10, algorithm=THREE_PHASE, seed=2,
                         blocker="sampling", delivery=delivery))
        assert rec["verified"] and rec["algorithm"].startswith("3phase")


# ---------------------------------------------------------------------------
# aggregation


def test_sweep_fit_table_renders(tmp_path):
    records = SweepExecutor(cache_dir=None, workers=1).run(SMALL.expand())
    from repro.analysis import fit_groups, render_fit_table

    table = render_fit_table(fit_groups(records))
    assert "naive-bf" in table and "det-n43" in table
    assert "er" in table and "path" in table
    assert "rounds alpha" in table


# ---------------------------------------------------------------------------
# fault axes: hash stability, expansion, record contract, cache identity


def test_fault_axes_leave_fault_free_hashes_untouched():
    # The committed record cache, REPORT.json, and the perf baselines are
    # all keyed on fault-free scenario hashes; the axis existing (or
    # being spelled out at its defaults) must not move any of them.
    base = ScenarioSpec(family="er", n=16, algorithm="naive-bf", seed=1)
    spelled = ScenarioSpec(family="er", n=16, algorithm="naive-bf", seed=1,
                           faults="none", fault_seed=9)
    assert spelled.key == base.key  # unused stream seed normalized away
    assert "faults" not in base.to_dict()
    assert "fault_seed" not in base.to_dict()

    faulted = ScenarioSpec(family="er", n=16, algorithm="naive-bf", seed=1,
                           faults="drop", strict=False)
    assert faulted.key != base.key
    other_stream = ScenarioSpec(family="er", n=16, algorithm="naive-bf",
                                seed=1, faults="drop", fault_seed=2,
                                strict=False)
    assert other_stream.key != faulted.key  # the stream is a real axis
    again = ScenarioSpec.from_dict(json.loads(json.dumps(faulted.to_dict())))
    assert again == faulted and again.key == faulted.key
    assert "faults=drop#1" in faulted.label


def test_matrix_fault_axes_multiply_only_faulted_scenarios():
    matrix = ScenarioMatrix(families=["er"], sizes=[16],
                            algorithms=["naive-bf"], strict=False,
                            faults=["none", "drop"], fault_seeds=[1, 2])
    specs = matrix.expand()
    # 1 fault-free + 2 drop streams: "none" collapses the seed axis.
    assert [(s.faults, s.fault_seed) for s in specs] == [
        ("none", 1), ("drop", 1), ("drop", 2)]


def test_faulted_record_contract_and_determinism():
    spec = ScenarioSpec(family="er", n=14, algorithm="naive-bf", seed=2,
                        faults="drop", strict=False)
    rec = run_scenario(spec)
    assert rec["hash"] == spec.key
    assert rec["faults"]["model"] == "drop"
    assert rec["faults"]["fault_seed"] == 1
    assert rec["faults"]["plan_seed"] == fault_plan_seed(spec)
    assert rec["faults"]["events"].get("drop", 0) > 0
    assert len(rec["faults"]["trace_sha256"]) == 16
    assert rec["fault_outcome"] in ("ok", "divergent")
    assert rec["baseline"]["rounds"] > 0
    assert rec["baseline"]["dist_sha256"]
    assert rec["verified"] is True
    json.dumps(rec)  # JSON-safe end to end
    # The whole faulted record is a pure function of the spec.
    assert strip_timing(run_scenario(spec)) == strip_timing(rec)


def test_fault_plan_seed_is_a_function_of_key_and_stream():
    a = ScenarioSpec(family="er", n=16, algorithm="naive-bf", seed=1,
                     faults="drop", strict=False)
    b = ScenarioSpec(family="er", n=16, algorithm="naive-bf", seed=1,
                     faults="drop", fault_seed=2, strict=False)
    c = ScenarioSpec(family="er", n=24, algorithm="naive-bf", seed=1,
                     faults="drop", strict=False)
    assert fault_plan_seed(a) == fault_plan_seed(a)
    assert len({fault_plan_seed(s) for s in (a, b, c)}) == 3


def test_faulted_records_cache_byte_identically(tmp_path):
    # The ISSUE acceptance check: sweeping the same faulted matrix twice
    # leaves byte-identical cached records (the second pass is all cache
    # hits and rewrites nothing).
    matrix = ScenarioMatrix(families=["er"], sizes=[14],
                            algorithms=["naive-bf"], strict=False,
                            faults=["drop", "crash"])
    specs = matrix.expand()
    ex = SweepExecutor(cache_dir=str(tmp_path), workers=1)
    first = ex.run(specs)
    assert (ex.executed, ex.cached) == (2, 0)
    blobs = {p.name: p.read_bytes() for p in tmp_path.glob("*.json")}
    second = ex.run(specs)
    assert (ex.executed, ex.cached) == (0, 2)
    assert [strip_timing(r) for r in first] == [strip_timing(r) for r in second]
    assert blobs == {p.name: p.read_bytes() for p in tmp_path.glob("*.json")}
    # A fresh directory reproduces the same deterministic payloads.
    other = SweepExecutor(cache_dir=str(tmp_path / "b"), workers=1).run(specs)
    for a, b in zip(first, other):
        assert strip_timing(a) == strip_timing(b)


def test_faulted_timing_charges_each_side_its_own_clock():
    # The faulted path runs the fault-free twin first; the faulted run's
    # wall_s must not be double-charged with the baseline's wall time.
    spec = ScenarioSpec(family="er", n=10, algorithm="naive-bf",
                        strict=False, faults="drop")
    timing = run_scenario(spec, verify=False)["timing"]
    assert set(timing) == {"wall_s", "baseline_wall_s"}
    assert timing["wall_s"] > 0 and timing["baseline_wall_s"] > 0
    # fault-free records keep the single-clock shape
    free = ScenarioSpec(family="er", n=10, algorithm="naive-bf",
                        strict=False)
    assert set(run_scenario(free, verify=False)["timing"]) == {"wall_s"}
