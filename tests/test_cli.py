"""The command-line interface."""

from __future__ import annotations

import re

import pytest

from repro.cli import ALGORITHMS, GRAPH_FAMILIES, build_parser, main, make_graph
from repro.experiments import ScenarioMatrix, SweepExecutor


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_apsp_command_runs_and_verifies(capsys):
    rc = main(["apsp", "--n", "16", "--algorithm", "naive-bf"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "verified exact" in out
    assert "TOTAL" in out  # ledger rendered


def test_apsp_paper_algorithm(capsys):
    rc = main(["apsp", "--n", "16", "--algorithm", "det-n43", "--family",
               "grid"])
    out = capsys.readouterr().out
    assert rc == 0 and "det-n43" in out


def _fit_row(out: str, algorithm: str) -> list:
    """The cells of ``algorithm``'s row in a printed fit table."""
    row = next(line for line in out.splitlines()
               if line.startswith(algorithm + " "))
    return re.split(r"\s{2,}", row.strip())


def test_table1_command(capsys):
    rc = main(["table1", "--sizes", "10", "14", "--no-verify"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "det-n43" in out and "quoted bound" in out
    assert "rounds alpha" in out
    # The same graphs and runners as a sweep: each row's rounds are the
    # sweep records' rounds, fitted by fit_groups.
    matrix = ScenarioMatrix(families=["er"], sizes=[10, 14],
                            algorithms=list(ALGORITHMS), seeds=[1])
    records = SweepExecutor(cache_dir=None, workers=1,
                            verify=False).run(matrix.expand())
    for algo in ALGORITHMS:
        rounds = [r["rounds"] for r in sorted(
            records, key=lambda r: r["spec"]["n"])
            if r["spec"]["algorithm"] == algo]
        assert " ".join(map(str, rounds)) in _fit_row(out, algo)


def test_blocker_command(capsys):
    rc = main(["blocker", "--n", "16", "--h", "2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "Algorithm 2'" in out and "greedy" in out


def test_step6_command(capsys):
    rc = main(["step6", "--n", "16"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "pipelined Step 6" in out and "broadcast Step 6" in out


@pytest.mark.parametrize("argv", [
    ["apsp", "--n", "0"],
    ["apsp", "--n", "-3"],
    ["apsp", "--n", "1"],
    ["blocker", "--n", "0"],
    ["step6", "--n", "-3"],
    ["blocker", "--h", "0"],
    ["blocker", "--h", "-1"],
    ["apsp", "--n", "ten"],
], ids=lambda argv: " ".join(argv))
def test_sizes_and_hop_bounds_rejected_at_parse_time(argv, capsys):
    """``--n`` below 2 (as :class:`ScenarioSpec` refuses) and ``--h``
    below 1 are usage errors naming the flag, not a crash or a silent
    default."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"argument {argv[1]}:" in capsys.readouterr().err


@pytest.mark.parametrize("family", GRAPH_FAMILIES)
def test_every_family_constructs(family):
    g = make_graph(family, 16, seed=2)
    assert g.n >= 4
    assert g.is_connected()


def test_unknown_family_rejected():
    with pytest.raises(ValueError):
        make_graph("torus", 16, 0)


def test_sweep_unknown_preset_lists_available(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--preset", "does-not-exist"])
    message = str(exc.value)
    assert "unknown preset 'does-not-exist'" in message
    assert "available presets:" in message
    # every real preset is named in the error, so the fix is discoverable
    for name in ("quick", "paper-small", "large-n", "large-n-compressed"):
        assert name in message


def test_sweep_compressed_flag_runs_compressed_scenarios(capsys):
    rc = main(["sweep", "--families", "er", "--sizes", "10",
               "--algorithms", "naive-bf", "--seeds", "1", "--compressed"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "/compressed" in out  # the scenario label carries the mode


def test_sweep_rejects_misplaced_driver_flags(capsys):
    with pytest.raises(SystemExit):
        main(["sweep", "--sizes", "10", "--algorithms", "naive-bf",
              "--blockers", "greedy"])


def test_sweep_rejects_bad_axis_combination(capsys):
    with pytest.raises(SystemExit):
        main(["sweep", "--families", "path", "--sizes", "10",
              "--algorithms", "naive-bf", "--weights", "zero"])


def test_sweep_command(capsys, tmp_path):
    args = ["sweep", "--families", "er", "--sizes", "10", "12",
            "--algorithms", "naive-bf", "--seeds", "1",
            "--cache-dir", str(tmp_path)]
    rc = main(args)
    out = capsys.readouterr().out
    assert rc == 0
    assert "2 scenarios" in out and "2 executed, 0 from cache" in out
    assert "naive-bf" in out and "rounds alpha" in out
    # second run: everything comes from the cache
    rc = main(args)
    out = capsys.readouterr().out
    assert rc == 0
    assert "0 executed, 2 from cache" in out


def test_sweep_fit_excludes_faulted_runs(capsys):
    rc = main(["sweep", "--families", "er", "--sizes", "16", "24",
               "--algorithms", "naive-bf", "--faults", "none", "drop"])
    out = capsys.readouterr().out
    assert rc == 0
    matrix = ScenarioMatrix(families=["er"], sizes=[16, 24],
                            algorithms=["naive-bf"], seeds=[1])
    clean = SweepExecutor(cache_dir=None, workers=1).run(matrix.expand())
    rounds = " ".join(str(r["rounds"]) for r in clean)
    assert rounds in _fit_row(out, "naive-bf")
    assert "fault model" in out and "drop" in out


def test_fault_only_sweep_prints_no_empty_fit_table(capsys):
    rc = main(["sweep", "--families", "er", "--sizes", "10",
               "--algorithms", "naive-bf", "--fast", "--faults", "drop"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "fault model" in out
    assert "rounds alpha" not in out


def test_algorithm_registry_complete():
    assert set(ALGORITHMS) == {"det-n43", "det-n32", "rand-n43", "det-n53",
                               "naive-bf"}


def test_sweep_strict_flag_overrides_fast_preset(capsys):
    rc = main(["sweep", "--preset", "large-n-smoke", "--sizes", "10",
               "--algorithms", "naive-bf", "--strict"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "/fast" not in out  # explicit --strict beats the preset


def test_sweep_preset_fast_applies_without_engine_flags(capsys):
    rc = main(["sweep", "--preset", "large-n-smoke", "--sizes", "10",
               "--algorithms", "naive-bf"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "/fast" in out  # the preset's fast path still applies


def test_sweep_no_compressed_overrides_compressing_preset(capsys):
    rc = main(["sweep", "--preset", "large-n-compressed", "--families", "er",
               "--sizes", "10", "--algorithms", "naive-bf", "--seeds", "1",
               "--no-compressed"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "/compressed" not in out  # explicit override wins
    assert "/fast" in out  # the preset's untouched axes still apply


def test_sweep_engine_flag_pairs_are_mutually_exclusive(capsys):
    with pytest.raises(SystemExit):
        main(["sweep", "--strict", "--fast"])
    with pytest.raises(SystemExit):
        main(["sweep", "--compressed", "--no-compressed"])


def test_sweep_failure_names_scenarios_and_salvages_cache(
        capsys, tmp_path, monkeypatch):
    from repro.experiments import executor as executor_mod

    real = executor_mod.run_scenario_dict

    def flaky(spec_dict, verify):
        if spec_dict["n"] == 12:
            raise RuntimeError("injected CLI failure")
        return real(spec_dict, verify)

    monkeypatch.setattr(executor_mod, "run_scenario_dict", flaky)
    rc = main(["sweep", "--families", "er", "--sizes", "10", "12",
               "--algorithms", "naive-bf", "--fast",
               "--cache-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 1
    assert "sweep failed" in out
    assert "[fail]" in out and "injected CLI failure" in out
    assert "completed records are cached" in out
    assert len(list(tmp_path.glob("*.json"))) == 1  # n=10 was kept


def test_build_oracle_and_serve_commands(capsys, tmp_path):
    records = tmp_path / "records"
    rc = main(["sweep", "--families", "er", "--sizes", "10",
               "--algorithms", "naive-bf", "--fast",
               "--cache-dir", str(records)])
    assert rc == 0
    capsys.readouterr()
    store = tmp_path / "store"
    rc = main(["build-oracle", "--records", str(records),
               "--out", str(store)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "[oracle]" in out and "1 artifact(s), 0 skipped" in out
    assert len(list(store.glob("*.oracle"))) == 1
    # a second build short-circuits on the existing artifact
    rc = main(["build-oracle", "--records", str(records),
               "--out", str(store)])
    assert rc == 0
    # serve refuses a store that does not exist, with a pointer
    with pytest.raises(SystemExit, match="build-oracle"):
        main(["serve", "--store", str(tmp_path / "missing")])


def test_build_oracle_refuses_all_faulted_records(capsys, tmp_path):
    records = tmp_path / "records"
    rc = main(["sweep", "--families", "er", "--sizes", "10",
               "--algorithms", "naive-bf", "--fast", "--faults", "drop",
               "--cache-dir", str(records)])
    assert rc == 0
    capsys.readouterr()
    with pytest.raises(SystemExit, match="no record became an oracle"):
        main(["build-oracle", "--records", str(records),
              "--out", str(tmp_path / "store")])
    out = capsys.readouterr().out
    assert "[skip]" in out and "faulted" in out
