"""`repro report --shard i/N`: hash-owned shares of one shared record cache.

A shard runs only the generating-sweep scenarios it owns
(``int(key, 16) % N == i``) through the cached executor and exits
without fitting.  The record cache is the only progress record: a
killed shard resumes by re-running the same command, and a plain
``repro report`` over the same cache fits and writes the same artifacts
as a monolithic run.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import re
import signal
import subprocess
import sys
import time

import pytest

import repro.experiments.executor as executor_module
from repro.analysis.sweep_report import (
    render_report_json,
    report_matrix,
    strip_report_timing,
)
from repro.cli import main, parse_shard
from repro.experiments import ScenarioMatrix, shard_specs

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]

MATRIX = ScenarioMatrix(
    families=("er", "path", "ring"),
    sizes=(10, 14),
    algorithms=("naive-bf", "det-n43"),
    seeds=(1, 2),
)
SPECS = MATRIX.expand()

#: the quick preset: 8 scenarios, about 0.6 s for the whole matrix
QUICK = report_matrix("quick").expand()


class TestPartitionInvariants:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_every_hash_in_exactly_one_shard(self, n):
        shards = shard_specs(SPECS, n)
        assert len(shards) == n
        keys = [s.key for shard in shards for s in shard]
        # union == matrix, no duplicates across shards
        assert sorted(keys) == sorted(s.key for s in SPECS)
        assert len(set(keys)) == len(SPECS)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_ownership_is_the_hash_prefix_rule(self, n):
        for i, shard in enumerate(shard_specs(SPECS, n)):
            for spec in shard:
                assert int(spec.key, 16) % n == i

    def test_shards_preserve_matrix_order(self):
        shards = shard_specs(SPECS, 3)
        order = {s.key: i for i, s in enumerate(SPECS)}
        for shard in shards:
            positions = [order[s.key] for s in shard]
            assert positions == sorted(positions)

    def test_single_shard_owns_everything(self):
        (only,) = shard_specs(SPECS, 1)
        assert [s.key for s in only] == [s.key for s in SPECS]

    def test_deterministic_across_calls(self):
        a = shard_specs(SPECS, 4)
        b = shard_specs(MATRIX.expand(), 4)
        assert [[s.key for s in shard] for shard in a] == \
            [[s.key for s in shard] for shard in b]

    def test_bad_shard_count_rejected(self):
        with pytest.raises(ValueError, match=">= 1"):
            shard_specs(SPECS, 0)


class TestParseShard:
    @pytest.mark.parametrize("text,expected", [
        ("0/1", (0, 1)),
        ("0/2", (0, 2)),
        ("1/2", (1, 2)),
        ("7/8", (7, 8)),
    ])
    def test_valid_specs(self, text, expected):
        assert parse_shard(text) == expected

    @pytest.mark.parametrize("text", [
        "2", "1/2/3", "a/b", "1/b", "", "/", "1.5/2",
    ])
    def test_malformed_specs_rejected(self, text):
        with pytest.raises(argparse.ArgumentTypeError,
                           match=re.escape(f"invalid shard spec {text!r}")):
            parse_shard(text)

    @pytest.mark.parametrize("text", ["2/2", "3/2", "-1/2"])
    def test_out_of_range_index_rejected(self, text):
        with pytest.raises(argparse.ArgumentTypeError,
                           match=re.escape(f"{text!r}") + ".*0 <= i <"):
            parse_shard(text)

    def test_zero_shard_count_rejected(self):
        with pytest.raises(argparse.ArgumentTypeError,
                           match="N must be >= 1"):
            parse_shard("0/0")

    @pytest.mark.parametrize("text,fragment", [
        ("1", "invalid shard spec"),
        ("a/b", "invalid shard spec"),
        ("2/2", "0 <= i <"),
        ("-1/2", "0 <= i <"),
    ])
    def test_invalid_shard_specs(self, tmp_path, capsys, text, fragment):
        with pytest.raises(SystemExit) as exc:
            main(["report", "--preset", "quick", "--cache-dir",
                  str(tmp_path), f"--shard={text}"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert fragment in err and repr(text) in err
        assert not list(tmp_path.iterdir()), "a rejected shard ran anyway"


def shard_keys(index, count):
    return [s.key for s in shard_specs(QUICK, count)[index]]


def cached_keys(cache):
    return sorted(p.stem for p in cache.glob("*.json"))


def closing_line(out):
    lines = out.strip().splitlines()
    assert lines, "no closing line"
    return lines[-1]


def test_two_shards_execute_their_own_keys_and_fill_the_cache(
        tmp_path, capsys, monkeypatch):
    cache = tmp_path / "records"
    executed = []
    real = executor_module.run_scenario_dict

    def spy(spec_dict, verify):
        record = real(spec_dict, verify)
        executed.append(record["hash"])
        return record

    monkeypatch.setattr(executor_module, "run_scenario_dict", spy)
    done = 0
    for index in (0, 1):
        executed.clear()
        owned = shard_keys(index, 2)
        assert owned, "each quick-preset shard owns at least one scenario"
        argv = ["report", "--preset", "quick", "--cache-dir", str(cache),
                "--shard", f"{index}/2"]
        assert main(argv) == 0
        assert executed == owned
        done += len(owned)
        assert closing_line(capsys.readouterr().out) == (
            f"shard {index}/2: {len(owned)} executed, 0 from cache; "
            f"{done} of {len(QUICK)} matrix scenarios cached")
        # shards write only into the cache: no report is fitted
        assert not (tmp_path / "RESULTS.md").exists()
    assert cached_keys(cache) == sorted(s.key for s in QUICK)

    # a finished shard re-run is served from the cache alone
    executed.clear()
    assert main(["report", "--preset", "quick", "--cache-dir", str(cache),
                 "--shard", "1/2"]) == 0
    assert executed == []
    owned = len(shard_keys(1, 2))
    assert closing_line(capsys.readouterr().out) == (
        f"shard 1/2: 0 executed, {owned} from cache; "
        f"{len(QUICK)} of {len(QUICK)} matrix scenarios cached")


class TestCachePickup:
    def test_sweep_records_are_reused_not_recomputed(self, tmp_path,
                                                     capsys):
        """Records a plain sweep cached are served to the owning shard."""
        cache = tmp_path / "records"
        pre = executor_module.SweepExecutor(cache_dir=str(cache))
        pre.run(QUICK)
        assert pre.executed == len(QUICK)
        for index in (0, 1):
            assert main(["report", "--preset", "quick", "--cache-dir",
                         str(cache), "--shard", f"{index}/2"]) == 0
            assert closing_line(capsys.readouterr().out) == (
                f"shard {index}/2: 0 executed, "
                f"{len(shard_keys(index, 2))} from cache; {len(QUICK)} of "
                f"{len(QUICK)} matrix scenarios cached")


def test_failed_scenarios_are_named_and_exit_nonzero(
        tmp_path, capsys, monkeypatch):
    cache = tmp_path / "records"
    owned = shard_keys(0, 2)

    def broken(spec_dict, verify):
        raise RuntimeError("injected")

    monkeypatch.setattr(executor_module, "run_scenario_dict", broken)
    assert main(["report", "--preset", "quick", "--cache-dir", str(cache),
                 "--shard", "0/2"]) == 1
    out, err = capsys.readouterr()
    fails = [line.strip() for line in err.splitlines() if "[fail]" in line]
    assert [line.split()[1] for line in fails] == owned
    assert all(line.endswith(": RuntimeError: injected") for line in fails)
    assert closing_line(out) == (
        f"shard 0/2: 0 executed, 0 from cache; 0 of {len(QUICK)} matrix "
        f"scenarios cached")


#: `repro report` whose first scenario runs at once and whose second
#: stalls, so a SIGKILL lands mid-shard with exactly one record cached
_STALLING_REPORT = """
import sys
import time

import repro.experiments.executor as executor
from repro.cli import main

real = executor.run_scenario_dict
calls = []


def first_then_stall(spec_dict, verify):
    if calls:
        time.sleep(300)
    calls.append(spec_dict)
    return real(spec_dict, verify)


executor.run_scenario_dict = first_then_stall
sys.exit(main(sys.argv[1:]))
"""


def test_sigkilled_shard_resumes_to_the_monolithic_report(tmp_path, capsys):
    cache = tmp_path / "records"
    script = tmp_path / "stalling_report.py"
    script.write_text(_STALLING_REPORT)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    shard = ["report", "--preset", "quick", "--cache-dir", str(cache),
             "--shard", "0/2"]
    owned = shard_keys(0, 2)
    assert len(owned) >= 2, "the kill must land with work left in the shard"

    proc = subprocess.Popen([sys.executable, str(script)] + shard, env=env,
                            cwd=str(tmp_path), stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 120
        while not cached_keys(cache) and time.monotonic() < deadline:
            assert proc.poll() is None, "the shard exited before the kill"
            time.sleep(0.02)
        assert cached_keys(cache), "no record landed within 120 s"
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert cached_keys(cache) == owned[:1]

    # resume = the same command: only the misses execute
    rerun = subprocess.run([sys.executable, "-m", "repro"] + shard, env=env,
                           cwd=str(tmp_path), capture_output=True, text=True,
                           timeout=300)
    assert rerun.returncode == 0, rerun.stdout + rerun.stderr
    assert closing_line(rerun.stdout) == (
        f"shard 0/2: {len(owned) - 1} executed, 1 from cache; "
        f"{len(owned)} of {len(QUICK)} matrix scenarios cached")
    assert cached_keys(cache) == sorted(owned)

    # a plain report runs the other shard's misses, fits and writes
    sharded = tmp_path / "sharded"
    assert main(["report", "--preset", "quick", "--cache-dir", str(cache),
                 "--results", str(sharded / "RESULTS.md"),
                 "--json", str(sharded / "REPORT.json")]) == 0
    err = capsys.readouterr().err
    assert (f"{len(QUICK) - len(owned)} executed, {len(owned)} from cache"
            in err)

    mono = tmp_path / "mono"
    assert main(["report", "--preset", "quick",
                 "--cache-dir", str(mono / "records"),
                 "--results", str(mono / "RESULTS.md"),
                 "--json", str(mono / "REPORT.json")]) == 0
    got = json.loads((sharded / "REPORT.json").read_text())
    want = json.loads((mono / "REPORT.json").read_text())
    assert render_report_json(strip_report_timing(got)) == \
        render_report_json(strip_report_timing(want))
    assert (sharded / "RESULTS.md").read_bytes() == \
        (mono / "RESULTS.md").read_bytes()


@pytest.mark.parametrize("extra,fragment", [
    pytest.param(["--cache-dir", "{tmp}", "--records", "{tmp}"],
                 "cannot merge --records", id="records"),
    pytest.param(["--cache-dir", "{tmp}", "--check"],
                 "writes no report to --check", id="check"),
    pytest.param(["--preset", "quick"], "needs a record cache",
                 id="no-cache"),
])
def test_cli_rejects_bad_combinations(tmp_path, extra, fragment):
    argv = ["report", "--shard", "0/2"] + [
        arg.format(tmp=tmp_path) for arg in extra]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert "--shard" in str(exc.value) and fragment in str(exc.value)
    assert not list(tmp_path.iterdir()), "a rejected shard ran anyway"
