"""Sweep-executor failure containment and cache-write safety.

The crash-loss bug: ``SweepExecutor.run`` used ``pool.map``, so one
raising scenario (or a worker process dying, which surfaces as
``BrokenProcessPool``) aborted the whole sweep and discarded every
in-flight result.  These tests pin the fixed contract: completed
records are stored as they arrive, failures are collected per-scenario,
and a :class:`SweepError` naming them is raised only after the batch
drains — so re-running the same sweep serves the salvaged records from
the cache and retries only the failures.
"""

from __future__ import annotations

import json
import os
import pathlib
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.experiments import (
    ScenarioFailure,
    ScenarioMatrix,
    SweepError,
    SweepExecutor,
)
from repro.experiments.runner import run_scenario_dict


def _specs(sizes=(10, 12, 14)):
    return ScenarioMatrix(families=["er"], sizes=list(sizes),
                          algorithms=["naive-bf"], strict=False).expand()


# Module-level runners: worker processes pickle them by reference, so
# they must live at import scope (the fork start method on Linux makes
# the test module importable in the children).

def raising_runner(spec_dict: dict, verify: bool) -> dict:
    if spec_dict["n"] == 12:
        raise RuntimeError("injected failure at n=12")
    return run_scenario_dict(spec_dict, verify)


def dying_runner(spec_dict: dict, verify: bool) -> dict:
    if spec_dict["n"] == 14:
        time.sleep(1.0)  # let the other workers finish their records
        os._exit(17)  # hard worker death: no exception, no cleanup
    return run_scenario_dict(spec_dict, verify)


def _cached_hashes(cache_dir):
    return {p.stem for p in cache_dir.glob("*.json")}


@pytest.mark.parametrize("workers", [1, 2])
def test_raising_scenario_keeps_completed_records(tmp_path, workers):
    specs = _specs()
    executor = SweepExecutor(cache_dir=str(tmp_path), workers=workers,
                             verify=False, runner=raising_runner)
    with pytest.raises(SweepError) as exc_info:
        executor.run(specs)
    err = exc_info.value
    # exactly the injected scenario failed, named with its error
    assert [f.spec.n for f in err.failures] == [12]
    assert isinstance(err.failures[0], ScenarioFailure)
    assert "RuntimeError: injected failure at n=12" in err.failures[0].error
    assert executor.failures == err.failures
    # every completed record was stored before the raise
    done = {spec.key for spec in specs if spec.n != 12}
    assert _cached_hashes(tmp_path) == done
    # salvaged records ride along on the exception, in spec order
    assert [r is None for r in err.records] == [s.n == 12 for s in specs]
    assert "1 of 3 scenario(s) failed" in str(err)
    assert "2 completed record(s) were kept" in str(err)


def test_rerun_after_failure_retries_only_the_failures(tmp_path):
    specs = _specs()
    broken = SweepExecutor(cache_dir=str(tmp_path), workers=1,
                           verify=False, runner=raising_runner)
    with pytest.raises(SweepError):
        broken.run(specs)
    # the same sweep with a healthy runner: salvage from cache, run one
    healthy = SweepExecutor(cache_dir=str(tmp_path), workers=1, verify=False)
    records = healthy.run(specs)
    assert healthy.cached == 2 and healthy.executed == 1
    assert [r["spec"]["n"] for r in records] == [10, 12, 14]


def test_dead_worker_does_not_lose_the_sweep(tmp_path):
    # A worker calling os._exit dies without raising; the pool breaks
    # and every future it owned fails with BrokenProcessPool.  The
    # sweep must still keep each record that completed before the break.
    specs = _specs()
    executor = SweepExecutor(cache_dir=str(tmp_path), workers=2,
                             verify=False, runner=dying_runner)
    with pytest.raises(SweepError) as exc_info:
        executor.run(specs)
    failures = exc_info.value.failures
    assert any(f.spec.n == 14 for f in failures)
    assert all("BrokenProcessPool" in f.error for f in failures)
    # scenarios that finished before the worker died are on disk
    survivors = {spec.key for spec in specs if spec.n != 14}
    assert survivors <= _cached_hashes(tmp_path) | {
        f.spec.key for f in failures}
    assert _cached_hashes(tmp_path)  # at least one record was salvaged


def test_store_tmp_names_are_per_writer(tmp_path):
    # Concurrent writers storing the *same* record hash must never
    # interleave through a shared <hash>.json.tmp; mkstemp gives each
    # call its own file and os.replace keeps the final write atomic.
    executor = SweepExecutor(cache_dir=str(tmp_path))
    record = {"hash": "cafebabe00000000", "version": 2,
              "payload": list(range(200))}
    errors = []

    def hammer():
        try:
            for _ in range(50):
                executor._store(record)
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=hammer) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    final = tmp_path / "cafebabe00000000.json"
    assert json.loads(final.read_text()) == record  # never torn
    assert list(tmp_path.glob("*.tmp")) == []  # no residue left behind


def test_store_cleans_up_tmp_on_write_failure(tmp_path):
    executor = SweepExecutor(cache_dir=str(tmp_path))
    unserializable = {"hash": "deadbeef00000000", "bad": object()}
    with pytest.raises(TypeError):
        executor._store(unserializable)
    assert list(tmp_path.glob("*")) == []  # failed write leaves nothing


_KILLED_SWEEP = """
import os, pathlib, sys, time
from repro.experiments import ScenarioMatrix, SweepExecutor

PIDS = pathlib.Path(sys.argv[1])

def sleeping_runner(spec_dict, verify):
    (PIDS / str(os.getpid())).touch()
    time.sleep(60)

specs = ScenarioMatrix(families=["er"], sizes=[10, 12],
                       algorithms=["naive-bf"]).expand()
SweepExecutor(cache_dir=None, workers=2, runner=sleeping_runner).run(specs)
"""


def _alive(pid: int) -> bool:
    """Whether ``pid`` runs (a zombie no longer does)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads worker state from /proc")
def test_killed_sweep_leaves_no_orphaned_workers(tmp_path):
    """SIGKILL a 2-worker sweep mid-scenario: both workers exit within 5 s."""
    pids_dir = tmp_path / "pids"
    pids_dir.mkdir()
    script = tmp_path / "sweep.py"
    script.write_text(_KILLED_SWEEP)
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep)
                      if p])
    child = subprocess.Popen([sys.executable, str(script), str(pids_dir)],
                             env=env)
    workers: list = []
    try:
        deadline = time.monotonic() + 60
        while len(workers) < 2 and time.monotonic() < deadline:
            assert child.poll() is None, "the sweep exited early"
            time.sleep(0.05)
            workers = [int(p.name) for p in pids_dir.iterdir()]
        assert len(workers) == 2, "the two pool workers never started"
        child.send_signal(signal.SIGKILL)
        child.wait()
        deadline = time.monotonic() + 5
        while any(map(_alive, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(_alive, workers)), (
            f"pool workers {[w for w in workers if _alive(w)]} outlived "
            "their killed sweep by 5 s")
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
        for pid in workers:
            if _alive(pid):
                os.kill(pid, signal.SIGKILL)
