"""Run scenario sets serially or across processes, with a JSON result cache.

The executor is deliberately dumb about *what* runs (that is
:mod:`repro.experiments.runner`'s job) and careful about *how*:

* **Determinism** — records come back in spec order regardless of worker
  count, and every non-timing field is a pure function of the spec, so a
  ``--workers 8`` sweep is record-for-record identical to ``--workers 1``.
* **Caching** — each record is written to ``<cache_dir>/<scenario
  hash>.json`` (sorted keys, fixed layout).  A later sweep over an
  overlapping matrix loads the finished scenarios instead of re-running
  them; ``force=True`` ignores and rewrites the cache.
* **Isolation** — parallel mode uses ``ProcessPoolExecutor`` (one Python
  simulation is GIL-bound, so threads would serialize anyway).  Each
  worker exits on its own once the process that started it is gone, so
  a killed sweep leaves no orphaned workers behind.
"""

from __future__ import annotations

import json
import os
import pathlib
import tempfile
import threading
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from repro.experiments.runner import RECORD_VERSION, run_scenario_dict
from repro.experiments.spec import ScenarioSpec


#: How often a pool worker checks that its parent process is still alive.
_PARENT_POLL_S = 0.5


def _exit_when_orphaned(parent: int) -> None:
    while os.getppid() == parent:
        time.sleep(_PARENT_POLL_S)
    os._exit(1)


def _watch_parent() -> None:
    """Pool initializer: end this worker once its parent process is gone.

    A SIGKILLed sweep cannot shut its pool down, and its workers are
    reparented; a daemon thread notices the new parent id and exits the
    worker instead of leaving it asleep under pid 1.
    """
    threading.Thread(target=_exit_when_orphaned, args=(os.getppid(),),
                     name="parent-watch", daemon=True).start()


@dataclass(frozen=True)
class ScenarioFailure:
    """One scenario that did not produce a record, and why."""

    spec: ScenarioSpec
    error: str


class SweepError(RuntimeError):
    """A sweep finished with per-scenario failures.

    Raised *after* every completed record has been stored, so a
    multi-hour sweep that loses a worker keeps everything it finished:
    ``records`` holds the spec-ordered results (``None`` at failed
    slots) and ``failures`` names each failed scenario with its error.
    Re-running the same sweep serves the salvaged records from the
    cache and retries only the failures.
    """

    def __init__(self, failures: Sequence[ScenarioFailure],
                 records: Sequence[Optional[dict]]) -> None:
        self.failures = list(failures)
        self.records = list(records)
        names = ", ".join(f.spec.key for f in self.failures[:5])
        if len(self.failures) > 5:
            names += f", ... ({len(self.failures) - 5} more)"
        done = sum(r is not None for r in self.records)
        super().__init__(
            f"{len(self.failures)} of {len(self.records)} scenario(s) "
            f"failed ({names}); {done} completed record(s) were kept"
        )


class SweepExecutor:
    """Execute many :class:`ScenarioSpec` runs with caching and workers.

    Parameters
    ----------
    cache_dir:
        Where result JSON lives; ``None`` disables caching entirely.
    workers:
        ``<= 1`` runs in-process (no pool, easiest to debug); ``> 1`` fans
        scenarios out over that many worker processes.
    verify:
        Certify every result's ``dist`` and ``pred`` (``APSPResult.verify``;
        sweeps used for correctness claims keep it on).
    force:
        Re-run and overwrite scenarios even when a cached record exists.
    runner:
        The per-scenario entry point (``fn(spec_dict, verify) -> record``;
        must be picklable for worker processes).  Defaults to
        :func:`~repro.experiments.runner.run_scenario_dict`; tests
        substitute crashing runners to exercise failure salvage.
    """

    def __init__(
        self,
        cache_dir: Optional[str] = None,
        workers: int = 1,
        verify: bool = True,
        force: bool = False,
        runner: Optional[Callable[[dict, bool], dict]] = None,
    ) -> None:
        self.cache_dir = pathlib.Path(cache_dir) if cache_dir else None
        self.workers = max(1, int(workers))
        self.verify = verify
        self.force = force
        self.runner = runner if runner is not None else run_scenario_dict
        #: counts from the most recent :meth:`run`
        self.executed = 0
        self.cached = 0
        #: per-scenario failures from the most recent :meth:`run`
        self.failures: List[ScenarioFailure] = []

    # ------------------------------------------------------------------
    def cache_path(self, spec: ScenarioSpec) -> Optional[pathlib.Path]:
        """Where ``spec``'s record lives (``None`` when caching is off)."""
        if self.cache_dir is None:
            return None
        return self.cache_dir / f"{spec.key}.json"

    def load_cached(self, spec: ScenarioSpec) -> Optional[dict]:
        """``spec``'s usable cached record, or ``None`` (it would re-run)."""
        path = self.cache_path(spec)
        if path is None or self.force or not path.exists():
            return None
        try:
            record = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError, json.JSONDecodeError):
            return None  # torn write or hand-edited file: just re-run
        if not isinstance(record, dict):
            return None
        if record.get("version") != RECORD_VERSION or record.get("hash") != spec.key:
            return None
        if self.verify and not record.get("verified"):
            return None  # cached by a --no-verify run: re-run and check it
        return record

    def _store(self, record: dict) -> None:
        if self.cache_dir is None:
            return
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        path = self.cache_dir / f"{record['hash']}.json"
        # The tmp name must be unique per *writer*, not just per record:
        # two processes sharing a cache dir (CI smoke + slow job, or two
        # sweep shards) store the same hash concurrently, and a shared
        # <hash>.json.tmp lets their writes interleave before the
        # replace.  mkstemp gives an exclusive per-call file; the final
        # os.replace stays atomic either way.
        fd, tmp_name = tempfile.mkstemp(
            dir=self.cache_dir, prefix=f"{record['hash']}.", suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(json.dumps(record, sort_keys=True, indent=2) + "\n")
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    # ------------------------------------------------------------------
    def run(
        self,
        specs: Sequence[ScenarioSpec],
        progress: Optional[Callable[[ScenarioSpec, bool], None]] = None,
    ) -> List[dict]:
        """Run every spec; return records in spec order.

        ``progress(spec, was_cached)`` is invoked once per scenario as its
        record becomes available.

        Failure containment: one raising scenario — or a worker process
        dying mid-sweep (``BrokenProcessPool``) — no longer aborts the
        run and discards in-flight results.  Every scenario is submitted
        as its own future, every completed record is stored as it
        arrives, and per-scenario errors are collected into
        :attr:`failures`; a :class:`SweepError` naming them (and
        carrying the salvaged records) is raised only after the whole
        batch has drained.
        """
        records: List[Optional[dict]] = [None] * len(specs)
        todo: List[int] = []
        self.executed = self.cached = 0
        failed: List[tuple] = []

        for i, spec in enumerate(specs):
            cached = self.load_cached(spec)
            if cached is not None:
                records[i] = cached
                self.cached += 1
                if progress:
                    progress(spec, True)
            else:
                todo.append(i)

        def complete(i: int, record: dict) -> None:
            records[i] = record
            self._store(record)
            self.executed += 1
            if progress:
                progress(specs[i], False)

        if todo and self.workers > 1:
            with ProcessPoolExecutor(max_workers=self.workers,
                                     initializer=_watch_parent) as pool:
                futures = {
                    pool.submit(self.runner, specs[i].to_dict(), self.verify): i
                    for i in todo
                }
                for future in as_completed(futures):
                    i = futures[future]
                    try:
                        record = future.result()
                    except Exception as exc:
                        # A scenario raising, or the pool breaking under
                        # it (which also fails every pending future with
                        # BrokenProcessPool): record it, keep draining.
                        failed.append(
                            (i, f"{type(exc).__name__}: {exc}".strip(": ")))
                        continue
                    complete(i, record)
        else:
            for i in todo:
                try:
                    record = self.runner(specs[i].to_dict(), self.verify)
                except Exception as exc:
                    failed.append(
                        (i, f"{type(exc).__name__}: {exc}".strip(": ")))
                    continue
                complete(i, record)

        self.failures = [ScenarioFailure(specs[i], error)
                         for i, error in sorted(failed)]
        if self.failures:
            raise SweepError(self.failures, records)
        return records  # type: ignore[return-value]


def strip_timing(record: dict) -> dict:
    """The deterministic part of a record (drop wall-clock measurements)."""
    return {k: v for k, v in record.items() if k != "timing"}


__all__ = ["ScenarioFailure", "SweepError", "SweepExecutor", "strip_timing"]
