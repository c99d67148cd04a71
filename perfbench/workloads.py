"""The three workloads: set-up, one measured unit, checks and metrics.

Each workload runs in a fresh worker process (``worker.py``).  ``setup``
does everything before the measured phase; ``unit`` runs one measured
operation batch (one det-n43 record, one report sweep, one request
batch) and returns its host seconds, without the speed probe's samples;
``check`` then returns the problems found in that batch's answers,
untimed; ``end_to_end`` and ``per_layer`` turn what was measured into
the metric table's raw values (``worker.py`` scales the host times).
"""

from __future__ import annotations

import asyncio
import hashlib
import pathlib
import random
import resource
import shutil
import statistics
from contextlib import nullcontext
from dataclasses import replace
from typing import Dict, List, Optional

import metric_table as mt
from http_client import Client, check_reply, encode
from spans import step_layer

import repro.experiments.runner as runner
from repro.analysis import sweep_report
from repro.experiments import ScenarioMatrix, ScenarioSpec, SweepError, SweepExecutor
from repro.serving.server import OracleServer
from repro.serving.store import OracleStore

#: the seed the committed expectations (expected.json) were made with
DEFAULT_SEED = 1

#: the checkout root: the program under test is ``ROOT/src``
ROOT = pathlib.Path(__file__).resolve().parent.parent


def peak_rss_mb() -> float:
    """This process's peak resident set size, in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def rounds_by_layer(records) -> Dict[str, int]:
    out: Dict[str, int] = {}
    for record in records:
        for label, rounds in record["step_rounds"].items():
            layer = step_layer(label)
            if layer is not None:
                out[layer] = out.get(layer, 0) + rounds
    return out


class Workload:
    """Shared bookkeeping; subclasses fill in set-up and the unit."""

    name = ""

    def __init__(self, seed: int, smoke: bool, expected: dict,
                 work_dir: pathlib.Path, tracer, probe) -> None:
        self.seed = seed
        self.smoke = smoke
        self.expected_key = self.name + ("/smoke" if smoke else "")
        self.expected = expected.get(self.expected_key)
        self.work_dir = work_dir
        self.tracer = tracer
        self.probe = probe
        self.unit_seconds: List[float] = []
        #: exact values observed, compared with ``expected`` at seed 1
        self.observed: dict = {}

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else nullcontext()

    def timed(self, fn):
        """``fn()`` and its host seconds, without the probe's samples."""
        t0 = self.probe.clock()
        value = fn()
        return value, self.probe.clock() - t0

    def check_expected(self) -> List[str]:
        """Committed exact values, checked on the default seed only."""
        if self.seed != DEFAULT_SEED:
            return []
        if self.expected is None:
            return [f"expected.json has no entry {self.expected_key!r}"]
        return [f"{k}: got {self.observed.get(k)!r}, expected {v!r}"
                for k, v in sorted(self.expected.items())
                if self.observed.get(k) != v]

    def close(self) -> None:
        pass

    def extra_end_to_end(self) -> Dict[str, tuple]:
        """End-to-end numbers only this workload has: name -> (value, unit)."""
        return {}

    def extra_per_layer(self, units: int) -> Dict[str, tuple]:
        """Per-layer numbers only this workload has: name -> (value, unit)."""
        return {}

    def per_layer(self, units: int) -> Dict[str, float]:
        return self.solver_layers(units)

    def solver_layers(self, units: int, phase: str = "measure"
                      ) -> Dict[str, float]:
        """Per-step host times within ``phase`` (per unit) and exact counts
        of ``records``: the last unit's, or set-up's on oracle-serve."""
        t = self.tracer

        def per(*names: str) -> float:
            return t.total(phase, *names) / units

        rounds = rounds_by_layer(self.records)
        solve = (per("experiments.run_scenario") - per("apsp.verify")
                 - per("graphs.make_graph"))
        return {
            "graphs.generate_s": t.total("setup", "graphs.make_graph")
            + t.total("measure", "graphs.make_graph"),
            "csssp.host_s": per("csssp.build_csssp"),
            "csssp.rounds": rounds.get("csssp", 0),
            "blocker.host_s": per(*{s[0] for s in t.spans
                                    if s[0].startswith("blocker.")}),
            "blocker.rounds": rounds.get("blocker", 0),
            "primitives.in_sssp_s": per("primitives.bellman_ford_many"),
            "primitives.qq_bcast_s": per("primitives.build_bfs_tree",
                                         "primitives.gather_and_broadcast"),
            "primitives.rounds": rounds.get("primitives", 0),
            "apsp.closure_s": per("apsp.local_closure"),
            "apsp.verify_s": per("apsp.verify"),
            "pipeline.qsink_s": per("pipeline.reversed_qsink",
                                    "pipeline.broadcast_delivery"),
            "pipeline.qsink_rounds": rounds.get("pipeline.qsink", 0),
            "pipeline.extension_s": per("pipeline.extend_h_hop"),
            "pipeline.extension_rounds": rounds.get("pipeline.extension", 0),
            "congest.host_us_per_msg":
                solve / sum(r["messages"] for r in self.records) * 1e6,
            "blocker.q": sum(r["meta"].get("q") or 0 for r in self.records),
            "experiments.overhead_s":
                t.layer_self(phase).get("experiments", 0.0) / units,
        }


# ----------------------------------------------------------------------
class DetN512(Workload):
    """One verified det-n43 record at n=512, compressed, fast engine."""

    name = mt.DET

    def setup(self) -> None:
        from repro.experiments import registry

        n = 64 if self.smoke else 512
        self.spec = ScenarioSpec(family="er", n=n, algorithm="det-n43",
                                 seed=self.seed, strict=False, compress=True)
        # input generation belongs to set-up; the measured record
        # generates the graph again, as every sweep scenario does
        registry.make_graph("er", n, self.seed)
        # the warm-up record (n=192) fills lazy imports and caches, and
        # keeps set-up over a second, long enough to time steadily
        warm = replace(self.spec, n=max(16, n * 3 // 8))
        runner.run_scenario(warm, verify=True)
        self.records: List[dict] = []

    def unit(self) -> float:
        record, seconds = self.timed(
            lambda: runner.run_scenario(self.spec, verify=True))
        self.records = [record]
        self.observed = {"dist_sha256": record["dist_sha256"],
                         "rounds": record["rounds"],
                         "messages": record["messages"],
                         "q": record["meta"]["q"]}
        return seconds

    def check(self) -> List[str]:
        problems = [] if self.records[-1]["verified"] else [
            "record not verified"]
        return problems + self.check_expected()

    def operations(self) -> int:
        return 1

    def end_to_end(self) -> Dict[str, float]:
        record = self.records[-1]
        return {"rounds": record["rounds"], "messages": record["messages"],
                "peak_rss_mb": peak_rss_mb()}


# ----------------------------------------------------------------------
class ReportSweep(Workload):
    """The ``report`` preset through the executor, then report + check."""

    name = mt.SWEEP

    def setup(self) -> None:
        preset = "quick" if self.smoke else "report"
        self.specs = replace(sweep_report.report_matrix(preset),
                             seeds=(self.seed,)).expand()
        # the committed RESULTS.md / REPORT.json come from the report
        # preset at the default seed; elsewhere each record's own
        # verification is the check
        self.report_must_be_fresh = (not self.smoke
                                     and self.seed == DEFAULT_SEED)
        # every family and algorithm of the preset at the two smallest
        # sizes: warm code paths, and a set-up of about a second
        warm = ScenarioMatrix(families=sweep_report.report_matrix(
                                  "report").families, sizes=(16, 20),
                              algorithms=mt.ALGORITHMS, seeds=(self.seed,),
                              strict=False).expand()
        SweepExecutor(cache_dir=None, workers=1, verify=True).run(warm)
        self.records: List[dict] = []

    def _runner(self, spec_dict: dict, verify: bool) -> dict:
        with self.tracer.span(f"experiments.scenario.{spec_dict['algorithm']}"):
            return runner.run_scenario_dict(spec_dict, verify)

    def unit(self) -> float:
        cache = self.work_dir / "sweep-cache"
        shutil.rmtree(cache, ignore_errors=True)
        executor = SweepExecutor(
            cache_dir=str(cache), workers=1, verify=True,
            runner=self._runner if self.tracer else None)
        self.failures: List[str] = []

        def sweep_and_report():
            with self.span("experiments.SweepExecutor.run"):
                try:
                    records = executor.run(self.specs)
                except SweepError as exc:
                    records = [r for r in exc.records if r is not None]
                    self.failures = [f"{f.spec.label}: {f.error}"
                                     for f in exc.failures]
            with self.span("analysis.report"):
                report = sweep_report.build_report(
                    sweep_report.load_records([cache]))
                self.stale = sweep_report.check_report(
                    report, ROOT / "docs" / "RESULTS.md",
                    ROOT / "benchmarks" / "results" / "REPORT.json")
            return records

        records, seconds = self.timed(sweep_and_report)
        shutil.rmtree(cache, ignore_errors=True)
        self.records = records
        self.observed = {"scenarios": len(records),
                         "rounds": sum(r["rounds"] for r in records),
                         "messages": sum(r["messages"] for r in records)}
        return seconds

    def check(self) -> List[str]:
        problems = list(self.failures)
        if self.report_must_be_fresh:
            problems += self.stale
        problems += [f"{r['hash']}: not verified" for r in self.records
                     if not r.get("verified")]
        return problems + self.check_expected()

    def operations(self) -> int:
        return len(self.specs) + 1  # every scenario, and the report check

    def end_to_end(self) -> Dict[str, float]:
        return {"rounds": self.observed["rounds"],
                "messages": self.observed["messages"],
                "peak_rss_mb": peak_rss_mb()}

    def extra_per_layer(self, units: int) -> Dict[str, tuple]:
        t = self.tracer
        out = {f"experiments.scenario_s.{algo}": (
                   t.total("measure", f"experiments.scenario.{algo}") / units,
                   "s")
               for algo in sorted({spec.algorithm for spec in self.specs})}
        out["analysis.report_s"] = (
            t.total("measure", "analysis.report") / units, "s")
        return out


# ----------------------------------------------------------------------
SERVE_FAMILIES = ("er", "ws", "ba")
SERVE_SIZES = (128, 144, 168, 192)
SMOKE_SIZES = (24, 32, 40, 48)
BATCH = 5000
SMOKE_BATCH = 200
WARMUP = 200
CONNECTIONS = 2
PATH_EVERY = 8
HOT_SET = 8


class OracleServe(Workload):
    """12 oracles behind the ``repro serve`` server, driven by a closed-loop client.

    The server is :class:`OracleServer`, the class ``repro serve`` runs,
    over an :class:`OracleStore` of the built artifacts.  It runs in this
    process, on the client's event loop: two processes handing requests
    to each other over loopback pay for every wake-up, and on a shared
    VM those costs swing far more than the speed probe can follow.
    """

    name = mt.SERVE

    def setup(self) -> None:
        from repro.serving import build_artifact, load_artifact

        self.store = self.work_dir / "store"
        shutil.rmtree(self.store, ignore_errors=True)
        self.oracles = {}
        self.records: List[dict] = []
        sizes = SMOKE_SIZES if self.smoke else SERVE_SIZES
        for family in SERVE_FAMILIES:
            for n in sizes:
                spec = ScenarioSpec(family=family, n=n, algorithm="det-n43",
                                    seed=self.seed, strict=False,
                                    compress=True)
                # each record is verified against the reference, and
                # build_artifact's hash check ties its artifact to it
                record = runner.run_scenario(spec, verify=True)
                self.records.append(record)
                with self.span("serving.build_artifact"):
                    info = build_artifact(record, self.store)
                with self.span("serving.load_artifact"):
                    self.oracles[info.hash] = load_artifact(info.path)
        self.observed = {
            "rounds": sum(r["rounds"] for r in self.records),
            "messages": sum(r["messages"] for r in self.records),
            "artifact_bytes": sum(o.nbytes for o in self.oracles.values()),
            "oracles_sha256": hashlib.sha256("".join(
                f"{k}:{o.header['dist_sha256']}\n"
                for k, o in sorted(self.oracles.items())).encode()).hexdigest(),
        }
        self.requests = self._requests(
            SMOKE_BATCH if self.smoke else BATCH, self.seed)
        self.warmup = self._requests(WARMUP, self.seed + 1_000_003)
        self.loop = asyncio.new_event_loop()
        self.server = self.loop.run_until_complete(OracleServer(
            OracleStore(self.store, capacity=HOT_SET), "127.0.0.1", 0).start())
        self.client = Client("127.0.0.1", self.server.port, CONNECTIONS,
                             clock=self.probe.clock)
        self.loop.run_until_complete(self.client.open())
        self._send(self.warmup)
        self.batches: List[dict] = []

    def _requests(self, count: int, seed: int) -> List[tuple]:
        """A seeded batch: 1/rank popularity, one ``/path`` in ``PATH_EVERY``."""
        rng = random.Random(seed)
        keys = sorted(self.oracles)
        rng.shuffle(keys)  # popularity rank of each oracle
        weights = [1.0 / rank for rank in range(1, len(keys) + 1)]
        picks = rng.choices(keys, weights=weights, k=count)
        out = []
        for i, key in enumerate(picks):
            n = self.oracles[key].n
            route = "/path" if i % PATH_EVERY == PATH_EVERY - 1 else "/distance"
            source, target = rng.randrange(n), rng.randrange(n)
            out.append((key, route, source, target, encode(
                f"{route}?scenario={key}&source={source}&target={target}")))
        return out

    def _send(self, requests):
        return self.loop.run_until_complete(
            self.client.batch([r[4] for r in requests]))

    def _store_stats(self) -> dict:
        status, stats = self.loop.run_until_complete(self.client.get("/stats"))
        if status != 200:
            raise RuntimeError(f"GET /stats answered {status}")
        return stats

    def unit(self) -> float:
        self.before = self._store_stats()["store"]
        with self.span("serving.request_batch"):
            seconds, *self.replies = self._send(self.requests)
        self.batch_seconds = seconds
        return seconds

    def check(self) -> List[str]:
        stats = self._store_stats()
        latency, status, body = self.replies
        # the artifact set: each record it was built from is verified
        problems = [f"{r['hash']}: not verified" for r in self.records
                    if not r["verified"]]
        for (key, route, source, target, _raw), code, reply in zip(
                self.requests, status, body):
            why = check_reply(self.oracles[key], route == "/path", source,
                              target, code, reply)
            if why is not None:
                problems.append(f"{route} {key} {source}->{target}: {why}")
        after = stats["store"]
        self.batches.append({
            "seconds": self.batch_seconds,
            "latency": latency,
            "routes": [r[1] for r in self.requests],
            "misses": after["misses"] - self.before["misses"],
            "hits": after["hits"] - self.before["hits"],
            "server_p50_ms": stats["latency_ms"]["p50"],
        })
        return problems + self.check_expected()

    def operations(self) -> int:
        return len(self.requests) + 1  # every request, and the artifact set

    def _latencies(self, route: Optional[str] = None) -> List[float]:
        return [lat for b in self.batches
                for lat, r in zip(b["latency"], b["routes"])
                if route is None or r == route]

    def end_to_end(self) -> Dict[str, float]:
        return {"rounds": self.observed["rounds"],
                "messages": self.observed["messages"],
                "peak_rss_mb": peak_rss_mb()}

    def extra_end_to_end(self) -> Dict[str, tuple]:
        # medians over the request batches, so that a burst of load on a
        # shared machine during one batch moves none of them
        out = {"qps": (statistics.median(len(b["latency"]) / b["seconds"]
                                         for b in self.batches), "1/s")}
        for name, q in (("query_p50_ms", 0.5), ("query_p99_ms", 0.99)):
            values = [mt.percentile(b["latency"], q) for b in self.batches]
            if None not in values:
                out[name] = (statistics.median(values) * 1e3, "ms")
        return out

    def per_layer(self, units: int) -> Dict[str, float]:
        # the solver layers run only in set-up: in the 12 records' solves
        # and checks, and again in build_artifact's re-solves, which are
        # left out so that host times and rounds cover the same solves
        return self.solver_layers(1, phase="experiments.run_scenario")

    def extra_per_layer(self, units: int) -> Dict[str, tuple]:
        t = self.tracer
        out = {
            "serving.build_s": (t.total("setup", "serving.build_artifact"),
                                "s"),
            "serving.load_s": (t.total("setup", "serving.load_artifact"), "s"),
            "serving.server_p50_ms": (self.batches[-1]["server_p50_ms"], "ms"),
            "serving.store_misses": (self.batches[0]["misses"], "count"),
            "serving.store_miss_ratio": (
                sum(b["misses"] for b in self.batches)
                / sum(b["misses"] + b["hits"] for b in self.batches), "ratio"),
            "serving.artifact_bytes": (self.observed["artifact_bytes"], "B"),
        }
        for route, name in (("/distance", "serving.distance_p50_ms"),
                            ("/path", "serving.path_p50_ms")):
            value = mt.percentile(self._latencies(route), 0.5)
            if value is not None:
                out[name] = (value * 1e3, "ms")
        return out

    def close(self) -> None:
        if getattr(self, "loop", None) is not None:
            self.loop.run_until_complete(self.client.close())
            self.loop.run_until_complete(self.server.close())
            # the server's connection handlers are still waiting to read
            pending = asyncio.all_tasks(self.loop)
            for task in pending:
                task.cancel()
            self.loop.run_until_complete(
                asyncio.gather(*pending, return_exceptions=True))
            self.loop.close()
        for oracle in getattr(self, "oracles", {}).values():
            oracle.close()


WORKLOADS = {w.name: w for w in (DetN512, ReportSweep, OracleServe)}
