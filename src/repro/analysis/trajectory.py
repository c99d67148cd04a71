"""Perf-trajectory regression gate: schema'd bench records + comparator.

PRs 1-5 bought a ~16-19x rounds/sec win on the deterministic-APSP
pipeline; this module is what defends it.  Three pieces:

* **Record schema.**  :class:`BenchRecord` is the versioned
  (:data:`SCHEMA_VERSION`) unit every bench emits: bench name, scenario
  key, git sha, machine fingerprint, and two metric groups — ``exact``
  (rounds, messages, set sizes: deterministic quantities where *any*
  change is a real behavioral diff, the way the paper's Theorem 1.1
  budgets rounds per step) and ``timing`` (wall seconds, rounds/sec:
  noisy quantities gated against a relative band).  Benches build
  records with :func:`make_record` and persist them through
  ``benchmarks/_common.emit_records``.

* **Tracked history.**  ``benchmarks/results/HISTORY.jsonl`` is the
  append-only committed trajectory: one sorted-keys JSON record per
  line, later lines superseding earlier ones per ``(bench, scenario)``
  (:func:`latest_baselines`).  Writes are atomic (tmp + ``replace``,
  the same convention as
  :func:`~repro.analysis.sweep_report.write_json`) and only ``repro
  perf --update`` appends.

* **Comparator.**  :func:`compare_records` gates exact metrics
  *strictly* — any difference (improvement included) fails until the
  baseline is refreshed with an explicit diff — while timing metrics
  pass unless they degrade by more than ``band`` relative to the
  baseline **and** both records carry the same machine fingerprint
  (cross-machine wall clocks are not comparable; the fingerprint is
  what makes the committed history safe to check on CI runners).
  Timing is measured as the median of interleaved gc-paused CPU-time
  repetitions (:func:`interleaved_cpu_medians`) so co-tenant noise
  cancels.

``python -m repro perf`` wires these together: it runs the pinned smoke
scenarios (:data:`PERF_SCENARIOS`), writes the fresh records, and
replays the comparator against the committed history (``--check`` exits
nonzero naming the metric and scenario; ``--update`` refreshes the
baseline, printing what changed).
"""

from __future__ import annotations

import gc
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple

#: bump when the BenchRecord layout changes; loaders reject other versions
SCHEMA_VERSION = 1

#: default relative degradation tolerated on timing metrics (25%)
DEFAULT_NOISE_BAND = 0.25

#: default interleaved repetitions behind each timing median
DEFAULT_REPS = 3

#: the committed append-only trajectory (one JSON record per line)
HISTORY_PATH = pathlib.Path("benchmarks/results/HISTORY.jsonl")

#: where ``repro perf`` writes the freshly measured records
PERF_JSON_PATH = pathlib.Path("benchmarks/results/PERF.json")

#: timing metrics whose names end in one of these improve *upward*;
#: everything else (``*_s`` seconds and friends) improves downward
HIGHER_IS_BETTER_SUFFIXES = ("_per_sec", "_speedup")


class TrajectoryError(ValueError):
    """A bench record or history file is malformed, stale, or corrupt."""


# ----------------------------------------------------------------------
# Record identity: machine fingerprint and git sha
# ----------------------------------------------------------------------

def machine_fingerprint() -> str:
    """Stable identity of the measuring machine.

    Includes the hostname on purpose: timing baselines are only
    comparable on the very machine that produced them, and ephemeral CI
    runners get a fresh hostname per run, so committed timing numbers
    never gate a runner they were not measured on (exact metrics gate
    everywhere regardless).
    """
    return "-".join([
        platform.system().lower() or "unknown",
        platform.machine() or "unknown",
        f"py{sys.version_info.major}.{sys.version_info.minor}",
        f"cpu{os.cpu_count() or 0}",
        platform.node() or "unknown",
    ])


def current_git_sha() -> str:
    """Short sha of HEAD, or ``"unknown"`` outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


# ----------------------------------------------------------------------
# The record schema
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class BenchRecord:
    """One versioned trajectory point: a scenario's metrics at a sha.

    ``exact`` holds deterministic metrics (rounds, messages, sizes —
    integers in practice); ``timing`` holds noisy ones (seconds,
    rounds/sec).  The split *is* the gating policy: exact diffs fail
    strictly, timing diffs fail beyond the noise band and only on a
    matching machine fingerprint.
    """

    bench: str
    scenario: str
    exact: Dict[str, float] = field(default_factory=dict)
    timing: Dict[str, float] = field(default_factory=dict)
    git_sha: str = "unknown"
    machine: str = "unknown"
    schema: int = SCHEMA_VERSION

    @property
    def key(self) -> Tuple[str, str]:
        """The ``(bench, scenario)`` pair records are superseded by."""
        return (self.bench, self.scenario)

    @property
    def label(self) -> str:
        """Human-facing ``bench/scenario`` name used in gate output."""
        return f"{self.bench}/{self.scenario}"

    def to_dict(self) -> dict:
        """The record as a JSON-safe dict (inverse of :meth:`from_dict`)."""
        return {
            "bench": self.bench,
            "scenario": self.scenario,
            "exact": dict(self.exact),
            "timing": dict(self.timing),
            "git_sha": self.git_sha,
            "machine": self.machine,
            "schema": self.schema,
        }

    @classmethod
    def from_dict(cls, data: object, source: object = None) -> "BenchRecord":
        """Validate and load one record; schema drift fails here, loudly.

        ``source`` (a path or line number) is woven into the
        :class:`TrajectoryError` message so a bad history line names
        itself.
        """
        where = f" ({source})" if source else ""
        if not isinstance(data, dict):
            raise TrajectoryError(
                f"bench record{where} is not an object: {data!r}")
        version = data.get("schema")
        if version != SCHEMA_VERSION:
            raise TrajectoryError(
                f"bench record{where} has schema version {version!r}, "
                f"this build reads {SCHEMA_VERSION}; refresh it with "
                f"`repro perf --update`"
            )
        for key in ("bench", "scenario"):
            if not isinstance(data.get(key), str) or not data[key]:
                raise TrajectoryError(
                    f"bench record{where} needs a non-empty {key!r}")
        for group in ("exact", "timing"):
            metrics = data.get(group, {})
            if not isinstance(metrics, dict) or any(
                not isinstance(k, str) or isinstance(v, bool)
                or not isinstance(v, (int, float))
                for k, v in metrics.items()
            ):
                raise TrajectoryError(
                    f"bench record{where} field {group!r} must map metric "
                    f"names to numbers, got {metrics!r}"
                )
        return cls(
            bench=data["bench"],
            scenario=data["scenario"],
            exact=dict(data.get("exact", {})),
            timing=dict(data.get("timing", {})),
            git_sha=str(data.get("git_sha", "unknown")),
            machine=str(data.get("machine", "unknown")),
        )


def make_record(
    bench: str,
    scenario: str,
    exact: Optional[Mapping[str, float]] = None,
    timing: Optional[Mapping[str, float]] = None,
) -> BenchRecord:
    """A :class:`BenchRecord` stamped with this checkout and machine."""
    return BenchRecord(
        bench=bench,
        scenario=scenario,
        exact=dict(exact or {}),
        timing=dict(timing or {}),
        git_sha=current_git_sha(),
        machine=machine_fingerprint(),
    )


def records_payload(records: Iterable[BenchRecord]) -> dict:
    """The JSON payload benches and ``repro perf`` persist.

    One ``records`` list under one schema stamp; written through the
    shared atomic sorted-keys :func:`~repro.analysis.sweep_report
    .write_json` path (``_common.emit_records`` / ``repro perf --out``).
    """
    return {
        "schema": SCHEMA_VERSION,
        "records": [r.to_dict() for r in records],
    }


def load_records_file(path: object) -> List[BenchRecord]:
    """Read a ``records`` payload (``BENCH_*.json`` / ``PERF.json``)."""
    path = pathlib.Path(path)
    try:
        data = json.loads(path.read_text())
    except FileNotFoundError:
        raise TrajectoryError(f"no record file at {path}") from None
    except json.JSONDecodeError as exc:
        raise TrajectoryError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict) or not isinstance(data.get("records"), list):
        raise TrajectoryError(
            f"{path} is not a bench-record payload (no 'records' list)")
    return [BenchRecord.from_dict(r, source=f"{path}#{i}")
            for i, r in enumerate(data["records"])]


# ----------------------------------------------------------------------
# The tracked history (append-only JSONL)
# ----------------------------------------------------------------------

def render_record_line(record: BenchRecord) -> str:
    """One history line: compact sorted-keys JSON (diff-stable)."""
    return json.dumps(record.to_dict(), sort_keys=True,
                      separators=(", ", ": "))


def load_history(path: object = HISTORY_PATH) -> List[BenchRecord]:
    """All records in a history file, oldest first.

    Raises :class:`TrajectoryError` on a missing file, a non-JSON line,
    or a record with a foreign schema version.
    """
    path = pathlib.Path(path)
    try:
        text = path.read_text()
    except FileNotFoundError:
        raise TrajectoryError(
            f"no perf history at {path}; seed it with `repro perf --update`"
        ) from None
    records = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            data = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TrajectoryError(
                f"{path}:{lineno} is not valid JSON: {exc}") from exc
        records.append(BenchRecord.from_dict(data, source=f"{path}:{lineno}"))
    return records


def write_history(path: object, records: Iterable[BenchRecord]) -> pathlib.Path:
    """Atomically write a full history file (tmp + ``replace``)."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    body = "".join(render_record_line(r) + "\n" for r in records)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(body)
    tmp.replace(path)
    return path


def append_history(
    path: object, new_records: Iterable[BenchRecord]
) -> List[BenchRecord]:
    """Append records to a history file (created if missing).

    Existing lines are preserved verbatim-equivalent (reparsed and
    re-rendered, which is the identity for lines this module wrote);
    returns the combined history.
    """
    path = pathlib.Path(path)
    try:
        combined = load_history(path)
    except TrajectoryError as exc:
        if path.exists():  # corrupt is an error; missing just means fresh
            raise exc
        combined = []
    combined.extend(new_records)
    write_history(path, combined)
    return combined


def latest_baselines(
    records: Iterable[BenchRecord],
) -> Dict[Tuple[str, str], BenchRecord]:
    """Last record per ``(bench, scenario)`` — the current baselines."""
    latest: Dict[Tuple[str, str], BenchRecord] = {}
    for record in records:
        latest[record.key] = record
    return latest


# ----------------------------------------------------------------------
# The comparator
# ----------------------------------------------------------------------

def higher_is_better(metric: str) -> bool:
    """Direction of a timing metric, from its naming convention."""
    return metric.endswith(HIGHER_IS_BETTER_SUFFIXES)


@dataclass(frozen=True)
class Regression:
    """One gated difference between a baseline and a current record."""

    bench: str
    scenario: str
    metric: str
    kind: str  # "exact" | "timing" | "missing-metric" | "unknown-scenario"
    baseline: Optional[float]
    current: Optional[float]
    detail: str

    def describe(self) -> str:
        """One gate-output line naming the scenario, kind, and metric."""
        return (f"{self.bench}/{self.scenario} [{self.kind}] "
                f"{self.metric}: {self.detail}")


@dataclass
class Comparison:
    """Outcome of :func:`compare_records` over one record batch."""

    regressions: List[Regression] = field(default_factory=list)
    improvements: List[str] = field(default_factory=list)
    new_scenarios: List[BenchRecord] = field(default_factory=list)
    skipped: List[str] = field(default_factory=list)
    checked: int = 0

    @property
    def ok(self) -> bool:
        """True when no metric regressed (improvements do not fail)."""
        return not self.regressions


def _compare_exact(base: BenchRecord, cur: BenchRecord, out: Comparison) -> None:
    for metric in sorted(set(base.exact) | set(cur.exact)):
        b, c = base.exact.get(metric), cur.exact.get(metric)
        if b is None:
            out.skipped.append(
                f"{cur.label}: new exact metric {metric}={c} (no baseline)")
            continue
        if c is None:
            out.regressions.append(Regression(
                cur.bench, cur.scenario, metric, "missing-metric", b, None,
                f"baseline has {metric}={b} but the current record "
                f"dropped it",
            ))
            continue
        out.checked += 1
        if c != b:
            # Strict: an exact metric is deterministic, so *any* change
            # (fewer rounds included) is a behavioral diff that must be
            # acknowledged via --update before it becomes the baseline.
            out.regressions.append(Regression(
                cur.bench, cur.scenario, metric, "exact", b, c,
                f"{b} -> {c} (deterministic metric changed; gate is "
                f"strict — if intended, refresh with `repro perf "
                f"--update`)",
            ))


def _compare_timing(
    base: BenchRecord, cur: BenchRecord, band: float, out: Comparison
) -> None:
    if base.machine != cur.machine:
        if base.timing or cur.timing:
            out.skipped.append(
                f"{cur.label}: timing skipped (baseline machine "
                f"{base.machine!r} != {cur.machine!r})"
            )
        return
    for metric in sorted(set(base.timing) & set(cur.timing)):
        b, c = base.timing[metric], cur.timing[metric]
        if b == 0:
            # A zero baseline admits no relative band; never gate on it.
            out.skipped.append(
                f"{cur.label}: timing {metric} skipped (zero baseline)")
            continue
        out.checked += 1
        # Relative degradation, positive = worse in the metric's own
        # direction.  Exactly-at-band passes: the band is inclusive.
        if higher_is_better(metric):
            degradation = (b - c) / b
        else:
            degradation = (c - b) / b
        if degradation > band:
            out.regressions.append(Regression(
                cur.bench, cur.scenario, metric, "timing", b, c,
                f"{b:g} -> {c:g} ({degradation:+.1%} degradation, "
                f"noise band {band:.0%})",
            ))
        elif degradation < -band:
            out.improvements.append(
                f"{cur.label} {metric}: {b:g} -> {c:g} "
                f"({-degradation:+.1%} better than baseline)"
            )


def compare_records(
    baselines: Mapping[Tuple[str, str], BenchRecord],
    current: Iterable[BenchRecord],
    band: float = DEFAULT_NOISE_BAND,
) -> Comparison:
    """Gate ``current`` records against their baselines.

    Exact metrics fail on any difference; timing metrics fail beyond
    ``band`` relative degradation (inclusive boundary) and only when
    the machine fingerprints match.  Records with no baseline land in
    ``new_scenarios`` — informational here; ``repro perf --check``
    rejects them so the committed history can never silently lag the
    pinned scenario set.
    """
    if band < 0:
        raise ValueError(f"noise band must be >= 0, got {band}")
    out = Comparison()
    for cur in current:
        base = baselines.get(cur.key)
        if base is None:
            out.new_scenarios.append(cur)
            continue
        _compare_exact(base, cur, out)
        _compare_timing(base, cur, band, out)
    return out


# ----------------------------------------------------------------------
# Timing methodology
# ----------------------------------------------------------------------

def gc_paused_cpu(fn: Callable[[], object]) -> Tuple[object, float]:
    """``(result, CPU seconds)`` of one call with the collector paused.

    The simulation is single-threaded and CPU-bound, so process time is
    the honest cost measure; pausing gc keeps collection pauses from
    landing on whichever measurement happens to be running.
    """
    gc.disable()
    try:
        t0 = time.process_time()
        result = fn()
        return result, time.process_time() - t0
    finally:
        gc.enable()
        gc.collect()


def interleaved_cpu_medians(
    fns: Mapping[str, Callable[[], object]],
    reps: int = DEFAULT_REPS,
) -> Dict[str, float]:
    """Median gc-paused CPU seconds per entry, repetitions interleaved.

    Within each rep every entry runs once; the order is reversed on odd
    reps so cache state and background load perturb all entries alike
    (the ``bench_engine_fastpath`` methodology).
    """
    if reps < 1:
        raise ValueError(f"need reps >= 1, got {reps}")
    times: Dict[str, List[float]] = {key: [] for key in fns}
    order = list(fns.items())
    for rep in range(reps):
        for key, fn in order if rep % 2 == 0 else reversed(order):
            _, cpu = gc_paused_cpu(fn)
            times[key].append(cpu)
    return {key: statistics.median(ts) for key, ts in times.items()}


# ----------------------------------------------------------------------
# The pinned smoke scenarios behind `repro perf`
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class PerfScenario:
    """One pinned deterministic-APSP measurement point."""

    key: str
    family: str
    n: int
    seed: int
    engine: str  # strict | fast | compressed

    def make_net(self, graph):
        """A fresh engine for ``graph`` in this scenario's mode."""
        return make_engine_net(graph, self.engine)


#: the three engine modes, pinned at the CI-sized n=64 ER instance —
#: exact rounds/messages are identical across modes (the differential
#: matrix proves it), so the gate additionally pins that equivalence
#: from one commit to the next
PERF_SCENARIOS: Tuple[PerfScenario, ...] = (
    PerfScenario("er-n64-strict", "er", 64, 1, "strict"),
    PerfScenario("er-n64-fast", "er", 64, 1, "fast"),
    PerfScenario("er-n64-compressed", "er", 64, 1, "compressed"),
)

#: bench name the pinned scenarios are recorded under
PERF_BENCH = "perf_smoke"


def make_engine_net(graph, engine: str):
    """A :class:`~repro.congest.network.CongestNetwork` in one of the
    three measured execution modes (``repro perf``'s engine axis)."""
    from repro.congest.network import CongestNetwork

    if engine == "strict":
        return CongestNetwork(graph)
    if engine == "fast":
        return CongestNetwork(graph, strict=False)
    if engine == "compressed":
        return CongestNetwork(graph, strict=False, compress=True)
    raise ValueError(
        f"unknown engine {engine!r}; expected one of "
        f"strict/fast/compressed"
    )


def run_scenarios(
    scenarios: Iterable[PerfScenario] = PERF_SCENARIOS,
    reps: int = DEFAULT_REPS,
    bench: str = PERF_BENCH,
    progress: Optional[Callable[[str], None]] = None,
) -> List[BenchRecord]:
    """Measure the pinned scenarios into fresh :class:`BenchRecord`\\ s.

    Every scenario runs ``reps`` times with repetitions interleaved
    across scenarios and gc paused (median CPU seconds become
    ``wall_s``; ``rounds_per_sec`` derives from it); rounds and
    messages are asserted identical across repetitions — a
    nondeterministic "deterministic" metric would poison the history.
    """
    from repro.apsp import deterministic_apsp
    from repro.experiments.registry import make_graph

    scenarios = list(scenarios)
    exact: Dict[str, Tuple[int, int]] = {}
    graphs = {s.key: make_graph(s.family, s.n, s.seed) for s in scenarios}

    def runner(s: PerfScenario) -> Callable[[], object]:
        def run():
            graph = graphs[s.key]
            result = deterministic_apsp(s.make_net(graph), graph)
            point = (result.rounds, result.stats.messages)
            if exact.setdefault(s.key, point) != point:
                raise TrajectoryError(
                    f"scenario {s.key}: rounds/messages changed between "
                    f"repetitions ({exact[s.key]} vs {point}); exact "
                    f"metrics must be deterministic"
                )
            if progress is not None:
                progress(f"{s.key}: {result.rounds} rounds")
            return result
        return run

    medians = interleaved_cpu_medians(
        {s.key: runner(s) for s in scenarios}, reps=reps)
    records = []
    for s in scenarios:
        rounds, messages = exact[s.key]
        wall = medians[s.key]
        timing = {"wall_s": round(wall, 6)}
        if wall > 0:
            timing["rounds_per_sec"] = round(rounds / wall, 1)
        records.append(make_record(
            bench, s.key,
            exact={"rounds": rounds, "messages": messages},
            timing=timing,
        ))
    return records


# ----------------------------------------------------------------------
# The pinned serving scenario (distance-oracle query path)
# ----------------------------------------------------------------------

#: bench name the pinned serving scenario is recorded under
SERVING_BENCH = "serving_smoke"

#: the pinned serving scenario key: one fast-path det-n43 ER instance
#: built into an oracle artifact and queried in-process
SERVING_SCENARIO_KEY = "oracle-er-n48-fast"

#: deterministic query mix per timed repetition
SERVING_DISTANCE_QUERIES = 2048
SERVING_PATH_QUERIES = 128


def serving_spec():
    """The :class:`~repro.experiments.spec.ScenarioSpec` behind the
    pinned serving scenario (shared by ``repro perf`` and
    ``benchmarks/bench_serving.py`` so both gate the same artifact)."""
    from repro.experiments.spec import ScenarioSpec

    return ScenarioSpec(family="er", n=48, algorithm="det-n43", seed=1,
                        strict=False)


def run_serving_record(
    reps: int = DEFAULT_REPS,
    progress: Optional[Callable[[str], None]] = None,
) -> "BenchRecord":
    """Measure the pinned serving scenario into one :class:`BenchRecord`.

    Runs the pinned spec, builds its oracle artifact in a temporary
    store, loads it back with checksum verification on, and times a
    deterministic query mix (:data:`SERVING_DISTANCE_QUERIES` distance
    lookups + :data:`SERVING_PATH_QUERIES` path reconstructions) with
    the interleaved gc-paused methodology.  ``exact`` pins the artifact
    byte size, node count, and finite-pair count — all pure functions of
    the spec (the header carries no timestamps or machine identity), so
    they gate strictly across machines; ``timing`` carries the
    noise-banded query latency and throughput.
    """
    import tempfile

    from repro.experiments.runner import run_scenario
    from repro.serving.artifact import build_artifact, load_artifact

    spec = serving_spec()
    record = run_scenario(spec, verify=False)
    if progress is not None:
        progress(f"{SERVING_SCENARIO_KEY}: record {record['hash']} "
                 f"({record['finite_pairs']} finite pairs)")
    with tempfile.TemporaryDirectory(prefix="repro-serving-") as tmp:
        info = build_artifact(record, tmp)
        oracle = load_artifact(info.path, verify=True)
        try:
            n = oracle.n
            pairs = [((13 * i) % n, (7 * i + 5) % n)
                     for i in range(SERVING_DISTANCE_QUERIES)]
            path_pairs = [((5 * i + 1) % n, (11 * i + 3) % n)
                          for i in range(SERVING_PATH_QUERIES)]
            inf = float("inf")

            def batch():
                checksum = 0.0
                hops = 0
                for s, t in pairs:
                    d = oracle.distance(s, t)
                    if d != inf:
                        checksum += d
                for s, t in path_pairs:
                    if oracle.distance(s, t) != inf:
                        hops += len(oracle.path(s, t)) - 1
                return checksum, hops

            medians = interleaved_cpu_medians(
                {SERVING_SCENARIO_KEY: batch}, reps=reps)
        finally:
            oracle.close()
    wall = medians[SERVING_SCENARIO_KEY]
    queries = SERVING_DISTANCE_QUERIES + 2 * SERVING_PATH_QUERIES
    timing = {"query_batch_s": round(wall, 6)}
    if wall > 0:
        timing["queries_per_sec"] = round(queries / wall, 1)
    if progress is not None:
        progress(f"{SERVING_SCENARIO_KEY}: {queries} queries in "
                 f"{wall:.4f}s median")
    return make_record(
        SERVING_BENCH, SERVING_SCENARIO_KEY,
        exact={
            "artifact_bytes": info.nbytes,
            "n": n,
            "finite_pairs": record["finite_pairs"],
        },
        timing=timing,
    )
