"""L1 — large-n throughput: rounds/sec and wall-clock per execution mode.

The large-n presets (``repro sweep --preset large-n``) push the
deterministic APSP to n in the hundreds; this bench tracks the numbers
that make those sweeps feasible:

* **engine throughput** — simulated CONGEST rounds per second of the full
  deterministic-APSP run, on the vectorized strict engine, the fast path,
  and the round-compressed mode (``compress=True``: batched Step-1/3/7
  Bellman-Ford, compressed Step-6 delivery pipeline, multi-tree
  convergecast batches), each also as a speedup over the strict engine;
* **compressed equivalence + speedup** — the compressed run must hash
  identically to the fast run (distances, predecessors, rounds,
  messages); at n=256 it must clear >= 3x the fast path's rounds/sec;
* **Step-5 closure** — wall-clock of the numpy blocked min-plus closure
  vs the retained Python oracle, with a bit-identical-records check.

Every run also writes machine-readable
``benchmarks/results/BENCH_large_n.json`` — schema'd
:class:`~repro.analysis.trajectory.BenchRecord` payloads (wall seconds
and rounds/sec per engine mode plus the measured speedup ratio) that
``repro perf --records``/``--update`` can gate or promote into the
committed ``HISTORY.jsonl`` trajectory.

``--smoke`` runs the CI-sized subset: the n=64 engine comparison plus a
full n=128 deterministic-APSP run under both closure backends and all
execution modes, asserting the records identical (the sweep smoke job
wires this in).  The full run adds n=256 (with the speedup assertion).

Usage::

    python benchmarks/bench_large_n.py [--smoke] [--sizes 64 128 ...]

or through pytest-benchmark: ``pytest benchmarks/bench_large_n.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import time
from typing import Dict, List, Optional

import numpy as np

from repro.analysis import render_table
from repro.analysis.trajectory import make_engine_net, make_record
from repro.apsp import deterministic_apsp
from repro.experiments.registry import make_graph

from _common import emit, emit_records, once

SEED = 1
SMOKE_SIZES = [64, 128]
FULL_SIZES = [64, 128, 256]

#: Engine execution modes measured per size; the first is the baseline
#: of the speedup column.
ENGINES = ["strict", "fast", "compressed"]


def _dist_hash(dist: np.ndarray) -> str:
    canon = np.ascontiguousarray(dist, dtype=np.float64)
    return hashlib.sha256(canon.tobytes()).hexdigest()[:16]


def _record_hash(result) -> str:
    """Content hash of the full record: distances *and* predecessors."""
    dist = np.ascontiguousarray(result.dist, dtype=np.float64)
    pred = np.ascontiguousarray(result.pred, dtype=np.int64)
    return hashlib.sha256(dist.tobytes() + pred.tobytes()).hexdigest()[:16]


#: The acceptance bar: compressed rounds/sec at n=256 vs fast.
COMPRESSED_MIN_SPEEDUP = 3.0


def run_apsp(graph, engine: str, closure: str = "auto"):
    """One deterministic-APSP run; returns (result, wall seconds)."""
    net = make_engine_net(graph, engine)
    t0 = time.perf_counter()
    result = deterministic_apsp(net, graph, closure=closure)
    return result, time.perf_counter() - t0


def write_records(rows: List[dict], speedups: Dict[str, float]) -> None:
    """Persist the machine-readable perf records for trend tracking.

    Schema'd :class:`~repro.analysis.trajectory.BenchRecord` payloads
    through the shared :func:`_common.emit_records` path (atomic,
    sorted keys) like the sweep report's ``REPORT.json``: rounds and
    messages are exact metrics, wall/rounds-per-sec and the speedup
    ratio are noise-banded timing metrics.
    """
    records = [
        make_record(
            "large_n", f"er-n{row['n']}-{row['engine']}",
            exact={"rounds": row["rounds"], "messages": row["messages"]},
            timing={"wall_s": row["wall_s"],
                    "rounds_per_sec": row["rounds_per_sec"]},
        )
        for row in rows
    ]
    if speedups:
        records.append(make_record(
            "large_n", "er-n256-speedups",
            timing={f"{name}_speedup": round(ratio, 3)
                    for name, ratio in speedups.items()},
        ))
    emit_records("large_n", records)


def large_n_report(sizes: List[int]):
    rows = []
    json_rows: List[dict] = []
    speedups: Dict[str, float] = {}
    baseline = {}
    for n in sizes:
        graph = make_graph("er", n, SEED)
        fast = {}
        for engine in ENGINES:
            result, wall = run_apsp(graph, engine)
            rounds = result.rounds
            if engine == ENGINES[0]:
                baseline[n] = wall
            if engine == "fast":
                fast = {
                    "wall": wall,
                    "rounds": rounds,
                    "messages": result.stats.messages,
                    "hash": _record_hash(result),
                }
            if engine == "compressed":
                # The compressed mode must be an *equivalent* execution:
                # identical records and identical round accounting.
                assert rounds == fast["rounds"], (
                    f"{engine} rounds diverged at n={n}: "
                    f"{rounds} != {fast['rounds']}"
                )
                assert result.stats.messages == fast["messages"], (
                    f"{engine} messages diverged at n={n}"
                )
                assert _record_hash(result) == fast["hash"], (
                    f"{engine} records diverged at n={n}"
                )
                if n >= 256:
                    speed = fast["wall"] / wall
                    speedups["compressed_vs_fast"] = speed
                    assert speed >= COMPRESSED_MIN_SPEEDUP, (
                        f"compressed rounds/sec only {speed:.2f}x of fast "
                        f"at n={n} (need >= {COMPRESSED_MIN_SPEEDUP}x)"
                    )
            rows.append([
                n, engine, rounds, f"{wall:.2f}",
                f"{rounds / wall:,.0f}", f"{baseline[n] / wall:.2f}x",
            ])
            json_rows.append({
                "n": n,
                "engine": engine,
                "rounds": rounds,
                "messages": result.stats.messages,
                "wall_s": round(wall, 4),
                "rounds_per_sec": round(rounds / wall, 1),
            })
    report = render_table(
        ["n", "engine", "rounds", "wall (s)", "rounds/sec",
         f"vs {ENGINES[0]}"],
        rows,
        title="L1: deterministic APSP at large n (er graphs; the "
              "compressed mode asserted record-identical to fast)",
    )
    return report, json_rows, speedups


def closure_equivalence_report(n: int) -> str:
    """Full APSP under both Step-5 backends must hash identically."""
    graph = make_graph("er", n, SEED)
    rows = []
    hashes = {}
    for backend in ("numpy", "python"):
        result, wall = run_apsp(graph, "fast", closure=backend)
        hashes[backend] = _dist_hash(result.dist)
        rows.append([
            backend, f"{wall:.2f}", result.rounds, hashes[backend],
        ])
    assert hashes["numpy"] == hashes["python"], (
        f"Step-5 backends disagree at n={n}: {hashes}"
    )
    return render_table(
        ["closure backend", "wall (s)", "rounds", "dist sha256[:16]"],
        rows,
        title=f"L1: Step-5 closure backends on n={n} (records identical)",
    )


def full_report(sizes: List[int]) -> str:
    report, json_rows, speedups = large_n_report(sizes)
    report += "\n\n" + closure_equivalence_report(min(128, max(sizes)))
    write_records(json_rows, speedups)
    return report


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized subset (n<=128)")
    parser.add_argument("--sizes", type=int, nargs="+",
                        help="override the size ladder")
    args = parser.parse_args(argv)
    sizes = args.sizes or (SMOKE_SIZES if args.smoke else FULL_SIZES)
    emit("large_n", full_report(sizes))
    return 0


def test_large_n_smoke(benchmark):
    """pytest-benchmark entry: the --smoke measurement, one pass."""
    report = once(benchmark, lambda: full_report(SMOKE_SIZES))
    emit("large_n", report)


if __name__ == "__main__":
    sys.exit(main())
