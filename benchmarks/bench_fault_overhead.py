"""Fault-layer overhead: a zero plan must cost (almost) nothing.

The fault runtime hooks the engine's hottest loop — the tick-boundary
delivery swap — so the design splits into two prices this bench pins
separately:

- **zero plan vs no plan**: a ``FaultPlan`` whose spec is ``none`` keeps
  ``_fault_runtime = None`` and must leave the fast path untouched —
  bit-identical results and accounting (asserted) and wall-clock parity
  within noise (gated at <= 1.25x min-block-median CPU, the same robust
  ratio ``bench_engine_fastpath`` uses);
- **an active plan**: per-delivery PRNG decisions plus trace appends.
  This one legitimately costs time *and* changes the execution (drops
  alter rounds), so it is reported — overhead ratio, extra rounds,
  fault events — rather than gated.

Usage::

    python benchmarks/bench_fault_overhead.py [--smoke] [-n 64] [--reps 30]
"""

from __future__ import annotations

import argparse
import gc
import statistics
import time
from typing import List, Optional

from repro.analysis import render_table
from repro.apsp import naive_bf_apsp
from repro.congest.faults import FAULT_MODELS, FaultPlan
from repro.congest.network import CongestNetwork
from repro.graphs import erdos_renyi

from _common import emit

N = 64
REPS = 30


def time_variants(graph, plans, reps):
    """Interleaved per-rep wall/CPU times for one naive-BF APSP each.

    Same alternating-order, gc-paused methodology as
    ``bench_engine_fastpath``: each rep runs every variant back to back
    (odd reps reversed) so cache state and clock drift are symmetric.
    """
    wall: List[List[float]] = [[] for _ in plans]
    cpu: List[List[int]] = [[] for _ in plans]
    nets = [None] * len(plans)
    results = [None] * len(plans)

    def run_one(i):
        nets[i] = CongestNetwork(graph, strict=False, faults=plans[i])
        results[i] = naive_bf_apsp(nets[i], graph)

    for i in range(len(plans)):  # warm-up: lazy tables, allocator
        run_one(i)
    order = list(range(len(plans)))
    gc.disable()
    try:
        for rep in range(reps):
            for i in order if rep % 2 == 0 else reversed(order):
                w0 = time.perf_counter()
                c0 = time.process_time_ns()
                run_one(i)
                cpu[i].append(time.process_time_ns() - c0)
                wall[i].append(time.perf_counter() - w0)
    finally:
        gc.enable()
        gc.collect()
    return wall, cpu, nets, results


def min_block_median_ratio(num: List[int], den: List[int]) -> float:
    """Min over block medians of per-rep ratios (quiet-host estimate)."""
    ratios = [a / b for a, b in zip(num, den)]
    block = max(1, len(ratios) // 5)
    return min(
        statistics.median(ratios[i : i + block])
        for i in range(0, len(ratios), block)
    )


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-n", type=int, default=N)
    parser.add_argument("--reps", type=int, default=REPS)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny run: n=24, 5 reps (CI-sized)")
    args = parser.parse_args(argv)
    n, reps = (24, 5) if args.smoke else (args.n, args.reps)

    graph = erdos_renyi(n, p=max(0.1, 4.0 / n), seed=7)
    plans = [
        None,
        FaultPlan(FAULT_MODELS["none"], seed=1),
        FaultPlan.from_model("drop", seed=1),
    ]
    wall, cpu, nets, results = time_variants(graph, plans, reps)
    t_plain, t_zero, t_drop = (min(ts) for ts in wall)

    # Semantics before timing: the zero plan is bit-identical to no plan.
    assert results[1].dist.tobytes() == results[0].dist.tobytes()
    assert (results[1].pred == results[0].pred).all()
    assert nets[1].total.rounds == nets[0].total.rounds
    assert nets[1].total.messages == nets[0].total.messages
    assert nets[1].total.per_node_sent == nets[0].total.per_node_sent
    assert len(nets[1].fault_trace) == 0

    zero_ratio = min_block_median_ratio(cpu[1], cpu[0])
    drop_ratio = min_block_median_ratio(cpu[2], cpu[0])
    extra_rounds = nets[2].total.rounds - nets[0].total.rounds
    events = sum(nets[2].fault_trace.counts().values())

    rows = [
        ["no plan", f"{t_plain * 1e3:.3f}", "1.00x", "0", "--"],
        ["zero plan (none)", f"{t_zero * 1e3:.3f}",
         f"{zero_ratio:.2f}x", "0", "--"],
        ["drop plan (2%)", f"{t_drop * 1e3:.3f}",
         f"{drop_ratio:.2f}x", str(events), f"{extra_rounds:+d}"],
    ]
    table = render_table(
        ["fault plan", f"naive-BF APSP on n={n} (ms, best of {reps})",
         "CPU ratio", "fault events", "extra rounds"],
        rows,
        title=(
            f"fault-layer overhead ({nets[0].total.rounds} fault-free "
            f"rounds, {nets[0].total.messages} messages)"
        ),
    )
    emit("fault_overhead", table)

    assert events > 0, "the drop plan never fired at this size"
    assert zero_ratio <= 1.25, (
        f"zero fault plan costs {zero_ratio:.2f}x the bare engine "
        f"(want <= 1.25x: the None-runtime fast path must stay untouched)"
    )
    print(f"ok: zero-plan ratio {zero_ratio:.2f}x, "
          f"drop-plan ratio {drop_ratio:.2f}x ({events} events, "
          f"{extra_rounds:+d} rounds)")
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
