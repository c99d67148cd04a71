#!/usr/bin/env python3
"""Scenario: choosing an APSP algorithm for a fixed network class.

A distributed-systems team operating a fleet whose overlay looks like a
2-D torus-ish grid (sensor meshes, rack topologies) wants exact APSP and
needs to know which algorithm family to deploy as the fleet grows.  This
script regenerates Table 1 on their topology: it runs every implemented
contender across a size sweep, verifies every output, fits growth
exponents, and prints the deployment recommendation the measurements
support.  The runs and fits take the same path as ``python -m repro
table1``: the sweep executor, then ``fit_groups``.

Usage::

    python examples/compare_algorithms.py [grid|er|ring|<any graph family>]
"""

from __future__ import annotations

import sys

from repro.analysis import fit_groups, render_fit_table
from repro.experiments import ALGORITHMS, ScenarioMatrix, SweepExecutor

SIZES = (16, 24, 32, 48)


def main() -> None:
    topology = sys.argv[1] if len(sys.argv) > 1 else "grid"
    matrix = ScenarioMatrix(families=(topology,), sizes=SIZES,
                            algorithms=tuple(ALGORITHMS), seeds=(3,))
    records = SweepExecutor(cache_dir=None, workers=1).run(matrix.expand())
    ns = sorted({r["actual_n"] for r in records})
    print(f"topology: {topology}, sweep n = {ns} "
          "(every output verified exact)\n")

    fits = fit_groups(records)
    print(render_fit_table(fits, title="Table 1, measured on your topology"))

    last = {f.algorithm: f.metrics["rounds"].values[-1] for f in fits}
    winner = min(last, key=last.__getitem__)
    flattest = min(fits, key=lambda f: f.metrics["rounds"].fit.alpha)
    print(f"\nat n={ns[-1]}, fewest rounds: {winner} ({last[winner]:.0f})")
    print(f"flattest growth (best asymptote on this sweep): "
          f"{flattest.algorithm} "
          f"(alpha={flattest.metrics['rounds'].fit.alpha:.2f})")
    print("\nnote: at these sizes constant factors still favor the simpler"
          "\nalgorithms; the fitted exponents are the forward-looking signal"
          "\n(see 'Departures from the paper' in docs/REPRODUCTION.md for"
          "\nthe scale discussion).")


if __name__ == "__main__":
    main()
