"""A1 — ablations over Algorithm 1's design choices.

The ``(h, blocker, delivery)`` triple of the shared driver is mapped in
docs/REPRODUCTION.md; its "Departures from the paper" section lists where
the components differ from the paper's listings.

Three axes, each isolating one choice while the driver holds the rest
fixed:

* **delivery** (the Section-4 contribution): ``h = n^{1/3}`` and the same
  blocker set, pipelined vs broadcast Step 6 — end-to-end counterpart of
  F4;
* **blocker** (the Section-3 contribution): same ``h`` and delivery,
  Algorithm 2' vs greedy [2] vs random sampling — shows where Step 2's
  cost lands inside the full algorithm;
* **hop budget** ``h``: ``n^{1/4}`` / ``n^{1/3}`` / ``n^{1/2}`` with the
  paper's components — the balance point behind Theorem 1.1 (Steps 1/2/7
  grow with ``h``; ``|Q|`` and Step 6 shrink with it).

Each ablation is one ``3phase`` scenario matrix over the driver axes, run
through :mod:`repro.experiments`; the per-scenario seed derives from the
instance only, so paired arms see identical random draws.  Grouping and
rendering go through the shared sweep-report helpers
(:mod:`repro.analysis.sweep_report`) like every other bench table.
"""

from __future__ import annotations

from repro.analysis import render_table
from repro.analysis.sweep_report import records_by_size
from repro.experiments import ScenarioMatrix, SweepExecutor

from _common import emit, once

NS = (24, 48, 96)


def run_matrix(**axes):
    matrix = ScenarioMatrix(families=("er",), sizes=NS, seeds=(29,),
                            algorithms=("3phase",), **axes)
    records = SweepExecutor(cache_dir=None, workers=1).run(matrix.expand())
    return records_by_size(records)


def step6_rounds(rec):
    return sum(v for k, v in rec["step_rounds"].items() if k.startswith("step6"))


def test_ablation_delivery(benchmark):
    by_n = once(benchmark, lambda: run_matrix(
        blockers=("greedy",), deliveries=("pipelined", "broadcast")))
    rows = [
        [n] + [x for rec in recs for x in (rec["rounds"], step6_rounds(rec))]
        for n, recs in sorted(by_n.items())
    ]
    table = render_table(
        ["n", "total (pipelined)", "step6 (pipelined)",
         "total (broadcast)", "step6 (broadcast)"],
        rows,
        title="A1a: delivery ablation (h=n^{1/3}, greedy blocker fixed)",
    )
    emit("ablation_delivery", table)


def test_ablation_blocker(benchmark):
    by_n = once(benchmark, lambda: run_matrix(
        blockers=("derandomized", "greedy", "sampling"),
        deliveries=("pipelined",)))
    rows = [
        [n] + [x for rec in recs
               for x in (rec["rounds"],
                         rec["step_rounds"].get("step2-blocker", 0),
                         rec["meta"]["q"])]
        for n, recs in sorted(by_n.items())
    ]
    table = render_table(
        ["n", "total (Alg 2')", "step2", "|Q|",
         "total (greedy)", "step2", "|Q|",
         "total (sampling)", "step2", "|Q|"],
        rows,
        title="A1b: blocker ablation (h=n^{1/3}, pipelined Step 6 fixed)",
    )
    emit("ablation_blocker", table)


def test_ablation_hop_budget(benchmark):
    by_n = once(benchmark, lambda: run_matrix(
        blockers=("greedy",), deliveries=("pipelined",),
        h_exponents=(0.25, 1 / 3, 0.5)))
    rows = [
        [n] + [x for rec in recs
               for x in (rec["meta"]["h"], rec["rounds"], rec["meta"]["q"])]
        for n, recs in sorted(by_n.items())
    ]
    table = render_table(
        ["n", "h=n^{1/4}", "rounds", "|Q|", "h=n^{1/3}", "rounds", "|Q|",
         "h=n^{1/2}", "rounds", "|Q|"],
        rows,
        title="A1c: hop-budget ablation (greedy blocker, pipelined Step 6)",
    )
    emit("ablation_hop_budget", table)
