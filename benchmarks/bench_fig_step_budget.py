"""F1 — per-step round budget of Algorithm 1 (Theorem 1.1's proof).

The proof charges every step ``O~(n^{4/3})`` rounds.  We run the paper's
algorithm on ER graphs at n = 27 and 64 and report, per step, the
measured rounds, their share of the total and the step's maximum node
congestion; the table states h and |Q| per size.  The bench asserts
nothing about the shares, and they are not stable: Step 2 (the blocker
set) takes a growing share as ``n`` grows — about 80% / 87% / 91% of
det-n43 rounds at n = 64 / 128 / 256 in compressed mode (ER, seed 1).

Runs go through the scenario-sweep subsystem and the grouping goes
through the shared sweep-report helpers
(:mod:`repro.analysis.sweep_report`); the per-step ledger (rounds and
max node congestion per step label) comes straight off the result
records.  Note the instances follow the shared registry's ER
density ``p = max(0.1, 4/n)`` (0.148 / 0.1 at n = 27 / 64) — slightly
different graphs than the seed artifact's hand-picked ``p = 0.16 / 0.08``,
so per-step numbers are not comparable with pre-subsystem reports.
"""

from __future__ import annotations

from repro.analysis import render_table
from repro.analysis.sweep_report import records_by_size
from repro.experiments import ScenarioMatrix, SweepExecutor

from _common import emit, once

STEP_GROUPS = [
    ("step1-csssp", "Step 1 (h-CSSSP)"),
    ("step2-blocker", "Step 2 (blocker set)"),
    ("step3-in-sssp", "Step 3 (h-in-SSSP per c)"),
    ("step4", "Step 4 (Q x Q broadcast)"),
    ("step6/", "Step 6 (reversed q-sink)"),
    ("step7-extension", "Step 7 (extension)"),
]


def test_step_budget(benchmark):
    matrix = ScenarioMatrix(families=("er",), sizes=(27, 64),
                            algorithms=("det-n43",), seeds=(5,))

    def run():
        return SweepExecutor(cache_dir=None, workers=1).run(matrix.expand())

    by_n = records_by_size(once(benchmark, run))
    records = [by_n[n][0] for n in sorted(by_n)]
    rows = []
    for prefix, label in STEP_GROUPS:
        row = [label]
        for rec in records:
            rounds = sum(v for k, v in rec["step_rounds"].items()
                         if k.startswith(prefix))
            congestion = max(
                (v for k, v in rec["step_congestion"].items()
                 if k.startswith(prefix)),
                default=0,
            )
            row.append(rounds)
            row.append(f"{100.0 * rounds / rec['rounds']:.0f}%")
            row.append(congestion)
        rows.append(row)
    rows.append(["TOTAL", records[0]["rounds"], "100%",
                 records[0]["max_node_congestion"],
                 records[1]["rounds"], "100%",
                 records[1]["max_node_congestion"]])
    table = render_table(
        ["step", "rounds n=27", "share", "max node congestion",
         "rounds n=64", "share", "max node congestion"],
        rows,
        title=(
            "F1: Algorithm 1 per-step round budget "
            f"(h={records[0]['meta']['h']}/{records[1]['meta']['h']}, "
            f"|Q|={records[0]['meta']['q']}/{records[1]['meta']['q']})"
        ),
    )
    emit("fig_step_budget", table)
