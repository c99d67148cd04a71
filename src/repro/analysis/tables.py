"""Table 1's rows: the measured contenders and the quoted bounds.

The paper's Table 1 compares round complexities of exact weighted APSP
algorithms.  The rows we implement are measured end-to-end: ``repro
table1`` runs each one through the scenario sweep
(:mod:`repro.experiments`, runner :data:`~repro.experiments.registry.ALGORITHMS`)
and fits it with :func:`~repro.analysis.sweep_report.fit_groups`, the
same path as ``repro sweep`` and ``repro report``.  Rows of Table 1
whose algorithms are out of implementation scope (Huang et al.'s
``O~(n^{5/4})`` scaling algorithm, Elkin's ``O~(n^{5/3})`` undirected
algorithm, Bernstein-Nanongkai's ``O~(n)``) are carried as *quoted
bounds*: they are different algorithmic frameworks (scaling /
low-diameter decompositions), not ``(h, blocker, delivery)`` points of
the shared three-phase driver, so reproducing them is out of scope.
Claimed bounds for the measured rows are single-sourced from
:data:`repro.experiments.registry.CLAIMED_BOUNDS`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.analysis.report import render_table
from repro.experiments.registry import CLAIMED_BOUNDS


@dataclass
class Table1Row:
    """One contender of Table 1."""

    key: str
    reference: str
    weights: str
    kind: str  # Randomized / Deterministic
    claimed: str  # the paper-quoted bound
    claimed_alpha: float  # exponent of the claimed bound (for normalization)
    measured: bool  # implemented: ``key`` names an ``ALGORITHMS`` runner


def _measured(key: str, reference: str, weights: str, kind: str) -> Table1Row:
    """A measured row; bound string and exponent come from the registry
    (:data:`~repro.experiments.registry.CLAIMED_BOUNDS`), so Table 1 and
    the sweep report can never disagree on a claimed bound."""
    bound = CLAIMED_BOUNDS[key]
    return Table1Row(key, reference, weights, kind, bound.bound,
                     bound.alpha, True)


#: Measured rows (implemented end-to-end) + quoted rows (measured=False).
TABLE1_ROWS: List[Table1Row] = [
    _measured("naive-bf", "folklore", "Arbitrary", "Deterministic"),
    _measured("det-n53", "Step-6 strawman (Sec. 2)", "Arbitrary",
              "Deterministic"),
    _measured("det-n32", "Agarwal et al. [2]", "Arbitrary", "Deterministic"),
    _measured("rand-n43", "Agarwal-Ramachandran [1]", "Arbitrary",
              "Randomized"),
    _measured("det-n43", "THIS PAPER", "Arbitrary", "Deterministic"),
    Table1Row("huang-n54", "Huang et al. [13]", "Integer", "Randomized",
              "O~(n^{5/4})", 1.25, False),
    Table1Row("elkin-n53", "Elkin [8]", "Arbitrary (undirected)",
              "Randomized", "O~(n^{5/3})", 5.0 / 3.0, False),
    Table1Row("bn-n", "Bernstein-Nanongkai [5]", "Arbitrary", "Randomized",
              "O~(n)", 1.0, False),
]


def render_quoted_rows() -> str:
    """The Table-1 rows carried as quoted bounds, as a text table."""
    return render_table(
        ["algorithm", "claimed bound", "reference", "weights", "kind"],
        [[r.key, r.claimed, r.reference, r.weights, r.kind]
         for r in TABLE1_ROWS if not r.measured],
        title="Table 1 rows carried as quoted bounds (out of "
              "implementation scope)",
    )


__all__ = ["TABLE1_ROWS", "Table1Row", "render_quoted_rows"]
