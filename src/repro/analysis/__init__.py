"""Measurement analysis: exponent fits, Table 1 regeneration, reporting.

The paper's claims are *asymptotic round bounds*; the reproduction checks
their **shape** on a sweep of instance sizes: who wins, by what factor,
and what growth exponent ``alpha`` a log-log fit of ``rounds ~ n^alpha``
produces (:mod:`~repro.analysis.fitting`).  :mod:`~repro.analysis.tables`
holds Table 1's rows (measured contenders and quoted bounds),
:mod:`~repro.analysis.report` renders the tables/series the benchmarks
print, and :mod:`~repro.analysis.sweep_report` is the sweep-level layer
on top: it loads cached sweep record directories, fits raw and
bound-normalized exponents per algorithm family and metric
(:func:`~repro.analysis.sweep_report.fit_groups`, the one path from
records to a Table-1 fit for ``repro table1``, ``repro sweep`` and
``repro report``), and emits the committed results page
(``docs/RESULTS.md`` + ``benchmarks/results/REPORT.json``, regenerated
by ``python -m repro report`` and freshness-gated in CI).
"""

from repro.analysis.fitting import crossover, fit_exponent, normalized_series
from repro.analysis.report import render_series, render_table
from repro.analysis.sweep_report import (
    FamilyFit,
    build_report,
    check_report,
    fit_groups,
    load_records,
    render_fit_table,
    render_results_md,
    write_report,
)
from repro.analysis.tables import TABLE1_ROWS, render_quoted_rows
from repro.analysis.trajectory import (
    BenchRecord,
    TrajectoryError,
    compare_records,
    interleaved_cpu_medians,
    load_history,
    make_record,
)

__all__ = [
    "TABLE1_ROWS",
    "BenchRecord",
    "FamilyFit",
    "TrajectoryError",
    "build_report",
    "check_report",
    "compare_records",
    "crossover",
    "fit_exponent",
    "fit_groups",
    "interleaved_cpu_medians",
    "load_history",
    "load_records",
    "make_record",
    "normalized_series",
    "render_fit_table",
    "render_quoted_rows",
    "render_results_md",
    "render_series",
    "render_table",
    "write_report",
]
