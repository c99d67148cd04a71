"""Shared benchmark helpers.

Every bench measures *CONGEST rounds* (the paper's metric); wall time is a
side effect pytest-benchmark records.  Each bench prints its table/series
(the same rows the paper's artifact would show) and also writes it to
``benchmarks/results/<name>.txt`` so the report survives output capture.
Machine-readable perf records come from ``repro perf`` alone.
"""

from __future__ import annotations

import pathlib
import sys

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def emit(name: str, text: str) -> None:
    """Print a bench report and persist it under benchmarks/results/."""
    banner = f"\n===== {name} =====\n{text}\n"
    print(banner)
    sys.stderr.write(banner)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")


def once(benchmark, fn):
    """Run an expensive simulation exactly once under the benchmark timer."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
