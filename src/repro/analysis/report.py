"""Plain-text rendering of benchmark outputs.

The benches print the same rows/series the paper reports (Table 1 plus
the derived figures F1-F8); these helpers keep the formatting in one
place and the bench files declarative.  The markdown twin — the
committed results page — is rendered by
:func:`repro.analysis.sweep_report.render_results_md` from the same
fitted rows, so the two output styles cannot drift apart.
"""

from __future__ import annotations

from typing import Sequence


def render_table(
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    title: str = "",
) -> str:
    """Fixed-width table with right-aligned numeric columns."""
    cells = [[_fmt(c) for c in row] for row in rows]
    widths = [
        max(len(str(headers[j])), *(len(r[j]) for r in cells))
        if cells else len(str(headers[j]))
        for j in range(len(headers))
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(str(h).ljust(widths[j]) for j, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(row[j].rjust(widths[j]) if _numericish(row[j])
                               else row[j].ljust(widths[j]) for j in range(len(row))))
    return "\n".join(lines)


def render_series(
    name: str, ns: Sequence[int], values: Sequence[float], note: str = ""
) -> str:
    """One measured series as ``name: (n, value) ...`` with an optional note."""
    pairs = "  ".join(f"({n}, {_fmt(v)})" for n, v in zip(ns, values))
    tail = f"   [{note}]" if note else ""
    return f"{name}: {pairs}{tail}"


def _fmt(value: object) -> str:
    if isinstance(value, float):
        if value != value:  # NaN
            return "nan"
        if abs(value) >= 1000 or (0 < abs(value) < 0.01):
            return f"{value:.3g}"
        return f"{value:.3f}".rstrip("0").rstrip(".")
    return str(value)


def _numericish(text: str) -> bool:
    try:
        float(text)
        return True
    except ValueError:
        return False


__all__ = ["render_series", "render_table"]
