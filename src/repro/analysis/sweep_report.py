"""Cross-family complexity report: fitted exponents vs claimed bounds.

This is the sweep-level analysis layer that joins the three existing
ingredients — :class:`~repro.experiments.executor.SweepExecutor`'s JSON
record cache, :func:`~repro.analysis.fitting.fit_exponent`'s log-log
fits, and the :mod:`~repro.analysis.report` renderers — into one
regenerable artifact pair:

* ``benchmarks/results/REPORT.json`` — the machine-readable report:
  per ``(algorithm, graph family, weights)`` group, the raw fitted
  exponent of every metric (rounds, messages; wall-clock fits live in a
  separate ``timing`` section because they are not deterministic), the
  exponent of the series *normalized by the claimed bound*
  (:data:`~repro.experiments.registry.CLAIMED_BOUNDS`), and a verdict;
* ``docs/RESULTS.md`` — the rendered results page with the same tables
  plus one verdict line per claimed bound.

Everything outside the ``timing`` section is a pure function of the
record set, so the report is byte-reproducible from the cached records
and CI can fail when the committed page drifts (``repro report
--check``).  Record directories are merged and validated against their
scenario hashes before any fitting happens: a record whose ``hash``
does not match the hash recomputed from its embedded spec, or whose
record-format version is stale, is rejected with a
:class:`RecordError`.

The *flatness* criterion: a claimed bound ``O~(n^alpha)`` with polylog
power ``k`` predicts that ``series / (n^alpha * (ln n)^k)`` is flat or
decreasing.  We fit that adjusted series and call the family flat when
its slope is at most :data:`FLAT_TOL`; a positive slope beyond the
tolerance flags the fit as *not yet supporting* the bound at the swept
sizes (pre-asymptotic constants or stronger polylog factors — a
reproduction finding, not a build failure).
"""

from __future__ import annotations

import json
import math
import pathlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.fitting import ExponentFit, fit_exponent
from repro.analysis.report import render_table
from repro.experiments.executor import strip_timing
from repro.experiments.registry import (
    CLAIMED_BOUNDS,
    SWEEP_PRESETS,
    ClaimedBound,
)
from repro.experiments.runner import RECORD_VERSION
from repro.experiments.spec import THREE_PHASE, ScenarioMatrix, ScenarioSpec

#: bump when the REPORT.json layout changes
REPORT_VERSION = 1

#: adjusted-slope tolerance for the "normalized series is flat" verdict
FLAT_TOL = 0.2

#: deterministic metrics fitted per family (wall is handled separately)
METRICS = ("rounds", "messages")

#: default artifact locations (relative to the repo root / CWD)
RESULTS_MD_PATH = pathlib.Path("docs/RESULTS.md")
REPORT_JSON_PATH = pathlib.Path("benchmarks/results/REPORT.json")


class RecordError(ValueError):
    """A cached sweep record is stale, corrupt, or inconsistent."""


def report_matrix(preset: str = "report") -> ScenarioMatrix:
    """The generating sweep behind a report.

    Built from the named entry of
    :data:`~repro.experiments.registry.SWEEP_PRESETS` (default: the
    ``report`` preset behind the committed ``docs/RESULTS.md``);
    ``repro report`` (and its ``--smoke`` mode) runs exactly this matrix
    through the cached executor, so every report is a pure function of
    one declared scenario set.  ``repro report --preset faults`` builds
    the robustness report the same way.
    """
    if preset not in SWEEP_PRESETS:
        raise ValueError(
            f"unknown sweep preset {preset!r}; available: "
            f"{', '.join(sorted(SWEEP_PRESETS))}"
        )
    data = dict(SWEEP_PRESETS[preset])
    matrix = ScenarioMatrix(
        families=data.pop("families"),
        sizes=data.pop("sizes"),
        algorithms=data.pop("algorithms"),
        seeds=data.pop("seeds", (1,)),
        weights=data.pop("weights", ("uniform",)),
        faults=data.pop("faults", ("none",)),
        fault_seeds=data.pop("fault_seeds", (1,)),
        strict=bool(data.pop("strict", True)),
        compress=bool(data.pop("compress", False)),
    )
    if data:
        # A preset key this function does not thread through would make
        # `repro sweep --preset <name>` and the report built from the
        # same preset diverge silently; fail loudly instead.
        raise ValueError(
            f"preset {preset!r} has axes the report matrix ignores: "
            f"{sorted(data)}"
        )
    return matrix


# ----------------------------------------------------------------------
# Loading and validating cached record directories
# ----------------------------------------------------------------------

def validate_record(record: dict, source: object = None) -> dict:
    """Check one cached record's version and scenario-hash integrity.

    Raises :class:`RecordError` when the record-format version is stale,
    the embedded spec does not rebuild, or the stored ``hash`` disagrees
    with the hash recomputed from the spec (a hand-edited or corrupted
    cache entry).  Returns the record unchanged on success.
    """
    where = f" ({source})" if source else ""
    version = record.get("version")
    if version != RECORD_VERSION:
        raise RecordError(
            f"stale record{where}: format version {version!r} != "
            f"{RECORD_VERSION}; re-run the sweep to refresh it"
        )
    try:
        spec = ScenarioSpec.from_dict(record["spec"])
    except (KeyError, TypeError, ValueError) as exc:
        raise RecordError(f"unreadable spec in record{where}: {exc}") from exc
    if spec.key != record.get("hash"):
        raise RecordError(
            f"scenario-hash mismatch{where}: stored {record.get('hash')!r} "
            f"!= {spec.key!r} recomputed from the spec"
        )
    for key in ("rounds", "messages"):
        if key not in record:
            raise RecordError(f"record{where} is missing {key!r}")
    return record


def merge_records(
    record_sets: Sequence[Sequence[dict]],
    sources: Optional[Sequence[object]] = None,
) -> List[dict]:
    """Merge already-validated record sets by scenario hash.

    An overlapping scenario (same hash in several sets) is kept once,
    after checking that every copy agrees on the deterministic fields
    (everything but ``timing``) — a disagreement means one cache is
    corrupt and raises :class:`RecordError`.  The merged set comes back
    in a deterministic order (algorithm, graph family, weights, n, seed)
    regardless of input order.
    """
    names = list(sources) if sources else [f"set {i}" for i in
                                           range(len(record_sets))]
    if len(names) != len(record_sets):
        raise ValueError(
            f"merge_records got {len(record_sets)} record sets but "
            f"{len(names)} source names"
        )
    by_hash: Dict[str, dict] = {}
    origin: Dict[str, object] = {}
    for name, records in zip(names, record_sets):
        for record in records:
            h = record["hash"]
            if h in by_hash:
                if strip_timing(by_hash[h]) != strip_timing(record):
                    raise RecordError(
                        f"conflicting records for scenario {h}: {name} "
                        f"disagrees with {origin[h]} on deterministic "
                        f"fields"
                    )
                continue
            by_hash[h] = record
            origin[h] = name
    return sorted(by_hash.values(), key=_record_sort_key)


def load_records(dirs: Sequence[object]) -> List[dict]:
    """Load and merge cached record directories into one validated set.

    Every ``*.json`` file in every directory is validated
    (:func:`validate_record`) and the directories are merged by scenario
    hash (:func:`merge_records`): stale, hash-mismatched, or mutually
    inconsistent records raise :class:`RecordError` instead of silently
    skewing the fits.
    """
    record_sets: List[List[dict]] = []
    for d in dirs:
        dpath = pathlib.Path(d)
        if not dpath.is_dir():
            raise RecordError(f"not a record directory: {dpath}")
        records = []
        for path in sorted(dpath.glob("*.json")):
            try:
                record = json.loads(path.read_text(encoding="utf-8"))
            except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise RecordError(f"unreadable record {path}: {exc}") from exc
            records.append(validate_record(record, source=path))
        record_sets.append(records)
    return merge_records(record_sets, sources=[str(d) for d in dirs])


def _record_sort_key(record: dict) -> Tuple:
    spec = record["spec"]
    return (spec["algorithm"], spec["family"], spec["weights"], spec["n"],
            spec["seed"], record["hash"])


# ----------------------------------------------------------------------
# Fitting family x metric exponents
# ----------------------------------------------------------------------

@dataclass
class MetricFit:
    """One metric's log-log fit for one family group.

    ``normalized_alpha`` is the slope of ``series / n^alpha_claimed``
    (exactly ``fit.alpha - alpha_claimed``); ``adjusted_alpha`` is the
    fitted slope after *also* dividing out the claimed polylog factor
    ``(ln n)^polylog`` — the flatness verdict reads this one.  When the
    series cannot be fitted (zero / non-finite points), ``fit`` is
    ``None`` and ``error`` names the offending points.
    """

    metric: str
    ns: List[float]
    values: List[float]
    fit: Optional[ExponentFit] = None
    claimed_alpha: Optional[float] = None
    normalized_alpha: Optional[float] = None
    adjusted_alpha: Optional[float] = None
    error: Optional[str] = None


@dataclass
class FamilyFit:
    """All fits and the verdict for one (algorithm, family, weights) group."""

    algorithm: str
    family: str
    weights: str
    runs: int
    sizes: List[int]
    bound: Optional[ClaimedBound]
    metrics: Dict[str, MetricFit] = field(default_factory=dict)
    verdict: str = ""
    #: True = normalized rounds series is flat/decreasing (supports the
    #: claimed bound); False = still growing; None = no bound or no fit.
    flat: Optional[bool] = None


def algorithm_key(spec: dict) -> str:
    """The algorithm a record's spec names, as a fit-group key.

    A registry algorithm is its own key.  A ``3phase`` spec is keyed by
    its driver point, e.g. ``3phase(h=n^0.33,greedy,pipelined)``: arms
    with different ``(h, blocker, delivery)`` are different algorithms
    and must not be averaged into one fit.
    """
    if spec["algorithm"] != THREE_PHASE:
        return spec["algorithm"]
    return (f"{THREE_PHASE}(h=n^{spec['h_exponent']:.2f},"
            f"{spec['blocker']},{spec['delivery']})")


def group_records(
    records: Sequence[dict],
) -> Dict[Tuple[str, str, str], Dict[int, List[dict]]]:
    """Group records by ``(algorithm, graph family, weights)``, then size.

    The algorithm part is :func:`algorithm_key`, so each ``3phase`` arm
    is a group of its own.
    """
    groups: Dict[Tuple[str, str, str], Dict[int, List[dict]]] = {}
    for rec in records:
        spec = rec["spec"]
        key = (algorithm_key(spec), spec["family"], spec["weights"])
        groups.setdefault(key, {}).setdefault(spec["n"], []).append(rec)
    return groups


def records_by_size(records: Sequence[dict]) -> Dict[int, List[dict]]:
    """Bucket records by requested size, preserving input order per bucket.

    The ablation/step-budget benches read their arms positionally (the
    matrix-expansion order declares which arm is which), so unlike
    :func:`group_records` this keeps the caller's record order inside
    each size bucket.
    """
    by_n: Dict[int, List[dict]] = {}
    for rec in records:
        by_n.setdefault(rec["spec"]["n"], []).append(rec)
    return by_n


def metric_series(
    by_n: Dict[int, List[dict]], metric: str
) -> Tuple[List[float], List[float]]:
    """Mean series of ``metric`` over seeds, against the graphs' real sizes.

    Several families (grid, star, layered) only approximate the requested
    ``n``, so fits run against the mean ``actual_n`` per size bucket.
    ``metric`` may be ``"wall"`` for the ``timing.wall_s`` measurement.
    """
    ns: List[float] = []
    values: List[float] = []
    for n in sorted(by_n):
        recs = by_n[n]
        ns.append(sum(r.get("actual_n", n) for r in recs) / len(recs))
        if metric == "wall":
            values.append(
                sum(r["timing"]["wall_s"] for r in recs) / len(recs)
            )
        else:
            values.append(sum(r[metric] for r in recs) / len(recs))
    return ns, values


def _adjusted_series(
    ns: Sequence[float], values: Sequence[float], bound: ClaimedBound,
    claimed_alpha: float,
) -> List[float]:
    """Divide out the full claimed bound: ``n^alpha * (ln n)^polylog``."""
    return [
        v / (n ** claimed_alpha * math.log(n) ** bound.polylog)
        for n, v in zip(ns, values)
    ]


def fit_metric(
    by_n: Dict[int, List[dict]], metric: str, bound: Optional[ClaimedBound]
) -> MetricFit:
    """Fit one metric's raw and bound-normalized exponents for a group."""
    ns, values = metric_series(by_n, metric)
    out = MetricFit(metric=metric, ns=ns, values=values)
    if bound is not None:
        out.claimed_alpha = (
            bound.messages_alpha if metric == "messages" else bound.alpha
        )
    try:
        out.fit = fit_exponent(ns, values)
    except ValueError as exc:
        out.error = str(exc)
        return out
    if out.claimed_alpha is not None:
        out.normalized_alpha = out.fit.alpha - out.claimed_alpha
        try:
            adjusted = _adjusted_series(ns, values, bound, out.claimed_alpha)
            out.adjusted_alpha = fit_exponent(ns, adjusted).alpha
        except (ValueError, ZeroDivisionError) as exc:
            # e.g. n = 1 makes the polylog divisor ln(n)^k zero; keep
            # the raw fit but surface the group as not fittable.
            out.error = f"normalized fit failed: {exc}"
    return out


def _verdict(fits: FamilyFit, flat_tol: float) -> Tuple[str, Optional[bool]]:
    bound = fits.bound
    rounds = fits.metrics.get("rounds")
    if bound is None:
        return ("no claimed bound registered for this family", None)
    if rounds is None or rounds.error is not None:
        reason = rounds.error if rounds is not None else "no rounds series"
        return (f"not fittable: {reason}", None)
    slope = rounds.adjusted_alpha
    if slope <= flat_tol:
        return (
            f"supports {bound.bound}: normalized rounds series is "
            f"flat/decreasing (adjusted slope {slope:+.2f})",
            True,
        )
    return (
        f"does not yet support {bound.bound} at these sizes: normalized "
        f"rounds series still grows (adjusted slope {slope:+.2f}; "
        f"pre-asymptotic constants or stronger polylog factors)",
        False,
    )


def fit_groups(
    records: Sequence[dict],
    metrics: Sequence[str] = METRICS,
    flat_tol: float = FLAT_TOL,
) -> List[FamilyFit]:
    """Fit every ``(algorithm, family, weights)`` group in the record set.

    This is the one path from records to a Table-1 fit: ``repro
    table1``, ``repro sweep``, ``repro report`` (and with it
    ``docs/RESULTS.md``) and the example scripts all produce their
    exponent tables through it.
    Groups come back sorted; each carries a per-metric :class:`MetricFit`
    and the flatness verdict against the family's registered
    :class:`~repro.experiments.registry.ClaimedBound` (families without a
    registered bound get raw fits and a "no claimed bound" verdict).

    Faulted records (``record["faults"]`` present) are excluded: their
    round counts measure fault recovery, not the algorithm's complexity,
    and would skew the fits against the claimed bounds.  They feed
    :func:`robustness_rows` instead.
    """
    records = [r for r in records if not r.get("faults")]
    out: List[FamilyFit] = []
    for (algo, family, weights), by_n in sorted(group_records(records).items()):
        bound = CLAIMED_BOUNDS.get(algo)
        fits = FamilyFit(
            algorithm=algo, family=family, weights=weights,
            runs=sum(len(v) for v in by_n.values()),
            sizes=sorted(by_n), bound=bound,
        )
        for metric in metrics:
            fits.metrics[metric] = fit_metric(by_n, metric, bound)
        fits.verdict, fits.flat = _verdict(fits, flat_tol)
        out.append(fits)
    return out


# ----------------------------------------------------------------------
# Rendering: shared rows -> text table / markdown page / JSON payload
# ----------------------------------------------------------------------

FIT_TABLE_HEADER = [
    "algorithm", "family", "weights", "claimed bound", "rounds at sizes",
    "rounds alpha", "norm slope", "messages alpha", "flat?",
]


def fit_table_rows(fits: Sequence[FamilyFit]) -> List[List[object]]:
    """One text-table row per family group (mean rounds per size)."""
    rows: List[List[object]] = []
    for f in fits:
        rounds = f.metrics.get("rounds")
        messages = f.metrics.get("messages")
        rows.append([
            f.algorithm,
            f.family,
            f.weights,
            f.bound.bound if f.bound else "(none)",
            "--" if rounds is None
            else " ".join(_fmt_value(v) for v in rounds.values),
            _fmt_fit(rounds),
            _fmt_slope(rounds),
            _fmt_fit(messages),
            {True: "yes", False: "no", None: "--"}[f.flat],
        ])
    return rows


def render_fit_table(fits: Sequence[FamilyFit], title: str = "") -> str:
    """The cross-family exponent table in the benches' fixed-width style."""
    return render_table(FIT_TABLE_HEADER, fit_table_rows(fits), title=title)


# ----------------------------------------------------------------------
# Robustness under injected faults
# ----------------------------------------------------------------------

ROBUSTNESS_TABLE_HEADER = [
    "algorithm", "family", "fault model", "runs", "ok", "divergent",
    "failed", "extra rounds", "fault events",
]


def robustness_rows(records: Sequence[dict]) -> List[dict]:
    """Aggregate faulted records per ``(algorithm, family, fault model)``.

    Each row counts the three deterministic outcomes the runner records
    (``ok`` — bit-identical distances despite the faults, ``divergent``
    — completed with a different answer, ``failed:*`` — never finished)
    plus the mean extra rounds a *completed* faulted run paid over its
    inline fault-free baseline, and the total injected fault events.
    Fault-free records contribute nothing; a fault-free record set
    yields ``[]`` (and the report then renders no robustness section).
    """
    groups: Dict[Tuple[str, str, str], List[dict]] = {}
    for rec in records:
        if not rec.get("faults"):
            continue
        spec = rec["spec"]
        key = (algorithm_key(spec), spec["family"], rec["faults"]["model"])
        groups.setdefault(key, []).append(rec)
    rows: List[dict] = []
    for (algo, family, model), recs in sorted(groups.items()):
        outcomes = [str(r.get("fault_outcome", "")) for r in recs]
        ok = outcomes.count("ok")
        divergent = outcomes.count("divergent")
        failed = sum(1 for o in outcomes if o.startswith("failed"))
        extra = [
            r["rounds"] - r["baseline"]["rounds"]
            for r, o in zip(recs, outcomes)
            if not o.startswith("failed") and "baseline" in r
        ]
        events = sum(
            sum(r["faults"].get("events", {}).values()) for r in recs
        )
        rows.append({
            "algorithm": algo,
            "graph_family": family,
            "fault_model": model,
            "runs": len(recs),
            "ok": ok,
            "divergent": divergent,
            "failed": failed,
            "mean_extra_rounds": (
                None if not extra else _round(sum(extra) / len(extra), 2)
            ),
            "fault_events": events,
        })
    return rows


def _fmt_extra_rounds(row: dict) -> str:
    extra = row["mean_extra_rounds"]
    return "--" if extra is None else f"{extra:+.1f}"


def robustness_table_rows(rows: Sequence[dict]) -> List[List[object]]:
    """Text/markdown rows for the robustness table (one per group)."""
    return [
        [
            row["algorithm"], row["graph_family"], row["fault_model"],
            row["runs"], row["ok"], row["divergent"], row["failed"],
            _fmt_extra_rounds(row), row["fault_events"],
        ]
        for row in rows
    ]


def render_robustness_table(rows: Sequence[dict], title: str = "") -> str:
    """The robustness matrix in the benches' fixed-width table style."""
    return render_table(
        ROBUSTNESS_TABLE_HEADER, robustness_table_rows(rows), title=title
    )


def _fmt_fit(m: Optional[MetricFit]) -> str:
    if m is None:
        return "--"
    if m.error is not None:
        return "not fittable"
    return f"{m.fit.alpha:.2f}"


def _fmt_slope(m: Optional[MetricFit]) -> str:
    if m is None or m.adjusted_alpha is None:
        return "--"
    return f"{m.adjusted_alpha:+.2f}"


def _round(x: Optional[float], digits: int = 4) -> Optional[float]:
    return None if x is None else round(float(x), digits)


def _metric_payload(m: MetricFit) -> dict:
    payload: dict = {
        "ns": [_round(n) for n in m.ns],
        "values": [_round(v) for v in m.values],
    }
    if m.error is not None:
        payload["error"] = m.error
        return payload
    payload.update({
        "alpha": _round(m.fit.alpha),
        "log_c": _round(m.fit.log_c),
        "r2": _round(m.fit.r2),
        "claimed_alpha": _round(m.claimed_alpha),
        "normalized_alpha": _round(m.normalized_alpha),
        "adjusted_alpha": _round(m.adjusted_alpha),
    })
    return payload


def build_report(
    records: Sequence[dict],
    flat_tol: float = FLAT_TOL,
    fits: Optional[Sequence[FamilyFit]] = None,
) -> dict:
    """Assemble the full machine-readable report payload.

    Everything outside the top-level ``timing`` key is a pure function of
    the record set (rounds and messages are deterministic in the spec);
    ``timing`` holds the wall-clock fits and is ignored by the freshness
    check.  A caller that already ran :func:`fit_groups` over the same
    records (with the same ``flat_tol``) can pass the result as ``fits``
    to avoid fitting twice.
    """
    if fits is None:
        fits = fit_groups(records, flat_tol=flat_tol)
    families = []
    timing_families = []
    for f in fits:
        families.append({
            "algorithm": f.algorithm,
            "graph_family": f.family,
            "weights": f.weights,
            "runs": f.runs,
            "sizes": f.sizes,
            "bound": None if f.bound is None else {
                "bound": f.bound.bound,
                "alpha": _round(f.bound.alpha),
                "polylog": f.bound.polylog,
                "messages_alpha": _round(f.bound.messages_alpha),
                "source": f.bound.source,
            },
            "metrics": {
                name: _metric_payload(m) for name, m in f.metrics.items()
            },
            "verdict": f.verdict,
            "flat": f.flat,
        })
    fault_free = [r for r in records if not r.get("faults")]
    for (algo, family, weights), by_n in sorted(
        group_records(fault_free).items()
    ):
        try:
            ns, walls = metric_series(by_n, "wall")
            wall_fit = fit_exponent(ns, walls)
            timing_families.append({
                "algorithm": algo, "graph_family": family,
                "weights": weights,
                "wall_alpha": _round(wall_fit.alpha),
                "wall_r2": _round(wall_fit.r2),
                "wall_s": [_round(w) for w in walls],
            })
        except (KeyError, ValueError):
            continue  # --no-timing records or sub-resolution walls
    return {
        "report_version": REPORT_VERSION,
        "record_version": RECORD_VERSION,
        "generator": "python -m repro report",
        "flat_tol": flat_tol,
        "scenarios": len(records),
        "scenario_hashes": sorted(r["hash"] for r in records),
        "families": families,
        "robustness": robustness_rows(records),
        "timing": {"families": timing_families},
    }


def verdict_lines(report: dict) -> List[str]:
    """One verdict line per (algorithm, graph family) with a claimed bound."""
    lines = []
    for fam in report["families"]:
        bound = fam["bound"]
        if bound is None:
            continue
        lines.append(
            f"**{fam['algorithm']}** on `{fam['graph_family']}` "
            f"({fam['weights']} weights) — {fam['verdict']}.  "
            f"Claimed: {bound['bound']} [{bound['source']}]."
        )
    return lines


def _md_fit_cell(m: dict) -> str:
    if "error" in m:
        return "not fittable"
    return f"{m['alpha']:.3f}"


def _md_slope_cell(m: dict) -> str:
    if "error" in m or m.get("adjusted_alpha") is None:
        return "--"
    return f"{m['adjusted_alpha']:+.3f}"


def render_results_md(report: dict) -> str:
    """Render the committed ``docs/RESULTS.md`` page from the payload.

    Only deterministic fields appear here (the wall-clock fits stay in
    ``REPORT.json``'s ``timing`` section), so the page is byte-identical
    however and wherever it is regenerated.
    """
    out: List[str] = [
        "# Results: measured complexity vs the paper's claimed bounds",
        "",
        "<!-- generated by `python -m repro report`; do not edit by hand"
        " -->",
        "",
        "Fitted growth exponents of every implemented algorithm family,",
        "from the cached records of the `report` sweep preset"
        f" ({report['scenarios']} scenarios; regenerate with `python -m"
        " repro report`,",
        "check freshness with `python -m repro report --smoke --check`).",
        "A claimed bound `O~(n^a)` *holds on a sweep* when the measured",
        "series divided by `n^a (ln n)^k` is flat or decreasing; the",
        "normalized-slope column fits exactly that, and slopes above"
        f" {report['flat_tol']:.2f}",
        "are flagged as *not yet supporting* the bound at these sizes.",
        "See [REPRODUCTION.md](REPRODUCTION.md) for the paper-to-code map",
        "and [ARCHITECTURE.md](ARCHITECTURE.md) for the measurement"
        " pipeline.",
        "",
        "## Fitted exponents per algorithm family",
        "",
        "| algorithm | graph family | claimed bound | rounds at sizes |"
        " rounds α (fit) | normalized slope | messages α (fit / claimed) |"
        " flat? |",
        "| --- | --- | --- | --- | --- | --- | --- | --- |",
    ]
    for fam in report["families"]:
        bound = fam["bound"]
        rounds = fam["metrics"]["rounds"]
        messages = fam["metrics"]["messages"]
        if "error" in rounds:
            series = "--"
        else:
            series = " ".join(_fmt_value(v) for v in rounds["values"])
        msgs = _md_fit_cell(messages)
        if "error" not in messages and messages.get("claimed_alpha"):
            msgs += f" / {messages['claimed_alpha']:.2f}"
        flat = {True: "yes", False: "no", None: "--"}[fam["flat"]]
        out.append(
            f"| {fam['algorithm']} | {fam['graph_family']} |"
            f" {bound['bound'] if bound else '(none)'} |"
            f" {series} |"
            f" {_md_fit_cell(rounds)} |"
            f" {_md_slope_cell(rounds)} |"
            f" {msgs} |"
            f" {flat} |"
        )
    sizes = sorted({n for fam in report["families"] for n in fam["sizes"]})
    out += [
        "",
        f"Sizes swept: n ∈ {{{', '.join(str(n) for n in sizes)}}}; fits run"
        " against each graph's real node count.",
        "Message fits are compared against the bandwidth ceiling"
        " `alpha + 1`",
        "(at most `2m` messages per round with `m = Θ(n)` on these"
        " families).",
        "",
        "## Verdicts per claimed bound",
        "",
    ]
    out += [f"- {line}" for line in verdict_lines(report)]
    unfittable = [
        fam for fam in report["families"]
        if any("error" in m for m in fam["metrics"].values())
    ]
    if unfittable:
        out += ["", "## Not-fittable series", ""]
        for fam in unfittable:
            for name, m in sorted(fam["metrics"].items()):
                if "error" in m:
                    out.append(
                        f"- `{fam['algorithm']}` on `{fam['graph_family']}`"
                        f" ({name}): {m['error']}"
                    )
    robustness = report.get("robustness") or []
    if robustness:
        out += [
            "",
            "## Robustness under injected faults",
            "",
            "Each faulted scenario first runs its fault-free twin inline:",
            "*ok* means the faulted run still produced bit-identical",
            "distances, *divergent* that it completed with a different",
            "answer, *failed* that the protocol never finished (e.g. a",
            "convergecast waiting forever on a crash-dropped report hits",
            "the capped round limit).  Extra rounds average over completed",
            "runs, relative to each scenario's own baseline.",
            "",
            "| algorithm | graph family | fault model | runs | ok |"
            " divergent | failed | mean extra rounds | fault events |",
            "| --- | --- | --- | --- | --- | --- | --- | --- | --- |",
        ]
        for row in robustness:
            out.append(
                f"| {row['algorithm']} | {row['graph_family']} |"
                f" {row['fault_model']} | {row['runs']} | {row['ok']} |"
                f" {row['divergent']} | {row['failed']} |"
                f" {_fmt_extra_rounds(row)} | {row['fault_events']} |"
            )
    out += [
        "",
        "Wall-clock exponents (not deterministic, excluded from the"
        " freshness",
        "check) live in `benchmarks/results/REPORT.json` under `timing`.",
        "",
    ]
    return "\n".join(out).rstrip() + "\n"


def _fmt_value(v: float) -> str:
    return str(int(v)) if float(v).is_integer() else f"{v:.1f}"


# ----------------------------------------------------------------------
# Writing + freshness checking the artifact pair
# ----------------------------------------------------------------------

def render_report_json(report: dict) -> str:
    """Canonical serialized form of the payload (sorted keys, indented)."""
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def write_json(path: object, payload: dict) -> pathlib.Path:
    """Atomically write ``payload`` in the ``REPORT.json`` convention.

    Sorted keys, two-space indent, trailing newline, tmp-file +
    ``replace``.  The single home of the machine-readable-artifact
    serialization: :func:`write_report` and ``repro perf --out`` both
    go through it, so tracked files keep one diff-stable format.
    """
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(render_report_json(payload))
    tmp.replace(path)
    return path


def write_report(
    report: dict,
    results_path: Optional[pathlib.Path] = RESULTS_MD_PATH,
    json_path: Optional[pathlib.Path] = REPORT_JSON_PATH,
) -> None:
    """Write ``docs/RESULTS.md`` and ``REPORT.json`` atomically.

    Pass ``None`` for either path to skip that artifact (the CLI uses
    this to write only the artifacts a custom-records run explicitly
    named).
    """
    if results_path is not None:
        path = pathlib.Path(results_path)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(path.suffix + ".tmp")
        tmp.write_text(render_results_md(report), encoding="utf-8")
        tmp.replace(path)
    if json_path is not None:
        write_json(json_path, report)


def strip_report_timing(report: dict) -> dict:
    """The deterministic part of a report payload (drop wall-clock fits).

    Same convention as the record-level
    :func:`~repro.experiments.executor.strip_timing` (one shared
    implementation), so the record merge and the report freshness check
    can never disagree about what counts as nondeterministic.
    """
    return strip_timing(report)


def check_report(
    report: dict,
    results_path: pathlib.Path = RESULTS_MD_PATH,
    json_path: pathlib.Path = REPORT_JSON_PATH,
) -> List[str]:
    """Freshness diff of the committed artifacts against ``report``.

    Returns a list of human-readable problems (empty = fresh).  The
    markdown page must match byte-for-byte; ``REPORT.json`` is compared
    after dropping the nondeterministic ``timing`` section on both sides.
    """
    problems: List[str] = []
    results_path = pathlib.Path(results_path)
    json_path = pathlib.Path(json_path)
    if not results_path.exists():
        problems.append(f"{results_path} is missing")
    else:
        try:
            committed_md = results_path.read_text(encoding="utf-8")
        except UnicodeDecodeError:
            committed_md = None
        if committed_md != render_results_md(report):
            problems.append(f"{results_path} is stale")
    if not json_path.exists():
        problems.append(f"{json_path} is missing")
    else:
        try:
            committed = json.loads(json_path.read_text(encoding="utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            committed = None
        if not isinstance(committed, dict):  # truncated / conflict-mangled
            committed = None
        if committed is None or (
            strip_report_timing(committed) != strip_report_timing(report)
        ):
            problems.append(f"{json_path} is stale")
    return problems


__all__ = [
    "FLAT_TOL",
    "METRICS",
    "REPORT_JSON_PATH",
    "REPORT_VERSION",
    "RESULTS_MD_PATH",
    "FamilyFit",
    "MetricFit",
    "RecordError",
    "algorithm_key",
    "build_report",
    "check_report",
    "fit_groups",
    "fit_metric",
    "fit_table_rows",
    "group_records",
    "load_records",
    "merge_records",
    "metric_series",
    "records_by_size",
    "report_matrix",
    "render_fit_table",
    "render_results_md",
    "render_report_json",
    "render_robustness_table",
    "robustness_rows",
    "robustness_table_rows",
    "strip_report_timing",
    "validate_record",
    "verdict_lines",
    "write_json",
    "write_report",
]
