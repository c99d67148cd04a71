"""Generate docs/API.md from the public API's docstrings.

The summary is committed; ``python tools/gen_api_docs.py --check`` (run
by the CI docs job and by ``tests/test_docs.py``) fails when the file is
stale, so the doc can never drift from the code it describes.  Only the
first paragraph of each docstring is used — the full text lives with the
code.
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import pathlib
import sys
from typing import List

REPO = pathlib.Path(__file__).resolve().parent.parent
OUTPUT = REPO / "docs" / "API.md"

# Make `python tools/gen_api_docs.py` work without a PYTHONPATH prefix.
if str(REPO / "src") not in sys.path:
    sys.path.insert(0, str(REPO / "src"))

#: (module, public names) in reading order — the curated public surface.
API = [
    ("repro.graphs.spec", ["Graph", "quantize_weight"]),
    ("repro.congest.network", ["CongestNetwork", "CongestNetwork.run",
                               "CongestNetwork.run_compressed",
                               "BandwidthExceeded", "NotANeighbor",
                               "HardCapExceeded"]),
    ("repro.congest.node", ["NodeProgram", "Ctx", "Ctx.send"]),
    ("repro.congest.metrics", ["RoundStats", "RoundStats.from_sends"]),
    ("repro.congest.compressed", ["CompressedPhase", "CompressedPhase.run",
                                  "simulate_upcast"]),
    ("repro.primitives.bellman_ford", ["bellman_ford", "SSSPResult"]),
    ("repro.apsp.driver", ["three_phase_apsp", "default_h"]),
    ("repro.apsp.closure", ["local_closure"]),
    ("repro.apsp", ["deterministic_apsp", "randomized_apsp",
                    "baseline_n32_apsp", "five_thirds_apsp",
                    "naive_bf_apsp", "APSPResult", "certify",
                    "CertificateError"]),
    ("repro.experiments.spec", ["ScenarioSpec", "ScenarioMatrix",
                                "ScenarioMatrix.expand", "shard_specs"]),
    ("repro.experiments.registry", ["make_graph", "ClaimedBound"]),
    ("repro.experiments.runner", ["run_scenario", "scenario_seed"]),
    ("repro.experiments.executor", ["SweepExecutor", "SweepExecutor.run",
                                    "SweepExecutor.load_cached",
                                    "SweepError", "ScenarioFailure"]),
    ("repro.serving.artifact", ["build_artifact", "build_store",
                                "load_artifact", "read_header",
                                "DistanceOracle", "DistanceOracle.distance",
                                "DistanceOracle.path", "ArtifactInfo",
                                "ArtifactError"]),
    ("repro.serving.store", ["OracleStore", "OracleStore.get",
                             "OracleStore.stats", "UnknownScenario"]),
    ("repro.serving.server", ["OracleServer", "ServingMetrics",
                              "run_server"]),
    ("repro.analysis", ["fit_exponent", "render_fit_table",
                        "render_table"]),
    ("repro.analysis.sweep_report", ["load_records", "merge_records",
                                     "validate_record", "fit_groups",
                                     "FamilyFit", "MetricFit",
                                     "build_report", "render_results_md",
                                     "write_report", "check_report",
                                     "report_matrix"]),
    ("repro.analysis.trajectory", ["BenchRecord", "BenchRecord.from_dict",
                                   "make_record", "load_history",
                                   "append_history", "latest_baselines",
                                   "compare_records", "Comparison",
                                   "Regression", "gc_paused_cpu",
                                   "interleaved_cpu_medians",
                                   "run_scenarios", "PerfScenario",
                                   "run_serving_record", "serving_spec",
                                   "TrajectoryError"]),
]


def first_paragraph(doc: str) -> str:
    """The docstring's lead paragraph, joined to one line."""
    lines: List[str] = []
    for line in inspect.cleandoc(doc).splitlines():
        if not line.strip():
            break
        lines.append(line.strip())
    return " ".join(lines)


def describe(module, name: str) -> str:
    obj = module
    for part in name.split("."):
        obj = getattr(obj, part)
    doc = inspect.getdoc(obj) or "(undocumented)"
    summary = first_paragraph(doc)
    if inspect.isclass(obj):
        signature = f"class {name}"
    else:
        try:
            signature = f"{name}{inspect.signature(obj)}"
        except (TypeError, ValueError):
            signature = name
    return f"- **`{signature}`** — {summary}"


def render() -> str:
    out = [
        "# API summary",
        "",
        "<!-- generated by tools/gen_api_docs.py; do not edit by hand -->",
        "",
        "One line per public entry point, pulled from the live docstrings",
        "(`python tools/gen_api_docs.py` regenerates this file; `--check`",
        "fails when it is stale).  See [ARCHITECTURE.md](ARCHITECTURE.md)",
        "for how the pieces fit together.",
        "",
    ]
    for module_name, names in API:
        module = importlib.import_module(module_name)
        out.append(f"## `{module_name}`")
        out.append("")
        mdoc = inspect.getdoc(module)
        if mdoc:
            out.append(first_paragraph(mdoc))
            out.append("")
        for name in names:
            out.append(describe(module, name))
        out.append("")
    return "\n".join(out).rstrip() + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="fail if docs/API.md is out of date")
    args = parser.parse_args(argv)
    text = render()
    if args.check:
        current = OUTPUT.read_text() if OUTPUT.exists() else ""
        if current != text:
            sys.stderr.write(
                "docs/API.md is stale; run: python tools/gen_api_docs.py\n"
            )
            return 1
        print("docs/API.md is up to date")
        return 0
    OUTPUT.parent.mkdir(exist_ok=True)
    OUTPUT.write_text(text)
    print(f"wrote {OUTPUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
