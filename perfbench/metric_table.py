"""Every metric the benchmark emits, and what kind each end-to-end one is.

Names, units, ``better`` and bounds are read from ``BENCHMARK.json`` at
the checkout root, the one place they are written.  This module adds
what that file does not say: each end-to-end metric's kind.  Every run
emits every metric of its table, whatever the workload.  Stdlib
only: ``run.py`` imports it before the program under test is on
``sys.path``.
"""

from __future__ import annotations

import json
import math
import pathlib
import re
from dataclasses import dataclass
from typing import Optional, Tuple

DET = "det-n512"
SWEEP = "report-sweep"
SERVE = "oracle-serve"
WORKLOADS = (DET, SWEEP, SERVE)
SOLVERS = (DET, SWEEP)

#: the report preset's algorithms (experiments.scenario_s.<name>)
ALGORITHMS = ("det-n32", "det-n43", "det-n53", "naive-bf", "rand-n43")

#: metric names: letters, digits, ``_``, ``.`` and ``-``
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: a percentile needs this many samples beyond it
SAMPLES_BEYOND = 10

#: end-to-end kinds: an exact simulated count, or a measurement of a
#: whole run phase (its host time or its peak memory)
KINDS = ("exact", "run")

SPEC = json.loads(
    (pathlib.Path(__file__).resolve().parent.parent / "BENCHMARK.json")
    .read_text())


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: end-to-end only: kind and the share by which it may worsen
    kind: str = ""
    bound: Optional[float] = None


#: host times taken in set-up, scaled by set-up's slowdown; every other
#: host time is scaled by the measured phase's (oracle-serve's solver
#: layers run only in set-up: see ``SETUP_LAYERS``)
SETUP_PHASE = ("setup_s", "graphs.generate_s")

#: workloads whose per-layer solver times come from set-up, which builds
#: the artifacts, rather than from the measured phase
SETUP_LAYERS = (SERVE,)

#: end-to-end metric -> kind.  Every workload emits every metric: on
#: oracle-serve ``rounds`` and ``messages`` are those of the 12 det-n43
#: records its set-up builds the served artifacts from
END_TO_END_KIND = {
    "wall_s": "run",
    "setup_s": "run",
    "rounds": "exact",
    "messages": "exact",
    "peak_rss_mb": "run",
}

#: per-layer metrics, all emitted on every workload.  Numbers only some
#: workloads have (serving, per-algorithm and report times, latency
#: percentiles) are printed on an ``extra:`` line instead
PER_LAYER_NAMES = (
    "graphs.generate_s", "csssp.host_s", "csssp.rounds", "blocker.host_s",
    "blocker.rounds", "blocker.q", "primitives.in_sssp_s",
    "primitives.qq_bcast_s", "primitives.rounds", "apsp.closure_s",
    "apsp.verify_s", "pipeline.qsink_s", "pipeline.qsink_rounds",
    "pipeline.extension_s", "pipeline.extension_rounds",
    "congest.host_us_per_msg", "experiments.overhead_s",
)


def _check_names(section: str, names) -> None:
    declared = [m["name"] for m in SPEC[section]]
    if sorted(declared) != sorted(names):
        raise RuntimeError(f"BENCHMARK.json {section} names {declared} do "
                           f"not match metric_table's {sorted(names)}")


_check_names("end_to_end", END_TO_END_KIND)
_check_names("per_layer", PER_LAYER_NAMES)
END_TO_END = tuple(Metric(m["name"], m["unit"], m["better"],
                          END_TO_END_KIND[m["name"]], m["bound"])
                   for m in SPEC["end_to_end"])
PER_LAYER = tuple(Metric(m["name"], m["unit"], m["better"])
                  for m in SPEC["per_layer"])


def metrics_for(trace: bool) -> Tuple[Metric, ...]:
    """The metrics every run emits: per-layer when traced, else end-to-end."""
    return PER_LAYER if trace else END_TO_END


def percentile(values, q: float) -> Optional[float]:
    """Nearest-rank ``q`` quantile, or None unless ``SAMPLES_BEYOND`` lie above it."""
    n = len(values)
    rank = max(1, math.ceil(q * n - 1e-9))
    if n - rank < SAMPLES_BEYOND:
        return None
    return sorted(values)[rank - 1]
