"""One benchmark run of one workload, in a fresh process.

Started by ``run.py``; not meant to be run by hand.  Puts the checkout's
``src/`` first on ``sys.path``, sets the workload up, reports set-up time
from ``--t0`` (the parent's ``time.monotonic()`` just before it started
this process), then repeats the workload's measured unit until
``--seconds`` have passed (at least once), checking each unit's answers
after it is timed.  A :class:`speed.SpeedProbe` samples the machine's
speed all along; each end-to-end host time is reported both raw and
scaled to the reference speed by the slowdown of its own phase, set-up
or measured; so are the per-layer host times.  The per-layer table's
self times are raw.  Progress goes to stderr; the last stdout line is one
JSON object for ``run.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import sys
import time
import traceback

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import metric_table as mt  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402

#: metric units that are host times (divided by the slowdown) and rates
#: (multiplied by it)
TIME_UNITS = ("s", "ms", "us")
RATE_UNITS = ("1/s",)

UNITS = {m.name: m.unit for m in mt.END_TO_END + mt.PER_LAYER}

#: extra numbers taken in set-up, scaled by its slowdown
EXTRA_SETUP = ("serving.build_s", "serving.load_s")


def parse(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=mt.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--work-dir", required=True)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def scaled(metrics: dict, units: dict, setup: float, measure: float,
           setup_names=mt.SETUP_PHASE) -> dict:
    """Host times and rates at the reference speed, each by its phase's slowdown."""
    out = {}
    for name, value in metrics.items():
        slowdown = setup if name in setup_names else measure
        if units[name] in TIME_UNITS:
            value = value / slowdown
        elif units[name] in RATE_UNITS:
            value = value * slowdown
        out[name] = value
    return out


def main(argv=None) -> int:
    args = parse(argv)
    probe = speed.SpeedProbe()
    probe.start()
    # importing the program is part of set-up, so it happens here
    import workloads
    from repro.analysis.trajectory import machine_fingerprint

    expected = json.loads((HERE / "expected.json").read_text())
    work_dir = pathlib.Path(args.work_dir)
    work_dir.mkdir(parents=True, exist_ok=True)
    run_id = f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    tracer = spans.Tracer(run_id, probe.clock) if args.trace else None
    if tracer is not None:
        spans.install(tracer)
    workload = workloads.WORKLOADS[args.workload](
        args.seed, args.smoke, expected, work_dir, tracer, probe)
    result = {"machine": machine_fingerprint(), "nproc": os.cpu_count()}
    try:
        with workload.span("setup"):
            workload.setup()
        setup_raw = time.monotonic() - args.t0 - probe.spent
        setup_slowdown = probe.end_phase()
        result["slowdown"] = {"setup": setup_slowdown}
        if args.setup_only:
            result["raw"] = {"setup_s": setup_raw}
            result["metrics"] = {"setup_s": setup_raw / setup_slowdown}
            print(json.dumps(result))
            return 0
        problems = []
        units = 0
        with workload.span("measure"):
            start = time.perf_counter()
            while units == 0 or time.perf_counter() - start < args.seconds:
                t0 = probe.clock()
                try:
                    seconds = workload.unit()
                    found = workload.check()
                except Exception as exc:  # a failed check, e.g. verify()
                    traceback.print_exc()
                    seconds = probe.clock() - t0
                    found = [f"{type(exc).__name__}: {exc}"]
                workload.unit_seconds.append(seconds)
                units += 1
                problems += found
                for line in found[:5]:
                    print(f"check failed: {line}", file=sys.stderr)
        probe.stop()
        slowdown = result["slowdown"]["measure"] = probe.end_phase()
        wall_raw = statistics.median(workload.unit_seconds)
        result.update(
            attempted=units * workload.operations(),
            failed=min(len(problems), units * workload.operations()),
            units=units,
            observed=workload.observed,
            wall_s=wall_raw / slowdown,
        )
        extra = {}
        if problems:
            raw = result["metrics"] = {}  # a failed run's numbers mean nothing
        elif tracer is None:
            raw = dict(workload.end_to_end(), wall_s=wall_raw,
                       setup_s=setup_raw)
            result["metrics"] = scaled(raw, UNITS, setup_slowdown, slowdown)
            extra = workload.extra_end_to_end()
        else:
            raw = workload.per_layer(units)
            setup_names = (set(raw) if args.workload in mt.SETUP_LAYERS
                           else mt.SETUP_PHASE)
            result["metrics"] = scaled(raw, UNITS, setup_slowdown, slowdown,
                                       setup_names)
            extra = workload.extra_per_layer(units)
            rounds = workloads.rounds_by_layer(workload.records)
            result["layers"] = layer_rows(tracer, workload, units, rounds)
            span_file = HERE / "out" / "spans-{}{}-seed{}.json".format(
                args.workload, "-smoke" if args.smoke else "", args.seed)
            tracer.dump(span_file, {"workload": args.workload,
                                    "seed": args.seed, "smoke": args.smoke,
                                    "machine": result["machine"],
                                    "nproc": result["nproc"],
                                    "slowdown": result["slowdown"]})
            result["span_file"] = str(span_file.relative_to(HERE.parent))
            if args.workload in mt.SOLVERS:
                result["covered"] = covered_share(tracer)
        result["raw"] = raw
        # numbers only this workload has, name -> (value, unit); host
        # times are scaled like the metrics
        extra_units = {name: unit for name, (_v, unit) in extra.items()}
        extra_values = scaled({name: v for name, (v, _u) in extra.items()},
                              extra_units, setup_slowdown, slowdown,
                              EXTRA_SETUP)
        result["extra"] = {name: [extra_values[name], unit]
                           for name, unit in extra_units.items()}
    finally:
        probe.stop()
        workload.close()
    print(json.dumps(result))
    return 0


def layer_rows(tracer, workload, units: int, rounds: dict):
    """Per-layer raw self time (set-up, measured per unit), share and rounds."""
    setup = tracer.layer_self("setup")
    measure = tracer.layer_self("measure")
    wall = statistics.median(workload.unit_seconds)
    rows = []
    for layer in spans.LAYERS:
        layer_rounds = sum(v for k, v in rounds.items()
                           if k.split(".")[0] == layer)
        self_s = measure.get(layer, 0.0) / units
        rows.append({"layer": layer, "setup_s": setup.get(layer, 0.0),
                     "self_s": self_s, "share": self_s / wall,
                     "rounds": layer_rounds})
    rows.append({"layer": "(benchmark)", "setup_s": setup.get("setup", 0.0),
                 "self_s": measure.get("measure", 0.0) / units,
                 "share": measure.get("measure", 0.0) / units / wall,
                 "rounds": 0})
    return rows


def covered_share(tracer) -> float:
    """Share of the measured phase inside step, verify and graph spans."""
    names = {s[0] for s in tracer.spans}
    steps = [n for n in names if n.split(".")[0] in
             ("graphs", "csssp", "blocker", "primitives", "pipeline")
             or n in ("apsp.local_closure", "apsp.verify")]
    return tracer.total("measure", *steps) / tracer.total("measure", "measure")


if __name__ == "__main__":
    sys.exit(main())
