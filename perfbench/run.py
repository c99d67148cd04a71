"""The reproduction's benchmark: one workload, checked, timed, one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload det-n512 --seed 1 --seconds 10 --trace 0

Workloads: ``det-n512``, ``report-sweep``, ``oracle-serve`` (see
``perfbench/README.md``).  Every run compiles ``src/`` to bytecode (the
build), then starts fresh worker processes with one BLAS/OpenMP thread
each: a few that only set up (``setup_s`` is the median over them and the
measured worker) and the measured worker itself.  Host times are scaled
to a reference machine speed sampled during each worker's run
(``perfbench/speed.py``); the raw seconds are printed on a ``raw:`` line.
``--trace 1`` runs one untraced worker and then the traced one, and
prints the per-layer table, the span file and the tracing overhead.

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``.
The exit code is 0 when every check passed, 1 when a check failed, and 2
when the run could not happen at all (no program under ``src/``, a worker
crash or timeout); then no result line is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import metric_table as mt  # noqa: E402

#: set-up-only workers per untraced run (oracle-serve sets up once: its
#: set-up of 10-20 s is long enough to time steadily, and two more would
#: add 20-40 s to every run)
SETUP_PROBES = {mt.DET: 2, mt.SWEEP: 2, mt.SERVE: 0}

#: each run must end within 180 s; the workers share what is left
DEADLINE_S = 170.0

#: where runs keep their scratch files and spans
OUT = HERE / "out"


class RunFailed(Exception):
    """The run could not produce a result (exit code 2, no result line)."""


def child_env() -> dict:
    env = dict(os.environ)
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONPATH=str(ROOT / "src"))
    return env


def build(deadline: float) -> None:
    """Compile the program to bytecode so no run pays for it in set-up."""
    done = subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(ROOT / "src")],
        env=child_env(), stdout=subprocess.DEVNULL,
        timeout=max(1.0, deadline - time.monotonic()))
    if done.returncode != 0:
        raise RunFailed("compiling src/ failed")


def spawn(args, deadline: float, *flags: str) -> dict:
    """Run one worker to completion and return its JSON result."""
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--work-dir", str(OUT / "work" / args.workload), *flags]
    if args.smoke:
        cmd.append("--smoke")
    t0 = time.monotonic()
    proc = subprocess.Popen(cmd + ["--t0", repr(t0)], env=child_env(),
                            stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RunFailed("worker ran past the deadline") from None
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunFailed(f"worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def untraced(args, deadline: float):
    probes = [spawn(args, deadline, "--setup-only")
              for _ in range(SETUP_PROBES[args.workload])]
    res = spawn(args, deadline)
    workers = probes + [res]
    metrics = dict(res["metrics"])
    if "setup_s" in metrics:
        metrics["setup_s"] = statistics.median(
            w["metrics"]["setup_s"] for w in workers)
    print("raw: setup_s {} s (slowdown {}); wall_s {} s (slowdown {:.3f})"
          .format(" ".join(f"{w['raw']['setup_s']:.4f}" for w in workers
                           if "setup_s" in w["raw"]),
                  " ".join(f"{w['slowdown']['setup']:.3f}" for w in workers),
                  f"{res['raw']['wall_s']:.4f}" if res["raw"] else "-",
                  res["slowdown"]["measure"]))
    return res, metrics


def traced(args, deadline: float):
    base = spawn(args, deadline)
    res = spawn(args, deadline, "--trace")
    if "layers" not in res:  # a check failed: no per-layer numbers
        return res, {}
    print(f"{'layer':<14}{'set-up s':>10}{'self s':>10}{'share':>8}"
          f"{'rounds':>10}   (raw host seconds)")
    for row in res["layers"]:
        print(f"{row['layer']:<14}{row['setup_s']:>10.3f}{row['self_s']:>10.3f}"
              f"{row['share']:>8.1%}{row['rounds'] or '-':>10}")
    print(f"traced wall_s {res['wall_s']:.3f} s; untraced {base['wall_s']:.3f}"
          f" s; tracing overhead {res['wall_s'] - base['wall_s']:+.3f} s "
          f"(both at the reference speed; slowdown "
          f"{res['slowdown']['measure']:.3f} and "
          f"{base['slowdown']['measure']:.3f})")
    if "covered" in res:
        print(f"step, verify and graph spans cover {res['covered']:.1%} of "
              f"the traced measured phase")
    print(f"spans in {res['span_file']}")
    return res, dict(res["metrics"])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=mt.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny sizes (n=64, the quick preset, 200 requests)")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        build(deadline)
        res, metrics = (traced if args.trace else untraced)(args, deadline)
    except (RunFailed, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(OUT / "work" / args.workload, ignore_errors=True)
    wanted = mt.metrics_for(bool(args.trace))
    print(f"run: workload={args.workload} seed={args.seed} "
          f"smoke={args.smoke} nproc={res['nproc']} machine={res['machine']} "
          f"units={res['units']}")
    print("exact:", json.dumps(res["observed"], sort_keys=True))
    print("extra:", json.dumps({name: {"value": value, "unit": unit}
                                for name, (value, unit)
                                in res["extra"].items()}))
    correct = res["failed"] == 0
    missing = [m.name for m in wanted if m.name not in metrics]
    if correct and missing:
        print(f"benchmark run failed: no value for {', '.join(missing)}",
              file=sys.stderr)
        return 2
    result = {
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {m.name: {"value": metrics[m.name], "unit": m.unit}
                    for m in wanted if m.name in metrics},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
