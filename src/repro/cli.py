"""Command-line interface: ``python -m repro <command> ...``.

Nine subcommands mirror the example scripts so users can reproduce any
result without writing code:

* ``apsp`` — run one APSP algorithm on a generated instance, verify it,
  print the per-step round ledger.
* ``sweep`` — expand a scenario matrix (family x size x weights x
  algorithm x seed) and run it through the parallel sweep executor with
  JSON result caching (:mod:`repro.experiments`).
* ``report`` — the cross-family complexity report: fit growth exponents
  from cached sweep records, compare them against each algorithm
  family's claimed bound, and regenerate ``docs/RESULTS.md`` +
  ``benchmarks/results/REPORT.json`` (``--check`` fails when the
  committed artifacts are stale; CI runs it).  ``--shard i/N`` runs
  only the generating-sweep scenarios that shard ``i`` of ``N`` owns
  into the record cache and exits without fitting; re-running it
  resumes, and a plain ``report`` over the same ``--cache-dir`` then
  fits and writes.
* ``perf`` — the perf-trajectory regression gate: measure the pinned
  smoke scenarios into schema'd bench records and compare them against
  the committed append-only history
  (``benchmarks/results/HISTORY.jsonl``).  Exact metrics (rounds,
  messages) gate strictly; timing metrics gate against a noise band on
  matching machines.  ``--check`` exits 1 naming the regressed metric
  and scenario (CI's blocking ``perf-gate`` job); ``--update`` appends
  refreshed baselines with an explicit diff.
* ``build-oracle`` — turn cached sweep records into versioned
  memory-mapped distance-oracle artifacts (checksummed bit-identical to
  the records; :mod:`repro.serving.artifact`).
* ``serve`` — answer distance/path queries over an oracle store from a
  stdlib-asyncio HTTP server with per-request metrics
  (:mod:`repro.serving.server`).
* ``table1`` — regenerate Table 1 (measured) on a size sweep: every
  implemented contender runs through the sweep executor and is fitted
  like ``sweep`` and ``report`` fit theirs.
* ``blocker`` — run the four blocker constructions on one instance.
* ``step6`` — standalone reversed q-sink comparison (pipelined vs
  broadcast).

Sweep axis precedence is uniform: an explicit flag (including the
tri-state ``--strict``/``--fast`` and ``--compressed``/``--no-compressed``
pairs) beats the ``--preset`` value, which beats the built-in default.

The graph-family / algorithm registries live in
:mod:`repro.experiments.registry`; this module is a thin argparse layer
over them.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
from typing import List, Optional, Tuple

from repro.analysis import (
    fit_groups,
    render_fit_table,
    render_quoted_rows,
    render_table,
)
from repro.analysis.sweep_report import (
    FLAT_TOL,
    render_robustness_table,
    robustness_rows,
)
from repro.congest import FAULT_MODELS, CongestNetwork
from repro.csssp import build_csssp
from repro.experiments import (
    ALGORITHMS,
    GRAPH_FAMILIES,
    SWEEP_PRESETS,
    WEIGHT_MODELS,
    ScenarioMatrix,
    SweepError,
    SweepExecutor,
    make_graph,
    shard_specs,
)
from repro.experiments.spec import THREE_PHASE


def cmd_apsp(args) -> int:
    graph = make_graph(args.family, args.n, args.seed)
    net = CongestNetwork(graph)
    algo = ALGORITHMS[args.algorithm]
    result = algo(net, graph)
    if not args.no_verify:
        result.verify(graph)
        print("output verified exact (distances and routing)")
    print(f"{result.algorithm} on {graph}: {result.rounds} rounds, "
          f"meta={result.meta}")
    print(result.log.render())
    return 0


def cmd_sweep(args) -> int:
    # Axis resolution: explicit flags win, then the --preset values, then
    # the built-in defaults.
    preset = {}
    if args.preset:
        if args.preset not in SWEEP_PRESETS:
            raise SystemExit(
                f"repro sweep: unknown preset {args.preset!r}; available "
                f"presets: {', '.join(sorted(SWEEP_PRESETS))}"
            )
        preset = dict(SWEEP_PRESETS[args.preset])

    def axis(name, default):
        given = getattr(args, name)
        if given is not None:
            return given
        return preset.get(name, default)

    families = axis("families", ["er"])
    sizes = axis("sizes", [16, 24])
    algorithms = axis("algorithms", ["det-n43"])
    seeds = axis("seeds", [1])
    fault_models = axis("faults", ["none"])
    fault_seeds = axis("fault_seeds", [1])
    if args.smoke:
        # Shrink the instance axes to one scenario each while keeping
        # every requested fault model: the CI fault-smoke step wants all
        # models exercised once, not a grid.
        families = list(families)[:1]
        sizes = [min(sizes)]
        algorithms = list(algorithms)[:1]
        seeds = list(seeds)[:1]
        fault_seeds = list(fault_seeds)[:1]
    driver_flags = [flag for flag, value in (
        ("--blockers", args.blockers),
        ("--deliveries", args.deliveries),
        ("--h-exponents", args.h_exponents),
    ) if value]
    if driver_flags and THREE_PHASE not in algorithms:
        raise SystemExit(
            f"repro sweep: {' / '.join(driver_flags)} only apply to the "
            f"'{THREE_PHASE}' algorithm; add it to --algorithms"
        )
    matrix = ScenarioMatrix(
        families=families,
        sizes=sizes,
        algorithms=algorithms,
        seeds=seeds,
        weights=axis("weights", ["uniform"]),
        h_exponents=args.h_exponents or (None,),
        blockers=args.blockers or (None,),
        deliveries=args.deliveries or (None,),
        faults=fault_models,
        fault_seeds=fault_seeds,
        # Tri-state flags: an explicit --strict/--fast or
        # --compressed/--no-compressed overrides the preset; with
        # neither given (None) the preset value applies, then the
        # built-in default.
        strict=(args.strict if args.strict is not None
                else bool(preset.get("strict", True))),
        compress=(args.compressed if args.compressed is not None
                  else bool(preset.get("compress", False))),
    )
    try:
        specs = matrix.expand()
    except ValueError as exc:
        raise SystemExit(f"repro sweep: {exc}") from exc
    executor = SweepExecutor(
        cache_dir=args.cache_dir,
        workers=args.workers,
        verify=not args.no_verify,
        force=args.force,
    )
    print(f"sweep: {len(specs)} scenarios, {executor.workers} worker(s), "
          f"cache={args.cache_dir or 'off'}")

    def progress(spec, was_cached):
        print(f"  [{'cache' if was_cached else 'run'}] {spec.key} {spec.label}")

    try:
        records = executor.run(specs, progress=progress)
    except SweepError as exc:
        # Every completed record was already stored; name what failed.
        print(f"done: {executor.executed} executed, "
              f"{executor.cached} from cache")
        print(f"sweep failed: {exc}")
        for failure in exc.failures:
            print(f"  [fail] {failure.spec.key} {failure.spec.label}: "
                  f"{failure.error}")
        if args.cache_dir:
            print(f"completed records are cached under {args.cache_dir}; "
                  f"re-running the same sweep retries only the failures")
        return 1
    print(f"done: {executor.executed} executed, {executor.cached} from cache")
    # Faulted records measure fault recovery: fit_groups leaves them out
    # of the fits and the robustness table counts them instead.
    fits = fit_groups(records)
    if fits:
        print(render_fit_table(
            fits, title=f"scenario sweep ({len(records)} runs)"))
    robustness = robustness_rows(records)
    if robustness:
        print(render_robustness_table(
            robustness, title="robustness under injected faults"))
    return 0


def parse_shard(text: str) -> Tuple[int, int]:
    """Parse an ``i/N`` shard selector into ``(index, count)``.

    ``i`` is zero-based and must satisfy ``0 <= i < N``; anything else
    raises :class:`argparse.ArgumentTypeError` naming the spec.
    """
    parts = text.split("/")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(
            f"invalid shard spec {text!r}: expected the form i/N, e.g. 0/2"
        )
    try:
        index, count = int(parts[0]), int(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid shard spec {text!r}: both i and N must be integers"
        ) from None
    if count < 1:
        raise argparse.ArgumentTypeError(
            f"invalid shard spec {text!r}: shard count N must be >= 1"
        )
    if not 0 <= index < count:
        raise argparse.ArgumentTypeError(
            f"invalid shard spec {text!r}: shard index must satisfy "
            f"0 <= i < {count} (indices are zero-based)"
        )
    return index, count


def _int_at_least(low: int):
    """An argparse ``type`` that parses an integer ``>= low``.

    Anything else raises :class:`argparse.ArgumentTypeError`, so the
    parser exits with a usage error naming the flag instead of the
    command failing later.
    """
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid integer {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(
                f"must be >= {low}, got {value}")
        return value

    return parse


def cmd_report(args) -> int:
    from repro.analysis import sweep_report

    # Status lines go to stderr so `--format json`/`markdown` stdout
    # stays machine-consumable (e.g. `repro report --format json | jq`).
    def status(message: str) -> None:
        print(message, file=sys.stderr)

    def name_failures(exc: SweepError) -> None:
        for failure in exc.failures:
            status(f"  [fail] {failure.spec.key} {failure.spec.label}: "
                   f"{failure.error}")

    record_sets = []
    sources = []
    run_sweep = args.smoke or not args.records
    custom_preset = args.preset != "report"
    # The committed record cache belongs to the 'report' preset; other
    # presets (e.g. 'faults') default to an uncached generating sweep so
    # their records never land in the tracked directory unasked.
    cache_dir = args.cache_dir
    if cache_dir is None and not custom_preset:
        cache_dir = "benchmarks/results/records"
    if args.shard is not None:
        if args.records:
            raise SystemExit(
                "repro report: --shard fills the record cache from the "
                "generating sweep and cannot merge --records; drop one "
                "of them"
            )
        if args.check:
            raise SystemExit(
                "repro report: --shard writes no report to --check; run "
                "a plain `repro report --check` once every shard is done"
            )
        if cache_dir is None:
            raise SystemExit(
                f"repro report: --shard needs a record cache to fill; "
                f"pass --cache-dir (the {args.preset!r} preset has no "
                f"default cache)"
            )
    if run_sweep:
        try:
            matrix = sweep_report.report_matrix(args.preset)
        except ValueError as exc:
            raise SystemExit(f"repro report: {exc}") from exc
        specs = matrix.expand()
        executor = SweepExecutor(cache_dir=cache_dir,
                                 workers=args.workers)
        if args.shard is not None:
            # One hash-owned share into the shared cache, no fit: the
            # cache is the only progress record, so a rerun resumes and
            # the closing line is the status.
            index, count = args.shard
            owned = shard_specs(specs, count)[index]
            status(f"report: shard {index}/{count} ({len(owned)} of "
                   f"{len(specs)} scenarios, preset={args.preset}, "
                   f"cache={cache_dir})")
            try:
                executor.run(owned)
            except SweepError as exc:
                name_failures(exc)
            done = sum(executor.load_cached(s) is not None for s in specs)
            print(f"shard {index}/{count}: {executor.executed} executed, "
                  f"{executor.cached} from cache; {done} of {len(specs)} "
                  f"matrix scenarios cached")
            return 1 if executor.failures else 0
        status(f"report: generating sweep ({len(specs)} scenarios, "
               f"preset={args.preset}, cache={cache_dir or 'off'})")
        try:
            record_sets.append(executor.run(specs))
        except SweepError as exc:
            name_failures(exc)
            raise SystemExit(
                f"repro report: generating sweep failed — {exc}"
            ) from exc
        sources.append("generating sweep")
        status(f"  {executor.executed} executed, "
               f"{executor.cached} from cache")
    try:
        for d in args.records or []:
            record_sets.append(sweep_report.load_records([d]))
            sources.append(str(d))
        records = sweep_report.merge_records(record_sets, sources=sources)
    except sweep_report.RecordError as exc:
        raise SystemExit(f"repro report: {exc}") from exc
    if not records:
        raise SystemExit("repro report: no usable records (run with --smoke "
                         "or point --records at a cached sweep directory)")

    fits = sweep_report.fit_groups(records, flat_tol=args.flat_tol)
    report = sweep_report.build_report(records, flat_tol=args.flat_tol,
                                       fits=fits)
    results_path = args.results or str(sweep_report.RESULTS_MD_PATH)
    json_path = args.json or str(sweep_report.REPORT_JSON_PATH)
    # Guard the committed artifacts: a report built from user-supplied
    # record dirs or a non-default preset is a different document than
    # the committed report-preset one, so a default path is only touched
    # — or diffed against — when the user names it explicitly.
    custom = bool(args.records) or custom_preset
    if args.check:
        if args.records and run_sweep:
            raise SystemExit(
                "repro report: --check cannot combine --smoke with "
                "--records (the merged report never matches the committed "
                "preset-only artifacts); drop one of them"
            )
        if custom and (args.results is None or args.json is None):
            raise SystemExit(
                "repro report: --check with custom --records or --preset "
                "would diff against the committed report-preset "
                "artifacts; pass both --results and --json for your own "
                "artifacts, or drop the custom flags to check the "
                "committed report"
            )
        problems = sweep_report.check_report(
            report, results_path=results_path, json_path=json_path)
        if problems:
            for problem in problems:
                print(f"repro report --check: {problem}")
            print("regenerate with: python -m repro report")
            return 1
        print(f"report is fresh ({results_path}, {json_path})")
        return 0

    if custom:
        # Write only the artifacts the user named; never land a
        # custom-records or custom-preset report on the committed
        # default paths.
        targets = [p for p in (args.results, args.json) if p is not None]
        sweep_report.write_report(
            report, results_path=args.results, json_path=args.json)
        if targets:
            status(f"wrote {' and '.join(targets)} "
                   f"({report['scenarios']} scenarios, "
                   f"{len(report['families'])} family groups)")
        else:
            status("custom --records/--preset without --results/--json: "
                   "printing only (pass --results/--json to write)")
    else:
        sweep_report.write_report(
            report, results_path=results_path, json_path=json_path)
        status(f"wrote {results_path} and {json_path} "
               f"({report['scenarios']} scenarios, "
               f"{len(report['families'])} family groups)")
    if args.format == "json":
        print(sweep_report.render_report_json(report), end="")
    elif args.format == "markdown":
        print(sweep_report.render_results_md(report), end="")
    else:
        print(sweep_report.render_fit_table(
            fits, title="cross-family exponent fits vs claimed bounds"))
        for line in sweep_report.verdict_lines(report):
            print(f"- {line}")
        if report["robustness"]:
            print(sweep_report.render_robustness_table(
                report["robustness"],
                title="robustness under injected faults"))
    return 0


def cmd_perf(args) -> int:
    from repro.analysis import trajectory

    if args.check and args.update:
        raise SystemExit(
            "repro perf: --check and --update are mutually exclusive "
            "(check gates against the history; update rewrites it)"
        )

    # Current records: measured from the pinned scenarios, or replayed
    # from record files a previous invocation wrote.
    if args.records:
        try:
            current = [r for path in args.records
                       for r in trajectory.load_records_file(path)]
        except trajectory.TrajectoryError as exc:
            raise SystemExit(f"repro perf: {exc}") from exc
        print(f"perf: {len(current)} record(s) from "
              f"{', '.join(args.records)}", file=sys.stderr)
    else:
        scenarios = list(trajectory.PERF_SCENARIOS)
        serving = True  # the serving scenario is pinned alongside the three
        if args.scenarios:
            by_key = {s.key: s for s in scenarios}
            known = set(by_key) | {trajectory.SERVING_SCENARIO_KEY}
            unknown = [k for k in args.scenarios if k not in known]
            if unknown:
                raise SystemExit(
                    f"repro perf: unknown scenario(s) "
                    f"{', '.join(unknown)}; pinned scenarios: "
                    f"{', '.join(sorted(known))}"
                )
            scenarios = [by_key[k] for k in args.scenarios if k in by_key]
            serving = trajectory.SERVING_SCENARIO_KEY in args.scenarios
        print(f"perf: measuring {len(scenarios) + serving} pinned "
              f"scenario(s), {args.reps} interleaved rep(s)",
              file=sys.stderr)

        def echo(line):
            print(f"  {line}", file=sys.stderr)

        current = (trajectory.run_scenarios(scenarios, reps=args.reps,
                                            progress=echo)
                   if scenarios else [])
        if serving:
            current.append(trajectory.run_serving_record(
                reps=args.reps, progress=echo))
        from repro.analysis.sweep_report import write_json

        out = write_json(args.out, trajectory.records_payload(current))
        print(f"perf: wrote {out}", file=sys.stderr)

    try:
        history = trajectory.load_history(args.history)
    except trajectory.TrajectoryError as exc:
        if args.update and not pathlib.Path(args.history).exists():
            history = []
        else:
            raise SystemExit(f"repro perf: {exc}") from exc
    baselines = trajectory.latest_baselines(history)
    comparison = trajectory.compare_records(baselines, current,
                                            band=args.band)

    rows = []
    for rec in current:
        base = baselines.get(rec.key)
        for group in ("exact", "timing"):
            for metric, value in sorted(getattr(rec, group).items()):
                before = getattr(base, group).get(metric) if base else None
                rows.append([
                    rec.label, metric,
                    "--" if before is None else f"{before:g}",
                    f"{value:g}",
                    group if base else "new",
                ])
    print(render_table(
        ["scenario", "metric", "baseline", "current", "gate"],
        rows,
        title=f"perf trajectory vs {args.history} "
              f"(noise band {args.band:.0%})",
    ))
    for note in comparison.skipped:
        print(f"  note: {note}")
    for line in comparison.improvements:
        print(f"  improvement: {line}")

    if args.update:
        # The explicit diff: every baseline change spelled out before
        # the append-only history grows.
        changes = [r.describe() for r in comparison.regressions]
        changes += [f"{rec.label}: new scenario "
                    f"(exact={rec.exact}, timing={rec.timing})"
                    for rec in comparison.new_scenarios]
        changes += comparison.improvements
        if changes:
            print("baseline changes:")
            for line in changes:
                print(f"  {line}")
        else:
            print("baseline changes: none (metrics within band)")
        trajectory.append_history(args.history, current)
        print(f"appended {len(current)} record(s) to {args.history}")
        return 0

    failures = [r.describe() for r in comparison.regressions]
    if args.check:
        # A record without a baseline is rejected too: the committed
        # history may never silently lag the pinned scenario set.
        failures += [
            f"{rec.label} [unknown-scenario] not in {args.history}; "
            f"accept it with `repro perf --update`"
            for rec in comparison.new_scenarios
        ]
    for failure in failures:
        print(f"repro perf: REGRESSION {failure}")
    if args.check:
        if failures:
            print(f"repro perf --check: {len(failures)} failure(s); "
                  f"if intended, refresh the baseline with "
                  f"`python -m repro perf --update`")
            return 1
        print(f"perf trajectory OK ({comparison.checked} gated metrics, "
              f"{len(current)} scenario(s))")
    return 0


def cmd_build_oracle(args) -> int:
    from repro.serving import ArtifactError, build_store

    def progress(info):
        print(f"  [oracle] {info.hash} {info.label} "
              f"(n={info.n}, {info.nbytes} bytes)")

    try:
        built, skipped = build_store(args.records, args.out,
                                     force=args.force, progress=progress)
    except ArtifactError as exc:
        raise SystemExit(f"repro build-oracle: {exc}") from exc
    for line in skipped:
        print(f"  [skip] {line}")
    if not built:
        raise SystemExit(
            "repro build-oracle: no record became an oracle (see the "
            "skip lines above); point --records at fault-free cached "
            "sweep records"
        )
    print(f"oracle store {args.out}: {len(built)} artifact(s), "
          f"{len(skipped)} skipped")
    return 0


def cmd_serve(args) -> int:
    from repro.serving import ArtifactError, OracleStore, run_server

    try:
        store = OracleStore(args.store, capacity=args.hot_set,
                            verify=not args.no_verify)
    except ArtifactError as exc:
        raise SystemExit(f"repro serve: {exc}") from exc
    try:
        run_server(store, host=args.host, port=args.port)
    finally:
        store.close()
    return 0


def cmd_table1(args) -> int:
    matrix = ScenarioMatrix(families=[args.family],
                            sizes=args.sizes or [16, 24, 32, 48],
                            algorithms=list(ALGORITHMS), seeds=[args.seed])
    executor = SweepExecutor(cache_dir=None, workers=1,
                             verify=not args.no_verify)
    try:
        records = executor.run(matrix.expand())
    except (SweepError, ValueError) as exc:
        raise SystemExit(f"repro table1: {exc}") from exc
    sizes = sorted({r["actual_n"] for r in records})
    checked = "unverified" if args.no_verify else "all outputs verified exact"
    print(render_fit_table(
        fit_groups(records),
        title=f"Table 1 measured on {args.family}, n = "
              f"{' '.join(map(str, sizes))} ({checked})",
    ))
    print()
    print(render_quoted_rows())
    return 0


def cmd_blocker(args) -> int:
    from repro.blocker import (
        deterministic_blocker_set,
        greedy_blocker_set,
        is_blocker_set,
        randomized_blocker_set,
        sampling_blocker_set,
    )

    graph = make_graph(args.family, args.n, args.seed)
    net = CongestNetwork(graph)
    h = args.h if args.h is not None else max(1, round(graph.n ** (1 / 3)))
    coll, stats = build_csssp(net, graph, range(graph.n), h)
    print(f"{graph}: h={h}, {coll.path_count()} paths "
          f"(CSSSP in {stats.rounds} rounds)")
    rows = []
    for name, fn in [
        ("Algorithm 2' (det)", deterministic_blocker_set),
        ("Algorithm 2 (rand)", randomized_blocker_set),
        ("greedy [2]", greedy_blocker_set),
        ("sampling", sampling_blocker_set),
    ]:
        res = fn(net, coll)
        assert is_blocker_set(coll, res.blockers)
        rows.append([name, res.q, res.stats.rounds, len(res.picks)])
    print(render_table(
        ["construction", "|Q|", "rounds", "selection steps"], rows
    ))
    return 0


def cmd_step6(args) -> int:
    from repro.blocker import deterministic_blocker_set
    from repro.pipeline import broadcast_delivery, reversed_qsink
    from repro.pipeline.values import reference_values

    graph = make_graph(args.family, args.n, args.seed)
    net = CongestNetwork(graph)
    h = max(1, round(graph.n ** (1 / 3)))
    coll, _ = build_csssp(net, graph, range(graph.n), h)
    q_nodes = sorted(deterministic_blocker_set(net, coll).blockers)
    values = reference_values(graph, q_nodes)
    qs = reversed_qsink(net, graph, q_nodes, values)
    _, bstats = broadcast_delivery(net, q_nodes, values)
    print(f"{graph}: |Q|={len(q_nodes)} |Q'|={len(qs.q_prime)} "
          f"|B|={len(qs.bottleneck.bottlenecks)}")
    print(f"pipelined Step 6: {qs.stats.rounds} rounds")
    print(f"broadcast Step 6: {bstats.rounds} rounds")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Faster Deterministic APSP in the "
        "Congest Model' (Agarwal & Ramachandran, SPAA 2020)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("apsp", help="run one APSP algorithm")
    p.add_argument("--algorithm", choices=sorted(ALGORITHMS), default="det-n43")
    p.add_argument("--family", choices=GRAPH_FAMILIES, default="er")
    p.add_argument("--n", type=_int_at_least(2), default=27)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--no-verify", action="store_true")
    p.set_defaults(func=cmd_apsp)

    p = sub.add_parser(
        "sweep",
        help="run a scenario matrix in parallel with result caching",
    )
    p.add_argument("--preset",
                   help="named scenario matrix (e.g. 'large-n' for the "
                        "n in {128, 256} fast-path workloads); explicit "
                        "axis flags override preset values; an unknown "
                        "name lists the available presets")
    p.add_argument("--families", nargs="+", choices=GRAPH_FAMILIES)
    p.add_argument("--sizes", type=int, nargs="+")
    p.add_argument("--algorithms", nargs="+",
                   choices=sorted(ALGORITHMS) + [THREE_PHASE])
    p.add_argument("--seeds", type=int, nargs="+")
    p.add_argument("--weights", nargs="+", choices=sorted(WEIGHT_MODELS))
    p.add_argument("--faults", nargs="+", choices=sorted(FAULT_MODELS),
                   help="fault models injected at delivery time in the "
                        "message-level engine ('none' = the explicit "
                        "zero model; incompatible with --compressed)")
    p.add_argument("--fault-seeds", type=int, nargs="+",
                   help="fault-plan PRNG streams; multiplies scenarios "
                        "whose fault model is not 'none'")
    p.add_argument("--smoke", action="store_true",
                   help="shrink the instance axes to one family/size/"
                        "algorithm/seed while keeping every fault model "
                        "(the CI fault-smoke step)")
    p.add_argument("--h-exponents", type=float, nargs="*",
                   help="driver hop exponents (3phase scenarios only)")
    p.add_argument("--blockers", nargs="*",
                   help="blocker constructions (3phase scenarios only)")
    p.add_argument("--deliveries", nargs="*",
                   help="Step-6 deliveries (3phase scenarios only)")
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes (1 = in-process serial)")
    p.add_argument("--cache-dir",
                   help="JSON result cache directory (default: off)")
    p.add_argument("--force", action="store_true",
                   help="re-run scenarios even if cached")
    # Tri-state engine flags: default None means "defer to the preset",
    # so `--preset large-n --strict` really runs strict instead of the
    # preset's fast path silently winning.
    engine = p.add_mutually_exclusive_group()
    engine.add_argument("--strict", dest="strict", action="store_const",
                        const=True, default=None,
                        help="force strict CONGEST model checks on, "
                             "overriding the preset")
    engine.add_argument("--fast", dest="strict", action="store_const",
                        const=False,
                        help="engine fast path: skip strict CONGEST model "
                             "checks, overriding the preset")
    comp = p.add_mutually_exclusive_group()
    comp.add_argument("--compressed", dest="compressed",
                      action="store_const", const=True, default=None,
                      help="round-compressed fixed-schedule phases "
                           "(bit-identical records, faster simulation), "
                           "overriding the preset")
    comp.add_argument("--no-compressed", dest="compressed",
                      action="store_const", const=False,
                      help="force the message-level engine even when the "
                           "preset compresses")
    p.add_argument("--no-verify", action="store_true")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser(
        "report",
        help="cross-family complexity report: fitted exponents vs claimed "
             "bounds, from cached sweep records",
    )
    p.add_argument("--preset", default="report",
                   help="sweep preset behind the generating sweep "
                        "(default: %(default)s; e.g. 'faults' for the "
                        "robustness report); non-default presets write "
                        "only explicitly named --results/--json paths")
    p.add_argument("--records", nargs="+",
                   help="cached sweep record directories to merge "
                        "(validated against scenario hashes); without "
                        "this the generating --preset sweep runs inline")
    p.add_argument("--smoke", action="store_true",
                   help="run the generating --preset sweep inline "
                        "(cached under --cache-dir) and merge it with any "
                        "--records directories")
    p.add_argument("--cache-dir",
                   help="record cache for the generating sweep (default: "
                        "benchmarks/results/records for the 'report' "
                        "preset, off otherwise)")
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes for the generating sweep")
    p.add_argument("--format", choices=("table", "markdown", "json"),
                   default="table",
                   help="what to print to stdout after writing the "
                        "artifacts (default: the verdict table)")
    p.add_argument("--check", action="store_true",
                   help="write no report artifacts (the generating "
                        "sweep still fills --cache-dir); exit 1 when "
                        "the committed docs/RESULTS.md or REPORT.json "
                        "is stale (wall-clock 'timing' section ignored)")
    p.add_argument("--results",
                   help="rendered report path (default: docs/RESULTS.md; "
                        "with custom --records the default paths are "
                        "only written when named explicitly)")
    p.add_argument("--json",
                   help="machine-readable report path (default: "
                        "benchmarks/results/REPORT.json; same guard as "
                        "--results)")
    p.add_argument("--flat-tol", type=float, default=FLAT_TOL,
                   help="adjusted-slope tolerance for the flatness "
                        "verdict (default: %(default)s)")
    p.add_argument("--shard", type=parse_shard, metavar="i/N",
                   help="run only the generating-sweep scenarios shard i "
                        "of N owns (int(key, 16) %% N == i, zero-based) "
                        "into the record cache and exit without fitting; "
                        "re-run to resume, then a plain `repro report` "
                        "with the same --cache-dir fits and writes")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser(
        "perf",
        help="perf-trajectory gate: pinned smoke scenarios vs the "
             "committed history",
    )
    from repro.analysis.trajectory import (
        DEFAULT_NOISE_BAND,
        DEFAULT_REPS,
        HISTORY_PATH,
        PERF_JSON_PATH,
    )

    p.add_argument("--check", action="store_true",
                   help="exit 1 on any regression (strict on exact "
                        "rounds/messages; noise-banded on timing) or on "
                        "a scenario missing from the history")
    p.add_argument("--update", action="store_true",
                   help="append the fresh records to the history after "
                        "printing an explicit diff of every baseline "
                        "change")
    p.add_argument("--history", default=str(HISTORY_PATH),
                   help="append-only trajectory file "
                        "(default: %(default)s)")
    p.add_argument("--records", nargs="+",
                   help="gate these record payloads written by an "
                        "earlier `repro perf` (PERF.json) instead of "
                        "re-measuring")
    p.add_argument("--out", default=str(PERF_JSON_PATH),
                   help="where measured records are written "
                        "(default: %(default)s; ignored with --records)")
    p.add_argument("--band", type=float, default=DEFAULT_NOISE_BAND,
                   help="relative timing degradation tolerated on a "
                        "matching machine (default: %(default)s)")
    p.add_argument("--reps", type=int, default=DEFAULT_REPS,
                   help="interleaved gc-paused repetitions behind each "
                        "timing median (default: %(default)s)")
    p.add_argument("--scenarios", nargs="+",
                   help="subset of pinned scenario keys to measure")
    p.set_defaults(func=cmd_perf)

    from repro.serving.server import DEFAULT_HOST, DEFAULT_PORT
    from repro.serving.store import DEFAULT_HOT_SET

    p = sub.add_parser(
        "build-oracle",
        help="build memory-mapped distance-oracle artifacts from cached "
             "sweep records",
    )
    p.add_argument("--records", nargs="+", required=True,
                   help="cached sweep record directories or files; "
                        "faulted records are skipped with an explanation")
    p.add_argument("--out", required=True,
                   help="oracle store directory (one <hash>.oracle per "
                        "scenario)")
    p.add_argument("--force", action="store_true",
                   help="rebuild artifacts that already exist")
    p.set_defaults(func=cmd_build_oracle)

    p = sub.add_parser(
        "serve",
        help="serve distance/path queries over an oracle store "
             "(stdlib-asyncio HTTP)",
    )
    p.add_argument("--store", required=True,
                   help="oracle store directory from `repro build-oracle`")
    p.add_argument("--host", default=DEFAULT_HOST,
                   help="bind address (default: %(default)s)")
    p.add_argument("--port", type=int, default=DEFAULT_PORT,
                   help="bind port (default: %(default)s; 0 picks a free "
                        "port)")
    p.add_argument("--hot-set", type=int, default=DEFAULT_HOT_SET,
                   help="LRU capacity of concurrently loaded oracles "
                        "(default: %(default)s)")
    p.add_argument("--no-verify", action="store_true",
                   help="skip the load-time plane checksums (serving is "
                        "then fast to warm but no longer provably "
                        "bit-identical)")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("table1", help="regenerate Table 1 (measured)")
    p.add_argument("--family", choices=GRAPH_FAMILIES, default="er")
    p.add_argument("--sizes", type=int, nargs="*")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--no-verify", action="store_true")
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser("blocker", help="compare blocker constructions")
    p.add_argument("--family", choices=GRAPH_FAMILIES, default="er")
    p.add_argument("--n", type=_int_at_least(2), default=24)
    p.add_argument("--h", type=_int_at_least(1))
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(func=cmd_blocker)

    p = sub.add_parser("step6", help="pipelined vs broadcast delivery")
    p.add_argument("--family", choices=GRAPH_FAMILIES, default="er")
    p.add_argument("--n", type=_int_at_least(2), default=32)
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(func=cmd_step6)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
