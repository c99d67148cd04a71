"""Execute one scenario and reduce it to a JSON-safe result record.

The record is what the cache stores and what aggregation consumes: round /
message / congestion accounting, the per-step ledger, and a content hash
of the full distance matrix so "parallel equals serial" (and "today equals
last month") can be asserted without shipping ``n^2`` floats around.
Everything except the ``timing`` block is a pure function of the spec.

Faulted scenarios (``spec.faults != "none"``) additionally run their
fault-free twin inline as the *baseline*: the record carries both sides
plus the plan's :class:`~repro.congest.faults.FaultTrace` hash and a
``fault_outcome`` — ``"ok"`` (bit-identical distances despite the
faults), ``"divergent"`` (completed with a different answer), or
``"failed:<ExceptionType>"`` (the protocol never finished, e.g. a
convergecast waiting forever on a crash-dropped report hits the capped
``HardCapExceeded``).  All three outcomes are deterministic in the spec,
so faulted records cache and replay like any others.
"""

from __future__ import annotations

import hashlib
import time

import numpy as np

from repro.apsp.driver import default_h, three_phase_apsp
from repro.blocker.randomized import BlockerParams
from repro.congest.faults import FAULT_MODELS, FaultPlan
from repro.congest.network import CongestNetwork
from repro.experiments.registry import ALGORITHMS, make_graph
from repro.experiments.spec import THREE_PHASE, ScenarioSpec

#: bump when the record layout changes, so stale caches self-invalidate
RECORD_VERSION = 2


def _dist_sha256(dist: np.ndarray) -> str:
    """Content hash of the distance matrix (inf-safe, layout-canonical)."""
    canon = np.ascontiguousarray(dist, dtype=np.float64)
    return hashlib.sha256(canon.tobytes()).hexdigest()


def scenario_seed(spec: ScenarioSpec) -> int:
    """Deterministic per-scenario RNG seed for the randomized components.

    Derived from the *instance* axes only (family, size, weights, seed) so
    that ablation arms differing in blocker / delivery / hop budget see
    identical random draws on the same instance, while re-runs (serial,
    parallel, or cached-and-compared) are exactly reproducible.
    """
    blob = f"{spec.family}/{spec.n}/{spec.weights}/{spec.seed}".encode()
    return int.from_bytes(hashlib.sha256(blob).digest()[:4], "big") % (2**31 - 1)


def fault_plan_seed(spec: ScenarioSpec) -> int:
    """Deterministic fault-stream seed: ``(scenario hash, fault seed)``.

    The ISSUE's replayability contract in one function — the plan a
    faulted run executes is a pure function of the scenario hash and
    ``fault_seed``, so the same spec always injects the same faults on
    any machine, worker count, or rerun.
    """
    blob = f"{spec.key}/{spec.fault_seed}".encode()
    return int.from_bytes(hashlib.sha256(blob).digest()[:6], "big")


def _execute(spec: ScenarioSpec, graph, net: CongestNetwork):
    """Run the spec's algorithm on one prepared network."""
    if spec.algorithm == THREE_PHASE:
        return three_phase_apsp(
            net,
            graph,
            h=default_h(graph.n, spec.h_exponent),
            blocker=spec.blocker,
            delivery=spec.delivery,
            params=BlockerParams(seed=scenario_seed(spec)),
        )
    return ALGORITHMS[spec.algorithm](net, graph)


def _result_fields(result) -> dict:
    """The result-derived record fields shared by both scenario paths."""
    stats = result.stats
    step_congestion: dict = {}
    for lbl, s in result.log:
        step_congestion[lbl] = max(step_congestion.get(lbl, 0),
                                   s.max_node_congestion)
    finite = np.isfinite(result.dist)
    return {
        "algorithm": result.algorithm,
        "rounds": stats.rounds,
        "messages": stats.messages,
        "max_node_congestion": stats.max_node_congestion,
        "step_rounds": result.step_rounds(),
        "step_congestion": step_congestion,
        "meta": {k: v for k, v in result.meta.items()
                 if isinstance(v, (int, float, str, bool))},
        "dist_sha256": _dist_sha256(result.dist),
        "finite_pairs": int(finite.sum()),
        "dist_sum": float(result.dist[finite].sum()),
    }


def run_scenario(spec: ScenarioSpec, verify: bool = True) -> dict:
    """Run one scenario end-to-end and return its result record."""
    t0 = time.perf_counter()
    graph = make_graph(spec.family, spec.n, spec.seed, spec.weights)
    if spec.faults != "none":
        return _run_faulted_scenario(spec, graph, verify)
    net = CongestNetwork(graph, strict=spec.strict, compress=spec.compress)
    result = _execute(spec, graph, net)
    if verify:
        result.verify(graph)
    wall = time.perf_counter() - t0
    record = {
        "version": RECORD_VERSION,
        "hash": spec.key,
        "spec": spec.to_dict(),
        "graph": graph.name,
        # several families only approximate the requested size (grid sides,
        # star arms); analysis must fit exponents against the real n
        "actual_n": graph.n,
    }
    record.update(_result_fields(result))
    record["verified"] = bool(verify)
    record["timing"] = {"wall_s": wall}
    return record


def _run_faulted_scenario(spec: ScenarioSpec, graph, verify: bool) -> dict:
    """The faulted path: fault-free baseline, then the planned run.

    Each side is timed on its own clock: ``timing.baseline_wall_s``
    covers only the fault-free twin (including its verification) and
    ``timing.wall_s`` only the faulted run, so the faulted number is no
    longer double-charged with the baseline's wall time.
    """
    t0 = time.perf_counter()
    base_net = CongestNetwork(graph, strict=spec.strict)
    base = _execute(spec, graph, base_net)
    if verify:
        base.verify(graph)
    base_sha = _dist_sha256(base.dist)
    baseline_wall = time.perf_counter() - t0

    plan = FaultPlan(FAULT_MODELS[spec.faults], seed=fault_plan_seed(spec))
    net = CongestNetwork(graph, strict=spec.strict, faults=plan)
    outcome = "ok"
    result = None
    t1 = time.perf_counter()
    try:
        result = _execute(spec, graph, net)
    except Exception as exc:  # deterministic in the spec: part of the record
        outcome = f"failed:{type(exc).__name__}"
    wall = time.perf_counter() - t1

    record = {
        "version": RECORD_VERSION,
        "hash": spec.key,
        "spec": spec.to_dict(),
        "graph": graph.name,
        "actual_n": graph.n,
    }
    if result is not None:
        record.update(_result_fields(result))
        if record["dist_sha256"] != base_sha:
            outcome = "divergent"
    else:
        # The protocol never completed: charge what actually ran (the
        # phases merged into the network total before the raise).
        record.update({
            "algorithm": spec.algorithm,
            "rounds": net.total.rounds,
            "messages": net.total.messages,
            "max_node_congestion": net.total.max_node_congestion,
            "step_rounds": {},
            "step_congestion": {},
            "meta": {},
            "dist_sha256": "",
            "finite_pairs": 0,
            "dist_sum": 0.0,
        })
    # "verified" = the verification protocol ran: the baseline was
    # certified (APSPResult.verify) and the faulted output compared to
    # it; what that comparison found lives in fault_outcome.
    record["verified"] = bool(verify)
    record["faults"] = {
        "model": spec.faults,
        "fault_seed": spec.fault_seed,
        "plan_seed": plan.seed,
        "events": net.fault_trace.counts(),
        "trace_sha256": net.fault_trace.sha256(),
    }
    record["fault_outcome"] = outcome
    record["baseline"] = {
        "rounds": base.stats.rounds,
        "messages": base.stats.messages,
        "dist_sha256": base_sha,
    }
    record["timing"] = {"wall_s": wall, "baseline_wall_s": baseline_wall}
    return record


def run_scenario_dict(spec_dict: dict, verify: bool = True) -> dict:
    """Process-pool entry point: specs travel as plain dicts (picklable)."""
    return run_scenario(ScenarioSpec.from_dict(spec_dict), verify=verify)


__all__ = ["RECORD_VERSION", "fault_plan_seed", "run_scenario",
           "run_scenario_dict", "scenario_seed"]
