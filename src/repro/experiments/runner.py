"""Execute one scenario and reduce it to a JSON-safe result record.

The record is what the cache stores and what aggregation consumes: round /
message / congestion accounting, the per-step ledger, and a content hash
of the full distance matrix so "parallel equals serial" (and "today equals
last month") can be asserted without shipping ``n^2`` floats around.
Everything except the ``timing`` block is a pure function of the spec.
"""

from __future__ import annotations

import hashlib
import time

import numpy as np

from repro.apsp.driver import default_h, three_phase_apsp
from repro.blocker.randomized import BlockerParams
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


def run_scenario(spec: ScenarioSpec, verify: bool = True) -> dict:
    """Run one scenario end-to-end and return its result record."""
    t0 = time.perf_counter()
    graph = make_graph(spec.family, spec.n, spec.seed, spec.weights)
    net = CongestNetwork(graph, strict=spec.strict, compress=spec.compress)
    result = _execute(spec, graph, net)
    if verify:
        result.verify(graph)
    wall = time.perf_counter() - t0
    stats = result.stats
    step_congestion: dict = {}
    for lbl, s in result.log:
        step_congestion[lbl] = max(step_congestion.get(lbl, 0),
                                   s.max_node_congestion)
    finite = np.isfinite(result.dist)
    return {
        "version": RECORD_VERSION,
        "hash": spec.key,
        "spec": spec.to_dict(),
        "graph": graph.name,
        # several families only approximate the requested size (grid sides,
        # star arms); analysis must fit exponents against the real n
        "actual_n": graph.n,
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
        "verified": bool(verify),
        "timing": {"wall_s": wall},
    }


def run_scenario_dict(spec_dict: dict, verify: bool = True) -> dict:
    """Process-pool entry point: specs travel as plain dicts (picklable)."""
    return run_scenario(ScenarioSpec.from_dict(spec_dict), verify=verify)


__all__ = ["RECORD_VERSION", "run_scenario", "run_scenario_dict",
           "scenario_seed"]
