"""The shortest-path certificate behind ``APSPResult.verify``.

``verify`` checks a result's own ``dist`` and ``pred`` (feasibility,
tightness, an acyclic predecessor forest) instead of solving APSP a second
time.  Centralized Dijkstra (:mod:`repro.graphs.reference`) survives only
as the oracle these tests compare the certificate's verdicts against.
"""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

from repro.apsp import CertificateError, certify
from repro.congest import CongestNetwork
from repro.experiments import runner
from repro.experiments.registry import (
    ALGORITHMS,
    GRAPH_FAMILIES,
    WEIGHT_MODELS,
    make_graph,
)
from repro.experiments.spec import ScenarioSpec
from repro.graphs import complete_graph
from repro.graphs.reference import all_pairs_shortest_paths
from repro.graphs.spec import WEIGHT_QUANTUM
from repro.serving import ArtifactError, artifact, build_artifact


def _solve(family, weights, algorithm, seed, n):
    graph = make_graph(family, n, seed, weights)
    return graph, ALGORITHMS[algorithm](CongestNetwork(graph, strict=False),
                                        graph)


def _dijkstra_verdict(graph, dist, atol=1e-9) -> bool:
    """The pre-certificate check: compare against a second APSP."""
    ref = all_pairs_shortest_paths(graph)
    if not (np.isfinite(ref) == np.isfinite(dist)).all():
        return False
    mask = np.isfinite(ref)
    return float(np.abs(dist[mask] - ref[mask]).max(initial=0.0)) <= atol


def _certificate_verdict(graph, dist, pred) -> bool:
    try:
        certify(graph, dist, pred)
    except CertificateError:
        return False
    return True


def _cases(algorithms, seeds, n):
    for family in GRAPH_FAMILIES:
        for weights, kw in WEIGHT_MODELS.items():
            if "zero_frac" in kw and family not in ("er", "er-directed"):
                continue
            for algorithm in algorithms:
                for seed in seeds:
                    yield pytest.param(
                        family, weights, algorithm, seed, n,
                        id=f"{family}-{weights}-{algorithm}-s{seed}-n{n}")


def _check_verdicts_agree(family, weights, algorithm, seed, n):
    graph, result = _solve(family, weights, algorithm, seed, n)
    dist, pred = result.dist, result.pred
    assert _certificate_verdict(graph, dist, pred)
    assert _dijkstra_verdict(graph, dist)
    # One finite off-diagonal distance, nudged by a quantum either way or
    # made unreachable (with a consistent -1 predecessor): both reject.
    finite = np.argwhere(np.isfinite(dist) & ~np.eye(graph.n, dtype=bool))
    x, t = finite[len(finite) // 2]
    for value in (dist[x, t] + WEIGHT_QUANTUM, dist[x, t] - WEIGHT_QUANTUM,
                  math.inf):
        bad_dist, bad_pred = dist.copy(), pred.copy()
        bad_dist[x, t] = value
        if math.isinf(value):
            bad_pred[x, t] = -1
        verdicts = (_certificate_verdict(graph, bad_dist, bad_pred),
                    _dijkstra_verdict(graph, bad_dist))
        assert verdicts == (False, False), (x, t, value)


@pytest.mark.parametrize(
    "family,weights,algorithm,seed,n",
    list(_cases(("det-n43", "naive-bf"), (1,), 16)))
def test_certificate_agrees_with_dijkstra(family, weights, algorithm, seed,
                                          n):
    _check_verdicts_agree(family, weights, algorithm, seed, n)


@pytest.mark.slow
@pytest.mark.parametrize(
    "family,weights,algorithm,seed,n",
    list(_cases(sorted(ALGORITHMS), (1, 2), 24)))
def test_certificate_agrees_with_dijkstra_full(family, weights, algorithm,
                                               seed, n):
    _check_verdicts_agree(family, weights, algorithm, seed, n)


# ----------------------------------------------------------------------
# mutations: each is rejected by one named check
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def er():
    graph, result = _solve("er", "uniform", "det-n43", 1, 24)
    return graph, result.dist, result.pred


def _leaf(graph, dist, x):
    """A target ``t`` of ``x`` none of whose out-arcs is within two
    quanta of tight, so nudging ``dist[x, t]`` disturbs only ``(x, t)``."""
    for t in range(graph.n):
        if t != x and all(dist[x, v] < dist[x, t] + w - 2 * WEIGHT_QUANTUM
                          for v, w, _tb in graph.out_edges(t)):
            return t
    raise AssertionError("no leaf")


def _rejects(graph, dist, pred, cond, x, t=None):
    with pytest.raises(CertificateError) as exc:
        certify(graph, dist, pred)
    prefix = f"{cond} fails at (x, t) = ({x}, " + ("" if t is None else f"{t})")
    assert str(exc.value).startswith(prefix), str(exc.value)


def test_one_quantum_up_breaks_feasibility(er):
    graph, dist, pred = er
    t = _leaf(graph, dist, 0)
    bad = dist.copy()
    bad[0, t] += WEIGHT_QUANTUM
    _rejects(graph, bad, pred, "edge feasibility", 0, t)


def test_one_quantum_down_breaks_tightness(er):
    graph, dist, pred = er
    t = _leaf(graph, dist, 0)
    bad = dist.copy()
    bad[0, t] -= WEIGHT_QUANTUM
    _rejects(graph, bad, pred, "pred tightness", 0, t)


def test_finite_to_inf(er):
    graph, dist, pred = er
    t = _leaf(graph, dist, 0)
    bad_dist, bad_pred = dist.copy(), pred.copy()
    bad_dist[0, t] = math.inf
    _rejects(graph, bad_dist, bad_pred, "pred pattern", 0, t)
    bad_pred[0, t] = -1  # consistent pattern: only feasibility can object
    _rejects(graph, bad_dist, bad_pred, "edge feasibility", 0, t)


def test_inf_to_finite_on_layered_digraph():
    graph, result = _solve("layered", "uniform", "det-n43", 1, 16)
    x, t = graph.n - 1, graph.n - 2  # both in the last layer: unreachable
    assert math.isinf(result.dist[x, t])
    bad_dist, bad_pred = result.dist.copy(), result.pred.copy()
    bad_dist[x, t] = 1.0
    _rejects(graph, bad_dist, bad_pred, "pred pattern", x, t)
    # A real in-arc as predecessor: its tail is unreachable from x too.
    bad_pred[x, t] = graph.in_edges(t)[0][0]
    _rejects(graph, bad_dist, bad_pred, "pred tightness", x, t)


def test_nan(er):
    graph, dist, pred = er
    bad = dist.copy()
    bad[3, 5] = math.nan
    _rejects(graph, bad, pred, "NaN/-inf value", 3, 5)


def test_negative_infinity(er):
    graph, dist, pred = er
    bad = dist.copy()
    bad[3, 5] = -math.inf
    _rejects(graph, bad, pred, "NaN/-inf value", 3, 5)


def test_nonzero_diagonal(er):
    graph, dist, pred = er
    bad = dist.copy()
    bad[4, 4] = 0.5
    _rejects(graph, bad, pred, "zero diagonal", 4, 4)


def test_pred_at_non_neighbour(er):
    graph, dist, pred = er
    t = 7
    stranger = next(v for v in range(graph.n)
                    if v != t and v not in graph.und_neighbors(t))
    bad = pred.copy()
    bad[0, t] = stranger
    _rejects(graph, dist, bad, "pred arc", 0, t)


def test_zero_weight_two_cycle_fails_only_the_forest_check():
    graph, result = _solve("er", "zero", "det-n43", 1, 24)
    dist, pred = result.dist, result.pred
    x = 0
    u, v = next((u, v) for u, v, w in graph.edges
                if w == 0.0 and x not in (u, v) and math.isfinite(dist[x, u]))
    assert dist[x, u] == dist[x, v]
    bad = pred.copy()
    bad[x, u], bad[x, v] = v, u
    # the first bad target may be a descendant of the cycle, not u or v
    _rejects(graph, dist, bad, "forest", x)


def test_wrong_shape(er):
    graph, dist, pred = er
    with pytest.raises(CertificateError, match="shape"):
        certify(graph, dist[:-1], pred)


# ----------------------------------------------------------------------
# the run_scenario and build-oracle paths
# ----------------------------------------------------------------------

def test_run_scenario_rejects_a_broken_route(monkeypatch):
    execute = runner._execute

    def corrupt(spec, graph, net):
        result = execute(spec, graph, net)
        t = graph.n - 1  # its predecessor becomes a node with no arc to it
        result.pred[0, t] = next(v for v in range(graph.n) if v != t
                                 and v not in graph.und_neighbors(t))
        return result

    monkeypatch.setattr(runner, "_execute", corrupt)
    spec = ScenarioSpec("er", 12, "naive-bf", seed=1, strict=False)
    with pytest.raises(CertificateError):
        runner.run_scenario(spec, verify=True)


def test_build_artifact_refuses_a_cyclic_pred(monkeypatch, tmp_path):
    spec = ScenarioSpec("er", 14, "naive-bf", seed=1, strict=False)
    record = runner.run_scenario(spec, verify=True)
    materialize = artifact._materialize

    def cyclic(spec):
        graph, dist, pred = materialize(spec)
        u, v, _w = next(e for e in graph.edges if 0 not in e[:2])
        pred = pred.copy()
        pred[0, u], pred[0, v] = v, u
        return graph, dist, pred

    monkeypatch.setattr(artifact, "_materialize", cyclic)
    store = tmp_path / "store"
    with pytest.raises(ArtifactError, match="refusing to build"):
        build_artifact(record, store)
    assert not store.exists() or not any(store.iterdir())


# ----------------------------------------------------------------------
# memory stays bounded on dense graphs
# ----------------------------------------------------------------------

def test_memory_bounded_on_complete_graph():
    n = 512
    graph = complete_graph(n, wrange=(1.0, 1.0), integer=True)
    # closed form: every pair is one unit hop apart, via its own edge
    dist = np.ones((n, n))
    np.fill_diagonal(dist, 0.0)
    pred = np.repeat(np.arange(n)[:, None], n, axis=1)
    np.fill_diagonal(pred, -1)
    # the unchunked arc gather would be n x 2m floats, about 1 GB
    assert n * 2 * graph.m * 8 > 1e9
    tracemalloc.start()
    try:
        assert certify(graph, dist, pred) == 0.0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 << 20, f"peak {peak / 2**20:.1f} MiB"
