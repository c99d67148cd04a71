"""Step-5 ``local_closure``: numpy Floyd-Warshall vs the Python oracle.

The numpy closure must be *bit-identical* to the retained triple-loop
oracle on every input the driver can produce — including unreachable
pairs (inf labels), zero-weight ties decided by hops/tie-break planes,
and adversarially large weights (where the int64 encoding must either
stay exact or refuse, and ``local_closure`` falls back to the oracle).
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.apsp import three_phase_apsp
from repro.apsp import closure
from repro.apsp.closure import (
    ClosureOverflow,
    _numpy_closure,
    _python_closure,
    local_closure,
)
from repro.apsp.driver import default_h
from repro.congest.network import CongestNetwork
from repro.graphs import erdos_renyi, layered_digraph
from repro.graphs.reference import h_hop_labels
from repro.graphs.spec import INF_COST, quantize_weight


# ---------------------------------------------------------------------------
# helpers


def driver_inputs(graph, q_nodes, h):
    """Build (entries, lab_to) exactly as the 3-phase driver does."""
    lab_to = {}
    for c in q_nodes:
        lab_to[c] = h_hop_labels(graph, c, h, reverse=True)
    entries = []
    for ci, c in enumerate(q_nodes):
        for cj, cp in enumerate(q_nodes):
            lab = lab_to[cp][c]
            if c != cp and lab != INF_COST:
                entries.append((ci, cj) + lab)
    return entries, lab_to


def random_instance(seed, n=None, q=None, zero_frac=0.0, wmax=9.0):
    rng = random.Random(seed)
    n = n if n is not None else rng.randint(6, 20)
    graph = erdos_renyi(
        n,
        p=rng.uniform(0.15, 0.5),
        seed=seed,
        directed=rng.random() < 0.5,
        wrange=(0.0 if zero_frac else 0.25, wmax),
        zero_frac=zero_frac,
    )
    q = q if q is not None else rng.randint(1, max(1, n // 2))
    q_nodes = sorted(rng.sample(range(n), q))
    h = rng.randint(1, 4)
    entries, lab_to = driver_inputs(graph, q_nodes, h)
    return graph, q_nodes, entries, lab_to


def assert_backends_agree(q_nodes, entries, lab_to, n):
    ref = _python_closure(q_nodes, entries, lab_to, n)
    out = _numpy_closure(q_nodes, entries, lab_to, n)
    assert out == ref  # bit-identical: same floats, hops, tie-breaks
    return ref


# ---------------------------------------------------------------------------
# equivalence on random weighted digraphs


#: Blocker counts the driver reaches at moderate n, where each
#: Floyd-Warshall row and column is reused across many relaxations.
DRIVER_SIZED = {"n": 96, "q": 48}


@pytest.mark.parametrize(
    "seed, size",
    [pytest.param(seed, {}, id=str(seed)) for seed in range(12)]
    + [pytest.param(12, DRIVER_SIZED, id="n96-q48")],
)
def test_numpy_matches_oracle_on_random_digraphs(seed, size):
    graph, q_nodes, entries, lab_to = random_instance(seed, **size)
    assert_backends_agree(q_nodes, entries, lab_to, graph.n)


@pytest.mark.parametrize(
    "seed, size",
    [pytest.param(seed, {}, id=str(seed)) for seed in (3, 5)]
    + [pytest.param(14, DRIVER_SIZED, id="n96-q48")],
)
def test_numpy_matches_oracle_with_zero_weight_ties(seed, size):
    # 40% zero-weight edges: equal-weight paths force the hops and
    # tie-break planes to decide, the hardest case for lexicographic
    # vectorization.
    graph, q_nodes, entries, lab_to = random_instance(
        seed, zero_frac=0.4, **size
    )
    assert_backends_agree(q_nodes, entries, lab_to, graph.n)


def test_numpy_matches_oracle_with_unreachable_pairs():
    # Two disjoint halves: every cross-half label is INF_COST and must
    # stay absent from the result.
    rng = random.Random(9)
    half = erdos_renyi(8, p=0.5, seed=9)
    edges = list(half.edges) + [
        (u + 8, v + 8, w) for (u, v, w) in half.edges
    ]
    from repro.graphs.spec import Graph

    graph = Graph(16, edges, seed=9)
    q_nodes = sorted(rng.sample(range(16), 6))
    entries, lab_to = driver_inputs(graph, q_nodes, 3)
    values = assert_backends_agree(q_nodes, entries, lab_to, graph.n)
    for x in range(8):
        for c in q_nodes:
            if c >= 8:
                assert c not in values[x]


def test_numpy_matches_oracle_on_sparse_dag_with_unreachable_pairs():
    # Driver-sized and directed: edges only run from one layer of 8 nodes
    # to the next, so no node reaches a blocker in an earlier layer.
    graph = layered_digraph(12, 8, seed=13, p=0.3)
    q_nodes = sorted(random.Random(13).sample(range(graph.n), 48))
    entries, lab_to = driver_inputs(graph, q_nodes, 4)
    values = assert_backends_agree(q_nodes, entries, lab_to, graph.n)
    for x in range(graph.n):
        for c in q_nodes:
            if c // 8 < x // 8:
                assert c not in values[x]


def test_empty_and_singleton_blocker_sets():
    graph, _, _, _ = random_instance(2, n=8)
    h = 2
    assert local_closure([], [], {}, graph.n) == [{} for _ in range(graph.n)]
    entries, lab_to = driver_inputs(graph, [3], h)
    assert_backends_agree([3], entries, lab_to, graph.n)


# ---------------------------------------------------------------------------
# overflow edges


def test_overflow_weights_raise_on_explicit_numpy_backend():
    # Weights near 2^45 grid ticks: 2 * (q + 1) * max exceeds the int64
    # safety margin, so the exact encoding must refuse.
    big = float(1 << 45)
    lab_to = {0: [(big, 1, 1), (0.0, 0, 0)], 1: [(big, 1, 1), (big, 1, 1)]}
    entries = [(0, 1, big, 1, 1), (1, 0, big, 1, 1)]
    with pytest.raises(ClosureOverflow):
        _numpy_closure([0, 1], entries, lab_to, 2)


def test_overflow_weights_fall_back_to_oracle_on_auto():
    # local_closure picks the oracle on its own when the product refuses.
    big = quantize_weight(float(1 << 45))
    lab_to = {0: [(big, 1, 1), (0.0, 0, 0)], 1: [(big, 1, 1), (big, 1, 1)]}
    entries = [(0, 1, big, 1, 1), (1, 0, big, 1, 1)]
    out = local_closure([0, 1], entries, lab_to, 2)
    assert out == _python_closure([0, 1], entries, lab_to, 2)
    assert out[0][0][0] == big  # the huge weight survives exactly


def test_large_but_safe_weights_stay_exact():
    # Just inside the refusal margin: must still match the oracle bit for
    # bit (sums of quantized multiples are exact in both domains).
    graph, q_nodes, entries, lab_to = random_instance(
        31, n=10, q=4, wmax=float(1 << 30)
    )
    assert_backends_agree(q_nodes, entries, lab_to, graph.n)


@pytest.mark.parametrize("seed", range(25))
def test_float53_boundary_weights_agree(seed):
    # Tick counts near 2^52: the oracle's float sums would round here
    # while int64 stays exact, so the safety limit must push these onto
    # the oracle — either way the result must equal the oracle's.
    graph, q_nodes, entries, lab_to = random_instance(
        seed, n=10, q=4, wmax=float(1 << 36)
    )
    ref = _python_closure(q_nodes, entries, lab_to, graph.n)
    assert local_closure(q_nodes, entries, lab_to, graph.n) == ref


# ---------------------------------------------------------------------------
# hypothesis property test (skipped when hypothesis is not installed)

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - CI installs numpy+pytest only
    HAVE_HYPOTHESIS = False

if HAVE_HYPOTHESIS:

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        zero=st.sampled_from([0.0, 0.3]),
        wmax=st.sampled_from([1.0, 7.25, 1000.0]),
    )
    def test_property_numpy_equals_oracle(seed, zero, wmax):
        graph, q_nodes, entries, lab_to = random_instance(
            seed, zero_frac=zero, wmax=wmax
        )
        assert_backends_agree(q_nodes, entries, lab_to, graph.n)


# ---------------------------------------------------------------------------
# end-to-end: the driver's records are identical on the oracle fallback


@pytest.mark.parametrize("directed", [False, True])
def test_three_phase_records_identical_across_backends(directed, monkeypatch):
    graph = erdos_renyi(24, p=0.2, seed=4, directed=directed)
    h = default_h(graph.n)
    fast = three_phase_apsp(CongestNetwork(graph), graph, h)

    calls = []

    def overflow(*args, **kwargs):
        calls.append(args)
        raise ClosureOverflow("forced onto the oracle")

    monkeypatch.setattr(closure, "_numpy_closure", overflow)
    oracle = three_phase_apsp(CongestNetwork(graph), graph, h)
    assert calls  # Step 5 ran, and on the oracle
    assert fast.dist.tobytes() == oracle.dist.tobytes()
    assert np.array_equal(fast.pred, oracle.pred)
    assert fast.meta == oracle.meta
    assert [(label, s.rounds, s.messages) for label, s in fast.log] == [
        (label, s.rounds, s.messages) for label, s in oracle.log
    ]
    fast.verify(graph)
