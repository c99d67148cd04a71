"""Graph data structure and workload generators."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.graphs import (
    Graph,
    barabasi_albert,
    broom,
    complete_graph,
    erdos_renyi,
    grid2d,
    layered_digraph,
    path_graph,
    random_tree,
    ring_graph,
    star_of_paths,
)
from repro.graphs.spec import INF_COST, ZERO_COST, add_cost


# ---------------------------------------------------------------------------
# Graph class


def test_graph_basic_bookkeeping():
    g = Graph(4, [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 0.0)])
    assert g.n == 4 and g.m == 3
    assert not g.directed
    # Undirected: both orientations relaxable, neighbor sets symmetric.
    assert any(u == 0 for (u, _w, _t) in g.in_edges(1))
    assert 1 in g.und_neighbors(0) and 0 in g.und_neighbors(1)


def test_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        Graph(2, [(0, 0, 1.0)])  # self loop
    with pytest.raises(ValueError):
        Graph(2, [(0, 1, -1.0)])  # negative weight
    with pytest.raises(ValueError):
        Graph(2, [(0, 5, 1.0)])  # out of range
    with pytest.raises(ValueError):
        Graph(2, [(0, 1, 1.0), (1, 0, 2.0)])  # duplicate undirected edge


def test_directed_duplicate_allows_antiparallel():
    g = Graph(2, [(0, 1, 1.0), (1, 0, 2.0)], directed=True)
    assert g.m == 2
    with pytest.raises(ValueError):
        Graph(2, [(0, 1, 1.0), (0, 1, 2.0)], directed=True)


def test_directed_communication_is_undirected():
    g = Graph(3, [(0, 1, 1.0), (1, 2, 1.0)], directed=True)
    assert 0 in g.und_neighbors(1) and 2 in g.und_neighbors(1)
    # Relaxation edges stay directed.
    assert [u for (u, _w, _t) in g.out_edges(2)] == []


def test_reverse_digraph():
    g = Graph(3, [(0, 1, 1.5), (1, 2, 2.5)], directed=True, seed=9)
    r = g.reverse()
    assert {(u, v) for (u, v, _w) in r.edges} == {(1, 0), (2, 1)}
    # Tie-break keys survive reversal (same undirected identity).
    assert r.tiebreak(1, 0) == g.tiebreak(0, 1)
    # Reversing an undirected graph is the identity.
    u = Graph(2, [(0, 1, 1.0)])
    assert u.reverse() is u


def test_tiebreak_deterministic_and_odd():
    g1 = Graph(4, [(0, 1, 1.0), (2, 3, 1.0)], seed=5)
    g2 = Graph(4, [(0, 1, 1.0), (2, 3, 1.0)], seed=5)
    assert g1.tiebreak(0, 1) == g2.tiebreak(0, 1)
    assert g1.tiebreak(0, 1) % 2 == 1  # keys are odd, hence nonzero
    g3 = Graph(4, [(0, 1, 1.0), (2, 3, 1.0)], seed=6)
    assert g1.tiebreak(0, 1) != g3.tiebreak(0, 1)


def test_connectivity_and_diameter():
    g = path_graph(5)
    assert g.is_connected()
    assert g.und_diameter() == 4
    disconnected = Graph(4, [(0, 1, 1.0), (2, 3, 1.0)])
    assert not disconnected.is_connected()


def test_cost_arithmetic():
    c = add_cost(ZERO_COST, 2.5, 7)
    assert c == (2.5, 1, 7)
    c = add_cost(c, 0.0, 3)
    assert c == (2.5, 2, 10)
    assert c < INF_COST


# ---------------------------------------------------------------------------
# generators


ALL_GENERATORS = [
    lambda n, seed: erdos_renyi(n, p=0.2, seed=seed),
    lambda n, seed: erdos_renyi(n, p=0.3, seed=seed, directed=True),
    lambda n, seed: path_graph(n, seed=seed),
    lambda n, seed: ring_graph(n, seed=seed),
    lambda n, seed: complete_graph(n, seed=seed),
    lambda n, seed: grid2d(3, max(1, n // 3), seed=seed),
    lambda n, seed: random_tree(n, seed=seed),
    lambda n, seed: barabasi_albert(n, seed=seed),
    lambda n, seed: star_of_paths(3, max(1, n // 3), seed=seed),
    lambda n, seed: broom(max(2, n // 2), max(1, n // 2), seed=seed),
    lambda n, seed: layered_digraph(3, max(1, n // 3), seed=seed),
]


@pytest.mark.parametrize("gen", ALL_GENERATORS)
@pytest.mark.parametrize("n,seed", [(6, 0), (13, 1), (24, 42)])
def test_generators_connected_and_valid(gen, n, seed):
    g = gen(n, seed)
    assert g.is_connected(), f"{g.name} disconnected"
    assert all(w >= 0 for (_u, _v, w) in g.edges)
    assert g.n >= 1


@pytest.mark.parametrize("gen", ALL_GENERATORS)
def test_generators_deterministic(gen):
    a, b = gen(12, 7), gen(12, 7)
    assert a.edges == b.edges
    assert a.n == b.n


def test_erdos_renyi_density_monotone():
    sparse = erdos_renyi(30, p=0.05, seed=1)
    dense = erdos_renyi(30, p=0.6, seed=1)
    assert dense.m > sparse.m


def test_zero_fraction_weights():
    g = erdos_renyi(30, p=0.3, seed=2, zero_frac=1.0)
    assert all(w == 0.0 for (_u, _v, w) in g.edges)
    with pytest.raises(ValueError):
        erdos_renyi(10, seed=0, zero_frac=1.5)


def test_integer_weights():
    g = erdos_renyi(20, p=0.3, seed=2, wrange=(1, 9), integer=True)
    assert all(w == int(w) and 1 <= w <= 9 for (_u, _v, w) in g.edges)


def test_star_of_paths_shape():
    g = star_of_paths(arms=3, arm_len=4)
    assert g.n == 13
    assert len(g.und_neighbors(0)) == 3  # hub degree = arms


def test_broom_shape():
    g = broom(handle_len=5, brush=7)
    assert g.n == 12
    assert len(g.und_neighbors(4)) == 1 + 7  # hub: handle + brush


def test_layered_digraph_shape():
    g = layered_digraph(4, 3, seed=0)
    assert g.n == 12 and g.directed
    # All edges go exactly one layer forward.
    for u, v, _w in g.edges:
        assert v // 3 == u // 3 + 1


@given(n=st.integers(3, 40), seed=st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_erdos_renyi_always_connected(n, seed):
    assert erdos_renyi(n, p=0.05, seed=seed).is_connected()


@given(n=st.integers(2, 40), seed=st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_random_tree_is_tree(n, seed):
    g = random_tree(n, seed=seed)
    assert g.m == n - 1 and g.is_connected()


# ---------------------------------------------------------------------------
# newer generator families


def test_random_geometric_euclidean_weights():
    from repro.graphs import random_geometric

    g = random_geometric(30, seed=4)
    assert g.is_connected()
    # Default weights are Euclidean distances in the unit square.
    assert all(0.0 <= w <= 2.0**0.5 + 1e-9 for (_u, _v, w) in g.edges)


def test_random_geometric_custom_weights():
    from repro.graphs import random_geometric

    g = random_geometric(20, seed=4, wrange=(5.0, 6.0))
    assert all(5.0 <= w <= 6.0 for (_u, _v, w) in g.edges)


def test_random_geometric_radius_controls_density():
    from repro.graphs import random_geometric

    sparse = random_geometric(40, radius=0.05, seed=7)
    dense = random_geometric(40, radius=0.5, seed=7)
    assert dense.m > sparse.m
    assert sparse.is_connected()  # backbone holds below the threshold


def test_watts_strogatz_shape():
    from repro.graphs import watts_strogatz

    g = watts_strogatz(30, k=4, beta=0.0, seed=1)
    assert g.is_connected()
    # beta = 0: the pure ring lattice, m = n * k / 2.
    assert g.m == 30 * 2
    rewired = watts_strogatz(30, k=4, beta=0.9, seed=1)
    assert rewired.is_connected()
    # Heavy rewiring shrinks the diameter below the lattice's.
    assert rewired.und_diameter() <= g.und_diameter()


def test_caterpillar_shape():
    from repro.graphs import caterpillar

    g = caterpillar(spine_len=5, legs_per_node=3, seed=0)
    assert g.n == 5 + 15 and g.m == 4 + 15
    assert g.is_connected()
    # Every spine node carries its legs.
    for s in range(5):
        legs = [u for u in g.und_neighbors(s) if u >= 5]
        assert len(legs) == 3


@given(n=st.integers(4, 40), seed=st.integers(0, 2000))
@settings(max_examples=20, deadline=None)
def test_new_generators_connected_property(n, seed):
    from repro.graphs import caterpillar, random_geometric, watts_strogatz

    assert random_geometric(n, seed=seed).is_connected()
    assert watts_strogatz(n, seed=seed).is_connected()
    assert caterpillar(max(2, n // 3), 2, seed=seed).is_connected()


def test_apsp_exact_on_new_families():
    from repro.congest import CongestNetwork
    from repro.graphs import caterpillar, random_geometric, watts_strogatz
    from repro.apsp import deterministic_apsp

    for g in (
        random_geometric(18, seed=3),
        watts_strogatz(18, seed=3),
        caterpillar(6, 2, seed=3),
    ):
        net = CongestNetwork(g)
        result = deterministic_apsp(net, g)
        result.verify(g)


# ---------------------------------------------------------------------------
# exact dyadic weight arithmetic


def test_weights_quantized_to_dyadic_grid():
    from repro.graphs.spec import WEIGHT_QUANTUM, quantize_weight

    g = Graph(2, [(0, 1, 0.1)])
    (u, v, w) = g.edges[0]
    assert w == quantize_weight(0.1)
    assert (w / WEIGHT_QUANTUM) == int(w / WEIGHT_QUANTUM)
    # Dyadic inputs survive untouched.
    assert quantize_weight(2.5) == 2.5
    assert quantize_weight(0.0) == 0.0


@given(
    weights=st.lists(st.floats(0.0, 100.0), min_size=2, max_size=200),
    seed=st.integers(0, 100),
)
@settings(max_examples=30, deadline=None)
def test_quantized_sums_are_order_independent(weights, seed):
    """The property the quantization buys: any summation order of any
    multiset of quantized weights gives the identical float."""
    import random as _random

    from repro.graphs.spec import quantize_weight

    qs = [quantize_weight(w) for w in weights]
    forward = 0.0
    for w in qs:
        forward += w
    backward = 0.0
    for w in reversed(qs):
        backward += w
    shuffled = list(qs)
    _random.Random(seed).shuffle(shuffled)
    mixed = 0.0
    for w in shuffled:
        mixed += w
    assert forward == backward == mixed  # bit-for-bit
