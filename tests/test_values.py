"""Value triples (repro.pipeline.values)."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.graphs.reference import h_hop_labels
from repro.graphs.spec import INF_COST, ZERO_COST
from repro.pipeline.values import add_triples, is_finite, lex_min, reference_values

from conftest import graph_of, reference_of


def test_add_triples_componentwise():
    assert add_triples((1.0, 2, 3), (0.5, 1, 4)) == (1.5, 3, 7)
    assert add_triples(ZERO_COST, (2.0, 1, 9)) == (2.0, 1, 9)


def test_lex_min_and_is_finite():
    a, b = (1.0, 5, 9), (1.0, 4, 100)
    assert lex_min(a, b) == b  # fewer hops wins at equal weight
    assert lex_min(b, a) == b
    assert is_finite(a)
    assert not is_finite(INF_COST)


@pytest.mark.parametrize("kind", ["er-sparse", "er-directed", "er-zero", "path"])
def test_reference_values_match_apsp(kind):
    g = graph_of(kind)
    ref = reference_of(kind)
    q_nodes = sorted(range(0, g.n, 3))
    values = reference_values(g, q_nodes)
    for x in range(g.n):
        for c in q_nodes:
            if math.isfinite(ref[x, c]):
                assert values[x][c][0] == pytest.approx(ref[x, c])
            else:
                assert c not in values[x]


def test_reference_values_are_true_lex_labels():
    g = graph_of("er-sparse")
    q_nodes = [0, 5, 10]
    values = reference_values(g, q_nodes)
    for c in q_nodes:
        labels = h_hop_labels(g, c, g.n, reverse=True)
        for x in range(g.n):
            if labels[x] != INF_COST:
                assert values[x][c] == labels[x]


@given(
    a=st.tuples(st.floats(0, 100), st.integers(0, 10), st.integers(0, 1000)),
    b=st.tuples(st.floats(0, 100), st.integers(0, 10), st.integers(0, 1000)),
    c=st.tuples(st.floats(0, 100), st.integers(0, 10), st.integers(0, 1000)),
)
@settings(max_examples=40, deadline=None)
def test_triple_algebra_properties(a, b, c):
    # Addition is associative and commutative component-wise...
    ab_c = add_triples(add_triples(a, b), c)
    a_bc = add_triples(a, add_triples(b, c))
    assert ab_c == pytest.approx(a_bc)
    # ...and lex order is translation-monotone in each argument.
    if a <= b:
        assert add_triples(a, c) <= add_triples(b, c) or math.isclose(
            a[0] + c[0], b[0] + c[0]
        )
