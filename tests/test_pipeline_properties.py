"""Property-based tests of the round-robin pipeline on random instances.

Hypothesis generates random graphs, sink sets, prunings and value
assignments; the pipeline must always deliver exactly the live values,
within the frame-style round budget, without ever exceeding per-edge
bandwidth (the strict engine enforces that as a side effect).
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.congest import CongestNetwork
from repro.csssp import build_csssp
from repro.graphs import erdos_renyi
from repro.pipeline.short_range import round_robin_pipeline


@given(
    n=st.integers(6, 24),
    seed=st.integers(0, 500),
    stride=st.integers(2, 6),
    data=st.data(),
)
@settings(max_examples=20, deadline=None)
def test_round_robin_delivery_property(n, seed, stride, data):
    g = erdos_renyi(n, p=0.3, seed=seed)
    net = CongestNetwork(g)
    sinks = sorted(range(0, n, stride))
    cq, _ = build_csssp(net, g, sinks, n, orientation="in")

    # Random pruning: detach a few random subtrees.
    n_prunes = data.draw(st.integers(0, 3))
    for _ in range(n_prunes):
        c = data.draw(st.sampled_from(sinks))
        v = data.draw(st.integers(0, n - 1))
        t = cq.trees[c]
        if t.live(v) and t.depth[v] >= 1:
            t.mark_removed(v)

    values = [
        {
            c: (float(x * 31 + c), 0, x * 1000 + c)
            for c in sinks
            if cq.trees[c].live(x) and x != c
        }
        for x in range(n)
    ]
    delivered, stats, trace = round_robin_pipeline(net, cq, values)

    # Exactly the live values arrive, bit for bit.
    for c in sinks:
        t = cq.trees[c]
        expect = {
            x: values[x][c]
            for x in range(n)
            if t.live(x) and x != c and c in values[x]
        }
        assert delivered[c] == expect

    # Frame-shape budget: rounds <= max load + max depth + |Q| slack.
    if trace.messages:
        depth = max(max(t.depth) for t in cq.trees.values())
        assert stats.rounds <= trace.max_forwarded + depth + len(sinks) + 1
    else:
        assert stats.rounds == 0


@given(n=st.integers(6, 20), seed=st.integers(0, 300))
@settings(max_examples=15, deadline=None)
def test_round_robin_message_conservation(n, seed):
    """Total messages = sum over values of their tree depth (no value is
    duplicated, dropped, or rerouted)."""
    g = erdos_renyi(n, p=0.35, seed=seed)
    net = CongestNetwork(g)
    sinks = [0, n // 2]
    cq, _ = build_csssp(net, g, sinks, n, orientation="in")
    values = [
        {c: (1.0, 0, 7) for c in sinks if cq.trees[c].live(x) and x != c}
        for x in range(n)
    ]
    _delivered, stats, _trace = round_robin_pipeline(net, cq, values)
    expect = sum(
        cq.trees[c].depth[x]
        for c in sinks
        for x in range(n)
        if cq.trees[c].live(x) and x != c
    )
    assert stats.messages == expect
