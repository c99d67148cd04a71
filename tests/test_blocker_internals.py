"""Unit tests of the selection-step machinery (Algorithm 2/2' internals)."""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.congest import CongestNetwork
from repro.congest.compressed import StackedTrees
from repro.csssp import build_csssp
from repro.blocker.derandomized import deterministic_blocker_set, sigma_vectors
from repro.blocker.randomized import (
    BlockerParams,
    SelectionContext,
    leaf_coverage_structures,
    local_sigma,
)
from repro.blocker.sample_space import AffineSampleSpace
from repro.blocker.setcover import _stage_of
from repro.blocker.helpers import collect_ancestors, compute_vi_counts
from repro.graphs import erdos_renyi
from repro.primitives import build_bfs_tree

from conftest import collection_of, graph_of


@given(value=st.floats(1.0, 1e6))
@settings(max_examples=60, deadline=None)
def test_stage_of_brackets_value(value):
    eps = 1.0 / 12.0
    i = _stage_of(value, eps)
    assert i >= 1
    assert (1.0 + eps) ** i > value
    assert i == 1 or (1.0 + eps) ** (i - 1) <= value


def test_stage_of_band_edges():
    eps = 1.0 / 12.0
    assert _stage_of(1.0, eps) == 1
    for i in (1, 5, 40):
        edge = (1.0 + eps) ** i
        got = _stage_of(edge, eps)
        assert (1.0 + eps) ** got > edge >= (1.0 + eps) ** (got - 1)


def test_local_sigma_counts_covered_paths():
    structures = [
        ((1, 2), True),
        ((3,), False),
        ((), True),  # no V_i members: never covered
        ((2, 4), True),
    ]
    assert local_sigma(structures, {2}) == (2, 2)
    assert local_sigma(structures, {3}) == (1, 0)
    assert local_sigma(structures, set()) == (0, 0)
    assert local_sigma(structures, {1, 3, 4}) == (3, 2)


def make_context(kind="er-dense", h=2):
    g = graph_of(kind)
    coll = collection_of(kind, h).copy()
    net = CongestNetwork(g)
    bfs, _ = build_bfs_tree(net)
    vi = sorted(v for v in range(g.n) if v % 2 == 0)
    counts, _ = compute_vi_counts(net, coll, set(vi))
    pi_leaf = counts.leaves(counts.beta >= 1)
    pij_leaf = counts.leaves(counts.beta >= 2)
    pij_size = sum(len(v) for v in pij_leaf.values())
    return g, coll, net, SelectionContext(
        net=net,
        coll=coll,
        bfs=bfs,
        vi=vi,
        vi_set=set(vi),
        stage_i=3,
        phase_j=2,
        pi_leaf=pi_leaf,
        pij_leaf=pij_leaf,
        pij_size=pij_size,
        params=BlockerParams(),
        rng=random.Random(0),
    )


def test_selection_probability_formula():
    _g, _coll, _net, ctx = make_context()
    expect = (1.0 / 12.0) / (1.0 + 1.0 / 12.0) ** 2
    assert ctx.selection_probability == pytest.approx(expect)


def test_good_set_thresholds_and_test():
    _g, _coll, _net, ctx = make_context()
    need_pi, need_pij = ctx.good_set_thresholds(a_size=2)
    eps, delta = 1.0 / 12.0, 1.0 / 12.0
    assert need_pi == pytest.approx(2 * (1 + eps) ** 3 * (1 - 3 * delta - eps))
    assert need_pij == pytest.approx(delta / 2 * ctx.pij_size)
    assert not ctx.is_good(0, 1e9, 1e9)  # empty sets never qualify
    assert ctx.is_good(1, need_pi / 2 + 1e9, need_pij + 1)
    assert not ctx.is_good(2, need_pi - 1e-6, need_pij + 1)


def test_leaf_coverage_structures_match_tree_paths():
    g, coll, net, ctx = make_context()
    anc, _ = collect_ancestors(net, coll)
    structures = leaf_coverage_structures(ctx, anc)
    total_pi = sum(len(s) for s in structures)
    assert total_pi == sum(len(v) for v in ctx.pi_leaf.values())
    for x, leaves in ctx.pi_leaf.items():
        pij = set(ctx.pij_leaf.get(x, ()))
        for leaf in leaves:
            path = coll.trees[x].path_from_root(leaf)[1:]
            expect = tuple(u for u in path if u in ctx.vi_set)
            assert (expect, leaf in pij) in structures[leaf]


def test_sigma_vectors_agree_with_local_sigma():
    g, coll, net, ctx = make_context()
    anc, _ = collect_ancestors(net, coll)
    structures = leaf_coverage_structures(ctx, anc)
    space = AffineSampleSpace(g.n, ctx.selection_probability)
    mus = space.batch(0, 16)
    member = space.matrix(mus, ctx.vi)
    vi_index = {v: j for j, v in enumerate(ctx.vi)}
    for v in range(g.n):
        s_pi, s_pij = sigma_vectors(structures[v], member, vi_index)
        for i, mu in enumerate(mus):
            selected = set(space.select_set(mu, ctx.vi))
            expect = local_sigma(structures[v], selected)
            assert (s_pi[i], s_pij[i]) == expect


def test_sigma_vectors_empty_structures():
    member = np.zeros((4, 3), dtype=bool)
    s_pi, s_pij = sigma_vectors([], member, {})
    assert (s_pi == 0).all() and (s_pij == 0).all()


def test_blocker_run_builds_one_stacked_state(monkeypatch):
    """Every compressed Step-2 phase reads the collection's one (T, n) stack.

    Score-ij runs on a different tree subset at every selection step; it
    selects rows of the one stack instead of stacking the subset again.
    """
    g = erdos_renyi(40, p=0.12, seed=1)
    net = CongestNetwork(g, compress=True)
    built = []
    init = StackedTrees.__init__

    def counting_init(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(StackedTrees, "__init__", counting_init)
    coll, _ = build_csssp(net, g, range(g.n), 3)
    result = deterministic_blocker_set(net, coll)
    assert result.selection_steps > 1
    assert built == [coll.stack]
    assert built[0].parent.shape == (len(coll.trees), g.n)
