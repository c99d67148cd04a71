"""Pairwise-independent sample spaces: exact expectation counting.

Pairwise independence is checked *exhaustively*: over the whole sample
space, the empirical joint distribution of ``(X_u, X_v)`` must factor into
the marginals exactly — not approximately — because both families are
algebraically pairwise independent.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from repro.blocker.sample_space import (
    AffineSampleSpace,
    XorSampleSpace,
    first_prime_at_least,
)


def test_first_prime_at_least():
    assert first_prime_at_least(2) == 2
    assert first_prime_at_least(3) == 3
    assert first_prime_at_least(4) == 5
    assert first_prime_at_least(14) == 17
    assert first_prime_at_least(100) == 101
    assert first_prime_at_least(1) == 2


@given(k=st.integers(2, 5000))
@settings(max_examples=50, deadline=None)
def test_first_prime_is_prime_and_minimal(k):
    p = first_prime_at_least(k)
    assert p >= k
    assert all(p % d for d in range(2, int(p**0.5) + 1))
    for c in range(k, p):
        assert any(c % d == 0 for d in range(2, int(c**0.5) + 1)) or c < 2


# ---------------------------------------------------------------------------
# XOR / Luby space (Appendix A.3)


@pytest.mark.parametrize("n", [3, 7, 16])
def test_xor_space_size_window(n):
    space = XorSampleSpace(n)
    assert 2 * n < space.size <= 4 * n


def test_xor_space_uniform_marginals():
    space = XorSampleSpace(8)
    for v in range(8):
        ones = sum(space.bit(mu, v) for mu in range(space.size))
        assert ones * 2 == space.size  # exactly p = 1/2


def test_xor_space_pairwise_independent_exact():
    space = XorSampleSpace(6)
    size = space.size
    for u in range(6):
        for v in range(u + 1, 6):
            joint = [[0, 0], [0, 0]]
            for mu in range(size):
                joint[space.bit(mu, u)][space.bit(mu, v)] += 1
            for a in (0, 1):
                for b in (0, 1):
                    assert Fraction(joint[a][b], size) == Fraction(1, 4), (u, v)


def test_xor_matrix_agrees_with_bit():
    space = XorSampleSpace(9)
    mus = list(range(0, space.size, 3))
    ids = list(range(9))
    mat = space.matrix(mus, ids)
    for i, mu in enumerate(mus):
        for j, v in enumerate(ids):
            assert mat[i, j] == bool(space.bit(mu, v))


def test_xor_space_rejects_bad_input():
    with pytest.raises(ValueError):
        XorSampleSpace(0)
    space = XorSampleSpace(4)
    with pytest.raises(ValueError):
        space.index(4)


# ---------------------------------------------------------------------------
# Affine biased space (substitution S1)


@pytest.mark.parametrize("n,p", [(5, 0.25), (12, 1 / 13), (40, 0.07)])
def test_affine_space_bias_close_to_requested(n, p):
    space = AffineSampleSpace(n, p)
    assert abs(space.bias - p) <= 1.0 / space.P
    assert space.size == space.P**2


def test_affine_space_marginals_exact():
    space = AffineSampleSpace(6, 0.2)
    expect = Fraction(space.T, space.P)
    for v in range(6):
        ones = sum(space.selects(mu, v) for mu in range(space.size))
        assert Fraction(ones, space.size) == expect


def test_affine_space_pairwise_independent_exact():
    space = AffineSampleSpace(5, 0.3)
    size = space.size
    p1 = Fraction(space.T, space.P)
    for u in range(5):
        for v in range(u + 1, 5):
            both = sum(
                space.selects(mu, u) and space.selects(mu, v)
                for mu in range(size)
            )
            assert Fraction(both, size) == p1 * p1, (u, v)


def test_affine_tiny_probability_clamps_to_one_point():
    space = AffineSampleSpace(10, 1e-9)
    assert space.T == 1  # never zero: selection must stay possible


def test_affine_rejects_bad_probability():
    with pytest.raises(ValueError):
        AffineSampleSpace(5, 0.0)
    with pytest.raises(ValueError):
        AffineSampleSpace(5, 1.0)


def test_affine_point_roundtrip_and_bounds():
    space = AffineSampleSpace(7, 0.3)
    a, b = space.point(space.size - 1)
    assert (a, b) == (space.P - 1, space.P - 1)
    with pytest.raises(ValueError):
        space.point(space.size)
    with pytest.raises(ValueError):
        space.point(-1)


def test_affine_matrix_and_select_set_agree():
    space = AffineSampleSpace(9, 0.4)
    ids = [1, 3, 4, 8]
    mus = [0, 17, space.size - 1]
    mat = space.matrix(mus, ids)
    for i, mu in enumerate(mus):
        expect = space.select_set(mu, ids)
        got = [ids[j] for j in range(len(ids)) if mat[i, j]]
        assert got == expect


def test_affine_batches_partition_the_space():
    space = AffineSampleSpace(4, 0.3)
    seen = []
    k = 0
    while True:
        batch = space.batch(k, 10)
        if not batch:
            break
        seen.extend(batch)
        k += 1
    assert seen == list(range(space.size))


@given(n=st.integers(2, 30), pnum=st.integers(1, 11))
@settings(max_examples=25, deadline=None)
def test_affine_marginal_property(n, pnum):
    p = pnum / 12.0 / 12.0  # well inside (0, 1/12]
    space = AffineSampleSpace(n, p)
    v = n - 1
    # Marginal over a *row* of the space (fixed a): exactly T points per row.
    a = 3 % space.P
    ones = sum(
        space.selects(a * space.P + b, v) for b in range(space.P)
    )
    assert ones == space.T
