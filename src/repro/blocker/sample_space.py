"""Pairwise-independent sample spaces (Appendix A.3 / Luby [17, 18]).

Two families:

* :class:`XorSampleSpace` — the construction Appendix A.3 describes
  verbatim: sample points are the ``2^l`` bit strings ``w`` of length ``l``
  (``2n < 2^l <= 4n``); node ``v`` maps to the odd ``l``-bit index
  ``2v + 1`` and ``X_v(w) = \\bigoplus_k v_k w_k``.  The variables are
  uniform (bias exactly 1/2) and pairwise independent.  The paper uses this
  family generically; it realizes selection probability 1/2 only.

* :class:`AffineSampleSpace` — substitution S1 (see "Departures from the
  paper" in docs/REPRODUCTION.md): the textbook biased
  pairwise-independent family ``X_v = 1`` iff
  ``(a v + b) mod P < T`` with ``P`` the smallest prime ``>= 2n`` and
  ``T = round(p P)``.  For distinct ids ``u, v < n <= P`` the pair
  ``(h(u), h(v))`` is uniform on ``Z_P^2``, giving *exact* pairwise
  independence with bias ``T / P`` (within ``1/P`` of the requested ``p``,
  the selection probability ``\\delta/(1+\\epsilon)^j`` of Algorithm 2
  Step 12).  The space has ``P^2 = O(n^2)`` points; the derandomized
  selector (Algorithm 7) scans it in enumeration-ordered batches of ``n``
  points — since a >= 1/8 fraction of points is good (Lemma 3.8), the first
  batch succeeds in all but pathological runs, preserving the ``O(|S|h+n)``
  round shape of Lemma 3.12 (measured in experiment F6).

Both classes expose numpy-vectorized batch evaluation; the per-node local
computations of Algorithms 7/11/12 use them (local computation is free in
CONGEST, and the hpc guides call for vectorizing exactly these hot loops).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np


def first_prime_at_least(k: int) -> int:
    """Smallest prime ``>= k`` (trial division; inputs here are O(n))."""
    if k <= 2:
        return 2
    c = k | 1
    while True:
        d, is_prime = 3, c % 2 == 1
        while is_prime and d * d <= c:
            if c % d == 0:
                is_prime = False
            d += 2
        if is_prime:
            return c
        c += 2


class XorSampleSpace:
    """The Appendix A.3 space: uniform pairwise-independent bits.

    ``size = 2^l`` with ``2n < 2^l <= 4n``.  Node ``v`` uses the index
    ``2v + 1`` (an ``l``-bit string whose last bit is 1, as A.3 requires),
    and ``X_v(w) = parity(index(v) AND w)``.
    """

    def __init__(self, n: int) -> None:
        if n < 1:
            raise ValueError("n must be >= 1")
        self.n = n
        l = 1
        while (1 << l) <= 2 * n:
            l += 1
        self.l = l
        self.size = 1 << l
        if not (2 * n < self.size <= 4 * n):
            raise AssertionError("A.3 size window violated")

    def index(self, v: int) -> int:
        """Node ``v``'s l-bit vector (odd, as A.3 requires)."""
        if not 0 <= v < self.n:
            raise ValueError(f"node {v} outside 0..{self.n - 1}")
        return (v << 1) | 1

    def bit(self, mu: int, v: int) -> int:
        """``X_v`` at sample point ``mu``."""
        return bin(self.index(v) & mu).count("1") & 1

    def matrix(self, mus: Sequence[int], ids: Sequence[int]) -> np.ndarray:
        """Boolean matrix ``[len(mus), len(ids)]`` of memberships."""
        m = np.asarray(mus, dtype=np.uint64)[:, None]
        idx = np.asarray([self.index(v) for v in ids], dtype=np.uint64)[None, :]
        anded = m & idx
        out = np.zeros(anded.shape, dtype=np.uint64)
        for _ in range(self.l):
            out ^= anded & 1
            anded >>= np.uint64(1)
        return out.astype(bool)


class AffineSampleSpace:
    """Biased pairwise-independent space ``(a v + b) mod P < T``.

    Parameters
    ----------
    n:
        Number of node ids the space must distinguish (``P >= 2n > n``).
    p:
        Requested selection probability in ``(0, 1)``; realized bias is
        ``T/P`` with ``T = max(1, round(p P))``.
    """

    def __init__(self, n: int, p: float) -> None:
        if not 0.0 < p < 1.0:
            raise ValueError(f"selection probability {p} outside (0, 1)")
        self.n = n
        self.P = first_prime_at_least(max(2 * n, 3))
        self.T = max(1, round(p * self.P))
        self.requested_p = p
        self.size = self.P * self.P

    @property
    def bias(self) -> float:
        """The exact realized selection probability ``T/P``."""
        return self.T / self.P

    def point(self, mu: int) -> Tuple[int, int]:
        """Decode the enumeration index into the ``(a, b)`` coefficients."""
        if not 0 <= mu < self.size:
            raise ValueError(f"sample point {mu} outside the space")
        return divmod(mu, self.P)

    def selects(self, mu: int, v: int) -> bool:
        """Whether sample point ``mu`` puts node ``v`` into the set."""
        a, b = self.point(mu)
        return (a * v + b) % self.P < self.T

    def select_set(self, mu: int, ids: Sequence[int]) -> List[int]:
        """The set ``A`` at sample point ``mu`` restricted to ``ids``."""
        a, b = self.point(mu)
        return [v for v in ids if (a * v + b) % self.P < self.T]

    def matrix(self, mus: Sequence[int], ids: Sequence[int]) -> np.ndarray:
        """Boolean matrix ``[len(mus), len(ids)]`` of memberships."""
        m = np.asarray(mus, dtype=np.int64)
        a, b = np.divmod(m, self.P)
        idv = np.asarray(ids, dtype=np.int64)
        return (a[:, None] * idv[None, :] + b[:, None]) % self.P < self.T

    def batch(self, k: int, width: int) -> List[int]:
        """Enumeration-ordered batch ``k`` of up to ``width`` points."""
        lo = k * width
        if lo >= self.size:
            return []
        return list(range(lo, min(lo + width, self.size)))


__all__ = ["AffineSampleSpace", "XorSampleSpace", "first_prime_at_least"]
