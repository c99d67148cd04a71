"""Step 5 — the local min-plus closure over the blocker matrix.

After Step 4 every node holds the ``|Q| x |Q|`` matrix of ``h``-hop
blocker-to-blocker labels ``delta_h(c, c')``; Step 5 closes it under
min-plus (``M* = M^{|Q|-1}`` in the min-plus semiring) and combines it
with the Step-3 labels ``delta_h(x, c)`` to produce ``delta(x, c)`` for
every node ``x`` and blocker ``c``.  In CONGEST this is *free local
computation*, but in the simulator it was the wall-clock bottleneck for
``n`` beyond ~64: the Python triple loop costs ``O(q^3 + n q^2)`` tuple
comparisons.

:func:`local_closure` is the single entry point.  It runs a blocked
min-plus matrix product over three parallel ``int64`` planes (weight,
hops, tie-break), closed by repeated squaring.  Lexicographic order is
preserved exactly: quantized weights (see
:func:`repro.graphs.spec.quantize_weight`) are scaled to integers, so
integer sums match float sums bit for bit, and the reduction picks the
minimum plane-by-plane (weight, then hops, then tie-break).

The original triple-loop Floyd-Warshall over label triples
(:func:`_python_closure`) is kept as the oracle: the tests check the
product against it, and :func:`local_closure` falls back to it whenever
the integer encoding could stop being exact — at or above the int64
overflow margin on any plane, or the float64 2^53-tick margin on the
weight plane, since the oracle sums weights in floats (see
:func:`_safe_limit`).  Both produce **bit-identical** results.  In
practice the fallback only triggers on adversarial weights beyond
roughly ``2^30`` weight units (the dyadic grid puts ``2^16`` ticks per
unit, and partial sums grow by a factor up to ``2 (q + 1)``).
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.graphs.spec import Cost, INF_COST, WEIGHT_QUANTUM, ZERO_COST
from repro.pipeline.values import add_triples, is_finite

#: Integer "infinity" for the weight plane.  Finite entries are kept far
#: enough below it (``_SAFE_LIMIT``) that no candidate sum formed during
#: the closure can cross half of it, so a single ``>= _INF_I`` test
#: classifies every entry even after inf + finite additions.
_INF_I = 1 << 61

#: Cap on the largest finite input value per plane, relative to the
#: blocker count.  Closure paths concatenate at most ``q`` legs and
#: transient candidates sum two of them, so ``2 * (q + 1) * max_input``
#: must stay below ``_INF_I`` for int64 exactness (all three planes).
#: The *weight* plane is additionally bounded by float exactness: the
#: oracle sums leg weights in float64, so every partial sum must stay
#: below ``2^53`` ticks or the float side would round where the int side
#: does not.  Hops and tie-breaks are arbitrary-precision Python ints in
#: the oracle, so only the int64 bound applies to them.
def _safe_limit(q: int, float_exact: bool = False) -> int:
    return min(_INF_I, 1 << 53 if float_exact else _INF_I) // (2 * (q + 1))


class ClosureOverflow(ValueError):
    """Inputs too large for the exact int64 encoding of the numpy product."""


#: The (ci, cj, weight, hops, tiebreak) records broadcast in Step 4.
QQEntry = Tuple[int, int, float, int, int]


def local_closure(
    q_nodes: Sequence[int],
    entries: Iterable[QQEntry],
    lab_to: Mapping[int, Sequence[Cost]],
    n: int,
) -> List[Dict[int, Cost]]:
    """Step 5: close the blocker matrix and form ``delta(x, c)`` labels.

    Parameters
    ----------
    q_nodes:
        The sorted blocker set ``Q`` (node ids).
    entries:
        Step-4 broadcast records ``(ci, cj, weight, hops, tb)`` giving the
        label of ``delta_h(q_nodes[ci], q_nodes[cj])``; duplicates are
        resolved by lexicographic minimum, missing pairs are unreachable.
    lab_to:
        Step-3 results: ``lab_to[c][x]`` is the label ``delta_h(x, c)``
        (``INF_COST`` when ``x`` cannot reach ``c`` within ``h`` hops).
    n:
        Number of nodes.

    Returns
    -------
    ``values`` with ``values[x][c]`` the lexicographic label of the
    tie-broken shortest ``x -> c`` path through blockers (plus the direct
    ``delta_h`` term via the closure's zero diagonal); unreachable pairs
    are absent.  The numpy product and the oracle fallback return
    bit-identical structures.
    """
    if len(q_nodes) == 0:
        return [{} for _ in range(n)]
    entries = list(entries)  # the oracle fallback consumes them twice
    try:
        return _numpy_closure(q_nodes, entries, lab_to, n)
    except ClosureOverflow:
        return _python_closure(q_nodes, entries, lab_to, n)


# ----------------------------------------------------------------------
# The oracle: the original Python triple loop (exact reference).


def _python_closure(
    q_nodes: Sequence[int],
    entries: Iterable[QQEntry],
    lab_to: Mapping[int, Sequence[Cost]],
    n: int,
) -> List[Dict[int, Cost]]:
    """Floyd-Warshall over label triples — the retained Step-5 oracle."""
    q = len(q_nodes)
    values: List[Dict[int, Cost]] = [{} for _ in range(n)]
    m: List[List[Cost]] = [
        [ZERO_COST if i == j else INF_COST for j in range(q)] for i in range(q)
    ]
    for ci, cj, d, k, tb in entries:
        cand = (d, k, tb)
        if cand < m[ci][cj]:
            m[ci][cj] = cand
    for mid in range(q):  # Floyd-Warshall over label triples
        row_mid = m[mid]
        for i in range(q):
            via = m[i][mid]
            if not is_finite(via):
                continue
            row_i = m[i]
            for j in range(q):
                leg = row_mid[j]
                if leg[0] < math.inf:
                    cand = add_triples(via, leg)
                    if cand < row_i[j]:
                        row_i[j] = cand
    # delta(x, c) = min_{c1} delta_h(x, c1) + M*(c1, c)  (the direct
    # delta_h(x, c) term enters through the zero diagonal).
    for x in range(n):
        row = values[x]
        for c1 in range(q):
            first = lab_to[q_nodes[c1]][x]
            if not is_finite(first):
                continue
            closure_row = m[c1]
            for cj in range(q):
                leg = closure_row[cj]
                if leg[0] < math.inf:
                    cand = add_triples(first, leg)
                    c = q_nodes[cj]
                    if cand < row.get(c, INF_COST):
                        row[c] = cand
    return values


# ----------------------------------------------------------------------
# The numpy product: blocked lexicographic min-plus over int64 planes.

#: int64 ticks per weight unit (the dyadic grid of quantize_weight).
_SCALE = round(1.0 / WEIGHT_QUANTUM)

#: Target elements per candidate slab of the blocked product (~8 MB).
_BLOCK_BUDGET = 1 << 20

#: Sentinel for masked-out candidates in the hops / tie-break planes.
_BIG = np.iinfo(np.int64).max


def _encode_weights(w: np.ndarray) -> np.ndarray:
    """Exact int64 ticks for quantized float weights (inf -> ``_INF_I``)."""
    out = np.full(w.shape, _INF_I, dtype=np.int64)
    finite = np.isfinite(w)
    # Quantized weights are exact multiples of 2^-16, so scaling and
    # rounding recovers the integer tick count without error.
    ticks = np.rint(w[finite] * _SCALE)
    if ticks.size and ticks.max() >= float(_INF_I):
        # Would collide with the infinity sentinel (and _check_safe only
        # inspects values below it) — refuse before any information loss.
        raise ClosureOverflow(
            f"weight tick count {ticks.max():.3g} reaches the int64 "
            f"infinity sentinel"
        )
    out[finite] = ticks.astype(np.int64)
    return out


def _check_safe(q: int, weight_planes, int_planes) -> None:
    for float_exact, planes in ((True, weight_planes), (False, int_planes)):
        limit = _safe_limit(q, float_exact)
        for plane in planes:
            finite = plane[plane < _INF_I]
            if finite.size and int(finite.max()) > limit:
                raise ClosureOverflow(
                    f"closure input {int(finite.max())} exceeds the "
                    f"{'float/int64' if float_exact else 'int64'} safety "
                    f"limit {limit} for q={q}"
                )


def _lex_minplus(
    a: Tuple[np.ndarray, np.ndarray, np.ndarray],
    b: Tuple[np.ndarray, np.ndarray, np.ndarray],
    block: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Blocked min-plus product under lexicographic (w, hops, tb) order.

    ``C[i, j] = lexmin_k (A[i, k] + B[k, j])`` computed in slabs of the
    middle dimension so the ``(I, block, J)`` candidate tensors stay
    within a fixed memory budget.  Within a slab the lexicographic
    reduction is three masked plane-wise minima; slabs fold into the
    running best with a plane-wise lexicographic comparison.
    """
    aw, ah, at = a
    bw, bh, bt = b
    rows, mid = aw.shape
    cols = bw.shape[1]
    best_w = np.full((rows, cols), _INF_I, dtype=np.int64)
    best_h = np.zeros((rows, cols), dtype=np.int64)
    best_t = np.zeros((rows, cols), dtype=np.int64)
    for k0 in range(0, mid, block):
        k1 = min(mid, k0 + block)
        cw = aw[:, k0:k1, None] + bw[None, k0:k1, :]
        ch = ah[:, k0:k1, None] + bh[None, k0:k1, :]
        ct = at[:, k0:k1, None] + bt[None, k0:k1, :]
        # Lexicographic argmin over the slab axis, plane by plane.
        w = cw.min(axis=1)
        tie = cw == w[:, None, :]
        ch_m = np.where(tie, ch, _BIG)
        h = ch_m.min(axis=1)
        tie &= ch_m == h[:, None, :]
        t = np.where(tie, ct, _BIG).min(axis=1)
        # Fold the slab result into the running best, lexicographically.
        better = (w < best_w) | (
            (w == best_w) & ((h < best_h) | ((h == best_h) & (t < best_t)))
        )
        np.copyto(best_w, w, where=better)
        np.copyto(best_h, h, where=better)
        np.copyto(best_t, t, where=better)
    # Normalize unreachable entries to the canonical INF triple so that
    # equality with the oracle is exact.
    inf = best_w >= _INF_I
    best_w[inf] = _INF_I
    best_h[inf] = 0
    best_t[inf] = 0
    return best_w, best_h, best_t


def _numpy_closure(
    q_nodes: Sequence[int],
    entries: Iterable[QQEntry],
    lab_to: Mapping[int, Sequence[Cost]],
    n: int,
    block: Optional[int] = None,
) -> List[Dict[int, Cost]]:
    """Exact closure over int64 planes; raises :class:`ClosureOverflow`.

    ``block`` is the middle-dimension block size of the product (default:
    sized so one candidate slab stays around 8 MB); tests use tiny blocks
    to exercise the blocking logic.
    """
    q = len(q_nodes)

    # --- blocker matrix M (q x q planes) ------------------------------
    mw = np.full((q, q), _INF_I, dtype=np.int64)
    mh = np.zeros((q, q), dtype=np.int64)
    mt = np.zeros((q, q), dtype=np.int64)
    np.fill_diagonal(mw, 0)
    for ci, cj, d, k, tb in entries:
        if d == math.inf:  # pragma: no cover - drivers never broadcast inf
            continue
        wi = round(d * _SCALE)
        if wi >= _INF_I:
            raise ClosureOverflow(
                f"entry weight {d} reaches the int64 infinity sentinel"
            )
        cand = (wi, k, tb)
        if cand < (mw[ci, cj], mh[ci, cj], mt[ci, cj]):
            mw[ci, cj], mh[ci, cj], mt[ci, cj] = cand

    # --- Step-3 label matrix L (n x q planes) --------------------------
    lw = np.empty((n, q), dtype=np.float64)
    lh = np.empty((n, q), dtype=np.int64)
    lt = np.empty((n, q), dtype=np.int64)
    for j, c in enumerate(q_nodes):
        labs = lab_to[c]
        lw[:, j] = [lab[0] for lab in labs]
        lh[:, j] = [lab[1] for lab in labs]
        lt[:, j] = [lab[2] for lab in labs]
    lw_i = _encode_weights(lw)

    _check_safe(q, (mw, lw_i), (mh, mt, lh, lt))

    if block is None:
        block = max(1, _BLOCK_BUDGET // max(1, max(q * q, n * q)))

    # --- closure by repeated squaring ---------------------------------
    # With a zero diagonal, (I (+) M)^(2^s) covers all walks of at most
    # 2^s legs; shortest walks are simple (non-negative weights, hops
    # tie-break), so 2^s >= q - 1 legs suffice for the full closure.
    squarings = (q - 2).bit_length() if q >= 2 else 0
    closure = (mw, mh, mt)
    for _ in range(squarings):
        closure = _lex_minplus(closure, closure, block)

    # --- delta(x, c) = L (x) M* ---------------------------------------
    vw, vh, vt = _lex_minplus((lw_i, lh, lt), closure, block)

    # --- decode into the driver's dict-per-node form -------------------
    values: List[Dict[int, Cost]] = []
    reach = vw < _INF_I
    q_arr = list(q_nodes)
    # int64 ticks scale back to exact doubles: the tick count is far
    # below 2^53 (enforced by _check_safe) and the quantum is a power
    # of two, so the product is exactly representable.
    wf = vw * WEIGHT_QUANTUM
    for x in range(n):
        row: Dict[int, Cost] = {}
        for j in np.flatnonzero(reach[x]):
            row[q_arr[j]] = (wf[x, j], int(vh[x, j]), int(vt[x, j]))
        values.append(row)
    return values


__all__ = ["ClosureOverflow", "local_closure"]
