"""Step 5 — the local min-plus closure over the blocker matrix.

After Step 4 every node holds the ``|Q| x |Q|`` matrix of ``h``-hop
blocker-to-blocker labels ``delta_h(c, c')``; Step 5 closes it under
min-plus (``M* = M^{|Q|-1}`` in the min-plus semiring) and combines it
with the Step-3 labels ``delta_h(x, c)`` to produce ``delta(x, c)`` for
every node ``x`` and blocker ``c``.  In CONGEST this is *free local
computation*, but in the simulator it was the wall-clock bottleneck for
``n`` beyond ~64: the Python triple loop costs ``O(q^3 + n q^2)`` tuple
comparisons.

:func:`local_closure` is the single entry point.  It runs Floyd-Warshall
over three stacked ``int64`` planes (weight, hops, tie-break): ``q``
rank-1 relaxations close ``M``, and ``q`` more fold the Step-3 labels
through ``M*``.  Labels add component-wise and their lexicographic order
is translation-invariant, so every relaxation is a plane-wise sum and one
lexicographic comparison (weight, then hops, then tie-break).  The
arithmetic is exact: quantized weights (see
:func:`repro.graphs.spec.quantize_weight`) are scaled to integers, so
integer sums match float sums bit for bit.

The original triple-loop Floyd-Warshall over label triples
(:func:`_python_closure`) is kept as the oracle: the tests check the
numpy closure against it, and :func:`local_closure` falls back to it whenever
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
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

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
    """Inputs too large for the exact int64 encoding of the numpy closure."""


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
    are absent.  The numpy closure and the oracle fallback return
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
# The numpy closure: lexicographic Floyd-Warshall over int64 planes.

#: int64 ticks per weight unit (the dyadic grid of quantize_weight).
_SCALE = round(1.0 / WEIGHT_QUANTUM)


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


def _relax(best: np.ndarray, col: np.ndarray, row: np.ndarray) -> None:
    """Fold ``col[:, :, None] + row[:, None, :]`` into ``best`` where lex-smaller.

    ``best`` stacks the (weight, hops, tie-break) planes as ``(3, I, J)``;
    ``col`` is ``(3, I)`` and ``row`` is ``(3, J)``.  One rank-1
    lexicographic relaxation, in place.  The candidate is summed before
    ``best`` is written, so ``col`` and ``row`` may be views of ``best``.
    A sum that touches an infinite weight stays at or above ``_INF_I``
    with non-negative hops and tie-breaks, so it never beats a finite
    entry or the canonical INF triple ``(_INF_I, 0, 0)``.
    """
    cw, ch, ct = cand = col[:, :, None] + row[:, None, :]
    bw, bh, bt = best
    better = (cw < bw) | ((cw == bw) & ((ch < bh) | ((ch == bh) & (ct < bt))))
    np.copyto(best, cand, where=better)


def _numpy_closure(
    q_nodes: Sequence[int],
    entries: Iterable[QQEntry],
    lab_to: Mapping[int, Sequence[Cost]],
    n: int,
) -> List[Dict[int, Cost]]:
    """Exact closure over int64 planes; raises :class:`ClosureOverflow`."""
    q = len(q_nodes)

    # --- blocker matrix M ((3, q, q) planes) --------------------------
    m = np.zeros((3, q, q), dtype=np.int64)
    m[0] = _INF_I
    np.fill_diagonal(m[0], 0)
    for ci, cj, d, k, tb in entries:
        if d == math.inf:  # pragma: no cover - drivers never broadcast inf
            continue
        wi = round(d * _SCALE)
        if wi >= _INF_I:
            raise ClosureOverflow(
                f"entry weight {d} reaches the int64 infinity sentinel"
            )
        cand = (wi, k, tb)
        if cand < tuple(m[:, ci, cj]):
            m[:, ci, cj] = cand

    # --- Step-3 label matrix L ((3, n, q) planes) ----------------------
    lw = np.empty((n, q), dtype=np.float64)
    labels = np.empty((3, n, q), dtype=np.int64)
    for j, c in enumerate(q_nodes):
        labs = lab_to[c]
        lw[:, j] = [t[0] for t in labs]
        labels[1, :, j] = [t[1] for t in labs]
        labels[2, :, j] = [t[2] for t in labs]
    labels[0] = _encode_weights(lw)

    _check_safe(q, (m[0], labels[0]), (m[1], m[2], labels[1], labels[2]))

    # --- closure M*: Floyd-Warshall, one relaxation per blocker -------
    for k in range(q):
        _relax(m, m[:, :, k], m[:, k])

    # --- delta(x, c) = lexmin_k L(x, k) + M*(k, c) ---------------------
    v = np.zeros((3, n, q), dtype=np.int64)
    v[0] = _INF_I
    for k in range(q):
        _relax(v, labels[:, :, k], m[:, k])
    vw, vh, vt = v

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
