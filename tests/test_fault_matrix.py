"""Differential fault matrix: zero-fault ≡ fault-free, traces replay exactly.

The fault axis is only trustworthy if two identities hold on every
family and every phase of the pipeline: a zero :class:`FaultPlan` must
be *bit-identical* to running with no plan at all (results, rounds,
messages and per-node accounting), and a recorded
:class:`FaultTrace` must reproduce its run exactly — both by re-seeding
the PRNG plan and by replaying the trace through an explicit decision
table (:meth:`FaultPlan.from_trace`), including runs that end in a
deterministic failure.

A fast subset (two families, one seed) runs in tier-1; the full
family x seed x model matrix carries the ``slow`` marker and runs in
the non-blocking CI equivalence job (``pytest -m slow``).
"""

from __future__ import annotations

import pytest

from repro.apsp import deterministic_apsp, naive_bf_apsp
from repro.congest.faults import FAULT_MODELS, FaultPlan
from repro.congest.network import CongestNetwork
from repro.experiments.registry import make_graph

FAST_FAMILIES = ["er", "grid"]
FULL_FAMILIES = ["er", "er-directed", "ws", "grid", "star", "path", "ring",
                 "complete", "ba"]
FAST_SEEDS = [1]
FULL_SEEDS = [1, 2, 3]
MODELS = ["drop", "duplicate", "delay", "crash", "mixed"]


def cases(sizes=(17,)):
    """family x seed x n params; non-fast combinations carry ``slow``."""
    out = []
    for family in FULL_FAMILIES:
        for seed in FULL_SEEDS:
            for n in sizes:
                fast = family in FAST_FAMILIES and seed in FAST_SEEDS
                marks = () if fast else (pytest.mark.slow,)
                out.append(pytest.param(family, seed, n, marks=marks,
                                        id=f"{family}-s{seed}-n{n}"))
    return out


def assert_stats_equal(a, b, what=""):
    assert a.rounds == b.rounds, f"{what}: rounds diverged"
    assert a.messages == b.messages, f"{what}: messages diverged"
    assert a.per_node_sent == b.per_node_sent, (
        f"{what}: per-node sends diverged"
    )
    assert a.max_node_congestion == b.max_node_congestion


def run_faulted(graph, plan):
    """One faulted naive-BF APSP: ``(net, dist bytes or None, error name)``.

    A faulted run may legitimately end in a deterministic failure (the
    capped ``HardCapExceeded``, a protocol-internal assertion); replay
    identity then means the *same* failure after the same accounting.
    """
    net = CongestNetwork(graph, strict=False, faults=plan)
    try:
        result = naive_bf_apsp(net, graph)
        return net, result.dist.tobytes(), None
    except Exception as exc:
        return net, None, type(exc).__name__


@pytest.mark.parametrize("family,seed,n", cases())
def test_zero_fault_plan_bit_identical_to_no_plan(family, seed, n):
    # det-n43 drives every phase of the pipeline (Steps 1-7), so its
    # step_rounds equality is per-phase round equality, not just a total.
    graph = make_graph(family, n, seed)
    plain = CongestNetwork(graph)
    zero = CongestNetwork(graph, faults=FaultPlan(FAULT_MODELS["none"], seed=99))
    res_p = deterministic_apsp(plain, graph)
    res_z = deterministic_apsp(zero, graph)
    assert res_p.dist.tobytes() == res_z.dist.tobytes()
    assert (res_p.pred == res_z.pred).all()
    assert res_p.step_rounds() == res_z.step_rounds()
    assert_stats_equal(res_p.stats, res_z.stats, "zero-plan result")
    assert_stats_equal(plain.total, zero.total, "zero-plan network totals")
    # The zero plan still reports an (empty) trace — the record layer
    # relies on that to distinguish "no plan" from "plan with no faults".
    assert len(zero.fault_trace) == 0 and not zero.fault_trace.crashes
    assert plain.fault_trace is None


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("family,seed,n", cases())
def test_recorded_trace_replays_bit_identically(family, seed, n, model):
    graph = make_graph(family, n, seed)
    plan_seed = seed * 101 + n
    net1, dist1, err1 = run_faulted(
        graph, FaultPlan.from_model(model, seed=plan_seed))
    if model == "crash":
        assert net1.fault_trace.crashes  # the schedule always draws one

    # Re-seeding the PRNG plan reproduces the run bit for bit.
    net2, dist2, err2 = run_faulted(
        graph, FaultPlan.from_model(model, seed=plan_seed))
    assert (dist1, err1) == (dist2, err2)
    assert net1.fault_trace == net2.fault_trace
    assert net1.fault_trace.sha256() == net2.fault_trace.sha256()
    assert_stats_equal(net1.total, net2.total, "prng rerun")

    # So does replaying the recorded trace through an explicit table.
    net3, dist3, err3 = run_faulted(
        graph, FaultPlan.from_trace(net1.fault_trace))
    assert (dist1, err1) == (dist3, err3)
    assert net3.fault_trace == net1.fault_trace
    assert_stats_equal(net1.total, net3.total, "trace replay")
