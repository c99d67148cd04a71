"""Property and semantic tests for the fault-injection layer.

Hypothesis properties pin the contracts the differential matrix relies
on — same seed ⇒ same trace, trace JSON round-trips, delays never
reorder same-edge FIFO — and small table-driven programs pin the exact
delivery-time semantics: which message a table entry hits, how delayed
traffic queues, and what state a crashed node re-enters with.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apsp import naive_bf_apsp
from repro.congest import CongestNetwork, NodeProgram
from repro.congest.faults import (
    ACTIONS,
    FAULT_MODELS,
    FaultPlan,
    FaultSpec,
    FaultTrace,
)
from repro.experiments.registry import make_graph
from repro.graphs import path_graph

NONZERO_MODELS = sorted(m for m in FAULT_MODELS if m != "none")


# ---------------------------------------------------------------------------
# hypothesis: determinism and serialization


@given(model=st.sampled_from(NONZERO_MODELS),
       plan_seed=st.integers(0, 2**31),
       graph_seed=st.integers(1, 50))
@settings(max_examples=15, deadline=None)
def test_same_seed_same_trace(model, plan_seed, graph_seed):
    graph = make_graph("er", 12, graph_seed)
    traces = []
    for _ in range(2):
        net = CongestNetwork(graph, strict=False,
                             faults=FaultPlan.from_model(model, plan_seed))
        try:
            naive_bf_apsp(net, graph)
        except Exception:
            pass  # a deterministic failure still leaves a full trace
        traces.append(net.fault_trace)
    assert traces[0] == traces[1]
    assert traces[0].sha256() == traces[1].sha256()


_event = st.tuples(
    st.integers(0, 5), st.integers(0, 100), st.integers(0, 20),
    st.integers(0, 20), st.integers(-1, 3), st.sampled_from(ACTIONS),
    st.integers(0, 5),
)
_crash = st.tuples(st.integers(0, 5), st.integers(0, 20),
                   st.integers(0, 50), st.integers(1, 60))


@given(st.lists(_event, max_size=30), st.lists(_crash, max_size=5))
def test_trace_json_round_trip(events, crashes):
    trace = FaultTrace(events=events, crashes=crashes)
    back = FaultTrace.from_json(trace.to_json())
    assert back == trace
    assert back.sha256() == trace.sha256()
    assert json.loads(trace.to_json()) == trace.to_dict()
    assert FaultTrace.from_dict(trace.to_dict()) == trace


class _Pipe(NodeProgram):
    """Node 0 streams sequence numbers to node 1; node 1 records them."""

    __slots__ = ("total", "seen")

    def __init__(self, node, total):
        super().__init__(node)
        self.total = total
        self.seen = []

    def on_round(self, ctx):
        if ctx.node == 0:
            if ctx.round < self.total:
                ctx.send(1, "seq", (ctx.round,))
            else:
                self.active = False
            return
        for _src, _kind, payload in ctx.inbox:
            self.seen.append((ctx.round, payload[0]))
        self.active = False  # woken only by deliveries


@given(plan_seed=st.integers(0, 2**31),
       rate=st.floats(0.1, 0.9),
       max_delay=st.integers(1, 6),
       total=st.integers(5, 25))
@settings(max_examples=30, deadline=None)
def test_delay_never_reorders_same_edge_fifo(plan_seed, rate, max_delay,
                                             total):
    spec = FaultSpec("delay-heavy", delay=rate, max_delay=max_delay)
    net = CongestNetwork(path_graph(2), faults=FaultPlan(spec, plan_seed))
    progs = [_Pipe(v, total) for v in range(2)]
    net.run(progs)
    rounds = [r for r, _ in progs[1].seen]
    seqs = [s for _, s in progs[1].seen]
    # Lossy-but-ordered link: delay holds messages back but never lets
    # later same-edge traffic overtake, and never loses anything.
    assert seqs == list(range(total))
    assert rounds == sorted(rounds)


# ---------------------------------------------------------------------------
# table plans: exact delivery-time semantics


def test_table_plan_applies_exact_decisions():
    # Sends in rounds 0..4 deliver at ticks 1..5.  Drop the first,
    # duplicate the second, delay the third two ticks; the fourth (no
    # table entry) must queue behind the held third (FIFO per edge), and
    # both come out at tick 5 ahead of the fresh fifth.
    plan = FaultPlan.from_table({
        (0, 1, 0, 1, 0): ("drop", 0),
        (0, 2, 0, 1, 0): ("duplicate", 0),
        (0, 3, 0, 1, 0): ("delay", 2),
    })
    net = CongestNetwork(path_graph(2), faults=plan)
    progs = [_Pipe(v, 5) for v in range(2)]
    net.run(progs)
    assert progs[1].seen == [(2, 1), (2, 1), (5, 2), (5, 3), (5, 4)]
    assert net.fault_trace.counts() == {"drop": 1, "duplicate": 1, "delay": 1}


def test_crash_and_recover_preserves_local_state():
    # Node 1 is down for ticks 3..5: the three deliveries of those ticks
    # are crash-dropped, and on recovery the node re-enters with the
    # receive log it crashed with — entries from before the crash stay.
    plan = FaultPlan.from_table({}, crashes=[(0, 1, 3, 6)])
    net = CongestNetwork(path_graph(2), faults=plan)
    progs = [_Pipe(v, 10) for v in range(2)]
    net.run(progs)
    assert [r for r, _ in progs[1].seen] == [1, 2, 6, 7, 8, 9, 10]
    assert [s for _, s in progs[1].seen] == [0, 1, 5, 6, 7, 8, 9]
    assert net.fault_trace.crashes == [(0, 1, 3, 6)]
    assert net.fault_trace.counts() == {"crash-drop": 3, "crash": 1}


# ---------------------------------------------------------------------------
# validation and classification errors


def test_fault_spec_validation():
    with pytest.raises(ValueError, match=r"drop=1\.5"):
        FaultSpec("bad", drop=1.5)
    with pytest.raises(ValueError, match="exceed 1"):
        FaultSpec("bad", drop=0.5, duplicate=0.4, delay=0.2)
    with pytest.raises(ValueError, match="max_delay"):
        FaultSpec("bad", delay=0.1, max_delay=0)
    with pytest.raises(ValueError, match="crashes"):
        FaultSpec("bad", crashes=-1)
    with pytest.raises(ValueError, match="crash_length"):
        FaultSpec("bad", crashes=1, crash_length=0)
    assert FaultSpec("zero").is_zero
    assert not FAULT_MODELS["mixed"].is_zero


def test_fault_plan_validation():
    with pytest.raises(ValueError, match="unknown fault model"):
        FaultPlan.from_model("meteor")
    with pytest.raises(ValueError, match="unknown action"):
        FaultPlan.from_table({(0, 1, 0, 1, 0): ("explode", 0)})
    with pytest.raises(ValueError, match="delay 0 < 1"):
        FaultPlan.from_table({(0, 1, 0, 1, 0): ("delay", 0)})
    assert FaultPlan.from_table({}).is_zero
    assert not FaultPlan.from_table({}, crashes=[(0, 1, 0, 2)]).is_zero
    assert not FaultPlan.from_model("drop", seed=3).is_zero
    assert "drop" in repr(FaultPlan.from_model("drop", seed=3))
    assert "table" in repr(FaultPlan.from_table({}))
