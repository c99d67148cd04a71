"""Engine semantics: synchrony, bandwidth, locality, round accounting."""

from __future__ import annotations

import pytest

from repro.congest import CongestNetwork, NodeProgram, RoundStats
from repro.congest.metrics import PhaseLog
from repro.congest.network import BandwidthExceeded, HardCapExceeded, NotANeighbor
from repro.graphs import path_graph, ring_graph


class Echo(NodeProgram):
    """Node 0 pings right; each node forwards once; records receive round."""

    def __init__(self, node: int, n: int) -> None:
        super().__init__(node)
        self.n = n
        self.received_at = -1

    def on_round(self, ctx):
        if ctx.node == 0 and ctx.round == 0:
            ctx.send(1, "ping", (0,))
        for _src, kind, _payload in ctx.inbox:
            if kind == "ping" and self.received_at < 0:
                self.received_at = ctx.round
                if ctx.node + 1 < self.n:
                    ctx.send(ctx.node + 1, "ping", (ctx.node,))
        self.active = False


def test_synchrony_one_hop_per_round():
    g = path_graph(6)
    net = CongestNetwork(g)
    programs = [Echo(v, g.n) for v in range(g.n)]
    stats = net.run(programs)
    # A message sent in round r arrives in round r+1: node v hears in round v.
    for v in range(1, g.n):
        assert programs[v].received_at == v
    assert stats.rounds == g.n - 1  # last send happens in round n-2
    assert stats.messages == g.n - 1


class Flood(NodeProgram):
    def on_round(self, ctx):
        if ctx.round == 0 and ctx.node == 0:
            for u in ctx.neighbors:
                ctx.send(u, "a")
                ctx.send(u, "b")  # second message on the same edge
        self.active = False


def test_bandwidth_enforced():
    g = path_graph(3)
    net = CongestNetwork(g, bandwidth=1)
    with pytest.raises(BandwidthExceeded):
        net.run([Flood(v) for v in range(g.n)])


def test_bandwidth_two_allows_two_messages():
    g = path_graph(3)
    net = CongestNetwork(g, bandwidth=2)
    stats = net.run([Flood(v) for v in range(g.n)])
    assert stats.messages == 2


class Teleport(NodeProgram):
    def on_round(self, ctx):
        if ctx.node == 0 and ctx.round == 0:
            ctx.send(2, "x")  # nodes 0 and 2 are not adjacent on a path
        self.active = False


def test_locality_enforced():
    g = path_graph(3)
    net = CongestNetwork(g)
    with pytest.raises(NotANeighbor):
        net.run([Teleport(v) for v in range(g.n)])


class FatMessage(NodeProgram):
    def on_round(self, ctx):
        if ctx.node == 0 and ctx.round == 0:
            ctx.send(1, "fat", tuple(range(100)))
        self.active = False


def test_word_limit_enforced():
    g = path_graph(2)
    net = CongestNetwork(g, word_limit=8)
    with pytest.raises(BandwidthExceeded):
        net.run([FatMessage(v) for v in range(g.n)])


class Spinner(NodeProgram):
    """Keeps itself active and keeps sending — never quiesces."""

    def on_round(self, ctx):
        ctx.send(ctx.neighbors[0], "spin")


def test_hard_cap_guards_nontermination():
    g = path_graph(2)
    net = CongestNetwork(g)
    with pytest.raises(HardCapExceeded):
        net.run([Spinner(v) for v in range(g.n)], hard_cap=50)


class Idle(NodeProgram):
    def on_round(self, ctx):
        self.active = False


def test_idle_phase_costs_zero_rounds():
    g = ring_graph(5)
    net = CongestNetwork(g)
    stats = net.run([Idle(v) for v in range(g.n)])
    assert stats.rounds == 0
    assert stats.messages == 0


class LateSender(NodeProgram):
    """Sends only in round 5; earlier idle rounds must still be charged."""

    def on_round(self, ctx):
        if ctx.node == 0 and ctx.round == 5:
            ctx.send(ctx.neighbors[0], "late")
            self.active = False
        elif ctx.node != 0:
            self.active = False


def test_idle_rounds_before_last_send_are_charged():
    g = path_graph(2)
    net = CongestNetwork(g)
    stats = net.run([LateSender(v) for v in range(g.n)])
    assert stats.rounds == 6  # rounds 0..5


def test_per_node_congestion_accounting():
    g = path_graph(6)
    net = CongestNetwork(g)
    programs = [Echo(v, g.n) for v in range(g.n)]
    stats = net.run(programs)
    assert stats.per_node_sent[0] == 1
    assert stats.max_node_congestion == 1
    assert sum(stats.per_node_sent.values()) == stats.messages


def test_program_count_validated():
    g = path_graph(3)
    net = CongestNetwork(g)
    with pytest.raises(ValueError):
        net.run([Idle(0)])


def test_network_total_accumulates():
    g = path_graph(4)
    net = CongestNetwork(g)
    net.run([Echo(v, g.n) for v in range(g.n)])
    net.run([Echo(v, g.n) for v in range(g.n)])
    assert net.total.messages == 2 * (g.n - 1)


# ---------------------------------------------------------------------------
# RoundStats / PhaseLog bookkeeping


def test_roundstats_merge_and_add():
    a = RoundStats(rounds=3, messages=10, per_node_sent={0: 4, 1: 6})
    b = RoundStats(rounds=2, messages=5, per_node_sent={1: 2, 2: 3})
    c = a + b
    assert (c.rounds, c.messages) == (5, 15)
    assert c.per_node_sent == {0: 4, 1: 8, 2: 3}
    assert (a.rounds, a.messages) == (3, 10)  # __add__ does not mutate
    a.merge(b)
    assert a.rounds == 5 and a.per_node_sent[1] == 8


def test_roundstats_sequential():
    parts = [RoundStats(rounds=i, messages=i) for i in range(5)]
    total = RoundStats.sequential(parts, label="sum")
    assert total.rounds == 10 and total.messages == 10


def test_phaselog_totals_and_labels():
    log = PhaseLog()
    log.add("a", RoundStats(rounds=1, messages=2))
    log.add("b", RoundStats(rounds=3, messages=4))
    log.add("a", RoundStats(rounds=5, messages=6))
    assert len(log) == 3
    assert log.total().rounds == 9
    assert log.rounds_by_label() == {"a": 6, "b": 3}
    rendered = log.render()
    assert "TOTAL" in rendered and "a" in rendered


def test_max_node_congestion_empty():
    assert RoundStats().max_node_congestion == 0


# ---------------------------------------------------------------------------
# message word accounting and Ctx guards


def test_message_word_counting():
    from repro.congest import Message

    assert Message(0, "x", ()).words() == 1  # empty payload: one word
    assert Message(0, "x", (1, 2.5, 3)).words() == 3
    assert Message(0, "x", ((1, 2), 3)).words() == 3  # nested counted flat
    assert Message(0, "x", (None,)).words() == 1


def test_send_outside_engine_round_raises():
    from repro.congest.node import Ctx

    ctx = Ctx()
    with pytest.raises(RuntimeError):
        ctx.send(0, "x")


def test_step6_payload_is_five_words():
    """The round-robin record (c, x, d, k, tb) must fit the default
    word limit with room to spare."""
    from repro.congest import Message

    msg = Message(0, "rr", (3, 7, 45.25, 8, 866463714599298))
    assert msg.words() == 5 <= 8


def test_bf_payload_is_four_words():
    from repro.congest import Message

    msg = Message(0, "bf", (45.25, 8, 866463714599298, 2))
    assert msg.words() == 4


# ---------------------------------------------------------------------------
# the wire format: one plain (src, kind, payload) tuple per message


class Greeter(NodeProgram):
    """Round 0: greet every neighbor; node 0 greets node 1 again in round 1.

    Records every inbox it is handed, as delivered.
    """

    def __init__(self, node: int) -> None:
        super().__init__(node)
        self.inboxes = []

    def on_round(self, ctx):
        self.inboxes.append((ctx.round, list(ctx.inbox)))
        if ctx.round == 0:
            for u in ctx.neighbors:
                ctx.send(u, "hi", (ctx.node,))
        elif ctx.round == 1 and ctx.node == 0:
            ctx.send(1, "again")
        self.active = ctx.round < 1


@pytest.mark.parametrize("strict", [True, False], ids=["strict", "fast"])
def test_pinned_phase_counts_by_hand(strict):
    # Path 0-1-2-3: six directed links greet once each in round 0, and
    # 0 -> 1 carries one more message in round 1.
    g = path_graph(4)
    net = CongestNetwork(g, strict=strict, track_edges=True)
    stats = net.run([Greeter(v) for v in range(g.n)])
    assert stats.rounds == 2
    assert stats.messages == 7
    assert stats.per_node_sent == {0: 2, 1: 2, 2: 2, 3: 1}
    assert stats.per_edge_sent == {
        (0, 1): 2, (1, 0): 1, (1, 2): 1, (2, 1): 1, (2, 3): 1, (3, 2): 1,
    }


def test_inbox_items_are_plain_tuples_in_sender_order():
    g = path_graph(4)
    programs = [Greeter(v) for v in range(g.n)]
    CongestNetwork(g).run(programs)
    inbox = dict(programs[1].inboxes)
    assert inbox[1] == [(0, "hi", (0,)), (2, "hi", (2,))]
    assert inbox[2] == [(0, "again", ())]
    for prog in programs:
        for _tick, items in prog.inboxes:
            assert all(type(item) is tuple and len(item) == 3
                       for item in items)
            assert [src for src, _k, _p in items] == sorted(
                src for src, _k, _p in items)


# ---------------------------------------------------------------------------
# vectorized strict validation: the batched numpy checks must enforce the
# same rules as the scalar per-message loop, on both edge-lookup layouts.

import repro.congest.network as network_mod  # noqa: E402
from repro.graphs import erdos_renyi  # noqa: E402
from repro.primitives.bfs import build_bfs_tree  # noqa: E402


@pytest.fixture
def force_vector(monkeypatch):
    """Route every strict check through the numpy chunk validator."""
    monkeypatch.setattr(network_mod, "_VECTOR_MIN", 1)


@pytest.fixture
def force_sparse(monkeypatch):
    """Force the sorted-key binary-search edge lookup (sparse layout).

    With a shift of 0 the dense criterion needs directed edges >= n^2,
    which no simple graph reaches, so every network built under this
    fixture uses the sparse lookup.
    """
    monkeypatch.setattr(network_mod, "_DENSE_N_CAP", 0)
    monkeypatch.setattr(network_mod, "_DENSE_FILL_SHIFT", 0)


def test_vector_path_bandwidth_enforced(force_vector):
    g = path_graph(3)
    net = CongestNetwork(g, bandwidth=1)
    with pytest.raises(BandwidthExceeded, match="carried 2 messages"):
        net.run([Flood(v) for v in range(g.n)])


def test_vector_path_locality_enforced(force_vector):
    g = path_graph(3)
    net = CongestNetwork(g)
    with pytest.raises(NotANeighbor, match="node 0 -> 2"):
        net.run([Teleport(v) for v in range(g.n)])


def test_vector_path_word_limit_enforced(force_vector):
    g = path_graph(2)
    net = CongestNetwork(g, word_limit=8)
    with pytest.raises(BandwidthExceeded, match="100 words"):
        net.run([FatMessage(v) for v in range(g.n)])


class NestedMessage(NodeProgram):
    """Flat length 2, but 9 words once the nested tuple is counted."""

    def on_round(self, ctx):
        if ctx.node == 0 and ctx.round == 0:
            ctx.send(1, "deep", (tuple(range(8)), 1))
        self.active = False


def test_vector_path_counts_nested_payloads_exactly(force_vector):
    g = path_graph(2)
    net = CongestNetwork(g, word_limit=8)
    with pytest.raises(BandwidthExceeded, match="9 words"):
        net.run([NestedMessage(v) for v in range(g.n)])
    # Scalar inline path agrees (same program, default thresholds).
    with pytest.raises(BandwidthExceeded, match="9 words"):
        CongestNetwork(g, word_limit=8).run(
            [NestedMessage(v) for v in range(g.n)]
        )
    # Under a budget of 9 the nested payload is legal on both paths.
    stats = CongestNetwork(g, word_limit=9).run(
        [NestedMessage(v) for v in range(g.n)]
    )
    assert stats.messages == 1


@pytest.mark.parametrize("layout", ["dense", "sparse"])
def test_vector_path_accounting_matches_scalar(
    layout, force_vector, request
):
    if layout == "sparse":
        request.getfixturevalue("force_sparse")
    g = erdos_renyi(24, p=0.3, seed=5)
    _tree_f, fast_stats = build_bfs_tree(CongestNetwork(g, strict=False))
    _tree_v, vector_stats = build_bfs_tree(CongestNetwork(g))
    assert (vector_stats.rounds, vector_stats.messages) == (
        fast_stats.rounds,
        fast_stats.messages,
    )
    assert vector_stats.per_node_sent == fast_stats.per_node_sent


def test_sparse_lookup_detects_violations(force_vector, force_sparse):
    g = path_graph(3)
    net = CongestNetwork(g)
    assert net._dense_lookup is False
    with pytest.raises(NotANeighbor):
        net.run([Teleport(v) for v in range(g.n)])
    net2 = CongestNetwork(g, bandwidth=1)
    with pytest.raises(BandwidthExceeded):
        net2.run([Flood(v) for v in range(g.n)])


class Scripted(NodeProgram):
    """Active for rounds ``0 .. spin - 1``; sends ``sends[r]`` if woken in ``r``."""

    def __init__(self, node, spin, sends, log):
        super().__init__(node)
        self.spin, self.sends, self.log = spin, sends, log
        self.active = spin > 0

    def on_round(self, ctx):
        self.log.append((ctx.round, ctx.node))
        for dst in self.sends.get(ctx.round, ()):
            ctx.send(dst, "p")
        self.active = ctx.round + 1 < self.spin


def test_wake_order_is_ascending_ids_over_active_and_delivered():
    # Ticks mix nodes woken by their flag, by a delivery, and by both;
    # every tick must run its nodes once each, in increasing id order.
    spin = [0, 3, 0, 4, 0, 2]
    sends = [{}, {0: [2]}, {1: [3]}, {0: [4], 3: [2]}, {1: [5]}, {0: [4]}]
    log = []
    programs = [Scripted(v, spin[v], sends[v], log) for v in range(6)]
    CongestNetwork(path_graph(6)).run(programs)

    expected, active, delivered = [], {1, 3, 5}, set()
    for r in range(20):
        wake = sorted(active | delivered)
        expected += [(r, v) for v in wake]
        delivered = {d for v in wake for d in sends[v].get(r, ())}
        active = {v for v in wake if r + 1 < spin[v]} | (active - set(wake))
    assert log == expected
    # Node 3 in tick 2 is both active and delivered to; 2 and 4 in tick 1
    # and 2 in tick 4 are woken by a delivery alone.
    assert {(2, 3), (1, 2), (1, 4), (4, 2)} <= set(log)


def test_strict_and_fast_engines_agree_end_to_end():
    """Batched strict validation must not perturb semantics at all."""
    g = erdos_renyi(40, p=0.15, seed=3)
    tree_s, stats_s = build_bfs_tree(CongestNetwork(g))
    tree_f, stats_f = build_bfs_tree(CongestNetwork(g, strict=False))
    assert tree_s.parent == tree_f.parent
    assert tree_s.height == tree_f.height
    assert (stats_s.rounds, stats_s.messages) == (
        stats_f.rounds,
        stats_f.messages,
    )


def test_violation_in_final_round_before_max_rounds_still_raises(
    force_vector,
):
    class LastTickViolator(NodeProgram):
        def on_round(self, ctx):
            if ctx.node == 0 and ctx.round == 3:
                ctx.send(2, "x")  # not a neighbor on a path
                self.active = False

    g = path_graph(3)
    net = CongestNetwork(g)
    with pytest.raises(NotANeighbor):
        # The hard cap cuts the phase right after the violating send: the
        # undelivered round must still be validated by the exit flush.
        net.run([LastTickViolator(v) for v in range(g.n)], hard_cap=3)
