"""Phase orchestration helpers (repro.congest.runner)."""

from __future__ import annotations

from repro.congest import CongestNetwork, NodeProgram
from repro.congest.runner import run_program, run_sequence
from repro.graphs import path_graph


class TokenPass(NodeProgram):
    """Source sends one token right; per-phase round cost = n - 1 - src."""

    def __init__(self, node: int, source: int, n: int) -> None:
        super().__init__(node)
        self.source = source
        self.n = n
        self.got = node == source

    def on_round(self, ctx):
        if ctx.round == 0 and ctx.node == self.source and ctx.node + 1 < self.n:
            ctx.send(ctx.node + 1, "tok")
        for msg in ctx.inbox:
            if msg.kind == "tok":
                self.got = True
                if ctx.node + 1 < self.n:
                    ctx.send(ctx.node + 1, "tok")
        self.active = False


def test_run_program_builds_and_returns_programs():
    g = path_graph(6, seed=0)
    net = CongestNetwork(g)
    programs, stats = run_program(net, lambda v: TokenPass(v, 0, g.n))
    assert len(programs) == g.n
    assert all(p.got for p in programs)
    assert stats.rounds == g.n - 1


def test_run_sequence_composes_rounds():
    g = path_graph(5, seed=0)
    net = CongestNetwork(g)
    sources = [0, 2, 3]
    all_programs, total = run_sequence(
        net, sources, lambda src, v: TokenPass(v, src, g.n)
    )
    assert len(all_programs) == len(sources)
    # Sequential composition: rounds add up phase by phase.
    expect = sum(g.n - 1 - s for s in sources)
    assert total.rounds == expect
    for programs, src in zip(all_programs, sources):
        assert all(p.got for p in programs[src:])
        assert not any(p.got for p in programs[:src])


def test_run_sequence_empty_schedule():
    g = path_graph(3, seed=0)
    net = CongestNetwork(g)
    all_programs, total = run_sequence(
        net, [], lambda src, v: TokenPass(v, src, g.n)
    )
    assert all_programs == [] and total.rounds == 0


def test_run_program_respects_max_rounds():
    g = path_graph(8, seed=0)
    net = CongestNetwork(g)
    programs, stats = run_program(
        net, lambda v: TokenPass(v, 0, g.n), max_rounds=3
    )
    assert stats.rounds <= 4
    assert not programs[-1].got  # cut off before the token arrived
