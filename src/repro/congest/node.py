"""Per-node protocol API for the CONGEST engine.

A distributed algorithm is expressed as one :class:`NodeProgram` instance per
node.  The engine calls :meth:`NodeProgram.on_round` once per synchronous
round, passing a :class:`Ctx` that exposes exactly the local view the CONGEST
model grants a processor: its own id, its incident communication edges, the
messages delivered this round, and a ``send`` primitive restricted to
neighbors.  Nodes have unbounded local computation (Section 1.1), so anything
done inside ``on_round`` without sending is free.
"""

from __future__ import annotations

from typing import Callable, List, Sequence

from repro.congest.message import Wire


class Ctx:
    """The local view a node has during one round.

    Instances are created by the engine and reused across rounds; programs
    must not retain references to ``inbox`` across rounds (copy if needed).
    ``inbox`` holds plain ``(src, kind, payload)`` tuples (the field layout
    of :class:`~repro.congest.message.Message`), in ascending sender order;
    programs unpack them:
    ``for src, kind, payload in ctx.inbox``.
    """

    __slots__ = {
        "node": "This node's id.",
        "round": "The current round (tick) of the phase.",
        "inbox": "The ``(src, kind, payload)`` tuples delivered this round.",
        "neighbors": "This node's communication neighbors.",
        "send": (
            "``send(dst, kind, payload=())``: queue one message to neighbor "
            "``dst``, delivered next round.\n\n"
            "A slot holding the engine's per-phase closure, so one program "
            "call is one Python call; outside a phase it raises "
            "``RuntimeError``."
        ),
    }

    def __init__(self) -> None:
        self.node: int = -1
        self.round: int = 0
        self.inbox: List[Wire] = []
        self.neighbors: Sequence[int] = ()
        self.send: Callable[..., None] = _no_send


def _no_send(dst: int, kind: str, payload: tuple = ()) -> None:
    raise RuntimeError("send() called outside an engine round")


class NodeProgram:
    """Base class for the per-node side of a distributed algorithm.

    Subclasses override :meth:`on_round`.  The engine wakes a node in round
    ``r`` when it has messages delivered in ``r`` *or* its :attr:`active`
    flag is true; a program that has nothing left to do should set
    ``self.active = False`` so the engine can detect quiescence.  Programs
    with a fixed schedule (pipelines) keep ``active`` true until their
    schedule is exhausted.

    Every wake costs the engine a Python call, so a program should start
    inactive unless it has work in tick 0, and stay inactive while only
    a delivery can give it work.  A node with no part in a phase gets the
    shared never-active ``_Silent`` program instead of a real one.
    """

    __slots__ = ("node", "active")

    def __init__(self, node: int) -> None:
        self.node = node
        self.active = True

    def on_round(self, ctx: Ctx) -> None:  # pragma: no cover - interface
        """Handle round ``ctx.round``: read ``ctx.inbox``, call ``ctx.send``."""
        raise NotImplementedError


class SilentNodeMessaged(RuntimeError):
    """A message reached a node that has no part in the phase."""


class _Silent(NodeProgram):
    """The program of every node with no part in a phase.

    One never-active instance fills every such slot, so a phase over a
    few live tree nodes builds no programs for the rest.  Being sent a
    message is a bug in the phase, so :meth:`on_round`, which only a
    delivery can trigger, raises :class:`SilentNodeMessaged`.
    """

    __slots__ = ()

    def __init__(self) -> None:
        super().__init__(-1)
        self.active = False

    def on_round(self, ctx: Ctx) -> None:
        raise SilentNodeMessaged(
            f"node {ctx.node} has no part in this phase but was sent a "
            f"message by node {ctx.inbox[0][0]} (round {ctx.round})"
        )


#: The shared program of every node with no part in a phase.
_SILENT = _Silent()


__all__ = ["Ctx", "NodeProgram", "SilentNodeMessaged"]
