"""Message records exchanged by :class:`~repro.congest.node.NodeProgram`\\ s.

A CONGEST message carries ``O(log n)`` bits; following the paper
(Section 1.1) we allow "a constant number of node ids, edge-weights, and
distance values" per message.  The engine does not inspect payloads, but
:meth:`Message.words` gives a rough word count that strict mode can bound so
that programs cannot smuggle unbounded data through a single message.

On the wire (in outboxes and in ``Ctx.inbox``) a message is a plain
``(src, kind, payload)`` tuple, :data:`Wire`: :class:`Message` documents
that field layout and counts its words, and the engine never builds one.
"""

from __future__ import annotations

from typing import Any, NamedTuple, Tuple

#: One message as the engine moves it: ``(src, kind, payload)``.
Wire = Tuple[int, str, tuple]


class Message(NamedTuple):
    """One message in flight.

    Attributes
    ----------
    src:
        Id of the sending node.
    kind:
        Short protocol tag (e.g. ``"bf"``, ``"up"``); lets several logical
        streams share one program.
    payload:
        A constant-size tuple of ids / weights / distance values.
    """

    src: int
    kind: str
    payload: tuple

    def words(self) -> int:
        """Approximate the number of machine words in the payload.

        Nested tuples are counted element-wise; ``None`` counts as one word.
        """
        return _count_words(self.payload)


def _count_words(obj: Any) -> int:
    if isinstance(obj, tuple):
        return sum(_count_words(x) for x in obj) if obj else 1
    return 1


__all__ = ["Message", "Wire"]
