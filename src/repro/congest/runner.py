"""Phase-orchestration helpers.

The paper's algorithms are sequences of phases ("For each x in S in
sequence: ...", "Step 1 ... Step 7").  :func:`run_program` builds one
program per node from a factory and executes the phase; :func:`run_sequence`
runs a factory once per item of a schedule (the paper's per-source loops)
and returns the composed stats together with every per-node program, so the
orchestrator can read out the local states the phase computed.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Tuple

from repro.congest.metrics import RoundStats
from repro.congest.network import CongestNetwork
from repro.congest.node import NodeProgram

ProgramFactory = Callable[[int], NodeProgram]


def run_program(
    net: CongestNetwork,
    factory: ProgramFactory,
    max_rounds: Optional[int] = None,
    label: str = "",
) -> Tuple[List[NodeProgram], RoundStats]:
    """Instantiate ``factory(v)`` for every node and run one phase."""
    programs = [factory(v) for v in range(net.n)]
    stats = net.run(programs, max_rounds=max_rounds, label=label)
    return programs, stats


def run_sequence(
    net: CongestNetwork,
    items: Iterable,
    factory: Callable[[object, int], NodeProgram],
    max_rounds_per_item: Optional[int] = None,
    label: str = "",
) -> Tuple[List[List[NodeProgram]], RoundStats]:
    """Run one engine phase per item, sequentially, and compose the stats.

    This is the engine-level counterpart of the paper's
    "For each x in S in sequence" loops (e.g. Algorithm 1 Steps 1, 3, 7).
    """
    total = RoundStats(label=label)
    all_programs: List[List[NodeProgram]] = []
    for item in items:
        programs = [factory(item, v) for v in range(net.n)]
        stats = net.run(programs, max_rounds=max_rounds_per_item, label=label)
        total.merge(stats)
        all_programs.append(programs)
    return all_programs, total


__all__ = ["ProgramFactory", "run_program", "run_sequence"]
