"""Deterministic message-level fault injection for the CONGEST engine.

The paper's bounds are proven for a fault-free synchronous model; a
production deployment is not that lucky.  This module makes fault
behavior a *first-class, replayable axis* of the scenario space instead
of an ad-hoc test trick:

* :class:`FaultSpec` — a named fault model: drop / duplicate / delay
  probabilities plus a crash-and-recover schedule, all rates applied
  per delivered message.  The named models live in
  :data:`FAULT_MODELS` and are what ``repro sweep --faults`` selects.
* :class:`FaultPlan` — a concrete deterministic schedule: either a
  ``(spec, seed)`` pair whose decisions come from a seeded PRNG, or an
  explicit per-``(phase, tick, edge, k)`` decision table
  (:meth:`FaultPlan.from_table` / :meth:`FaultPlan.from_trace`).
* :class:`FaultTrace` — the ordered record of every decision a run
  actually made (plus the crash intervals), JSON round-trippable and
  content-hashed, so any faulted run is bit-identically replayable
  from ``(scenario hash, fault seed)`` or from the trace alone.

Delivery-time semantics
-----------------------
Faults apply at the *tick boundary*, after last round's outboxes become
this round's inboxes and before any program runs — the engine's send
path, strict validation, and round/message accounting are untouched
(``messages`` counts *sends*; a dropped message was still sent, a
duplicated one was sent once):

* **drop** — the message never reaches the destination's inbox.
* **duplicate** — the destination receives two copies back to back.
* **delay** — the message is held back ``d`` ticks (``1 <= d <=
  max_delay``).  Held messages never overtake later traffic on the same
  directed edge: a subsequent message on that edge queues behind the
  delayed one (FIFO per edge is preserved, exactly like a lossy-but-
  ordered link).
* **crash** — a crashed node does not execute and every message
  addressed to it while down is dropped (recorded as ``crash-drop``).
  Its local :class:`~repro.congest.node.NodeProgram` state and its
  ``active`` flag are *preserved*: on recovery the node re-enters with
  the state it crashed with, runs again at the next tick where it is
  active or receives a message, and learns about missed traffic only
  through the protocol itself.

Round-compressed execution (:meth:`CongestNetwork.run_compressed`)
materializes no messages, so it cannot apply a message-level plan: a
network holding a non-zero plan raises :class:`FaultsUnsupported` at
construction when ``compress=True`` and at every ``run_compressed``
call — a requested fault plan is *never* silently ignored.  To rerun a
faulted scenario elsewhere, replay its recorded trace on the
message-level engine (:meth:`FaultPlan.from_trace`).
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import deque
from dataclasses import dataclass
from typing import (
    Deque,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.congest.message import Wire

#: One recorded fault decision: (phase, tick, src, dst, k, action, delay).
#: ``k`` counts same-edge messages within the tick (the k-th message from
#: ``src`` to ``dst`` delivered that tick); ``k = -1`` marks a previously
#: delayed message that was crash-dropped on release.
FaultEvent = Tuple[int, int, int, int, int, str, int]

#: One crash interval: (phase, node, start tick, end tick) — the node is
#: down for ticks ``start <= t < end`` of that phase.
CrashInterval = Tuple[int, int, int, int]

#: Decision actions a plan can produce (``"deliver"`` is implicit and
#: never recorded).
ACTIONS = ("drop", "duplicate", "delay", "crash-drop")

#: Safety cap for faulted phases: fault-induced divergence (e.g. a
#: convergecast waiting forever on a crash-dropped report) must surface
#: as a prompt ``HardCapExceeded``, not a 5M-tick spin.
FAULT_HARD_CAP = 50_000


class FaultsUnsupported(RuntimeError):
    """An execution mode that materializes no messages was asked to fault.

    Raised by :class:`~repro.congest.network.CongestNetwork` when a
    non-zero :class:`FaultPlan` meets round-compressed execution — the
    compressed/batched replays advance accounting analytically and
    deliver nothing, so a message-level fault plan cannot apply.  The
    plan is never silently dropped.
    """


@dataclass(frozen=True)
class FaultSpec:
    """One named fault model: per-message rates plus a crash schedule.

    ``drop`` / ``duplicate`` / ``delay`` are per-delivered-message
    probabilities (their sum must stay within 1); a delayed message is
    held ``1..max_delay`` ticks.  ``crashes`` nodes crash per phase,
    each going down at a tick drawn from ``[0, crash_window)`` and
    staying down ``crash_length`` ticks.
    """

    name: str
    drop: float = 0.0
    duplicate: float = 0.0
    delay: float = 0.0
    max_delay: int = 3
    crashes: int = 0
    crash_length: int = 4
    crash_window: int = 8

    def __post_init__(self) -> None:
        for rate_name in ("drop", "duplicate", "delay"):
            rate = getattr(self, rate_name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(
                    f"fault rate {rate_name}={rate!r} must be in [0, 1]"
                )
        if self.drop + self.duplicate + self.delay > 1.0:
            raise ValueError("drop + duplicate + delay rates exceed 1")
        if self.max_delay < 1:
            raise ValueError("max_delay must be >= 1")
        if self.crashes < 0:
            raise ValueError("crashes must be >= 0")
        if self.crashes and (self.crash_length < 1 or self.crash_window < 1):
            raise ValueError("crash_length and crash_window must be >= 1")

    @property
    def is_zero(self) -> bool:
        """True when the model can never produce a fault."""
        return not (self.drop or self.duplicate or self.delay or self.crashes)


#: The named fault models ``repro sweep --faults`` selects.  ``"none"``
#: is the explicit zero model (bit-identical to running without a plan —
#: the differential matrix proves it); the others each stress one
#: failure mode, ``"mixed"`` combines them at low rates.
FAULT_MODELS: Dict[str, FaultSpec] = {
    "none": FaultSpec("none"),
    "drop": FaultSpec("drop", drop=0.02),
    "duplicate": FaultSpec("duplicate", duplicate=0.05),
    "delay": FaultSpec("delay", delay=0.05, max_delay=3),
    "crash": FaultSpec("crash", crashes=1, crash_length=4),
    "mixed": FaultSpec("mixed", drop=0.01, duplicate=0.02, delay=0.02,
                       crashes=1, crash_length=3),
}


class FaultTrace:
    """The ordered record of every fault decision one run actually made.

    ``events`` holds one :data:`FaultEvent` per non-deliver decision in
    the order the engine applied them; ``crashes`` holds the
    :data:`CrashInterval` schedule.  The trace round-trips through JSON
    (:meth:`to_json` / :meth:`from_json`) and is content-hashed
    (:meth:`sha256`) so records can assert replay identity without
    shipping the events around.
    """

    __slots__ = ("events", "crashes")

    def __init__(
        self,
        events: Iterable[Sequence] = (),
        crashes: Iterable[Sequence] = (),
    ) -> None:
        self.events: List[FaultEvent] = [tuple(e) for e in events]
        self.crashes: List[CrashInterval] = [tuple(c) for c in crashes]

    # ------------------------------------------------------------------
    def counts(self) -> Dict[str, int]:
        """Events tallied per action (plus the crash-interval count)."""
        out: Dict[str, int] = {}
        for event in self.events:
            action = event[5]
            out[action] = out.get(action, 0) + 1
        if self.crashes:
            out["crash"] = len(self.crashes)
        return out

    def to_dict(self) -> dict:
        """Canonical JSON-safe form."""
        return {
            "events": [list(e) for e in self.events],
            "crashes": [list(c) for c in self.crashes],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "FaultTrace":
        """Rebuild a trace from :meth:`to_dict` output."""
        return cls(events=d.get("events", ()), crashes=d.get("crashes", ()))

    def to_json(self) -> str:
        """Canonical compact JSON (sorted keys — the hashed form)."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "FaultTrace":
        """Rebuild a trace from :meth:`to_json` output."""
        return cls.from_dict(json.loads(text))

    def sha256(self) -> str:
        """Content hash of the canonical JSON form (first 16 hex chars)."""
        return hashlib.sha256(self.to_json().encode()).hexdigest()[:16]

    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FaultTrace):
            return NotImplemented
        return self.events == other.events and self.crashes == other.crashes

    def __len__(self) -> int:
        return len(self.events)

    def __repr__(self) -> str:
        return (f"FaultTrace({len(self.events)} events, "
                f"{len(self.crashes)} crash intervals)")


def _mix(seed: int, phase: int, salt: int) -> int:
    """Deterministic 63-bit stream seed for one (plan seed, phase, role).

    Pure integer arithmetic — never ``hash()`` of anything, which
    ``PYTHONHASHSEED`` randomizes across processes.
    """
    x = (seed * 0x9E3779B97F4A7C15 + phase * 0xBF58476D1CE4E5B9 + salt)
    return x & 0x7FFFFFFFFFFFFFFF


class FaultPlan:
    """A concrete deterministic fault schedule for one network.

    Either PRNG-driven — :class:`FaultSpec` rates drawn from a stream
    seeded by ``(seed, phase)``, consumed in delivery order, so the same
    ``(scenario, seed)`` always produces the same schedule — or
    table-driven (:meth:`from_table` / :meth:`from_trace`): an explicit
    per-``(phase, tick, src, dst, k)`` decision map, which is how a
    recorded :class:`FaultTrace` replays bit-identically.
    """

    def __init__(self, spec: FaultSpec, seed: int = 0) -> None:
        self.spec = spec
        self.seed = int(seed)
        self.table: Optional[Dict[Tuple[int, int, int, int, int],
                                  Tuple[str, int]]] = None
        self._table_crashes: List[CrashInterval] = []

    # ------------------------------------------------------------------
    @classmethod
    def from_model(cls, name: str, seed: int = 0) -> "FaultPlan":
        """Build a PRNG plan from a :data:`FAULT_MODELS` entry."""
        if name not in FAULT_MODELS:
            raise ValueError(
                f"unknown fault model {name!r}; available: "
                f"{', '.join(sorted(FAULT_MODELS))}"
            )
        return cls(FAULT_MODELS[name], seed=seed)

    @classmethod
    def from_table(
        cls,
        entries: Dict[Tuple[int, int, int, int, int], Tuple[str, int]],
        crashes: Iterable[Sequence] = (),
        name: str = "table",
    ) -> "FaultPlan":
        """Explicit decision table: ``(phase, tick, src, dst, k) ->
        (action, delay)``.

        Keys absent from the table deliver normally; ``action`` is one
        of ``"drop"`` / ``"duplicate"`` / ``"delay"`` (crash intervals
        travel separately as ``(phase, node, start, end)`` rows).
        """
        for key, (action, d) in entries.items():
            if action not in ("drop", "duplicate", "delay"):
                raise ValueError(
                    f"table entry {key} has unknown action {action!r}"
                )
            if action == "delay" and d < 1:
                raise ValueError(f"table entry {key} has delay {d} < 1")
        plan = cls(FaultSpec(name), seed=0)
        plan.table = dict(entries)
        plan._table_crashes = [tuple(c) for c in crashes]
        return plan

    @classmethod
    def from_trace(cls, trace: FaultTrace) -> "FaultPlan":
        """Replay plan: apply exactly the decisions a recorded run made.

        ``crash-drop`` events are *derived* (they re-occur from the
        crash intervals), so only the decided drop/duplicate/delay
        events enter the table.
        """
        entries: Dict[Tuple[int, int, int, int, int], Tuple[str, int]] = {}
        for phase, tick, src, dst, k, action, d in trace.events:
            if action == "crash-drop":
                continue
            entries[(phase, tick, src, dst, k)] = (action, d)
        return cls.from_table(entries, crashes=trace.crashes, name="replay")

    # ------------------------------------------------------------------
    @property
    def is_zero(self) -> bool:
        """True when this plan can never produce a fault."""
        if self.table is not None:
            return not self.table and not self._table_crashes
        return self.spec.is_zero

    def bind(self, n: int) -> "_FaultRuntime":
        """Attach the plan to an ``n``-node network (fresh trace)."""
        return _FaultRuntime(self, n)

    def __repr__(self) -> str:
        if self.table is not None:
            return (f"FaultPlan(table, {len(self.table)} entries, "
                    f"{len(self._table_crashes)} crash intervals)")
        return f"FaultPlan({self.spec.name!r}, seed={self.seed})"


class _FaultRuntime:
    """Per-network fault state: the applier the engine calls every tick.

    Owns the accumulating :class:`FaultTrace` and, per phase, the PRNG
    streams (or table cursor), the crash schedule, and the per-edge
    holdback queues for delayed messages.
    """

    __slots__ = ("plan", "n", "trace", "phase", "pending",
                 "_rng", "_crashed", "_holdback")

    def __init__(self, plan: FaultPlan, n: int) -> None:
        self.plan = plan
        self.n = n
        self.trace = FaultTrace()
        self.phase = -1
        #: delayed messages currently held back (engine quiescence check)
        self.pending = 0
        self._rng: Optional[random.Random] = None
        self._crashed: List[Tuple[int, int, int]] = []
        self._holdback: Dict[Tuple[int, int],
                             Deque[Tuple[int, Wire]]] = {}

    # ------------------------------------------------------------------
    def start_phase(self) -> None:
        """Reset per-phase state; draw this phase's crash schedule."""
        self.phase += 1
        self._holdback.clear()
        self.pending = 0
        spec = self.plan.spec
        if self.plan.table is not None:
            self._rng = None
            self._crashed = [
                (node, start, end)
                for phase, node, start, end in self.plan._table_crashes
                if phase == self.phase
            ]
        else:
            self._rng = random.Random(
                _mix(self.plan.seed, self.phase, 0x5DEECE66D)
            )
            # An independent stream for the crash schedule: it must not
            # shift with traffic volume.
            crash_rng = random.Random(
                _mix(self.plan.seed, self.phase, 0xC0FFEE)
            )
            self._crashed = []
            for _ in range(spec.crashes):
                node = crash_rng.randrange(self.n)
                start = crash_rng.randrange(spec.crash_window)
                self._crashed.append((node, start,
                                      start + spec.crash_length))
        for node, start, end in self._crashed:
            self.trace.crashes.append((self.phase, node, start, end))

    def crashed_now(self, tick: int) -> FrozenSet[int]:
        """Nodes down at ``tick`` of the current phase."""
        if not self._crashed:
            return frozenset()
        return frozenset(
            node for node, start, end in self._crashed if start <= tick < end
        )

    def _decide(self, tick: int, src: int, dst: int, k: int) -> Tuple[str, int]:
        if self.plan.table is not None:
            return self.plan.table.get(
                (self.phase, tick, src, dst, k), ("deliver", 0)
            )
        spec = self.plan.spec
        rng = self._rng
        u = rng.random()
        if u < spec.drop:
            return ("drop", 0)
        if u < spec.drop + spec.duplicate:
            return ("duplicate", 0)
        if u < spec.drop + spec.duplicate + spec.delay:
            return ("delay", rng.randint(1, spec.max_delay))
        return ("deliver", 0)

    # ------------------------------------------------------------------
    def apply(
        self,
        tick: int,
        inboxes: List[Optional[List[Wire]]],
        in_touched: List[int],
    ) -> FrozenSet[int]:
        """Apply the plan to this tick's deliveries; return crashed nodes.

        Mutates ``in_touched`` in place to the post-fault destination
        list and *replaces* inbox slots with freshly built lists — a
        delivered outbox list is never mutated (strict-mode validation
        holds references into it).  Held-back messages released this
        tick are prepended before fresh arrivals, per edge in sorted
        edge order; everything else preserves the engine's delivery
        order, so decisions consume the PRNG stream deterministically.
        """
        released: Dict[int, List[Wire]] = {}
        if self._holdback:
            drained = []
            for ekey in sorted(self._holdback):
                q = self._holdback[ekey]
                while q and q[0][0] <= tick:
                    _, msg = q.popleft()
                    self.pending -= 1
                    released.setdefault(ekey[1], []).append(msg)
                if not q:
                    drained.append(ekey)
            for ekey in drained:
                del self._holdback[ekey]

        crashed = self.crashed_now(tick)
        phase = self.phase
        events = self.trace.events
        holdback = self._holdback
        dsts = set(in_touched)
        dsts.update(released)
        new_touched: List[int] = []

        for dst in sorted(dsts):
            fresh = inboxes[dst] or ()
            freed = released.get(dst)
            if crashed and dst in crashed:
                # The node is down: everything addressed to it this tick
                # is lost (k = -1 marks a released delayed message).
                if freed:
                    for src, _kind, _payload in freed:
                        events.append(
                            (phase, tick, src, dst, -1, "crash-drop", 0)
                        )
                kcount: Dict[int, int] = {}
                for src, _kind, _payload in fresh:
                    k = kcount.get(src, 0)
                    kcount[src] = k + 1
                    events.append(
                        (phase, tick, src, dst, k, "crash-drop", 0)
                    )
                inboxes[dst] = None
                continue

            out: List[Wire] = list(freed) if freed else []
            kcount = {}
            for msg in fresh:
                src = msg[0]
                k = kcount.get(src, 0)
                kcount[src] = k + 1
                action, d = self._decide(tick, src, dst, k)
                if action == "deliver" and (src, dst) not in holdback:
                    out.append(msg)
                    continue
                ekey = (src, dst)
                q = holdback.get(ekey)
                if action == "drop":
                    events.append((phase, tick, src, dst, k, "drop", 0))
                    continue
                if action == "delay":
                    release = tick + d
                    if q:
                        # FIFO per edge: never release before an earlier
                        # held message on the same edge.
                        release = max(release, q[-1][0])
                    else:
                        q = holdback[ekey] = deque()
                    q.append((release, msg))
                    self.pending += 1
                    events.append((phase, tick, src, dst, k, "delay", d))
                    continue
                # deliver / duplicate behind a pending delayed message:
                # queue at the head message's release tick so same-edge
                # order is preserved.
                copies = 2 if action == "duplicate" else 1
                if action == "duplicate":
                    events.append((phase, tick, src, dst, k, "duplicate", 0))
                if q:
                    release = q[-1][0]
                    for _ in range(copies):
                        q.append((release, msg))
                        self.pending += 1
                else:
                    out.extend([msg] * copies)
            if out:
                inboxes[dst] = out
                new_touched.append(dst)
            else:
                inboxes[dst] = None

        in_touched[:] = new_touched
        return crashed


__all__ = [
    "ACTIONS",
    "FAULT_HARD_CAP",
    "FAULT_MODELS",
    "CrashInterval",
    "FaultEvent",
    "FaultPlan",
    "FaultSpec",
    "FaultTrace",
    "FaultsUnsupported",
]
