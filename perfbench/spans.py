"""Spans around calls into the program's layers, kept in memory.

A span is ``(name, start, end, parent, run id)``; ``parent`` is the index
of the enclosing span.  The traced run wraps the layers' public entry
points from the benchmark's own code (:func:`install`), so nothing under
``src/`` changes, and writes every span out once the run ends.  A span's
self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager
from typing import Dict, List, Optional

#: the program's layers, in the order the per-layer table prints them
LAYERS = ("graphs", "congest", "primitives", "csssp", "blocker", "apsp",
          "pipeline", "experiments", "analysis", "serving")


class Tracer:
    """Collects nested spans for one run."""

    def __init__(self, run_id: str, clock=time.perf_counter) -> None:
        self.run_id = run_id
        #: the clock spans are timed with; the worker passes one that
        #: leaves out the speed probe's samples, like its unit times
        self.clock = clock
        #: [name, start, end, parent index or None]
        self.spans: List[list] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        record = [name, self.clock(), None, parent]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = self.clock()
            self._stack.pop()

    def wrap(self, name: str, fn):
        """``fn`` with every call recorded as a span called ``name``."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    # ------------------------------------------------------------------
    def _within(self, phase: str) -> List[int]:
        """Indices of the spans called ``phase`` and of every span inside
        them.  ``phase`` is a root span (``setup``, ``measure``) or any
        other span name, e.g. ``experiments.run_scenario``."""
        inside = {i for i, span in enumerate(self.spans) if span[0] == phase}
        if not inside:
            raise KeyError(f"no {phase!r} span")
        for i in range(min(inside) + 1, len(self.spans)):
            if self.spans[i][3] in inside:
                inside.add(i)
        return sorted(inside)

    def duration(self, i: int) -> float:
        _name, start, end, _parent = self.spans[i]
        return end - start

    def self_times(self) -> List[float]:
        """Each span's duration minus its children's."""
        own = [self.duration(i) for i in range(len(self.spans))]
        for i, (_n, _s, _e, parent) in enumerate(self.spans):
            if parent is not None:
                own[parent] -= self.duration(i)
        return own

    def total(self, phase: str, *names: str) -> float:
        """Summed duration of the spans called ``names`` within ``phase``."""
        return sum(self.duration(i) for i in self._within(phase)
                   if self.spans[i][0] in names)

    def layer_self(self, phase: str) -> Dict[str, float]:
        """Self time per layer (span name prefix) within ``phase``."""
        own = self.self_times()
        out: Dict[str, float] = {}
        for i in self._within(phase):
            layer = self.spans[i][0].split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + own[i]
        return out

    def dump(self, path, extra: Optional[dict] = None) -> None:
        own = self.self_times()
        payload = dict(extra or {})
        payload["spans"] = [
            {"name": name, "start": start, "end": end, "parent": parent,
             "run_id": self.run_id, "self_s": own[i]}
            for i, (name, start, end, parent) in enumerate(self.spans)
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, indent=1) + "\n")


def install(tracer: Tracer) -> None:
    """Wrap each layer's entry points so every call records a span.

    ``repro.apsp.driver`` binds the step functions at import, so they are
    replaced there; blockers are looked up in ``BLOCKERS`` per call.
    """
    import repro.apsp.driver as driver
    import repro.apsp.naive as naive
    import repro.experiments.registry as registry
    import repro.experiments.runner as runner
    from repro.apsp.result import APSPResult

    for attr, name in (
        ("build_csssp", "csssp.build_csssp"),
        ("bellman_ford_many", "primitives.bellman_ford_many"),
        ("build_bfs_tree", "primitives.build_bfs_tree"),
        ("gather_and_broadcast", "primitives.gather_and_broadcast"),
        ("local_closure", "apsp.local_closure"),
        ("reversed_qsink", "pipeline.reversed_qsink"),
        ("broadcast_delivery", "pipeline.broadcast_delivery"),
        ("extend_h_hop", "pipeline.extend_h_hop"),
    ):
        setattr(driver, attr, tracer.wrap(name, getattr(driver, attr)))
    for key, fn in list(driver.BLOCKERS.items()):
        driver.BLOCKERS[key] = tracer.wrap(f"blocker.{key}", fn)
    for key, fn in list(registry.ALGORITHMS.items()):
        registry.ALGORITHMS[key] = tracer.wrap("apsp.solve", fn)
    naive.bellman_ford = tracer.wrap("primitives.bellman_ford",
                                     naive.bellman_ford)
    make_graph = tracer.wrap("graphs.make_graph", registry.make_graph)
    registry.make_graph = runner.make_graph = make_graph
    runner.run_scenario = tracer.wrap("experiments.run_scenario",
                                      runner.run_scenario)
    APSPResult.verify = tracer.wrap("apsp.verify", APSPResult.verify)


def step_layer(label: str) -> Optional[str]:
    """The per-layer rounds bucket of one ``step_rounds`` label."""
    if label.startswith("step1"):
        return "csssp"
    if label.startswith("step2"):
        return "blocker"
    if label.startswith(("step3", "step4")) or label == "bellman-ford":
        return "primitives"
    if label.startswith("step6"):
        return "pipeline.qsink"
    if label.startswith("step7"):
        return "pipeline.extension"
    return None
