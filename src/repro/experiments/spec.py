"""Declarative scenario naming: one spec per run, one matrix per sweep.

A :class:`ScenarioSpec` is a frozen value object; its canonical JSON form
is hashed into a stable scenario id (:attr:`ScenarioSpec.key`) that keys
the result cache and lets parallel and serial executions be compared
record-for-record.  The same id shards a matrix (:func:`shard_specs`):
shard ``i`` of ``N`` owns the scenarios with ``int(key, 16) % N == i``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from itertools import product
from typing import List, Optional, Sequence, Tuple

from repro.apsp.driver import BLOCKERS, DELIVERIES
from repro.experiments.registry import ALGORITHMS, GRAPH_FAMILIES, WEIGHT_MODELS

#: The generic driver pseudo-algorithm: any (h, blocker, delivery) triple.
THREE_PHASE = "3phase"


@dataclass(frozen=True)
class ScenarioSpec:
    """One concrete ``(graph, algorithm, seed)`` scenario.

    ``algorithm`` is either a Table-1 key from
    :data:`~repro.experiments.registry.ALGORITHMS` or the literal
    ``"3phase"``, in which case ``h_exponent`` / ``blocker`` / ``delivery``
    select the driver configuration (defaults: the paper's ``h = n^{1/3}``,
    derandomized blocker, pipelined delivery).  ``strict`` picks the engine
    mode: model-fidelity checks on, or the measured fast path.
    ``compress`` additionally runs the fixed-schedule phases
    round-compressed (:mod:`repro.congest.compressed`) — records and round
    counts are bit-identical to the message-level run, so the axis only
    affects wall-clock time.
    """

    family: str
    n: int
    algorithm: str
    seed: int = 1
    weights: str = "uniform"
    h_exponent: Optional[float] = None
    blocker: Optional[str] = None
    delivery: Optional[str] = None
    strict: bool = True
    compress: bool = False

    def __post_init__(self) -> None:
        if self.family not in GRAPH_FAMILIES:
            raise ValueError(f"unknown graph family {self.family!r}")
        if self.weights not in WEIGHT_MODELS:
            raise ValueError(f"unknown weight model {self.weights!r}")
        if ("zero_frac" in WEIGHT_MODELS[self.weights]
                and self.family not in ("er", "er-directed")):
            raise ValueError(
                f"weight model {self.weights!r} is only defined for er "
                f"families, not {self.family!r}"
            )
        if self.algorithm == THREE_PHASE:
            # Normalize the driver axes so "defaults left implicit" and
            # "defaults spelled out" are the *same* scenario (same hash,
            # same cache entry).
            if self.blocker is None:
                object.__setattr__(self, "blocker", "derandomized")
            if self.delivery is None:
                object.__setattr__(self, "delivery", "pipelined")
            if self.h_exponent is None:
                object.__setattr__(self, "h_exponent", 1.0 / 3.0)
            if self.blocker not in BLOCKERS:
                raise ValueError(f"unknown blocker {self.blocker!r}")
            if self.delivery not in DELIVERIES:
                raise ValueError(f"unknown delivery {self.delivery!r}")
        elif self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        elif (self.h_exponent is not None or self.blocker is not None
              or self.delivery is not None):
            raise ValueError(
                f"{self.algorithm!r} fixes its own driver configuration; "
                f"h_exponent/blocker/delivery are only for '3phase'"
            )
        if self.n < 2:
            raise ValueError("scenarios need n >= 2")

    def to_dict(self) -> dict:
        """Canonical JSON-safe form (declaration order)."""
        return asdict(self)

    @property
    def key(self) -> str:
        """Stable scenario id: sha256 over the canonical JSON form."""
        blob = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]

    @property
    def label(self) -> str:
        """Human-readable scenario name (for progress lines and logs)."""
        parts = [self.family, f"n={self.n}", self.weights, self.algorithm,
                 f"seed={self.seed}"]
        if self.algorithm == THREE_PHASE:
            parts.append(f"h^{self.h_exponent:.2f}")
            parts.append(self.blocker)
            parts.append(self.delivery)
        if not self.strict:
            parts.append("fast")
        if self.compress:
            parts.append("compressed")
        return "/".join(parts)

    @classmethod
    def from_dict(cls, d: dict) -> "ScenarioSpec":
        """Rebuild a spec from its :meth:`to_dict` form.

        A non-mapping ``d`` or an unknown key raises ``TypeError``; the
        field checks raise ``TypeError`` or ``ValueError`` on a bad value.
        """
        return cls(**d)


@dataclass
class ScenarioMatrix:
    """The declarative cross product of scenario axes.

    :meth:`expand` yields concrete :class:`ScenarioSpec` objects in a
    deterministic order (itertools.product over the axes as declared).
    The driver axes (``h_exponents`` / ``blockers`` / ``deliveries``) only
    multiply scenarios whose algorithm is ``"3phase"``; for named Table-1
    algorithms they collapse to their defaults so the matrix stays free of
    meaningless duplicates.  Common matrices ship as named presets in
    :data:`repro.experiments.registry.SWEEP_PRESETS` (``repro sweep
    --preset``), e.g. ``large-n`` for the n ∈ {128, 256} fast-path
    workloads.
    """

    families: Sequence[str] = ("er",)
    sizes: Sequence[int] = (16,)
    algorithms: Sequence[str] = ("det-n43",)
    seeds: Sequence[int] = (1,)
    weights: Sequence[str] = ("uniform",)
    h_exponents: Sequence[Optional[float]] = (None,)
    blockers: Sequence[Optional[str]] = (None,)
    deliveries: Sequence[Optional[str]] = (None,)
    #: engine mode for every scenario (False = the measured fast path;
    #: the large-n presets in the registry set this)
    strict: bool = True
    #: round-compressed fixed-schedule phases for every scenario
    #: (bit-identical records; see :mod:`repro.congest.compressed`)
    compress: bool = False

    def expand(self) -> List[ScenarioSpec]:
        """Concrete scenarios, in deterministic axis order, deduplicated."""
        out: List[ScenarioSpec] = []
        seen = set()
        for family, n, weights, algorithm, seed in product(
            self.families, self.sizes, self.weights, self.algorithms,
            self.seeds,
        ):
            driver_axes: Sequence[Tuple] = (
                tuple(product(self.h_exponents, self.blockers, self.deliveries))
                if algorithm == THREE_PHASE
                else ((None, None, None),)
            )
            for h_exp, blocker, delivery in driver_axes:
                spec = ScenarioSpec(
                    family=family, n=n, algorithm=algorithm, seed=seed,
                    weights=weights, h_exponent=h_exp, blocker=blocker,
                    delivery=delivery, strict=self.strict,
                    compress=self.compress,
                )
                if spec.key not in seen:
                    seen.add(spec.key)
                    out.append(spec)
        return out

    def __len__(self) -> int:
        return len(self.expand())


def shard_specs(
    specs: Sequence[ScenarioSpec], n_shards: int
) -> List[List[ScenarioSpec]]:
    """Partition ``specs`` into ``n_shards`` hash-owned lists.

    Shard ``i`` owns the specs with ``int(spec.key, 16) % n_shards ==
    i``: a pure function of each spec, so any host or rerun recomputes
    the same partition from the matrix alone.  Every spec lands in
    exactly one shard, and each shard keeps the input order.
    """
    if n_shards < 1:
        raise ValueError(f"shard count must be >= 1, got {n_shards}")
    shards: List[List[ScenarioSpec]] = [[] for _ in range(n_shards)]
    for spec in specs:
        shards[int(spec.key, 16) % n_shards].append(spec)
    return shards


__all__ = ["THREE_PHASE", "ScenarioMatrix", "ScenarioSpec", "shard_specs"]
