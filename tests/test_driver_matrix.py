"""The shared 3-phase driver across the full strategy grid.

Exactness must be independent of the (h, blocker, delivery) choice — that
independence is what makes the round comparisons of Table 1 / A1 honest.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.congest import CongestNetwork
from repro.apsp import three_phase_apsp
from repro.apsp.driver import BLOCKERS, DELIVERIES, default_h

from conftest import graph_of


@pytest.mark.parametrize(
    "blocker,delivery",
    list(itertools.product(sorted(BLOCKERS), DELIVERIES)),
)
def test_strategy_grid_exact(blocker, delivery):
    g = graph_of("er-sparse")
    net = CongestNetwork(g)
    result = three_phase_apsp(net, g, h=3, blocker=blocker, delivery=delivery)
    result.verify(g)
    assert result.meta["blocker"] == blocker
    assert result.meta["delivery"] == delivery


@pytest.mark.parametrize("kind", ["er-directed", "er-zero", "grid"])
@pytest.mark.parametrize("delivery", DELIVERIES)
def test_families_times_delivery(kind, delivery):
    g = graph_of(kind)
    net = CongestNetwork(g)
    result = three_phase_apsp(
        net, g, h=default_h(g.n), blocker="greedy", delivery=delivery
    )
    result.verify(g)


def test_h_exceeding_diameter_degenerates_gracefully():
    """h >= hop diameter: no length-h paths, empty Q, Step 7 alone solves."""
    g = graph_of("er-dense")
    net = CongestNetwork(g)
    result = three_phase_apsp(net, g, h=g.n, blocker="derandomized")
    result.verify(g)
    assert result.meta["q"] == 0


def test_h_one_maximal_blocker_load():
    """h = 1: every edge is a window; Q must hit every edge's head."""
    g = graph_of("er-sparse")
    net = CongestNetwork(g)
    result = three_phase_apsp(net, g, h=1, blocker="greedy")
    result.verify(g)
    assert result.meta["q"] >= 1


def test_step_labels_depend_on_delivery():
    g = graph_of("er-sparse")
    net = CongestNetwork(g)
    piped = three_phase_apsp(net, g, h=3, delivery="pipelined")
    bcast = three_phase_apsp(net, g, h=3, delivery="broadcast")
    assert any(k.startswith("step6/alg9") for k in piped.step_rounds())
    assert "step6/broadcast" in bcast.step_rounds()
    assert np.allclose(
        np.nan_to_num(piped.dist, posinf=-1),
        np.nan_to_num(bcast.dist, posinf=-1),
    )


def test_meta_counters_consistent():
    g = graph_of("er-sparse")
    net = CongestNetwork(g)
    result = three_phase_apsp(net, g, h=3, delivery="pipelined")
    assert result.meta["q"] >= result.meta.get("bottlenecks", 0)
    assert result.meta["pipeline_rounds"] >= 0
    assert result.rounds == result.stats.rounds
