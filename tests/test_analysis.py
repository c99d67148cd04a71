"""Analysis helpers: exponent fits, rendering, Table 1 machinery."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import (
    TABLE1_ROWS,
    fit_exponent,
    normalized_series,
    render_series,
    render_table,
)


def test_fit_exponent_recovers_power_law():
    ns = [10, 20, 40, 80, 160]
    for alpha, c in [(1.0, 3.0), (1.5, 0.5), (2.0, 7.0)]:
        rounds = [c * n**alpha for n in ns]
        fit = fit_exponent(ns, rounds)
        assert fit.alpha == pytest.approx(alpha, abs=1e-9)
        assert fit.c == pytest.approx(c, rel=1e-9)
        assert fit.r2 == pytest.approx(1.0)
        assert fit.predict(320) == pytest.approx(c * 320**alpha, rel=1e-9)


def test_fit_exponent_with_noise_keeps_r2_sane():
    rng = np.random.default_rng(0)
    ns = [16, 32, 64, 128]
    rounds = [5 * n**1.3 * float(rng.uniform(0.9, 1.1)) for n in ns]
    fit = fit_exponent(ns, rounds)
    assert 1.1 < fit.alpha < 1.5
    assert fit.r2 > 0.95


def test_fit_exponent_needs_two_points():
    with pytest.raises(ValueError):
        fit_exponent([10], [100])


def test_fit_exponent_rejects_zero_values_with_named_points():
    # A zero-valued series (e.g. message counts of a trivial scenario)
    # must raise a clear error naming the offending points, not return
    # -inf/nan fits.
    with pytest.raises(ValueError, match=r"offending.*\(20\.0, 0\.0\)"):
        fit_exponent([10, 20, 40], [5, 0, 7])


def test_fit_exponent_rejects_negative_and_nonfinite_values():
    with pytest.raises(ValueError, match="offending"):
        fit_exponent([10, 20], [3, -1])
    with pytest.raises(ValueError, match="offending"):
        fit_exponent([10, 20], [3, float("inf")])
    with pytest.raises(ValueError, match="offending"):
        fit_exponent([0, 20], [3, 4])  # nonpositive n is just as fatal


def test_normalized_series_flat_iff_exact():
    ns = [10, 20, 40]
    rounds = [2 * n**1.5 for n in ns]
    norm = normalized_series(ns, rounds, 1.5)
    assert norm == pytest.approx([2.0, 2.0, 2.0])
    steeper = normalized_series(ns, rounds, 1.0)
    assert steeper[0] < steeper[-1]


def test_render_table_alignment_and_content():
    text = render_table(
        ["algo", "rounds"], [["det", 1234], ["rand", 5.5]], title="T"
    )
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "algo" in lines[1] and "rounds" in lines[1]
    assert "1234" in text and "5.5" in text


def test_render_series_format():
    out = render_series("rounds", [8, 16], [100.0, 250.0], note="alpha=1.3")
    assert out.startswith("rounds:")
    assert "(8, 100)" in out and "alpha=1.3" in out


def test_table1_claimed_bounds_single_sourced_from_registry():
    # Table 1 and the sweep report must never disagree on a claimed
    # bound: measured rows read from CLAIMED_BOUNDS.
    from repro.experiments.registry import ALGORITHMS, CLAIMED_BOUNDS

    for row in TABLE1_ROWS:
        if not row.measured:
            continue
        bound = CLAIMED_BOUNDS[row.key]
        assert row.claimed == bound.bound
        assert row.claimed_alpha == pytest.approx(bound.alpha)
    assert set(CLAIMED_BOUNDS) == {r.key for r in TABLE1_ROWS if r.measured}
    # ...and every measured row runs through the one algorithm registry.
    assert set(ALGORITHMS) == set(CLAIMED_BOUNDS)


def test_table1_rows_cover_the_paper():
    keys = {r.key for r in TABLE1_ROWS}
    assert {"det-n43", "det-n32", "rand-n43", "huang-n54", "elkin-n53",
            "bn-n"} <= keys
    ours = next(r for r in TABLE1_ROWS if r.key == "det-n43")
    assert ours.kind == "Deterministic"
    assert ours.claimed_alpha == pytest.approx(4 / 3)
    # Quoted-only rows have no runner.
    assert not any(
        r.measured for r in TABLE1_ROWS if r.key in ("huang-n54", "bn-n")
    )


def test_crossover_measured_and_extrapolated():
    from repro.analysis import crossover

    ns = [10, 20, 40, 80]
    flat = [100.0 * n for n in ns]        # alpha = 1
    steep = [10.0 * n**1.5 for n in ns]   # alpha = 1.5, crosses at n = 100
    measured, extrapolated = crossover(ns, flat, steep)
    assert measured is None  # flat never wins inside the sweep
    assert extrapolated == pytest.approx(100.0, rel=1e-6)

    # When flat starts winning mid-sweep the measured point is reported.
    steep2 = [6.58 * n**1.8 for n in ns]  # crosses flat near n = 30
    measured, extrapolated = crossover(ns, flat, steep2)
    assert measured == 40.0
    assert extrapolated == pytest.approx(30.0, rel=0.05)


def test_crossover_no_future_cross():
    from repro.analysis import crossover

    ns = [10, 20, 40]
    fast = [n**2.0 for n in ns]
    slow = [0.5 * n for n in ns]
    measured, extrapolated = crossover(ns, fast, slow)
    assert measured is None and extrapolated is None
