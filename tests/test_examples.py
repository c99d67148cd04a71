"""Smoke tests for the example scripts (they must never rot).

Each example's ``main()`` runs with small arguments under a patched
``sys.argv``; internal verification inside the examples (every script
checks its own outputs) makes these genuine end-to-end tests.
"""

from __future__ import annotations

import importlib.util
import pathlib
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).parent.parent / "examples"


def load_example(name: str):
    spec = importlib.util.spec_from_file_location(name, EXAMPLES / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_main(name: str, argv, capsys):
    module = load_example(name)
    old = sys.argv
    sys.argv = [name] + [str(a) for a in argv]
    try:
        module.main()
    finally:
        sys.argv = old
    return capsys.readouterr().out


def test_quickstart(capsys):
    out = run_main("quickstart", [16, 2], capsys)
    assert "verified exact" in out
    assert "per-step round budget" in out


def test_compare_algorithms(capsys):
    out = run_main("compare_algorithms", ["ring"], capsys)
    assert "rounds alpha" in out
    assert "det-n43" in out


def test_blocker_set_demo(capsys):
    out = run_main("blocker_set_demo", [16, 2], capsys)
    assert "covers all?" in out
    assert "good-set machinery" in out


def test_step6_pipeline(capsys):
    out = run_main("step6_pipeline", [3, 5], capsys)
    assert "all values exact" in out
    assert "broadcast strawman" in out


def test_sweep_report_example(capsys):
    out = run_main("sweep_report", [16, 2], capsys)
    assert "cross-family exponent fits" in out
    assert "verdicts:" in out
    assert "det-n43" in out and "naive-bf" in out


def test_routing_tables(capsys):
    out = run_main("routing_tables", [4, 3], capsys)
    assert "verified exact (distances + routes)" in out
    assert "routing table" in out
