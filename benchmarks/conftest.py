"""Shared helpers for the benchmark harness.

Every benchmark regenerates one paper artifact via its experiment module
and prints the measured-vs-paper table (run pytest with ``-s`` to see
them). Expensive experiments run once (``pedantic`` with a single round);
substrate micro-benchmarks use normal pytest-benchmark statistics.

The training-based experiments (Fig. 3, Fig. 11) default to their
``smoke`` scale so the whole suite stays tractable; set
``REPRO_SCALE=bench`` or ``REPRO_SCALE=full`` for larger runs.
"""

from __future__ import annotations

import os

import pytest

from repro.scenarios import reset_default_cache


@pytest.fixture(autouse=True)
def fresh_scenario_cache():
    """Benchmarks time *cold* runs: reset the process-global simulation
    cache before each one so timings don't depend on collection order
    (experiments fall back to the shared default cache)."""
    reset_default_cache()
    yield


def experiment_scale() -> str:
    return os.environ.get("REPRO_SCALE", "smoke")


def run_once(benchmark, fn, *args, **kwargs):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


@pytest.fixture
def once():
    return run_once
