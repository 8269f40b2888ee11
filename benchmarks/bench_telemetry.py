"""Telemetry overhead benchmark: a traced warm plan must cost within a
few percent of an untraced one.

The instrumentation contract is "one attribute check when nobody is
watching, cheap bookkeeping when someone is": disabled tracers hand out
a shared no-op span, and the metrics hot path is a handful of locked
adds. This benchmark times a *warm* ``ClusterPlanner.plan`` (memory
cache pre-populated, so cache bookkeeping — the instrumented hot path —
dominates over simulation) with telemetry off and with an enabled
tracer, and asserts the enabled overhead stays under 5%. Both sides
report the minimum of interleaved repetitions, which keeps scheduler
noise out of the ratio.

Run standalone:  PYTHONPATH=src python benchmarks/bench_telemetry.py
"""

from __future__ import annotations

import time

from repro.cluster import ClusterPlanner
from repro.scenarios import SimulationCache
from repro.telemetry import Tracer

REPS = 15
# The full GPU x provider x density space with the parallelism axes on:
# a warm pass is ~10 ms of candidate construction, pricing and ranking,
# large enough that the fixed per-phase span cost reads as a ratio
# instead of timer jitter.
PLAN_KWARGS = dict(deadline_hours=24.0, parallelism="auto",
                   grad_accums=(1, 2, 4))
# The acceptance bar, with headroom over the nominal ~1% for noisy CI
# machines: a traced warm plan may cost at most 5% more wall-clock.
MAX_OVERHEAD = 0.05


def _timed_plan(planner: ClusterPlanner) -> float:
    start = time.perf_counter()
    planner.plan(**PLAN_KWARGS)
    return time.perf_counter() - start


def measure() -> float:
    """The traced warm plan's fractional overhead over the untraced one."""
    # Telemetry off: the planner resolves the (disabled) default tracer.
    off_planner = ClusterPlanner("mixtral-8x7b", dataset="math14k",
                                 cache=SimulationCache())
    on_planner = ClusterPlanner("mixtral-8x7b", dataset="math14k",
                                cache=SimulationCache(),
                                tracer=Tracer(enabled=True))

    # Warm both caches outside the timings, then interleave the timed
    # repetitions so slow drift (thermal, page cache) hits both sides
    # equally instead of biasing whichever ran second.
    off_planner.plan(**PLAN_KWARGS)
    on_planner.plan(**PLAN_KWARGS)
    off_seconds = float("inf")
    on_seconds = float("inf")
    for _ in range(REPS):
        off_seconds = min(off_seconds, _timed_plan(off_planner))
        on_seconds = min(on_seconds, _timed_plan(on_planner))
    return on_seconds / off_seconds - 1.0


def test_telemetry_overhead_under_bar():
    overhead = measure()
    print(f"\ntraced warm plan overhead {overhead * 100:+.2f}%")
    assert overhead < MAX_OVERHEAD, overhead


if __name__ == "__main__":
    print(f"traced warm plan overhead {measure() * 100:+.2f}%")
