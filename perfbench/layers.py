"""Per-layer tracing from outside the program.

``install(recorder)`` wraps each layer's public functions where their
callers look them up (``repro.service.app.dumps``,
``repro.gpu.simulator.time_kernels``,
``repro.cluster.planner.estimate_from_trace``, ...), so no file under
``src/`` changes. Each wrapped call records one span (name, start, end,
enclosing span) in memory; a layer's self time is its spans' duration
minus the part their child spans cover.
"""

from __future__ import annotations

import importlib
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Tuple

#: (layer, module, attribute) for every wrapped function. The module is
#: the one whose code calls the function, so the wrapper is what runs.
PATCHES: Tuple[Tuple[str, str, str], ...] = (
    ("app.normalize", "repro.service.app", "normalize_cluster_request"),
    ("app.normalize", "repro.service.app", "normalize_spot_request"),
    ("app.normalize", "repro.service.app", "request_digest"),
    ("app.pricing", "repro.service.catalog", "PricingCatalog.get"),
    ("serialize", "repro.service.app", "dumps"),
    ("serialize", "repro.cluster.plan", "dumps"),
    ("serialize", "repro.spot.plan", "dumps"),
    ("planner.enumerate", "repro.cluster.planner", "ClusterPlanner.scenarios"),
    ("planner.sweep", "repro.scenarios.runner", "SweepRunner.run"),
    ("planner.strategy", "repro.cluster.planner", "estimate_from_trace"),
    ("planner.strategy", "repro.cluster.scenario", "estimate_from_trace"),
    ("planner.price", "repro.cluster.planner", "ClusterPlanner.plan"),
    ("planner.pareto", "repro.cluster.planner", "pareto_frontier"),
    ("cache.fetch", "repro.scenarios.cache", "SimulationCache.fetch"),
    ("cache.memoize", "repro.scenarios.cache", "SimulationCache.memoize"),
    ("store.get", "repro.scenarios.store", "DiskTraceStore.get"),
    ("store.put", "repro.scenarios.store", "DiskTraceStore.put"),
    ("sim.workload", "repro.gpu.simulator", "mixtral_step_kernels"),
    ("sim.workload", "repro.gpu.simulator", "blackmamba_step_kernels"),
    ("sim.roofline", "repro.gpu.simulator", "time_kernels"),
    ("sim.step", "repro.gpu.simulator", "GPUSimulator.simulate_step"),
    ("risk.segments", "repro.spot.planner", "segment_lengths"),
    ("risk.closed_form", "repro.spot.planner", "expected_makespan_hours"),
    ("risk.closed_form", "repro.spot.planner", "expected_preemptions"),
    ("risk.analytic", "repro.spot.planner", "AnalyticMakespanDistribution"),
    ("risk.planner", "repro.spot.planner", "RiskAdjustedPlanner.plan_spot"),
    ("risk.pareto", "repro.spot.planner", "risk_pareto_frontier"),
)

#: Where the plan CLIs build their cache; wrapped only to read its stats.
CLI_CACHE_HOOKS = (
    ("repro.cluster.plan", "resolve_plan_cache"),
    ("repro.spot.plan", "resolve_plan_cache"),
)

#: Layers each workload exercises: the traced run fails if one of them
#: records zero calls.
REQUIRED = {
    "warm-mix": (
        "app.normalize", "app.pricing", "serialize", "planner.enumerate",
        "planner.sweep", "planner.strategy", "planner.price", "planner.pareto",
        "cache.fetch", "cache.memoize", "risk.planner", "risk.pareto",
    ),
    "cold-sweep": (
        "app.normalize", "app.pricing", "serialize", "planner.enumerate",
        "planner.sweep", "planner.strategy", "planner.price", "planner.pareto",
        "cache.fetch", "cache.memoize", "sim.workload", "sim.roofline",
        "sim.step", "risk.segments", "risk.closed_form", "risk.analytic",
        "risk.planner", "risk.pareto",
    ),
    "cli-disk-warm": (
        "serialize", "planner.enumerate", "planner.sweep", "planner.strategy",
        "planner.price", "planner.pareto", "cache.fetch", "store.get",
        "risk.planner", "risk.pareto",
    ),
}

ROOT_SPAN = "op"


class Recorder:
    """Spans and counts of one traced replay, kept in memory."""

    def __init__(self) -> None:
        # [name, start, end, parent index or -1]
        self.spans: List[list] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.caches: list = []  # SimulationCache objects the CLIs built
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self._stack())

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        stack = self._stack()
        record = [name, 0.0, 0.0, stack[-1] if stack else -1]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        record[1] = time.perf_counter()
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            stack.pop()

    def self_times(self) -> Tuple[Dict[str, float], Dict[str, int]]:
        """Seconds of self time and number of spans, per name."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        seconds: Dict[str, float] = defaultdict(float)
        calls: Dict[str, int] = defaultdict(int)
        for (name, start, end, _), children in zip(self.spans, child_time):
            seconds[name] += end - start - children
            calls[name] += 1
        return seconds, calls


def _observe(layer: str, recorder: Recorder, result) -> None:
    """Counts read off a wrapped call's result."""
    counts = recorder.counts
    if layer == "serialize":
        counts["serialize.bytes"] += len(result)
    elif layer == "planner.enumerate":
        counts["planner.cells"] += len(result[0])
    elif layer == "sim.workload":
        counts["sim.kernels"] += len(result)
    elif layer == "risk.segments":
        counts["risk.segments"] += len(result)
    elif layer == "risk.planner" or (
        layer == "planner.price" and not recorder.inside("risk.planner")
    ):
        counts["planner.candidates"] += len(result.candidates)


def _wrap(layer: str, recorder: Recorder, function: Callable) -> Callable:
    def traced(*args, **kwargs):
        with recorder.span(layer):
            result = function(*args, **kwargs)
        _observe(layer, recorder, result)
        return result

    traced.__wrapped__ = function
    return traced


def _cache_hook(recorder: Recorder, function: Callable) -> Callable:
    def hooked(*args, **kwargs):
        cache = function(*args, **kwargs)
        recorder.caches.append(cache)
        return cache

    return hooked


def _owner(module: str, attribute: str):
    """The object holding ``attribute`` and the attribute's own name;
    fails loudly if a layer moved, so a refactor cannot silently turn
    a layer's numbers into zeros."""
    owner = importlib.import_module(module)
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    if name not in vars(owner):
        raise RuntimeError(f"{module}.{attribute} is gone; update perfbench/layers.py")
    return owner, name


@contextmanager
def install(recorder: Recorder) -> Iterator[Recorder]:
    """Wrap every layer for the duration of the block."""
    wrappers = [
        (module, attribute, lambda f, layer=layer: _wrap(layer, recorder, f))
        for layer, module, attribute in PATCHES
    ] + [
        (module, attribute, lambda f: _cache_hook(recorder, f))
        for module, attribute in CLI_CACHE_HOOKS
    ]
    undo = []
    try:
        for module, attribute, wrap in wrappers:
            owner, name = _owner(module, attribute)
            original = vars(owner)[name]
            undo.append((owner, name, original))
            setattr(owner, name, wrap(original))
        yield recorder
    finally:
        for owner, name, original in reversed(undo):
            setattr(owner, name, original)


def _per(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    recorder: Recorder,
    ops: int,
    cache_delta: Dict[str, int],
    entries: int,
    workload: str,
) -> Tuple[Dict[str, float], List[str]]:
    """The traced run's per-layer metrics, plus coverage problems."""
    seconds, calls = recorder.self_times()
    counts = recorder.counts

    def ms_per_op(*layers: str) -> float:
        return _per(1e3 * sum(seconds[layer] for layer in layers), ops)

    def ms_per_call(layer: str) -> float:
        return _per(1e3 * seconds[layer], calls[layer])

    lookups = cache_delta["hits"] + cache_delta["disk_hits"] + cache_delta["misses"]
    risk_lookups = cache_delta["risk_hits"] + cache_delta["risk_misses"]
    metrics = {
        "app.normalize.ms_per_op": ms_per_op("app.normalize"),
        "app.pricing.ms_per_op": ms_per_op("app.pricing"),
        "serialize.ms_per_op": ms_per_op("serialize"),
        "serialize.kb_per_op": _per(counts["serialize.bytes"] / 1024.0, ops),
        "planner.enumerate.ms_per_op": ms_per_op("planner.enumerate"),
        "planner.sweep.ms_per_op": ms_per_op("planner.sweep"),
        "planner.strategy.ms_per_op": ms_per_op("planner.strategy"),
        "planner.strategy.calls_per_op": _per(calls["planner.strategy"], ops),
        "planner.price.ms_per_op": ms_per_op("planner.price"),
        "planner.pareto.ms_per_op": ms_per_op("planner.pareto"),
        "planner.cells_per_op": _per(counts["planner.cells"], ops),
        "planner.candidates_per_op": _per(counts["planner.candidates"], ops),
        "cache.fetch.ms_per_op": ms_per_op("cache.fetch"),
        "cache.memoize.ms_per_op": ms_per_op("cache.memoize"),
        "cache.hit_ratio": _per(cache_delta["hits"] + cache_delta["disk_hits"], lookups),
        "cache.simulations_per_op": _per(cache_delta["simulations"], ops),
        "cache.risk_hit_ratio": _per(cache_delta["risk_hits"], risk_lookups),
        "cache.risk_misses_per_op": _per(cache_delta["risk_misses"], ops),
        "cache.entries": float(entries),
        "store.get.ms_per_op": ms_per_op("store.get"),
        "store.put.ms_per_op": ms_per_op("store.put"),
        "store.disk_hits_per_op": _per(cache_delta["disk_hits"], ops),
        "sim.workload.ms_per_call": ms_per_call("sim.workload"),
        "sim.roofline.ms_per_call": ms_per_call("sim.roofline"),
        "sim.step.ms_per_call": ms_per_call("sim.step"),
        "sim.kernels_per_step": _per(counts["sim.kernels"], calls["sim.workload"]),
        "sim.calls_per_op": _per(calls["sim.step"], ops),
        "risk.segments.ms_per_op": ms_per_op("risk.segments"),
        "risk.segments_per_call": _per(counts["risk.segments"], calls["risk.segments"]),
        "risk.closed_form.ms_per_op": ms_per_op("risk.closed_form"),
        "risk.analytic.calls_per_op": _per(calls["risk.analytic"], ops),
        "risk.analytic.ms_per_call": ms_per_call("risk.analytic"),
        "risk.planner.ms_per_op": ms_per_op("risk.planner"),
        "risk.pareto.ms_per_op": ms_per_op("risk.pareto"),
        "trace.unattributed_ms_per_op": ms_per_op(ROOT_SPAN),
    }
    missing = [layer for layer in REQUIRED[workload] if not calls[layer]]
    problems = [f"traced run recorded no calls of layer {layer!r}" for layer in missing]
    return metrics, problems


def stats_dict(stats) -> Dict[str, int]:
    return {
        "hits": stats.hits,
        "disk_hits": stats.disk_hits,
        "misses": stats.misses,
        "simulations": stats.simulations,
        "risk_hits": stats.risk_hits,
        "risk_misses": stats.risk_misses,
    }


def summed_stats(caches: list) -> Dict[str, int]:
    total: Dict[str, int] = defaultdict(int)
    for cache in caches:
        for key, value in stats_dict(cache.stats()).items():
            total[key] += value
    return dict(total)


def max_entries(caches: list) -> int:
    return max((cache.stats().entries for cache in caches), default=0)
