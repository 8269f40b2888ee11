"""Tests for the scenario engine: scenario identity, grid building,
cache accounting, sweep determinism, and regression equivalence of the
refactored experiments against the seed (direct-simulator) path."""

import ast
import sys
import threading
from pathlib import Path

import pytest

from repro.devtools.framework import FileContext, module_name_for
from repro.devtools.rules import ImportMap
from repro.experiments import fig8_throughput, report, table3_maxbatch
from repro.gpu import A40, A100_80, GPUSimulator
from repro.memory import max_batch_size
from repro.models import BLACKMAMBA_2_8B, MIXTRAL_8X7B
from repro.scenarios import (
    Scenario,
    ScenarioGrid,
    SimulationCache,
    SweepRunner,
    default_cache,
    freeze_overrides,
)


class TestScenario:
    def test_hashing_and_equality(self):
        a = Scenario(model=MIXTRAL_8X7B, gpu=A40, batch_size=2, seq_len=128, dense=False)
        b = Scenario(model=MIXTRAL_8X7B, gpu=A40, batch_size=2, seq_len=128, dense=False)
        c = Scenario(model=MIXTRAL_8X7B, gpu=A40, batch_size=3, seq_len=128, dense=False)
        assert a == b and hash(a) == hash(b)
        assert a != c
        assert len({a, b, c}) == 2

    def test_registry_keys_resolve_to_same_cache_key(self):
        by_key = Scenario(model="mixtral-8x7b", gpu="A40", batch_size=1, seq_len=128)
        by_obj = Scenario(model=MIXTRAL_8X7B, gpu=A40, batch_size=1, seq_len=128)
        assert by_key.key() == by_obj.key()
        assert by_key.config is MIXTRAL_8X7B
        assert by_key.gpu_spec is A40

    def test_dataset_resolves_median_seq_len(self):
        s = Scenario(model=MIXTRAL_8X7B, gpu=A40, dataset="commonsense15k")
        assert s.resolved_seq_len == 79
        assert Scenario(model=MIXTRAL_8X7B, gpu=A40, dataset="math14k").resolved_seq_len == 174

    def test_explicit_seq_len_wins_over_dataset(self):
        s = Scenario(model=MIXTRAL_8X7B, gpu=A40, dataset="commonsense15k", seq_len=80)
        assert s.resolved_seq_len == 80

    def test_requires_seq_len_or_dataset(self):
        with pytest.raises(ValueError):
            Scenario(model=MIXTRAL_8X7B, gpu=A40)
        with pytest.raises(ValueError):
            Scenario(model=MIXTRAL_8X7B, gpu=A40, seq_len=128, batch_size=0)

    def test_label_convention(self):
        s = Scenario(model=MIXTRAL_8X7B, gpu=A40, dataset="commonsense15k",
                     batch_size=2, dense=False)
        assert s.label() == "mixtral_commonsense15k_S2"
        assert s.with_(dense=True).label() == "mixtral_commonsense15k_D2"
        assert Scenario(model=BLACKMAMBA_2_8B, gpu=A40, seq_len=128).label() == "blackmamba_S1"

    def test_overrides_normalize_from_dict(self):
        from_dict = Scenario(model=MIXTRAL_8X7B, gpu=A40, seq_len=64,
                             overrides={"quantized": False})
        from_items = Scenario(model=MIXTRAL_8X7B, gpu=A40, seq_len=64,
                              overrides=(("quantized", False),))
        assert from_dict == from_items
        assert from_dict.overrides_dict() == {"quantized": False}
        assert freeze_overrides({"b": 1, "a": 2}) == (("a", 2), ("b", 1))

    def test_unsorted_tuple_overrides_normalize(self):
        unsorted = Scenario(model=MIXTRAL_8X7B, gpu=A40, seq_len=64,
                            overrides=(("b", 1), ("a", 2)))
        as_dict = Scenario(model=MIXTRAL_8X7B, gpu=A40, seq_len=64,
                           overrides={"a": 2, "b": 1})
        assert unsorted == as_dict
        assert hash(unsorted) == hash(as_dict)
        assert unsorted.key() == as_dict.key()

    def test_max_batch_size_matches_oracle(self):
        s = Scenario(model=MIXTRAL_8X7B, gpu=A40, seq_len=80, dense=False)
        assert s.max_batch_size() == max_batch_size(MIXTRAL_8X7B, A40, 80, False)


class TestScenarioGrid:
    def test_product_order_is_deterministic(self):
        grid = ScenarioGrid.product(
            models=(MIXTRAL_8X7B, BLACKMAMBA_2_8B),
            gpus=(A40,),
            seq_lens=(128,),
            dense=(True, False),
            batch_sizes=(1, 2),
        )
        assert len(grid) == 8
        assert grid.labels()[:4] == ["mixtral_D1", "mixtral_D2", "mixtral_S1", "mixtral_S2"]
        assert grid == ScenarioGrid.product(
            models=(MIXTRAL_8X7B, BLACKMAMBA_2_8B), gpus=(A40,), seq_lens=(128,),
            dense=(True, False), batch_sizes=(1, 2),
        )

    def test_filter_and_concat(self):
        grid = ScenarioGrid.product(models=(MIXTRAL_8X7B,), gpus=(A40,),
                                    seq_lens=(128,), batch_sizes=(1, 2, 3, 4))
        evens = grid.filter(lambda s: s.batch_size % 2 == 0)
        assert [s.batch_size for s in evens] == [2, 4]
        assert len(evens + grid) == 6

    def test_batch_sweep_spans_oracle_range(self):
        upper = max_batch_size(MIXTRAL_8X7B, A40, 80, False)
        grid = ScenarioGrid.batch_sweep(MIXTRAL_8X7B, A40, seq_len=80, dense=False)
        assert [s.batch_size for s in grid] == list(range(1, upper + 1))

    def test_batch_sweep_floors_at_one(self):
        # Dense Mixtral at a long length does not fit; the sweep still
        # contributes its batch-1 point, as the fitting procedure expects.
        grid = ScenarioGrid.batch_sweep(MIXTRAL_8X7B, A40, seq_len=4096, dense=True)
        assert [s.batch_size for s in grid] == [1]



class TestSimulationCache:
    def test_resolve_cache(self):
        from repro.scenarios import resolve_cache

        explicit = SimulationCache()
        assert resolve_cache(explicit) is explicit
        assert resolve_cache(None) is default_cache()

    def test_hit_miss_accounting(self):
        cache = SimulationCache()
        s = Scenario(model=BLACKMAMBA_2_8B, gpu=A40, batch_size=1, seq_len=64)
        first = cache.simulate(s)
        assert (cache.stats().hits, cache.stats().misses) == (0, 1)
        second = cache.simulate(s)
        assert second is first
        assert (cache.stats().hits, cache.stats().misses) == (1, 1)
        cache.simulate(s.with_(batch_size=2))
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.entries) == (1, 2, 2)
        assert stats.lookups == 3
        assert stats.hit_rate == pytest.approx(1 / 3)

    def test_equivalent_scenarios_share_one_trace(self):
        cache = SimulationCache()
        with_dataset = Scenario(model=BLACKMAMBA_2_8B, gpu=A40, dataset="commonsense15k")
        with_seq_len = Scenario(model=BLACKMAMBA_2_8B, gpu=A40, seq_len=79)
        assert cache.simulate(with_dataset) is cache.simulate(with_seq_len)
        assert cache.stats().misses == 1

    def test_trace_matches_direct_simulator(self):
        cache = SimulationCache()
        cached = cache.trace(BLACKMAMBA_2_8B, A40, 2, 64, dense=True)
        direct = GPUSimulator(A40).simulate_step(BLACKMAMBA_2_8B, 2, 64, dense=True)
        assert cached.total_seconds == direct.total_seconds
        assert cached.queries_per_second == direct.queries_per_second

    def test_memoize_counts_in_the_stats(self):
        """Regression: derived-result traffic used to bypass the hit/miss
        counters entirely, so Eq. 2 fits looked free in benchmarks."""
        cache = SimulationCache()
        assert cache.memoize(("fit", 1), lambda: "a") == "a"
        stats = cache.stats()
        assert (stats.hits, stats.misses) == (0, 1)
        assert cache.memoize(("fit", 1), lambda: "recomputed") == "a"
        stats = cache.stats()
        assert (stats.hits, stats.misses) == (1, 1)
        # ...but a derived miss is not a simulation.
        assert stats.simulations == 0

    def test_memoize_kind_risk_uses_dedicated_counters(self):
        """kind="risk" books into risk_hits/risk_misses so the spot
        planner's memoized risk results stay distinguishable from trace
        and fit traffic (which several tests pin exactly)."""
        cache = SimulationCache()
        assert cache.memoize(("risk", 1), lambda: "r", kind="risk") == "r"
        assert cache.memoize(("risk", 1), lambda: "no", kind="risk") == "r"
        stats = cache.stats()
        assert (stats.risk_hits, stats.risk_misses) == (1, 1)
        assert (stats.hits, stats.misses) == (0, 0)
        # The namespace is shared; only the accounting differs.
        assert cache.memoize(("risk", 1), lambda: "no") == "r"
        assert cache.stats().hits == 1
        cache.clear()
        assert cache.stats().risk_hits == 0
        assert cache.stats().risk_misses == 0

    def test_memoize_invalid_kind_rejected(self):
        with pytest.raises(ValueError):
            SimulationCache().memoize(("k",), lambda: 1, kind="spot")

    def test_derived_and_trace_inflight_namespaces_are_disjoint(self):
        """Regression: memoize() and simulate() shared one in-flight map,
        so a derived computation keyed by a scenario key (or a colliding
        tuple) would stall — or race the event teardown of — the trace
        path. A simulate must not wait on a slow memoize of the same key."""
        import threading

        cache = SimulationCache()
        s = Scenario(model=BLACKMAMBA_2_8B, gpu=A40, batch_size=1, seq_len=64)
        started, release = threading.Event(), threading.Event()

        def slow_fit():
            started.set()
            # Held open until the main thread releases it, so the
            # assertion is about ordering, not machine speed.
            assert release.wait(timeout=30.0)
            return "fit"

        worker = threading.Thread(target=lambda: cache.memoize(s.key(), slow_fit))
        worker.start()
        assert started.wait(timeout=5.0)
        # With a shared in-flight map this would deadlock until the
        # memoize completed; disjoint namespaces let it proceed.
        cache.simulate(s)
        assert cache.stats().simulations == 1
        release.set()
        worker.join()
        assert cache.memoize(s.key(), lambda: "recomputed") == "fit"

    def test_memoize_collapses_concurrent_computes(self):
        import threading
        import time

        cache = SimulationCache()
        calls = []

        def compute():
            calls.append(1)
            time.sleep(0.02)
            return "fit"

        results = []
        threads = [
            threading.Thread(target=lambda: results.append(cache.memoize(("k",), compute)))
            for _ in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert results == ["fit"] * 4
        assert len(calls) == 1

    def test_clear_and_contains(self):
        cache = SimulationCache()
        s = Scenario(model=BLACKMAMBA_2_8B, gpu=A40, batch_size=1, seq_len=64)
        cache.simulate(s)
        assert s in cache and len(cache) == 1
        cache.clear()
        assert s not in cache and len(cache) == 0
        assert cache.stats().lookups == 0


class TestSweepRunner:
    GRID = ScenarioGrid.product(
        models=(BLACKMAMBA_2_8B,), gpus=(A40,), seq_lens=(64,),
        dense=(True, False), batch_sizes=(1, 2, 3, 4),
    )

    def test_warm_rerun_matches_cold_in_order_and_values(self):
        """A cold sweep and its warm rerun return the grid in order with
        equal values."""
        runner = SweepRunner(cache=SimulationCache())
        cold = runner.run(self.GRID)
        warm = runner.run(self.GRID)
        assert [p.label for p in cold] == [s.label() for s in self.GRID]
        assert [p.label for p in warm] == [p.label for p in cold]
        assert [p.queries_per_second for p in warm] == [
            p.queries_per_second for p in cold
        ]
        assert [p.index for p in warm] == list(range(len(self.GRID)))

    def test_parallel_duplicates_collapse_in_cache(self):
        """Four threads request every point at the same moment, as
        concurrent service requests would."""
        threads_n = 4
        cache = SimulationCache()
        together = threading.Barrier(threads_n, timeout=30)

        def worker() -> None:
            for scenario in self.GRID:
                together.wait()
                cache.simulate(scenario)

        threads = [threading.Thread(target=worker) for _ in range(threads_n)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the lookups finely
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        stats = cache.stats()
        assert stats.entries == len(self.GRID)
        # In-flight dedup: concurrent misses on one key simulate once, so
        # the miss count equals the distinct points, not the lookups.
        assert stats.misses == stats.simulations == len(self.GRID)
        assert stats.hits == (threads_n - 1) * len(self.GRID)



class TestRegressionAgainstSeed:
    def test_fig8_rows_identical_to_direct_simulator(self):
        """The refactored fig8 must reproduce the seed implementation's
        rows exactly: same labels, same order, bitwise-equal values."""
        seed_grid = [
            (MIXTRAL_8X7B, "commonsense15k", True, 1), (MIXTRAL_8X7B, "commonsense15k", True, 2),
            (MIXTRAL_8X7B, "commonsense15k", False, 1), (MIXTRAL_8X7B, "commonsense15k", False, 2),
            (MIXTRAL_8X7B, "commonsense15k", False, 8), (MIXTRAL_8X7B, "math14k", True, 1),
            (MIXTRAL_8X7B, "math14k", False, 1), (MIXTRAL_8X7B, "math14k", False, 3),
            (BLACKMAMBA_2_8B, "commonsense15k", True, 1), (BLACKMAMBA_2_8B, "commonsense15k", True, 6),
            (BLACKMAMBA_2_8B, "commonsense15k", False, 1), (BLACKMAMBA_2_8B, "commonsense15k", False, 6),
            (BLACKMAMBA_2_8B, "commonsense15k", False, 20), (BLACKMAMBA_2_8B, "math14k", True, 1),
            (BLACKMAMBA_2_8B, "math14k", True, 2), (BLACKMAMBA_2_8B, "math14k", False, 1),
            (BLACKMAMBA_2_8B, "math14k", False, 2), (BLACKMAMBA_2_8B, "math14k", False, 8),
        ]
        sim = GPUSimulator(A40)
        seed_rows = [
            (
                f"{cfg.family}_{dataset}_{'D' if dense else 'S'}{batch}",
                sim.throughput(cfg, batch, fig8_throughput.THROUGHPUT_SEQ_LEN[dataset],
                               dense=dense),
            )
            for cfg, dataset, dense, batch in seed_grid
        ]
        result = fig8_throughput.run(cache=SimulationCache())
        assert [(r.label, r.measured) for r in result.rows[: len(seed_rows)]] == seed_rows

    def test_fig8_warm_rerun_identical(self):
        """Fig. 8 on a cold cache and again on the warm one is identical."""
        cache = SimulationCache()
        cold = fig8_throughput.run(cache=cache)
        warm = fig8_throughput.run(cache=cache)
        assert [(r.label, r.measured) for r in cold.rows] == [
            (r.label, r.measured) for r in warm.rows
        ]

    def test_table3_cells_exact(self):
        result = table3_maxbatch.run()
        assert all(r.measured == r.paper for r in result.rows)

    def test_cost_model_identical_on_other_gpu(self):
        from repro.core import FineTuningCostModel

        cached = FineTuningCostModel.for_dataset(
            MIXTRAL_8X7B, "gsm8k", dense=False, cache=SimulationCache()
        ).estimate(A100_80, num_queries=1000)
        fresh = FineTuningCostModel.for_dataset(
            MIXTRAL_8X7B, "gsm8k", dense=False, cache=SimulationCache()
        ).estimate(A100_80, num_queries=1000)
        assert cached == fresh


class TestWarmReport:
    def test_second_report_pass_simulates_nothing(self):
        """Acceptance criterion: rerunning the full non-training report in
        one process performs zero redundant simulate_step calls — the miss
        counter must not move on the second pass."""
        first = report.run_report(include_training=False)
        misses_after_first = default_cache().stats().misses
        second = report.run_report(include_training=False)
        stats = default_cache().stats()
        assert stats.misses == misses_after_first
        assert stats.hits >= misses_after_first
        # The reports themselves agree row-for-row.
        assert [l for l in first.splitlines() if not l.startswith("== scenario cache")] == [
            l for l in second.splitlines() if not l.startswith("== scenario cache")
        ]

    def test_json_payload_roundtrips(self):
        import json

        payload = report.report_payload(include_training=False)
        decoded = json.loads(json.dumps(payload))
        ids = {e["id"] for e in decoded["experiments"]}
        assert {"fig8", "table3", "table4", "fig14", "fig15"} <= ids
        assert decoded["skipped"] == ["fig3", "fig11"]
        assert decoded["cache"]["misses"] >= 0


# Layers built on the scenario engine; the engine must import none of them.
ABOVE_ENGINE = (
    "repro.experiments",
    "repro.cluster",
    "repro.spot",
    "repro.service",
    "repro.planning",
)


def upward_imports(path: Path, source: str):
    """``(line, target)`` for each import in ``source`` (the file at
    ``path``) that reaches a layer in :data:`ABOVE_ENGINE`, at module
    level or inside a function, absolute or relative, and for each
    dynamic import call."""
    tree = ast.parse(source)
    ctx = FileContext(str(path), source, tree, module_name_for(path))
    found = [
        (node.lineno, target)
        for target, node in ImportMap(ctx).imported_modules(ctx)
        if any(target == layer or target.startswith(layer + ".") for layer in ABOVE_ENGINE)
    ]
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in ("import_module", "__import__"):
                found.append((node.lineno, name))
    return found


class TestEngineLayering:
    def test_engine_imports_nothing_above_it(self):
        import repro.scenarios

        root = Path(repro.scenarios.__file__).parent
        offences = {}
        for path in sorted(root.rglob("*.py")):
            found = upward_imports(path, path.read_text(encoding="utf-8"))
            if found:
                offences[path.name] = found
        assert offences == {}

    def test_guard_sees_every_import_form(self):
        caught = [
            "import repro.cluster.planner",
            "from repro.spot import SpotPlan",
            "from ..experiments.common import ExperimentResult",
            "from .. import service",
            "from ..planning import FIELDS",
            "def late():\n    from ..cluster import ClusterScenario",
            "import importlib\nimportlib.import_module('repro.gpu')",
        ]
        module = Path("src/repro/scenarios/snippet.py")
        for source in caught:
            assert upward_imports(module, source), source
        clean = "from ..gpu.trace import StepTrace\nfrom ..telemetry.tracer import Tracer\n"
        assert upward_imports(module, clean) == []
