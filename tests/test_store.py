"""Tests for the persistence + parallelism layer of the scenario engine:
canonical scenario digests, the disk-backed trace store (atomicity,
versioning, corruption tolerance), the tiered cache, the process-pool
sweep executor, and the CLIs' --cache-dir / --executor contract."""

import json
import os
import pickle
import shutil
import subprocess
import sys
import threading

import pytest

from repro.cluster import ClusterScenario
from repro.cluster.plan import main as cluster_plan_main
from repro.gpu import A40
from repro.models import BLACKMAMBA_2_8B
from repro.scenarios import (
    DiskTraceStore,
    ENV_CACHE_DIR,
    Scenario,
    ScenarioGrid,
    SimulationCache,
    SweepRunner,
    resolve_store,
)
from repro.scenarios.store import FORMAT_VERSION
from repro.serialization import dumps
from repro.spot.plan import main as spot_plan_main


def scenario(batch_size: int = 1, **kwargs) -> Scenario:
    return Scenario(model=BLACKMAMBA_2_8B, gpu=A40, batch_size=batch_size,
                    seq_len=kwargs.pop("seq_len", 64), **kwargs)


GRID = ScenarioGrid.product(
    models=(BLACKMAMBA_2_8B,), gpus=(A40,), seq_lens=(64,),
    dense=(True, False), batch_sizes=(1, 2, 3, 4),
)


class TestScenarioDigest:
    def test_digest_is_sha256_of_canonical_text(self):
        import hashlib

        s = scenario()
        expected = hashlib.sha256(s.canonical_text().encode()).hexdigest()
        assert s.digest() == expected
        assert len(s.digest()) == 64

    def test_equal_resolved_keys_share_a_digest(self):
        # Registry-key vs object spelling, and dataset vs explicit
        # seq_len, resolve to one key — and must name one disk entry.
        by_key = Scenario(model="blackmamba-2.8b", gpu="A40", dataset="commonsense15k")
        by_obj = Scenario(model=BLACKMAMBA_2_8B, gpu=A40, seq_len=79)
        assert by_key.key() == by_obj.key()
        assert by_key.canonical_text() == by_obj.canonical_text()
        assert by_key.digest() == by_obj.digest()

    def test_distinct_scenarios_get_distinct_digests(self):
        digests = {s.digest() for s in GRID}
        assert len(digests) == len(GRID)

    def test_cluster_scenario_shares_the_replica_digest(self):
        # ClusterScenario inherits key() (the replica trace ignores the
        # cluster axes), so it must hit the same disk entry too.
        cluster = ClusterScenario(model=BLACKMAMBA_2_8B, gpu=A40, seq_len=64,
                                  num_gpus=8, interconnect="pcie-gen4")
        assert cluster.digest() == scenario().digest()

    def test_digest_is_stable_across_interpreter_runs(self):
        # key() tuples hash differently per run (PYTHONHASHSEED); the
        # digest is the cross-process identity, so a fresh interpreter
        # must reproduce it bit-for-bit.
        code = (
            "from repro.models import BLACKMAMBA_2_8B\n"
            "from repro.gpu import A40\n"
            "from repro.scenarios import Scenario\n"
            "print(Scenario(model=BLACKMAMBA_2_8B, gpu=A40, batch_size=3,\n"
            "               seq_len=128, dense=True).digest())\n"
        )
        env = dict(os.environ, PYTHONHASHSEED="12345")
        env["PYTHONPATH"] = "src" + os.pathsep + env.get("PYTHONPATH", "")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, env=env, cwd=os.path.dirname(os.path.dirname(__file__)))
        assert out.returncode == 0, out.stderr
        local = Scenario(model=BLACKMAMBA_2_8B, gpu=A40, batch_size=3,
                         seq_len=128, dense=True).digest()
        assert out.stdout.strip() == local


class TestDiskTraceStore:
    def test_round_trip(self, tmp_path):
        store = DiskTraceStore(tmp_path)
        s = scenario(batch_size=2)
        trace = SimulationCache().simulate(s)
        assert store.get(s) is None
        store.put(s, trace)
        loaded = store.get(s)
        assert loaded == trace
        assert s in store
        assert len(store) == 1
        assert store.digests() == [s.digest()]

    def test_clear(self, tmp_path):
        store = DiskTraceStore(tmp_path)
        s = scenario()
        store.put(s, SimulationCache().simulate(s))
        store.clear()
        assert len(store) == 0 and store.get(s) is None

    def test_truncated_entry_reads_as_miss(self, tmp_path):
        store = DiskTraceStore(tmp_path)
        s = scenario()
        store.put(s, SimulationCache().simulate(s))
        path = store.path_for(s.digest())
        path.write_bytes(path.read_bytes()[:20])
        assert store.get(s) is None

    def test_garbage_entry_reads_as_miss(self, tmp_path):
        store = DiskTraceStore(tmp_path)
        s = scenario()
        store.path_for(s.digest()).write_bytes(b"this is not a pickle at all")
        assert store.get(s) is None

    def test_foreign_pickle_reads_as_miss(self, tmp_path):
        store = DiskTraceStore(tmp_path)
        s = scenario()
        store.path_for(s.digest()).write_bytes(pickle.dumps([1, 2, 3]))
        assert store.get(s) is None

    def test_version_mismatch_reads_as_miss(self, tmp_path):
        store = DiskTraceStore(tmp_path)
        s = scenario()
        trace = SimulationCache().simulate(s)
        entry = {"version": FORMAT_VERSION + 1, "scenario": s.canonical_text(),
                 "trace": trace}
        store.path_for(s.digest()).write_bytes(pickle.dumps(entry))
        assert store.get(s) is None

    def test_canonical_text_mismatch_reads_as_miss(self, tmp_path):
        # A digest collision (or a renamed entry) must never hand back
        # the wrong trace.
        store = DiskTraceStore(tmp_path)
        a, b = scenario(batch_size=1), scenario(batch_size=2)
        store.put(a, SimulationCache().simulate(a))
        shutil.copy(store.path_for(a.digest()), store.path_for(b.digest()))
        assert store.get(b) is None
        assert store.get(a) is not None

    def test_corrupt_entry_forces_resimulation_not_a_crash(self, tmp_path):
        store = DiskTraceStore(tmp_path)
        s = scenario()
        SimulationCache(store=store).simulate(s)  # writes the entry
        store.path_for(s.digest()).write_bytes(b"\x80garbage")
        cache = SimulationCache(store=store)
        trace = cache.simulate(s)
        stats = cache.stats()
        assert (stats.simulations, stats.disk_hits) == (1, 0)
        # The re-simulation healed the entry on disk.
        assert store.get(s) == trace

    def test_concurrent_writers_never_corrupt(self, tmp_path):
        store = DiskTraceStore(tmp_path)
        s = scenario()
        trace = SimulationCache().simulate(s)
        errors = []

        def writer():
            for _ in range(25):
                store.put(s, trace)

        def reader():
            for _ in range(50):
                loaded = store.get(s)  # valid entry or miss, never junk
                if loaded is not None and loaded != trace:
                    errors.append("reader observed a wrong/partial trace")

        threads = [threading.Thread(target=writer) for _ in range(4)]
        threads += [threading.Thread(target=reader) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert store.get(s) == trace
        # No abandoned temporary files survive the melee.
        leftovers = [p for p in os.listdir(tmp_path) if p.startswith(".tmp-")]
        assert leftovers == []

    def test_resolve_store(self, tmp_path, monkeypatch):
        monkeypatch.delenv(ENV_CACHE_DIR, raising=False)
        assert resolve_store(None) is None
        assert resolve_store(tmp_path).root == tmp_path
        monkeypatch.setenv(ENV_CACHE_DIR, str(tmp_path / "from-env"))
        store = resolve_store(None)
        assert store is not None and store.root == tmp_path / "from-env"
        # An explicit dir wins over the environment.
        assert resolve_store(tmp_path / "explicit").root == tmp_path / "explicit"


class TestTieredCache:
    def test_memory_then_disk_then_simulate(self, tmp_path):
        store = DiskTraceStore(tmp_path)
        s = scenario()
        cold = SimulationCache(store=store)
        first = cold.simulate(s)
        assert (cold.stats().misses, cold.stats().simulations) == (1, 1)
        cold.simulate(s)
        assert cold.stats().hits == 1  # memory tier

        warm = SimulationCache(store=store)  # fresh process stand-in
        loaded = warm.simulate(s)
        stats = warm.stats()
        assert loaded == first
        assert (stats.disk_hits, stats.simulations, stats.misses) == (1, 0, 0)
        warm.simulate(s)
        assert warm.stats().hits == 1  # promoted into memory

    def test_warm_store_means_zero_simulations_for_a_whole_grid(self, tmp_path):
        store = DiskTraceStore(tmp_path)
        cold = SimulationCache(store=store)
        SweepRunner(cache=cold).run(GRID)
        assert (cold.stats().simulations, len(store)) == (len(GRID), len(GRID))
        warm = SimulationCache(store=store)
        points = SweepRunner(cache=warm).run(GRID)
        assert warm.stats().simulations == 0
        assert warm.stats().disk_hits == len(GRID)
        assert [p.label for p in points] == [s.label() for s in GRID]

    def test_attach_store_retrofits_the_disk_tier(self, tmp_path):
        store = DiskTraceStore(tmp_path)
        SimulationCache(store=store).simulate(scenario())
        cache = SimulationCache()
        cache.attach_store(store)
        cache.simulate(scenario())
        assert cache.stats().disk_hits == 1


class TestProcessExecutor:
    def test_invalid_executor_rejected(self):
        with pytest.raises(ValueError):
            SweepRunner(executor="fork-bomb")

    def test_process_pool_matches_thread_pool_bytes_and_accounting(self):
        serial_cache = SimulationCache()
        serial = SweepRunner(cache=serial_cache, jobs=1).run(GRID)
        process_cache = SimulationCache()
        process = SweepRunner(cache=process_cache, jobs=2, executor="process").run(GRID)
        as_bytes = lambda points: dumps(
            [(p.index, p.label, p.total_seconds, p.queries_per_second) for p in points]
        )
        assert as_bytes(process) == as_bytes(serial)
        # Replayed accounting is indistinguishable from the serial run.
        assert process_cache.stats() == serial_cache.stats()

    def test_process_pool_replays_duplicate_hits_in_grid_order(self):
        # Dispatch is deduplicated by key, so a doubled grid costs the
        # workers (and the counters) exactly what the serial run pays.
        doubled = GRID + GRID
        serial_cache = SimulationCache()
        SweepRunner(cache=serial_cache, jobs=1).run(doubled)
        process_cache = SimulationCache()
        SweepRunner(cache=process_cache, jobs=2, executor="process").run(doubled)
        assert process_cache.stats() == serial_cache.stats()
        assert process_cache.stats().simulations == len(GRID)

    def test_process_pool_skips_traces_already_resident_in_memory(self):
        # A warm parent memory means nothing is dispatched: the second
        # pass is pure memory hits and no worker simulates anything.
        cache = SimulationCache()
        first = SweepRunner(cache=cache, jobs=1).run(GRID)
        before = cache.stats().simulations
        second = SweepRunner(cache=cache, jobs=2, executor="process").run(GRID)
        stats = cache.stats()
        assert stats.simulations == before
        assert stats.hits == len(GRID)
        assert [a.trace is b.trace for a, b in zip(first, second)] == [True] * len(GRID)

    def test_process_workers_warm_the_shared_store(self, tmp_path):
        store = DiskTraceStore(tmp_path)
        cache = SimulationCache(store=store)
        SweepRunner(cache=cache, jobs=2, executor="process").run(GRID)
        assert len(store) == len(GRID)  # workers wrote every trace
        warm = SimulationCache(store=store)
        SweepRunner(cache=warm, jobs=2, executor="process").run(GRID)
        stats = warm.stats()
        assert (stats.simulations, stats.disk_hits) == (0, len(GRID))


PLAN_ARGS = [
    "--model", "blackmamba", "--gpu", "a40", "--provider", "cudo",
    "--num-gpus", "1,2", "--interconnect", "nvlink", "--density", "sparse",
    "--json",
]


class TestPlanCLI:
    def run_plan(self, capsys, *extra) -> str:
        assert cluster_plan_main(PLAN_ARGS + list(extra)) == 0
        return capsys.readouterr().out

    def test_process_executor_output_byte_identical(self, capsys, tmp_path):
        baseline = self.run_plan(capsys, "--jobs", "1")
        process = self.run_plan(
            capsys, "--executor", "process", "--jobs", "2",
            "--cache-dir", str(tmp_path),
        )
        assert process == baseline
        json.loads(baseline)  # stays valid JSON

    def test_cache_dir_populates_and_reuses_the_store(self, capsys, tmp_path):
        cold = self.run_plan(capsys, "--cache-dir", str(tmp_path))
        assert len(DiskTraceStore(tmp_path)) > 0
        warm = self.run_plan(capsys, "--cache-dir", str(tmp_path))
        assert warm == cold

    def test_env_var_is_the_default_cache_dir(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv(ENV_CACHE_DIR, str(tmp_path / "env-store"))
        out = self.run_plan(capsys)
        assert len(DiskTraceStore(tmp_path / "env-store")) > 0
        json.loads(out)


class TestSpotPlanCLIDeterminism:
    """The PR 4 byte-identity contract extended to the risk planner's
    Monte Carlo path: per-candidate seeding makes --risk-mode mc output
    independent of --jobs, the executor, and the disk store."""

    SPOT_ARGS = PLAN_ARGS + ["--deadline-hours", "24", "--risk-mode", "mc"]

    def run_spot(self, capsys, *extra) -> str:
        assert spot_plan_main(self.SPOT_ARGS + list(extra)) == 0
        return capsys.readouterr().out

    def test_mc_process_executor_output_byte_identical(self, capsys, tmp_path):
        baseline = self.run_spot(capsys, "--jobs", "1")
        process = self.run_spot(
            capsys, "--executor", "process", "--jobs", "2",
            "--cache-dir", str(tmp_path),
        )
        assert process == baseline
        payload = json.loads(baseline)  # stays valid JSON
        assert payload["risk_mode"] == "mc"

    def test_mc_cache_dir_reuse_is_byte_identical(self, capsys, tmp_path):
        cold = self.run_spot(capsys, "--cache-dir", str(tmp_path))
        assert len(DiskTraceStore(tmp_path)) > 0
        warm = self.run_spot(capsys, "--cache-dir", str(tmp_path))
        assert warm == cold


class TestReportDeterminism:
    def test_process_executor_report_bytes_identical(self):
        from repro.experiments import report
        from repro.scenarios import reset_default_cache

        reset_default_cache()
        serial = dumps(report.report_payload(include_training=False), indent=2)
        reset_default_cache()
        process = dumps(
            report.report_payload(include_training=False, jobs=2, executor="process"),
            indent=2,
        )
        assert process == serial
