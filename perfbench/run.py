"""The repository's benchmark: the planning service and the plan CLIs,
run the way users run them, end to end and layer by layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload warm-mix --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --workload cold-sweep --seed 3 --seconds 15 --trace 1
    python3 perfbench/run.py --write-golden   # re-pin golden_sha256.json

``--trace 0`` times one workload untraced and prints the end-to-end
metrics: a ``python -m repro.service.serve --port 0`` child driven by
two closed-loop keep-alive HTTP clients (``warm-mix``, ``cold-sweep``),
or plan-CLI children run one at a time (``cli-disk-warm``). ``--trace 1``
runs the same seeded ops once more over HTTP or as CLI processes, then
replays them in-process twice, untraced and with every layer wrapped
(see ``layers.py``), and prints the per-layer metrics. Both modes check
every answer (see ``check.py``). The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from harness import ROOT, SRC, Result, Run, Server, child_env, cli_loop, closed_loop, run_cli, send_each
from workloads import PROBES, WORKLOADS, Op, cli_argv, cli_prewarm, sequence, warmup

SETUP_REPEATS = 3
CLIENTS = 2
WORK = ROOT / ".perfbench-work"
GOLDEN_COLD_OPS = 64

END_TO_END = {
    "setup_s": "s",
    "throughput_rps": "1/s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "cpu_ms_per_op": "ms",
    "peak_rss_mb": "MB",
}

#: Per-layer metric -> unit. A value of 0 means the layer is
#: not on the workload's path (e.g. ``http.*`` on ``cli-disk-warm``).
#: ``*.ms_per_op`` is self time per op of the traced in-process replay.
#: ``http.ms_per_op`` is client latency minus the untraced in-process
#: time of the same op; under two clients it includes waiting behind the
#: other client's request in the server.
PER_LAYER = {
    "http.ms_per_op": "ms",
    "app.normalize.ms_per_op": "ms",
    "app.pricing.ms_per_op": "ms",
    "app.coalesced_ratio": "ratio",
    "app.rejected_ratio": "ratio",
    "app.probe_5xx": "count",
    "serialize.ms_per_op": "ms",
    "serialize.kb_per_op": "kB",
    "planner.enumerate.ms_per_op": "ms",
    "planner.sweep.ms_per_op": "ms",
    "planner.strategy.ms_per_op": "ms",
    "planner.strategy.calls_per_op": "count",
    "planner.price.ms_per_op": "ms",
    "planner.pareto.ms_per_op": "ms",
    "planner.cells_per_op": "count",
    "planner.candidates_per_op": "count",
    "cache.fetch.ms_per_op": "ms",
    "cache.memoize.ms_per_op": "ms",
    "cache.hit_ratio": "ratio",
    "cache.simulations_per_op": "count",
    "cache.risk_hit_ratio": "ratio",
    "cache.risk_misses_per_op": "count",
    "cache.entries": "count",
    "store.get.ms_per_op": "ms",
    "store.put.ms_per_op": "ms",
    "store.disk_hits_per_op": "count",
    "sim.workload.ms_per_call": "ms",
    "sim.roofline.ms_per_call": "ms",
    "sim.step.ms_per_call": "ms",
    "sim.kernels_per_step": "count",
    "sim.calls_per_op": "count",
    "risk.segments.ms_per_op": "ms",
    "risk.segments_per_call": "count",
    "risk.closed_form.ms_per_op": "ms",
    "risk.analytic.calls_per_op": "count",
    "risk.analytic.ms_per_call": "ms",
    "risk.planner.ms_per_op": "ms",
    "risk.pareto.ms_per_op": "ms",
    "cli.import_ms": "ms",
    "cli.import.scipy_ms": "ms",
    "cli.import.numpy_ms": "ms",
    "cli.main_ms": "ms",
    "trace.overhead_ratio": "ratio",
    "trace.unattributed_ms_per_op": "ms",
}

IMPORT_STATEMENT = "import repro.cluster.plan, repro.spot.plan"


# ---------------------------------------------------------------------------
# Set-up and timed runs
# ---------------------------------------------------------------------------

def _setup_service(workload: str, workdir: Path) -> Tuple[Server, float, List[Result]]:
    """Launch a server and send the workload's warm-up; timed together."""
    started = time.perf_counter()
    server = Server(workdir).start()
    try:
        warm = send_each(server, warmup(workload))
    except BaseException:
        server.stop()
        raise
    return server, time.perf_counter() - started, warm


def _setup_problems(warm: List[Result]) -> List[str]:
    return [
        f"set-up {r.op.key}: status {r.status}, expected {r.op.status}"
        for r in warm
        if r.status != r.op.status and r.op not in PROBES
    ]


def service_run(workload: str, seed: int, seconds: float, workdir: Path, repeats: int):
    """Set up ``repeats`` times (keeping the last server), then time the
    closed loop. Returns the run, set-up times, warm-up results and the
    server's ``/stats`` before and after the timed loop."""
    setups = []
    for _ in range(repeats - 1):
        server, elapsed, _ = _setup_service(workload, workdir)
        server.stop()
        setups.append(elapsed)
    server, elapsed, warm = _setup_service(workload, workdir)
    setups.append(elapsed)
    with server:
        before = server.stats()
        run = closed_loop(server, sequence(workload, seed), seconds, CLIENTS)
        after = server.stats()
    return run, setups, warm, (before, after)


def _setup_cli(workdir: Path, index: int) -> Tuple[str, float]:
    """A fresh ``--cache-dir`` prewarmed by CLI runs; timed."""
    cache_dir = str(workdir / f"cache-{index}")
    started = time.perf_counter()
    for op in cli_prewarm():
        result, _, _ = run_cli(op, cache_dir, workdir)
        if result.status != 200:
            raise RuntimeError(f"prewarm {op.key} failed")
    return cache_dir, time.perf_counter() - started


def cli_run(seed: int, seconds: float, workdir: Path, repeats: int):
    setups = []
    for index in range(repeats):
        if index:
            shutil.rmtree(cache_dir)
        cache_dir, elapsed = _setup_cli(workdir, index)
        setups.append(elapsed)
    run = cli_loop(sequence("cli-disk-warm", seed), seconds, cache_dir, workdir)
    return run, setups, cache_dir


def end_to_end(run: Run, setups: List[float]) -> Dict[str, float]:
    latencies = [r.seconds * 1e3 for r in run.results]
    q = statistics.quantiles(latencies, n=100, method="inclusive")
    ops = len(run.results)
    return {
        "setup_s": statistics.median(setups),
        "throughput_rps": ops / run.seconds,
        "latency_p50_ms": q[49],
        "latency_p95_ms": q[94],
        "cpu_ms_per_op": 1e3 * run.cpu_seconds / ops,
        "peak_rss_mb": run.peak_rss_mb,
    }


# ---------------------------------------------------------------------------
# In-process replays (traced run)
# ---------------------------------------------------------------------------

def _timed_replay(ops: List[Op], call, recorder) -> Tuple[List[float], List[Result]]:
    import layers

    times: List[float] = []
    answers: List[Result] = []
    for index, op in enumerate(ops):
        started = time.perf_counter()
        with recorder.span(layers.ROOT_SPAN) if recorder else contextlib.nullcontext():
            status, text = call(op)
        elapsed = time.perf_counter() - started
        times.append(elapsed)
        answers.append(Result(index, op, elapsed, status, text))
    return times, answers


def replay_service(workload: str, ops: List[Op], recorder=None):
    """Replay ``ops`` on a fresh in-process service after the same
    warm-up; traced when ``recorder`` is given."""
    import layers
    from repro.service import PlanningService, RequestError

    service = PlanningService()

    def call(op: Op) -> Tuple[int, bytes]:
        try:
            return 200, service.plan(op.kind, json.loads(json.dumps(op.body))).encode()
        except RequestError as exc:
            return exc.status, b""

    for op in warmup(workload):
        if op not in PROBES:
            call(op)
    before = layers.stats_dict(service.cache.stats())
    with layers.install(recorder) if recorder else contextlib.nullcontext():
        times, answers = _timed_replay(ops, call, recorder)
    after = layers.stats_dict(service.cache.stats())
    delta = {key: after[key] - before[key] for key in after}
    return times, answers, delta, service.cache.stats().entries


def replay_cli(ops: List[Op], cache_dir: str, recorder=None):
    """Replay ``ops`` through the CLIs' ``main(argv)`` in-process, on
    the prewarmed store; traced when ``recorder`` is given."""
    import layers
    from repro.cluster import plan as cluster_cli
    from repro.spot import plan as spot_cli

    mains = {"cluster": cluster_cli.main, "spot": spot_cli.main}

    def call(op: Op) -> Tuple[int, bytes]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = mains[op.kind](cli_argv(op, cache_dir)[2:])
        return (200 if code == 0 else 0), out.getvalue().encode()

    with layers.install(recorder) if recorder else contextlib.nullcontext():
        times, answers = _timed_replay(ops, call, recorder)
    caches = recorder.caches if recorder else []
    return times, answers, layers.summed_stats(caches), layers.max_entries(caches)


def import_probe(workdir: Path, repeats: int = 3) -> Dict[str, float]:
    """Fresh-interpreter import of both plan CLIs (median wall time of
    ``repeats``), split by package with ``python -X importtime``."""
    code = (
        "import time; t = time.perf_counter(); "
        f"{IMPORT_STATEMENT}; print(time.perf_counter() - t)"
    )
    walls = []
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            env=child_env(), cwd=workdir, check=True, timeout=120,
        )
        walls.append(float(proc.stdout))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", IMPORT_STATEMENT],
        capture_output=True, text=True, env=child_env(), cwd=workdir,
        check=True, timeout=120,
    )
    self_us: Dict[str, int] = defaultdict(int)
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        own, _, name = line[len("import time:"):].split("|")
        self_us[name.strip().split(".")[0]] += int(own)
    return {
        "cli.import_ms": 1e3 * statistics.median(walls),
        "cli.import.scipy_ms": self_us["scipy"] / 1e3,
        "cli.import.numpy_ms": self_us["numpy"] / 1e3,
    }


def _answers_reference(answers: List[Result], answer_kind: str):
    import check

    table = {}
    for answer in answers:
        plan = check.canonical_plan(answer_kind, answer.body) if answer.status == 200 else None
        table.setdefault(answer.op.key, (answer.status, plan))
    return lambda op: table[op.key]


def _same_answers(a: List[Result], b: List[Result]) -> bool:
    return [(r.status, r.body) for r in a] == [(r.status, r.body) for r in b]


# ---------------------------------------------------------------------------
# The two modes
# ---------------------------------------------------------------------------

def untraced(workload: str, seed: int, seconds: float, workdir: Path):
    import check

    if workload == "cli-disk-warm":
        run, setups, _ = cli_run(seed, seconds, workdir, SETUP_REPEATS)
        failed, problems = check.verify(run.results, check.cli_reference(), "cli", seed)
    else:
        run, setups, warm, _ = service_run(workload, seed, seconds, workdir, SETUP_REPEATS)
        failed, problems = check.verify(
            run.results, check.service_reference(), "service", seed
        )
        problems += _setup_problems(warm)
    return run, failed, problems, end_to_end(run, setups)


def traced(workload: str, seed: int, seconds: float, workdir: Path):
    import check
    import layers

    recorder = layers.Recorder()
    metrics: Dict[str, float] = {"app.probe_5xx": 0.0}
    if workload == "cli-disk-warm":
        run, _, cache_dir = cli_run(seed, seconds, workdir, 1)
        ops = [r.op for r in run.results]
        plain, plain_answers, _, _ = replay_cli(ops, cache_dir)
        timed, timed_answers, delta, entries = replay_cli(ops, cache_dir, recorder)
        failed, problems = check.verify(run.results, check.cli_reference(), "cli", seed)
        metrics.update({
            "http.ms_per_op": 0.0,
            "app.coalesced_ratio": 0.0,
            "app.rejected_ratio": 0.0,
            "cli.main_ms": 1e3 * statistics.mean(plain),
        })
    else:
        run, _, warm, (before, after) = service_run(workload, seed, seconds, workdir, 1)
        ops = [r.op for r in run.results]
        plain, plain_answers, _, _ = replay_service(workload, ops)
        timed, timed_answers, delta, entries = replay_service(workload, ops, recorder)
        failed, problems = check.verify(
            run.results, _answers_reference(plain_answers, "service"), "service", seed
        )
        problems += _setup_problems(warm)
        flight = {k: after["flight"][k] - before["flight"][k] for k in ("leaders", "shared")}
        requests = {k: after["requests"][k] - before["requests"][k] for k in ("total", "errors")}
        metrics.update({
            "http.ms_per_op": 1e3 * statistics.mean(
                r.seconds - t for r, t in zip(run.results, plain)
            ),
            "app.coalesced_ratio": flight["shared"] / max(1, flight["leaders"] + flight["shared"]),
            "app.rejected_ratio": requests["errors"] / max(1, requests["total"]),
            "app.probe_5xx": float(sum(r.status >= 500 for r in warm if r.op in PROBES)),
            "cli.main_ms": 0.0,
        })
    if not _same_answers(plain_answers, timed_answers):
        problems.append("the traced replay answered differently from the untraced one")
    layer, coverage = layers.layer_metrics(recorder, len(ops), delta, entries, workload)
    metrics.update(layer)
    metrics.update(import_probe(workdir))
    metrics["trace.overhead_ratio"] = sum(timed) / sum(plain)
    problems += coverage + invariant_problems(workload, metrics)
    return run, failed, problems, metrics


def invariant_problems(workload: str, m: Dict[str, float]) -> List[str]:
    """Exact counts carried over from the legacy ``BENCH_*.json`` scripts."""
    problems = []
    if workload == "warm-mix" and (m["cache.simulations_per_op"] or m["cache.risk_misses_per_op"]):
        problems.append("warm-mix after set-up simulated or missed the risk memo")
    if workload == "cold-sweep" and not m["cache.simulations_per_op"]:
        problems.append("cold-sweep simulated nothing")
    if workload == "cli-disk-warm" and (
        m["cache.simulations_per_op"] or not m["store.disk_hits_per_op"]
    ):
        problems.append("cli-disk-warm simulated, or the disk tier served nothing")
    return problems


def write_golden(path: Path) -> None:
    """Pin the default seed's plan blocks: every pool body (the service
    and CLI answers must agree) and the first cold-sweep ops."""
    import check
    import workloads

    service = check.service_reference()
    cli = check.cli_reference()
    plans = {}
    for op in workloads.POOL:
        status, plan = service(op)
        if (status, plan) != cli(op):
            raise RuntimeError(f"{op.key}: the service and the CLI disagree")
        plans[op.key] = check.sha256(plan)
    cold = sequence("cold-sweep", check.DEFAULT_SEED)
    fresh = check.service_reference()
    for _ in range(GOLDEN_COLD_OPS):
        op = next(cold)
        plans[op.key] = check.sha256(fresh(op)[1])
    path.write_text(json.dumps({"seed": check.DEFAULT_SEED, "plans": plans}, indent=1) + "\n")


# ---------------------------------------------------------------------------

def _print_report(workload, seed, seconds, trace, run: Run, failed, problems, metrics) -> None:
    ops = len(run.results)
    clients = 1 if workload == "cli-disk-warm" else CLIENTS
    print(f"workload {workload}  seed {seed}  {ops} ops in {run.seconds:.1f} s "
          f"({clients} closed-loop client(s), target {seconds:g} s)  trace {trace}")
    if trace:
        for name, unit in PER_LAYER.items():
            print(f"  {name:32s} {metrics[name]:14.4f} {unit}")
    else:
        beyond = sum(r.seconds * 1e3 > metrics["latency_p95_ms"] for r in run.results)
        for name, value in metrics.items():
            note = ""
            if name == "setup_s":
                note = f"median of {SETUP_REPEATS} set-ups"
            elif name.startswith("latency_"):
                note = f"{ops} samples, {beyond} beyond p95"
            print(f"  {name:18s} {value:12.4f} {END_TO_END[name]:4s} {note}")
    print(f"  failed_ratio {failed / ops:.4f} ratio ({failed} of {ops} ops failed)")
    for problem in problems[:20]:
        print(f"  CHECK FAILED: {problem}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 perfbench/run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true",
                        help="re-pin golden_sha256.json from the current program")
    args = parser.parse_args(argv)
    if not args.write_golden and args.workload is None:
        parser.error("--workload is required")
    if not (SRC / "repro").is_dir():
        print(f"no program to benchmark: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]
    if args.write_golden:
        import check

        write_golden(check.GOLDEN)
        return 0
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK))
    try:
        mode = traced if args.trace else untraced
        run, failed, problems, metrics = mode(args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    _print_report(args.workload, args.seed, args.seconds, args.trace, run, failed, problems, metrics)
    units = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": len(run.results),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in sorted(metrics.items())
        },
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
