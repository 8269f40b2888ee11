"""The seeded request generator behind every workload of the benchmark.

The seed is a benchmark argument; the program under test only ever sees
the bodies generated here. One ``Op`` is one HTTP request or one CLI
invocation. The seed sets the order and the values of the requests but
not their mix: draws are stratified (fixed blocks in seeded order, or
low-discrepancy sequences from a seeded start), so runs with different
seeds do the same kind and amount of work and differ in the requests.

Workloads and why each exists:

``warm-mix``
    A warm service's steady state. Rank-weighted draws from ``POOL``
    (ten valid ``/plan/cluster`` and ``/plan/spot`` bodies: mixtral and
    blackmamba, Daly and explicit ``checkpoint_minutes`` menus, from the
    32-candidate a40 cluster plan to the 912-candidate all-provider
    ``parallelism: "auto"`` plan and its 1,620-candidate spot twin), plus
    10% ``INVALID`` bodies, in shuffled blocks of 40. Set-up sends every
    pool body once, so every valid timed request is a repeat that
    performs zero simulations: normalize/digest, the planner's
    enumerate/strategy/price/pareto phases, memoized risk, serialization
    and HTTP do all of the work. Measured with seed 0 over 600 draws:
    540 (90%) are valid, and all 540 repeat a set-up request.

``cold-sweep``
    The cold path. A fresh server, then never-repeating ``/plan/spot``
    bodies that alternate between two kinds: a new ``(model, seq_len)``
    pair, which builds new per-device traces (``gpu.workload`` ->
    ``gpu.roofline`` -> ``simulate_step``) and prices new risk; and new
    ``num_queries``/``epochs``/``mtbp_hours`` on the previous pair's
    traces, which runs only the risk closed forms and analytic FFT
    builds. Nothing repeats, so a response memo or strategy memo should
    show no change here. Measured with seed 0 over 600 draws: none
    repeats.

``cli-disk-warm``
    What a CLI user feels. ``python -m repro.cluster.plan`` /
    ``python -m repro.spot.plan ... --json`` processes, one at a time,
    each ``CLI_POOL`` body once per block of nine in seeded order, against a
    ``--cache-dir`` prewarmed during set-up: interpreter start-up and
    imports dominate and the disk tier serves every trace. Measured with
    seed 0 over 12 draws (one run's worth): 3 repeat an earlier
    invocation, but each is a fresh process whose memory cache starts
    empty.

Bodies deliberately left out of every workload, because today they
exhaust memory or spin for more than 20 s and would stall a shared
2-core machine on every later check: ``"risk_mode": "mc", "trials": 1e8``,
``"checkpoint_minutes": [1e-9]`` and ``"mtbp_hours": 1e-9``.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

WORKLOADS = ("warm-mix", "cold-sweep", "cli-disk-warm")


@dataclass(frozen=True)
class Op:
    kind: str  # "cluster" or "spot": the endpoint, or the CLI module
    body: Dict[str, object]
    status: int  # the status the body expects

    @property
    def path(self) -> str:
        return f"/plan/{self.kind}"

    @property
    def key(self) -> str:
        """Identity of the request: kind plus canonical body text."""
        return self.kind + " " + json.dumps(self.body, sort_keys=True)


#: Valid bodies in rank order. A ``warm-mix`` block of 40 holds 4
#: invalid bodies and rank ``r`` (from 1) about ``36 / (r * H_10)``
#: times, ``H_10`` being the tenth harmonic number: ``WARM_BLOCK``.
POOL: Tuple[Op, ...] = tuple(
    Op(kind, body, 200)
    for kind, body in (
        ("cluster", {"model": "mixtral", "gpu": ["a40"]}),
        ("spot", {"model": "mixtral", "gpu": ["a40"]}),
        ("cluster", {"model": "blackmamba", "deadline_hours": 48}),
        ("spot", {"model": "blackmamba", "provider": ["cudo"],
                  "checkpoint_minutes": [30], "mtbp_hours": 12}),
        ("cluster", {"model": "mixtral", "gpu": ["a40"], "deadline_hours": 24}),
        ("spot", {"model": "mixtral", "gpu": ["a40"],
                  "checkpoint_minutes": [15, 30, 60], "deadline_hours": 24}),
        ("cluster", {"model": "blackmamba", "provider": ["runpod"],
                     "density": "sparse", "budget_dollars": 50}),
        ("cluster", {"model": "mixtral", "parallelism": "auto",
                     "grad_accum": [1, 2, 4]}),
        ("spot", {"model": "blackmamba", "deadline_hours": 48}),
        ("spot", {"model": "mixtral", "parallelism": "auto",
                  "grad_accum": [1, 2, 4]}),
    )
)
WARM_BLOCK = (12, 6, 4, 3, 3, 2, 2, 2, 1, 1)

#: Invalid bodies of the timed ``warm-mix``; each must get its 400.
INVALID: Tuple[Op, ...] = (
    Op("cluster", {"model": "mixtral", "gpus": ["a40"]}, 400),  # unknown field
    Op("spot", {"model": "mixtral", "num_gpus": "four"}, 400),  # wrong type
    Op("cluster", {"model": "blackmamba", "gpu": []}, 400),  # empty list
)

#: An unknown ``dataset`` should be a 4xx but is a 500 ``KeyError`` today.
#: The benchmark's workloads must be ones on which no operation fails, so
#: this body is sent during set-up as a probe and its 5xx answers are
#: counted in the per-layer metric ``app.probe_5xx``, not in the timed mix.
PROBES: Tuple[Op, ...] = (
    Op("cluster", {"model": "mixtral", "dataset": "alpaca"}, 400),
)

INVALID_PER_BLOCK = 4

#: ``cold-sweep``: the GPU and provider every body plans over, and the
#: sequence lengths (half-open ranges) at which each model fits on it
#: both sparse and dense.
COLD_GPUS = ["a100-80gb"]
COLD_PROVIDERS = ["runpod"]
COLD_SEQ_LENS = {"mixtral": (64, 512), "blackmamba": (64, 1024)}
COLD_QUERIES = (8000, 24000)  # half-open
COLD_EPOCHS = (2, 10)  # closed
COLD_MTBP_HOURS = (12.0, 36.0)

#: ``cold-sweep`` set-up request: same code path, disjoint cache entries
#: (no timed body plans on this GPU).
COLD_WARMUP = Op("spot", {"model": "mixtral", "gpu": ["h100"]}, 200)

GOLDEN_RATIO = (5 ** 0.5 - 1) / 2
SQRT2 = 2 ** 0.5 - 1


def warm_mix(seed: int) -> Iterator[Op]:
    rng = random.Random(seed)
    block = [op for op, count in zip(POOL, WARM_BLOCK) for _ in range(count)]
    while True:
        ops = block + [rng.choice(INVALID) for _ in range(INVALID_PER_BLOCK)]
        rng.shuffle(ops)
        yield from ops


#: ``cli-disk-warm`` draws every pool body but the spot twin of the
#: 912-candidate plan: the risk memo is not persisted, so that one
#: invocation spends about 2 s pricing risk, and whether a run of about
#: twelve invocations drew it once or twice would decide its p95.
CLI_POOL = POOL[:-1]


def cli_disk_warm(seed: int) -> Iterator[Op]:
    rng = random.Random(seed)
    while True:
        yield from rng.sample(CLI_POOL, len(CLI_POOL))


def _stride_permutation(rng: random.Random, low: int, high: int) -> Iterator[int]:
    """Every integer of ``[low, high)`` once, spread evenly from the
    start: a seeded offset plus multiples of a stride near ``n / phi``
    that is coprime with ``n``."""
    n = high - low
    stride = round(n * GOLDEN_RATIO)
    while math.gcd(stride, n) != 1:
        stride += 1
    offset = rng.randrange(n)
    return (low + (offset + i * stride) % n for i in range(n))


def _weyl(rng: random.Random, step: float) -> Iterator[float]:
    """An equidistributed sequence in [0, 1) from a seeded start."""
    start = rng.random()
    return ((start + i * step) % 1.0 for i in itertools.count())


def cold_sweep(seed: int) -> Iterator[Op]:
    """Never-repeating spot bodies: a new (model, seq_len), then new
    num_queries/epochs/mtbp_hours on that pair's traces, and so on, the
    models taking turns. Ends once a model runs out of lengths."""
    rng = random.Random(seed)
    seq_lens = {model: _stride_permutation(rng, *span) for model, span in COLD_SEQ_LENS.items()}
    queries = _stride_permutation(rng, *COLD_QUERIES)
    epochs = _weyl(rng, GOLDEN_RATIO)
    mtbp = _weyl(rng, SQRT2)
    low_epochs, high_epochs = COLD_EPOCHS
    low_mtbp, high_mtbp = COLD_MTBP_HOURS
    for model in itertools.cycle(COLD_SEQ_LENS):
        seq_len = next(seq_lens[model], None)
        if seq_len is None:
            return  # 1,792 ops: every mixtral length has been used
        base = {"model": model, "gpu": list(COLD_GPUS),
                "provider": list(COLD_PROVIDERS), "seq_len": seq_len}
        yield Op("spot", base, 200)
        yield Op(
            "spot",
            dict(
                base,
                num_queries=next(queries),
                epochs=low_epochs + int(next(epochs) * (high_epochs - low_epochs + 1)),
                mtbp_hours=round(low_mtbp + next(mtbp) * (high_mtbp - low_mtbp), 3),
            ),
            200,
        )


def sequence(workload: str, seed: int) -> Iterator[Op]:
    """The timed op sequence of ``workload`` for ``seed``."""
    if workload == "warm-mix":
        return warm_mix(seed)
    if workload == "cold-sweep":
        return cold_sweep(seed)
    if workload == "cli-disk-warm":
        return cli_disk_warm(seed)
    raise KeyError(f"unknown workload {workload!r}; known: {list(WORKLOADS)}")


def warmup(workload: str) -> List[Op]:
    """The requests set-up sends before timing starts."""
    if workload == "warm-mix":
        return list(POOL) + list(INVALID) + list(PROBES)
    if workload == "cold-sweep":
        return [COLD_WARMUP]
    return []


#: CLI spelling of each body field (lists become comma-separated values).
_FLAGS = {
    "model": "--model", "dataset": "--dataset", "gpu": "--gpu",
    "provider": "--provider", "num_gpus": "--num-gpus",
    "interconnect": "--interconnect", "density": "--density",
    "batch_size": "--batch-size", "parallelism": "--parallelism",
    "max_tp": "--max-tp", "grad_accum": "--grad-accum", "epochs": "--epochs",
    "num_queries": "--num-queries", "seq_len": "--seq-len",
    "deadline_hours": "--deadline-hours", "budget_dollars": "--budget",
    "spot": "--spot", "mtbp_hours": "--mtbp-hours",
    "checkpoint_minutes": "--checkpoint-minutes", "confidence": "--confidence",
    "risk_mode": "--risk-mode", "trials": "--trials", "seed": "--seed",
}
_REPEATED = ("gpu", "provider", "interconnect", "batch_size")


def cli_argv(op: Op, cache_dir: Optional[str] = None) -> List[str]:
    """``python -m <module>`` arguments equivalent to ``op``'s body."""
    argv = ["-m", f"repro.{op.kind}.plan"]
    for field, value in op.body.items():
        flag = _FLAGS[field]
        if isinstance(value, list) and field in _REPEATED:
            argv += list(itertools.chain.from_iterable((flag, str(v)) for v in value))
        elif isinstance(value, list):
            argv += [flag, ",".join(str(v) for v in value)]
        else:
            argv += [flag, str(value)]
    argv.append("--json")
    if cache_dir is not None:
        argv += ["--cache-dir", cache_dir]
    return argv


def cli_prewarm() -> List[Op]:
    """Two cluster plans whose sweeps cover every per-device trace that
    ``POOL`` needs, so the disk tier serves each timed CLI run."""
    return [
        Op("cluster", {"model": "mixtral", "parallelism": "auto",
                       "grad_accum": [1, 2, 4]}, 200),
        Op("cluster", {"model": "blackmamba"}, 200),
    ]
