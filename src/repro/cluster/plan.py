"""Plan a multi-GPU fine-tune: Pareto cost/time frontier from the CLI.

Usage::

    python -m repro.cluster.plan --model mixtral --gpu a40 --deadline-hours 24 --json
    python -m repro.cluster.plan --model blackmamba --budget 50
    python -m repro.cluster.plan --model mixtral --dataset openorca
    python -m repro.cluster.plan --model mixtral --density dense --gpu a40 \\
        --parallelism auto --max-tp 8 --grad-accum 1,4
    python -m repro.cluster.plan --model mixtral --cache-dir ~/.cache/repro-traces

Mirrors ``repro.experiments.report``: ``--json`` for machine-readable
output (the plan is byte-identical from run to run),
``--cache-dir`` (or ``$REPRO_CACHE_DIR``) for the disk-backed trace store
that lets a plan answer in seconds without re-simulating the world, and
the shared telemetry flags (``--telemetry``, ``--telemetry-out FILE``,
``--run-store DIR`` / ``$REPRO_RUN_STORE`` — the latter feeds
``python -m repro.telemetry.analyze``/``compare``). Model
and GPU names are resolved case-insensitively with unique-prefix
matching, so ``--model mixtral --gpu a40`` means the paper-scale Mixtral
on the A40. The request flags, their defaults and their checks come
from the field table in :mod:`repro.planning`, which the spot CLI and
the planning service share; list flags repeat and take comma-separated
values.
"""

from __future__ import annotations

from typing import List, Optional

# The name resolvers are re-exported: they are part of this CLI's API.
from ..planning import resolve_gpu_name, resolve_model_key, run_cli
from ..scenarios import SimulationCache, resolve_store
from ..serialization import dumps


def resolve_plan_cache(cache_dir: Optional[str]) -> Optional[SimulationCache]:
    """A cache tiered onto the ``--cache-dir`` / ``$REPRO_CACHE_DIR``
    store, or ``None`` (the process-global default cache) when neither is
    set. Shared by the cluster and spot plan CLIs."""
    store = resolve_store(cache_dir)
    return SimulationCache(store=store) if store is not None else None


def main(argv: Optional[List[str]] = None) -> int:
    return run_cli("cluster", argv, __doc__.splitlines()[0], resolve_plan_cache, dumps)


if __name__ == "__main__":
    raise SystemExit(main())
