"""Plan a fine-tune across spot and on-demand tiers from the CLI.

Usage::

    python -m repro.spot.plan --model mixtral --gpu a40 --deadline-hours 24 --confidence 0.95 --json
    python -m repro.spot.plan --model mixtral --mtbp-hours 2 --checkpoint-minutes 10,30,60
    python -m repro.spot.plan --model blackmamba --spot only --budget 50

Mirrors ``python -m repro.cluster.plan`` (same model/GPU resolution, same
``--json``/``--cache-dir`` contract plus the telemetry flags
``--telemetry``/``--telemetry-out``/``--run-store``, the last feeding the
run store that ``python -m repro.telemetry.analyze``/``compare`` consume
— output is byte-identical from run to run, Monte Carlo seeds included,
and a pre-populated trace store makes the plan simulate nothing) and adds
the risk knobs: ``--spot``
selects the tiers, ``--risk-mode`` the percentile engine (``analytic``,
the default, serves p50/p95/completion probability from the closed-form
distribution with no sampling; ``mc`` runs the batched Monte Carlo;
``both`` serves analytic and validates with MC — analytic serves, MC
validates), ``--mtbp-hours`` overrides every provider's mean time
between preemptions, ``--checkpoint-minutes`` offers checkpoint cadences
(each spot candidate adopts the best one; without the flag every
candidate gets Daly's closed-form optimum ``sqrt(2*MTBP*C)`` for its own
fleet hazard and per-shard write cost), and ``--confidence`` sets the
completion-probability target a deadline must be met with. The
parallelism axes (``--parallelism dp|tp|auto``, ``--max-tp``,
``--grad-accum``) are inherited from the cluster planner; checkpoint
write/restart costs under tensor parallelism use the per-device sharded
state. Both CLIs build their request flags from the field table in
:mod:`repro.planning`.
"""

from __future__ import annotations

from typing import List, Optional

from ..cluster.plan import resolve_plan_cache
from ..planning import run_cli
from ..serialization import dumps


def main(argv: Optional[List[str]] = None) -> int:
    return run_cli("spot", argv, __doc__.splitlines()[0], resolve_plan_cache, dumps)


if __name__ == "__main__":
    raise SystemExit(main())
