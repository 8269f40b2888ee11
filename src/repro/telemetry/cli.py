"""The CLIs' shared telemetry wiring.

Every traced CLI (``repro.experiments.report``, ``repro.cluster.plan``,
``repro.spot.plan``) speaks the same three flags:

* ``--telemetry`` — enable tracing and print the human-readable phase
  tree (to stderr, so ``--json`` stdout stays machine-parseable);
* ``--telemetry-out FILE`` — enable tracing and additionally write the
  JSONL event log (spans, metrics, manifest) to ``FILE``;
* ``--run-store DIR`` — enable tracing and ingest the run's events into
  the append-only run store at ``DIR`` (resolution mirrors
  ``--cache-dir``: the flag beats ``$REPRO_RUN_STORE`` beats off), so
  ``python -m repro.telemetry.analyze``/``compare`` can consume it.

Any of these also unlocks the ``"telemetry"`` block in the CLI's
``--json`` payload; with all of them absent (and ``$REPRO_RUN_STORE``
unset) the CLIs' output is byte-identical to the pre-telemetry
contract — the golden-file tests pin that down.

Usage in a CLI ``main``::

    add_telemetry_arguments(parser)
    ...
    tracer = begin_telemetry(args)          # None when disabled
    ... run the plan ...
    block = finish_telemetry(args, "repro.spot.plan", cache, grid=grid)
    if block is not None and args.as_json:
        payload["telemetry"] = block
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, Optional

from .export import export_run
from .runstore import resolve_run_store
from .tracer import Tracer, default_tracer


def add_telemetry_arguments(parser: argparse.ArgumentParser) -> None:
    """The observability knobs every traced CLI exposes."""
    parser.add_argument("--telemetry", action="store_true",
                        help="trace the run and print a per-phase wall-clock "
                             "tree to stderr (--json output gains a 'telemetry' "
                             "block; without telemetry flags output is "
                             "byte-identical to untraced runs)")
    parser.add_argument("--telemetry-out", default=None, metavar="FILE",
                        help="also write the run's span/metric/manifest events "
                             "as JSONL to FILE (implies tracing)")
    parser.add_argument("--run-store", default=None, metavar="DIR",
                        help="ingest the run's telemetry into the append-only "
                             "run store at DIR for repro.telemetry.analyze/"
                             "compare (implies tracing; default: "
                             "$REPRO_RUN_STORE if set, else no recording)")


def telemetry_enabled(args: argparse.Namespace) -> bool:
    return bool(
        getattr(args, "telemetry", False)
        or getattr(args, "telemetry_out", None)
        or resolve_run_store(getattr(args, "run_store", None)) is not None
    )


def begin_telemetry(args: argparse.Namespace) -> Optional[Tracer]:
    """Enable the process-global tracer when a telemetry flag asked for
    it; returns the tracer, or ``None`` when the run is untraced."""
    if not telemetry_enabled(args):
        return None
    return default_tracer().configure(enabled=True)


def finish_telemetry(
    args: argparse.Namespace,
    command: str,
    cache,
    grid=None,
    stream=None,
) -> Optional[Dict[str, object]]:
    """Close out a traced run through :func:`export_run` — manifest,
    ``--telemetry-out`` JSONL, and the run-store ingest
    (``--run-store`` / ``$REPRO_RUN_STORE``, stamped with the wall-clock
    at finish) — print the phase tree (``--telemetry``), and return the
    ``--json`` telemetry block, or ``None`` when telemetry was never
    enabled. ``cache`` is the run's :class:`SimulationCache` and
    ``grid`` the swept scenario grid (or ``None`` for runs without a
    single grid).
    """
    if not telemetry_enabled(args):
        return None
    tracer = default_tracer()
    block = export_run(
        command,
        vars(args),
        tracer,
        cache,
        grid=grid,
        telemetry_out=getattr(args, "telemetry_out", None),
        run_store=resolve_run_store(getattr(args, "run_store", None)),
    )
    if getattr(args, "telemetry", False):
        out = stream if stream is not None else sys.stderr
        print(f"== telemetry: {command} ({block['manifest']['version']}) ==", file=out)
        print(tracer.render_tree(), file=out)
    return block
