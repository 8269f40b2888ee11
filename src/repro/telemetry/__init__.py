"""Structured observability for the planning stack.

Dependency-free spans, metrics, exporters, run manifests — and the
consume side that turns their JSONL into answers: an append-only
:class:`RunStore`, a critical-path/self-time analyzer
(``python -m repro.telemetry.analyze``) and a cross-run diff with a CI
regression gate (``python -m repro.telemetry.compare``) — threaded
through the scenario engine, both planners and the three CLIs:

* :class:`Tracer` / :class:`Span` — nested timed phases with a
  context-manager API and a process-global default (disabled until a
  CLI's ``--telemetry`` flag turns it on), plus deterministic
  reassembly of process-pool workers' spans;
* :class:`MetricsRegistry` — named counters/gauges/histograms; the
  simulation cache's ``CacheStats`` counters are stored here now, and
  fetch/memoize latencies land in per-source histograms;
* exporters — a JSONL event writer (``--telemetry-out``), the
  ``--json`` payloads' flag-gated ``"telemetry"`` block, and the
  human-readable phase tree printed under ``--telemetry``;
* run manifests — version + args + grid digest + cache provenance +
  per-phase wall-clock, the reproducibility record for benchmark
  trajectories and (eventually) service request logs;
* a schema validator (:func:`validate_event`/:func:`validate_file`,
  raising :class:`SchemaError` with the offending line and key) shared
  by the tests and the CI smoke job;
* the run store + analyzers — :class:`RunStore` (append-only index of
  validated runs, ``--run-store DIR`` / ``$REPRO_RUN_STORE``),
  :func:`analyze_run` (span-tree critical path, per-span self-time,
  cache-efficiency audit, bucket-estimated latency percentiles) and
  :func:`compare_runs` (per-phase deltas with a noise-aware regression
  verdict — the CI perf gate).

With every flag off the subsystem is inert: the default tracer hands
out no-op spans, and the CLIs' output stays byte-identical to the
pre-telemetry contract.
"""

# The analyzer CLIs (`python -m repro.telemetry.analyze` / `.compare`)
# are deliberately NOT imported here — mirroring how `repro.spot` leaves
# `repro.spot.plan` to runpy — so `-m` execution stays warning-free.
# Import their library surface via the submodules:
#   from repro.telemetry.analyze import analyze_run, critical_path, ...
#   from repro.telemetry.compare import compare_runs, phase_deltas, ...
from .cli import (
    add_telemetry_arguments,
    begin_telemetry,
    finish_telemetry,
    telemetry_enabled,
)
from .export import export_run, metric_events, telemetry_block, write_events
from .manifest import build_manifest, grid_digest, repo_version, version_info
from .metrics import (
    BUCKET_BOUNDS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    merge_snapshots,
    quantile_from_buckets,
)
from .runstore import RunRecord, RunStore, load_run, resolve_run_store
from .schema import SCHEMA_VERSION, SchemaError, validate_event, validate_file
from .tracer import (
    Span,
    Tracer,
    default_tracer,
    reset_default_tracer,
    resolve_tracer,
)

__all__ = [
    "BUCKET_BOUNDS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "RunRecord",
    "RunStore",
    "SCHEMA_VERSION",
    "SchemaError",
    "Span",
    "Tracer",
    "add_telemetry_arguments",
    "begin_telemetry",
    "build_manifest",
    "default_tracer",
    "export_run",
    "finish_telemetry",
    "grid_digest",
    "load_run",
    "merge_snapshots",
    "metric_events",
    "quantile_from_buckets",
    "repo_version",
    "reset_default_tracer",
    "resolve_run_store",
    "resolve_tracer",
    "telemetry_block",
    "telemetry_enabled",
    "validate_event",
    "validate_file",
    "version_info",
    "write_events",
]
