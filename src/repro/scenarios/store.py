"""Disk-backed trace persistence: report runs that start warm.

The in-memory :class:`~repro.scenarios.cache.SimulationCache` dies with
its process, so every CLI invocation used to re-simulate the world. A
:class:`DiskTraceStore` persists step traces under a directory, keyed by
:meth:`Scenario.digest <repro.scenarios.scenario.Scenario.digest>` — a
sha256 over the scenario's *canonical text*, which (unlike ``hash()`` of
the key tuple) is stable across interpreter runs — so a warm store makes
``repro.experiments.report`` / ``repro.cluster.plan`` / ``repro.spot.plan``
answer without simulating anything.

Contract:

* **Versioned entries.** Each entry records ``FORMAT_VERSION`` and the
  canonical text it was written for; a version bump (or the astronomically
  unlikely digest collision) reads as a miss, never as a wrong trace.
* **Atomic writes.** Entries are written to a temporary file in the store
  directory and ``os.replace``d into place, so concurrent writers (two
  CLI processes, or a CLI and the service) and readers never observe a
  half-written entry — the worst race outcome is one redundant
  simulation.
* **Corruption tolerance.** A truncated, garbled or foreign file is a
  miss: :meth:`get` re-simulates, it never crashes the run.

``--cache-dir`` on the three CLIs (or the ``REPRO_CACHE_DIR`` environment
variable, resolved by :func:`resolve_store`) points every consumer at one
store directory.
"""

from __future__ import annotations

import os
import pickle
import tempfile
from pathlib import Path
from typing import List, Optional, Union

from ..gpu.trace import StepTrace
from ..telemetry.metrics import MetricsRegistry
from .scenario import Scenario

# Bump whenever the entry layout or the pickled trace schema changes;
# old entries then read as misses and are re-simulated, not mis-decoded.
FORMAT_VERSION = 1

ENTRY_SUFFIX = ".trace"

ENV_CACHE_DIR = "REPRO_CACHE_DIR"


class DiskTraceStore:
    """Persists :class:`StepTrace` entries under one directory.

    One file per scenario digest (``<sha256>.trace``), each a pickled
    ``{"version", "scenario", "trace"}`` record. The store is safe to
    share between threads and processes: writes are atomic
    (write-then-rename) and reads tolerate anything — see the module
    docstring for the full contract.
    """

    def __init__(
        self,
        root: Union[str, Path],
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.root = Path(root).expanduser()
        self.root.mkdir(parents=True, exist_ok=True)
        # Event counters, not contract state: corruption tolerance means
        # a broken entry silently reads as a miss, and these are how an
        # operator ever finds out it happened.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._read_hits = self.metrics.counter("store.read_hits")
        self._read_misses = self.metrics.counter("store.read_misses")
        self._corrupt_entries = self.metrics.counter("store.corrupt_entries")
        self._writes = self.metrics.counter("store.writes")
        self._write_errors = self.metrics.counter("store.write_errors")

    # ------------------------------------------------------------------
    def path_for(self, digest: str) -> Path:
        return self.root / f"{digest}{ENTRY_SUFFIX}"

    def get(self, scenario: Scenario) -> Optional[StepTrace]:
        """The stored trace for ``scenario``, or ``None`` on any miss:
        absent entry, unreadable file, foreign pickle, version or
        canonical-text mismatch. Never raises — a broken entry means
        "re-simulate", not "crash the sweep"."""
        path = self.path_for(scenario.digest())
        try:
            with open(path, "rb") as handle:
                entry = pickle.load(handle)
        except FileNotFoundError:
            self._read_misses.inc()
            return None
        except Exception:  # truncated, garbled, not a pickle...
            self._corrupt_entries.inc()
            self._read_misses.inc()
            return None
        trace = entry.get("trace") if isinstance(entry, dict) else None
        if (
            not isinstance(entry, dict)
            or entry.get("version") != FORMAT_VERSION
            or entry.get("scenario") != scenario.canonical_text()
            or not isinstance(trace, StepTrace)
        ):
            # A decodable-but-wrong entry (version bump, digest
            # collision, stale canonical format, foreign payload) is a
            # corruption event too: the file exists but cannot serve.
            self._corrupt_entries.inc()
            self._read_misses.inc()
            return None
        self._read_hits.inc()
        return trace

    def put(self, scenario: Scenario, trace: StepTrace) -> None:
        """Persist ``trace`` atomically: serialize to a temporary file in
        the store directory, then rename over the final path, so a reader
        (or a concurrent writer of the same digest) only ever sees
        complete entries."""
        entry = {
            "version": FORMAT_VERSION,
            "scenario": scenario.canonical_text(),
            "trace": trace,
        }
        try:
            descriptor, tmp_name = tempfile.mkstemp(
                dir=self.root, prefix=".tmp-", suffix=ENTRY_SUFFIX
            )
        except OSError:
            self._write_errors.inc()
            raise
        try:
            with os.fdopen(descriptor, "wb") as handle:
                pickle.dump(entry, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp_name, self.path_for(scenario.digest()))
        except BaseException:
            self._write_errors.inc()
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self._writes.inc()

    # ------------------------------------------------------------------
    def digests(self) -> List[str]:
        """Digests of all (complete) entries, sorted."""
        return sorted(
            path.name[: -len(ENTRY_SUFFIX)]
            for path in self.root.glob(f"*{ENTRY_SUFFIX}")
            if not path.name.startswith(".")
        )

    def __len__(self) -> int:
        return len(self.digests())

    def __contains__(self, scenario: Scenario) -> bool:
        return self.get(scenario) is not None

    def clear(self) -> None:
        """Delete every entry (and any abandoned temporary file)."""
        for path in self.root.glob(f"*{ENTRY_SUFFIX}"):
            try:
                path.unlink()
            except OSError:
                pass

    def __repr__(self) -> str:
        return f"DiskTraceStore({str(self.root)!r}, {len(self)} entries)"


def resolve_store(cache_dir: Optional[Union[str, Path]] = None) -> Optional[DiskTraceStore]:
    """The store for an explicit ``--cache-dir`` value, else for
    ``$REPRO_CACHE_DIR``, else ``None`` (no disk tier). The single
    resolution rule shared by the report and plan CLIs."""
    root = cache_dir if cache_dir else os.environ.get(ENV_CACHE_DIR)
    return DiskTraceStore(root) if root else None
