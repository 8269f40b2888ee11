"""Unified scenario engine (S14) — first-class sweeps over the
characterization space.

The paper's workflow is sweep -> fit -> project. This package makes the
sweep a first-class object:

* :class:`Scenario` — a frozen, hashable point of the (model, dataset,
  GPU, density, batch, seq_len, overrides) space;
* :class:`ScenarioGrid` — declarative enumeration (cartesian products,
  batch sweeps, filters); each consumer builds its own grid;
* :class:`SimulationCache` — memoized ``simulate_step`` traces keyed by
  scenario, with hit/miss accounting, optionally tiered onto a
  :class:`DiskTraceStore` so warmth survives the process;
* :class:`DiskTraceStore` — persistent traces keyed by
  :meth:`Scenario.digest` (sha256 of the canonical scenario text), with
  versioned entries, atomic writes and corruption tolerance;
* :class:`SweepRunner` — deterministic, serial grid execution returning
  :class:`SweepPoint` results in grid order.

Every experiment, the Eq. 2 fitting helpers and the cost model run their
sweeps through this engine, so one process simulates each distinct point
exactly once no matter how many consumers ask for it — and with a cache
dir attached, across processes too.

The engine is a lower layer: it imports nothing from the experiments,
the cluster and spot planners, the planning field table or the
service, which all build on it.
"""

from .cache import (
    CacheStats,
    SimulationCache,
    default_cache,
    reset_default_cache,
    resolve_cache,
)
from .grid import ScenarioGrid
from .runner import SweepPoint, SweepRunner
from .scenario import Scenario, canonical_value, freeze_overrides
from .singleflight import InFlightMap, SingleFlight
from .store import ENV_CACHE_DIR, DiskTraceStore, resolve_store

__all__ = [
    "CacheStats",
    "DiskTraceStore",
    "ENV_CACHE_DIR",
    "InFlightMap",
    "Scenario",
    "ScenarioGrid",
    "SimulationCache",
    "SingleFlight",
    "SweepPoint",
    "SweepRunner",
    "canonical_value",
    "default_cache",
    "freeze_overrides",
    "reset_default_cache",
    "resolve_cache",
    "resolve_store",
]
