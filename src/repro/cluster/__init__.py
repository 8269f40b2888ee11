"""Cluster planning subsystem — multi-GPU scenarios on the scenario engine.

The paper leaves multi-GPU systems "for future exploration"; this package
explores them with the same machinery the single-GPU reproduction uses:

* :class:`ClusterScenario` — a frozen, hashable scenario extended with
  ``num_gpus`` and ``interconnect``. Its inherited cache key excludes both
  (the per-device step is identical on every replica), so the
  :class:`~repro.scenarios.cache.SimulationCache` shares one replica trace
  across all cluster sizes — scaling a sweep 1 -> 8 GPUs never
  re-simulates.
* :class:`ClusterPlanner` — sweeps GPUs x providers x cluster sizes x
  interconnects x densities, applies the data-parallel all-reduce model
  and the cost projections, and returns the Pareto frontier of
  (wall-clock, dollars) plus the cheapest/fastest configurations meeting
  a deadline and/or budget. :meth:`ClusterPlanner.scenarios` is the one
  enumeration of the cluster space.
* ``python -m repro.cluster.plan`` — the pre-hoc "what will this
  fine-tune cost?" CLI, with ``--json``/``--cache-dir`` mirroring the
  report runner.
"""

from .planner import (
    ClusterCandidate,
    ClusterPlan,
    ClusterPlanner,
    DEFAULT_INTERCONNECTS,
    DEFAULT_MAX_TP,
    DEFAULT_NUM_GPUS,
    PARALLELISM_MODES,
    pareto_frontier,
)
from .scenario import ClusterScenario

__all__ = [
    "ClusterCandidate",
    "ClusterPlan",
    "ClusterPlanner",
    "ClusterScenario",
    "DEFAULT_INTERCONNECTS",
    "DEFAULT_MAX_TP",
    "DEFAULT_NUM_GPUS",
    "PARALLELISM_MODES",
    "pareto_frontier",
]

