"""The paper's primary contribution (S11): analytical fine-tuning cost model.

* :class:`BatchSizeModel` — Eq. 1, max batch size from GPU memory, model
  memory, sequence length and MoE sparsity.
* :class:`ThroughputModel` — Eq. 2, logarithmic batch-size->throughput.
* :class:`FineTuningCostModel` — the full pipeline: max batch size ->
  throughput -> hours -> dollars (Table IV and the OpenOrca projection).
"""

from .batchsize import BatchSizeModel, BatchSizeObservation, PAPER_BATCH_COEFFICIENTS
from .cost import CostEstimate, FineTuningCostModel, dataset_num_queries, wall_clock_hours
from .fitting import (
    collect_batch_size_observations,
    collect_throughput_observations,
    observations_from_sweep,
)
from .throughput import (
    MIN_OBSERVATIONS,
    NUM_PARAMETERS,
    ThroughputModel,
    ThroughputObservation,
    fit_dense_sparse,
)

__all__ = [
    "BatchSizeModel",
    "BatchSizeObservation",
    "CostEstimate",
    "FineTuningCostModel",
    "MIN_OBSERVATIONS",
    "NUM_PARAMETERS",
    "PAPER_BATCH_COEFFICIENTS",
    "ThroughputModel",
    "ThroughputObservation",
    "collect_batch_size_observations",
    "collect_throughput_observations",
    "dataset_num_queries",
    "fit_dense_sparse",
    "observations_from_sweep",
    "wall_clock_hours",
]
