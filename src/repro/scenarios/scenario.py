"""First-class sweep configurations.

A :class:`Scenario` names one point of the paper's characterization space
— (model, dataset, GPU, dense/sparse routing, batch size, sequence
length, workload overrides) — as a frozen, hashable value. Scenarios are
the currency of the engine: :class:`~repro.scenarios.grid.ScenarioGrid`
enumerates them, :class:`~repro.scenarios.cache.SimulationCache` memoizes
simulator traces by scenario key, and
:class:`~repro.scenarios.runner.SweepRunner` executes them in bulk.

``model`` and ``gpu`` accept either registry keys (``"mixtral-8x7b"``,
``"A40"``) or the config/spec objects themselves, so ad-hoc scaled
configs and hypothetical GPUs (Fig. 13's 100GB projection) participate in
the same machinery as the registered paper-scale setups.

Subclasses may extend the space with axes the per-device step trace does
not depend on — :class:`~repro.cluster.ClusterScenario` adds ``num_gpus``
and ``interconnect`` — and inherit :meth:`Scenario.key` unchanged, so the
cache shares one replica trace across all such variants.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass, replace
from typing import Any, Dict, Mapping, Optional, Tuple, Union

from ..data.registry import DATASET_STATS
from ..gpu.specs import GPUSpec, get_gpu
from ..memory.estimator import max_batch_size
from ..models.config import BlackMambaConfig, MixtralConfig
from ..models.registry import get_model_spec

ModelConfig = Union[MixtralConfig, BlackMambaConfig]
OverrideItems = Tuple[Tuple[str, Any], ...]


def canonical_value(value: Any) -> str:
    """Deterministic, process-stable rendering of a cache-key component.

    Dataclasses render as ``ClassName(field=...)`` with fields in sorted
    name order (so reordering a config definition cannot silently change
    every digest), sequences render element-wise, and scalars use
    ``repr`` — which for floats is the shortest round-trip form, stable
    across interpreter runs and platforms with IEEE doubles.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = sorted(f.name for f in dataclasses.fields(value))
        inner = ",".join(f"{name}={canonical_value(getattr(value, name))}" for name in fields)
        return f"{type(value).__name__}({inner})"
    if isinstance(value, (tuple, list)):
        return "(" + ",".join(canonical_value(item) for item in value) + ")"
    return repr(value)


def freeze_overrides(overrides: Union[Mapping[str, Any], OverrideItems]) -> OverrideItems:
    """Normalize workload overrides to a sorted tuple of (key, value) pairs
    so that scenarios with the same overrides hash identically regardless
    of how the overrides were spelled."""
    items = overrides.items() if isinstance(overrides, Mapping) else overrides
    return tuple(sorted((str(key), value) for key, value in items))


@dataclass(frozen=True)
class Scenario:
    """One hashable point of the (model x dataset x GPU x density x batch)
    characterization space.

    ``seq_len=None`` with a ``dataset`` resolves to the dataset's Table II
    median sequence length; pass an explicit ``seq_len`` for padded
    (effective) lengths or ad-hoc sweeps.
    """

    model: Union[str, ModelConfig]
    gpu: Union[str, GPUSpec]
    batch_size: int = 1
    seq_len: Optional[int] = None
    dense: bool = False
    dataset: Optional[str] = None
    overrides: OverrideItems = ()

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.seq_len is None and self.dataset is None:
            raise ValueError("Scenario needs a seq_len or a dataset to derive one from")
        # Always normalize (even already-tuple input may be unsorted) so
        # equal overrides hash identically regardless of spelling.
        object.__setattr__(self, "overrides", freeze_overrides(self.overrides))

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------
    @property
    def config(self) -> ModelConfig:
        return get_model_spec(self.model).config if isinstance(self.model, str) else self.model

    @property
    def gpu_spec(self) -> GPUSpec:
        return get_gpu(self.gpu) if isinstance(self.gpu, str) else self.gpu

    @property
    def resolved_seq_len(self) -> int:
        if self.seq_len is not None:
            return self.seq_len
        if self.dataset not in DATASET_STATS:
            raise KeyError(f"unknown dataset {self.dataset!r}; available: {sorted(DATASET_STATS)}")
        return DATASET_STATS[self.dataset].median_seq_len

    @property
    def sparsity(self) -> float:
        """Active-expert fraction under this scenario's routing."""
        return self.config.moe.sparsity(self.dense)

    @property
    def density_tag(self) -> str:
        """``D``/``S`` + batch size — the row-label convention shared by
        the experiment suite and the cluster layer."""
        return f"{'D' if self.dense else 'S'}{self.batch_size}"

    def overrides_dict(self) -> Dict[str, Any]:
        return dict(self.overrides)

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    def key(self) -> Tuple:
        """Canonical cache key: everything the simulator's step trace
        depends on. Scenarios that differ only in dataset naming but share
        the resolved (config, gpu, batch, seq, density, overrides) point
        map to the same trace."""
        return (
            self.config,
            self.gpu_spec,
            self.batch_size,
            self.resolved_seq_len,
            self.dense,
            self.overrides,
        )

    def canonical_text(self) -> str:
        """Process-stable canonical rendering of :meth:`key`.

        :meth:`key` tuples are hashable but ``hash()`` is salted per
        interpreter run, so they cannot name disk entries. This text is a
        deterministic rendering of the *resolved* key — equal keys always
        produce equal text, across processes and runs — and is what
        :meth:`digest` (and therefore the
        :class:`~repro.scenarios.store.DiskTraceStore` layout) is built
        on. Subclasses that inherit :meth:`key` (cluster/spot scenarios)
        inherit the canonical text too, so they share disk entries the
        same way they share in-memory traces.
        """
        config, gpu, batch_size, seq_len, dense, overrides = self.key()
        return ";".join(
            (
                f"model={canonical_value(config)}",
                f"gpu={canonical_value(gpu)}",
                f"batch={batch_size}",
                f"seq={seq_len}",
                f"dense={dense}",
                f"overrides={canonical_value(overrides)}",
            )
        )

    def digest(self) -> str:
        """sha256 hex digest of :meth:`canonical_text` — the scenario's
        cross-process identity, used to key disk-store entries."""
        return hashlib.sha256(self.canonical_text().encode("utf-8")).hexdigest()

    def label(self, include_gpu: bool = False, include_seq_len: bool = False) -> str:
        """Row label in the experiment suite's convention, e.g.
        ``mixtral_commonsense15k_S2``. ``include_gpu`` / ``include_seq_len``
        append those axes, which grids that sweep them need for unique
        labels."""
        parts = [self.config.family]
        if self.dataset:
            parts.append(self.dataset)
        parts.append(self.density_tag)
        if include_seq_len:
            parts.append(f"L{self.resolved_seq_len}")
        if include_gpu:
            parts.append(self.gpu_spec.name)
        return "_".join(parts)

    # ------------------------------------------------------------------
    # Derived quantities / variants
    # ------------------------------------------------------------------
    def max_batch_size(self) -> int:
        """Memory-oracle maximum batch size at this scenario's point."""
        return max_batch_size(self.config, self.gpu_spec, self.resolved_seq_len, self.dense)

    def with_(self, **changes) -> "Scenario":
        """A modified copy (thin wrapper over :func:`dataclasses.replace`)."""
        return replace(self, **changes)
