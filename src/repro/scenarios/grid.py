"""Scenario grids: declarative enumeration of sweep spaces.

A :class:`ScenarioGrid` is an immutable, deterministically ordered
collection of scenarios. Grids are built three ways:

* :meth:`ScenarioGrid.product` — cartesian product over axis values, in
  the fixed nesting order model -> dataset -> seq_len -> dense -> batch
  -> gpu (the order the paper's figures enumerate their cases);
* :meth:`ScenarioGrid.batch_sweep` — batch sizes 1..max for one
  configuration, the shape behind every Eq. 2 fitting sweep;
* the constructor — any iterable of scenarios, which is how the cluster
  planner hands its enumerated space to :class:`SweepRunner`.

Grids compose with ``filter`` and ``+``, so irregular paper grids (Fig. 8
measures different batch sizes per model/dataset cell) are expressed as a
product narrowed by a predicate instead of a hand-rolled tuple list.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from ..gpu.specs import GPUSpec
from .scenario import ModelConfig, Scenario, freeze_overrides


class ScenarioGrid:
    """An immutable ordered collection of :class:`Scenario` points."""

    __slots__ = ("_scenarios",)

    def __init__(self, scenarios: Iterable[Scenario] = ()) -> None:
        self._scenarios: Tuple[Scenario, ...] = tuple(scenarios)

    # ------------------------------------------------------------------
    # Builders
    # ------------------------------------------------------------------
    @classmethod
    def product(
        cls,
        models: Sequence[Union[str, ModelConfig]],
        gpus: Sequence[Union[str, GPUSpec]],
        batch_sizes: Sequence[int] = (1,),
        datasets: Sequence[Optional[str]] = (None,),
        seq_lens: Sequence[Optional[int]] = (None,),
        dense: Sequence[bool] = (False,),
        overrides=(),
    ) -> "ScenarioGrid":
        """Cartesian product over the given axis values.

        Nesting order (outermost first): model, dataset, seq_len, dense,
        batch size, gpu — matching how the paper's tables and figures
        enumerate their cases, so grid order equals row order.
        """
        frozen = freeze_overrides(overrides)
        return cls(
            Scenario(
                model=model,
                gpu=gpu,
                batch_size=batch,
                seq_len=seq_len,
                dense=is_dense,
                dataset=dataset,
                overrides=frozen,
            )
            for model in models
            for dataset in datasets
            for seq_len in seq_lens
            for is_dense in dense
            for batch in batch_sizes
            for gpu in gpus
        )

    @classmethod
    def batch_sweep(
        cls,
        model: Union[str, ModelConfig],
        gpu: Union[str, GPUSpec],
        seq_len: Optional[int] = None,
        dataset: Optional[str] = None,
        dense: bool = False,
        upper: Optional[int] = None,
        overrides=(),
    ) -> "ScenarioGrid":
        """Batch sizes 1..``upper`` for one configuration.

        ``upper`` defaults to the memory-oracle maximum (floored at 1 so
        infeasible configurations still contribute their batch-1 point,
        as the fitting procedure expects)."""
        base = Scenario(
            model=model,
            gpu=gpu,
            batch_size=1,
            seq_len=seq_len,
            dataset=dataset,
            dense=dense,
            overrides=freeze_overrides(overrides),
        )
        if upper is None:
            upper = max(1, base.max_batch_size())
        return cls(base.with_(batch_size=b) for b in range(1, upper + 1))

    # ------------------------------------------------------------------
    # Collection protocol
    # ------------------------------------------------------------------
    @property
    def scenarios(self) -> Tuple[Scenario, ...]:
        return self._scenarios

    def __iter__(self) -> Iterator[Scenario]:
        return iter(self._scenarios)

    def __len__(self) -> int:
        return len(self._scenarios)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return ScenarioGrid(self._scenarios[index])
        return self._scenarios[index]

    def __add__(self, other: "ScenarioGrid") -> "ScenarioGrid":
        return ScenarioGrid(self._scenarios + tuple(other))

    def __eq__(self, other) -> bool:
        return isinstance(other, ScenarioGrid) and self._scenarios == other._scenarios

    def __hash__(self) -> int:
        return hash(self._scenarios)

    def __repr__(self) -> str:
        return f"ScenarioGrid({len(self._scenarios)} scenarios)"

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def filter(self, predicate: Callable[[Scenario], bool]) -> "ScenarioGrid":
        return ScenarioGrid(s for s in self._scenarios if predicate(s))

    def map(self, transform: Callable[[Scenario], Scenario]) -> "ScenarioGrid":
        return ScenarioGrid(transform(s) for s in self._scenarios)

    def labels(self) -> List[str]:
        return [s.label() for s in self._scenarios]

