"""Pareto cost/time planning over the cluster space.

The paper answers "what will this fine-tune cost?" for one GPU at a
time (Table IV); the planner answers it for clusters, *before any
training happens*: given a model, a dataset and a target (deadline
hours and/or budget dollars), it sweeps

    GPUs x providers x cluster sizes x interconnects x densities

through the scenario engine, applies the data-parallel all-reduce model
to each (cached) replica trace, prices the result against the provider
catalog, and returns

* every candidate, deterministically ordered;
* the Pareto frontier of (wall-clock hours, total dollars) — the
  configurations where going faster necessarily costs more;
* the cheapest and fastest configurations meeting the target.

One function ranks the plan: :func:`rank` keys every candidate once on
(time, cost, label), sorts once, and reads the frontier and both picks
off that order. :func:`pareto_frontier` is its (hours, dollars) call
with the deadline/budget rule; the spot planner's risk frontier is the
other call.

Determinism: candidate construction is pure and ordering is by explicit
sort keys, so equal requests yield byte-identical plans.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..cloud.pricing import DEFAULT_CATALOG, PriceCatalog
from ..core.cost import dataset_num_queries, wall_clock_hours
from ..gpu.multigpu import (
    Interconnect,
    MultiGPUEstimate,
    estimate_from_trace,
    get_interconnect,
)
from ..gpu.parallelism import (
    DataParallel,
    ParallelismStrategy,
    TensorParallel,
    tp_degrees,
)
from ..gpu.specs import GPU_REGISTRY, GPUSpec, get_gpu
from ..memory.estimator import EFFECTIVE_SEQ_LEN, max_batch_size
from ..models.registry import get_model_spec
from ..scenarios import ScenarioGrid, SimulationCache, SweepRunner, resolve_cache
from ..scenarios.scenario import ModelConfig
from ..telemetry.tracer import Tracer, resolve_tracer
from .scenario import ClusterScenario

DEFAULT_NUM_GPUS: Tuple[int, ...] = (1, 2, 4, 8)
DEFAULT_INTERCONNECTS: Tuple[str, ...] = ("nvlink", "pcie-gen4")

# --parallelism: how the planner lays candidates out on the hardware.
# "dp" is the pre-strategy behavior (full replicas only), "tp" forces
# tensor parallelism, "auto" enumerates both — including TP degrees for
# cells pure data parallelism cannot fit at all.
PARALLELISM_MODES: Tuple[str, ...] = ("dp", "tp", "auto")
DEFAULT_MAX_TP = 8


def strategy_payload(scenario: ClusterScenario) -> Dict[str, object]:
    """The parallelism keys a candidate dict carries — empty for the
    default data-parallel layout, so pre-strategy plan JSON stays
    byte-identical. Shared by the cluster and spot candidate dicts."""
    strategy = scenario.strategy_spec
    if strategy.is_default:
        return {}
    return {
        "parallelism": strategy.spec(),
        "tensor_parallel": strategy.tensor_parallel,
        "data_parallel": strategy.data_parallel_ways(scenario.num_gpus),
        "grad_accum": strategy.grad_accum,
    }


@dataclass(frozen=True)
class ClusterCandidate:
    """One priced point of the plan space: a cluster scenario at one
    provider, with its data-parallel estimate and cost projection."""

    scenario: ClusterScenario
    provider: str
    dollars_per_gpu_hour: float
    estimate: MultiGPUEstimate
    hours: float
    dollars: float
    label: str

    def to_dict(self) -> Dict[str, object]:
        scenario = self.scenario
        payload = {
            "label": self.label,
            "gpu": scenario.gpu_spec.name,
            "provider": self.provider,
            "num_gpus": scenario.num_gpus,
            "interconnect": scenario.interconnect_spec.name,
            "dense": scenario.dense,
            "per_gpu_batch": scenario.batch_size,
            "global_batch": scenario.global_batch_size(),
            "dollars_per_gpu_hour": self.dollars_per_gpu_hour,
            "queries_per_second": self.estimate.queries_per_second,
            "scaling_efficiency": self.estimate.scaling_efficiency,
            "allreduce_seconds": self.estimate.allreduce_seconds,
            "hours": self.hours,
            "dollars": self.dollars,
        }
        extra = strategy_payload(scenario)
        if extra:
            extra["tp_comm_seconds"] = self.estimate.tp_comm_seconds
            payload.update(extra)
        return payload


@dataclass(frozen=True)
class Ranking:
    """One ranked candidate list: every candidate in rank order, the
    Pareto frontier, the feasible candidates (in rank order) and the two
    picks among them."""

    candidates: List
    frontier: List
    feasible: List
    fastest: Optional[object]
    cheapest: Optional[object]


def rank(
    candidates: Sequence,
    axes: Callable[[object], Tuple[float, float]],
    meets: Callable[[object], bool],
) -> Ranking:
    """Rank candidates on a (time, cost) view with one sort.

    Each candidate's key ``(time, cost, label)`` is built once and the
    list is sorted by it once. The frontier keeps, in that order, each
    candidate strictly cheaper than all before it, so a slower one that
    saves no money is dropped and exact ties collapse to the first.
    ``fastest`` is the first candidate ``meets`` accepts (its ``min()``
    key is the sort key); ``cheapest`` is the feasible minimum of
    ``(cost, time, label)``."""
    ranked = sorted(
        (((*axes(c), c.label), c) for c in candidates), key=itemgetter(0)
    )
    frontier: List = []
    best_cost = float("inf")
    for (_, cost, _), candidate in ranked:
        if cost < best_cost:
            frontier.append(candidate)
            best_cost = cost
    feasible = [(key, c) for key, c in ranked if meets(c)]
    _, cheapest = min(
        feasible, key=lambda e: (e[0][1], e[0][0], e[0][2]), default=(None, None)
    )
    return Ranking(
        candidates=[c for _, c in ranked],
        frontier=frontier,
        feasible=[c for _, c in feasible],
        fastest=feasible[0][1] if feasible else None,
        cheapest=cheapest,
    )


def pareto_frontier(
    candidates: Sequence[ClusterCandidate],
    deadline_hours: Optional[float] = None,
    budget_dollars: Optional[float] = None,
) -> Ranking:
    """Rank candidates under (minimize hours, minimize dollars): the
    frontier is ordered fastest-first, and a candidate is feasible when
    it meets the deadline and the budget."""

    def meets(c: ClusterCandidate) -> bool:
        if deadline_hours is not None and c.hours > deadline_hours:
            return False
        if budget_dollars is not None and c.dollars > budget_dollars:
            return False
        return True

    return rank(candidates, lambda c: (c.hours, c.dollars), meets)


@dataclass
class ClusterPlan:
    """The planner's full answer for one model/dataset/target."""

    model_name: str
    dataset: Optional[str]
    seq_len: int
    num_queries: int
    epochs: int
    deadline_hours: Optional[float]
    budget_dollars: Optional[float]
    candidates: List[ClusterCandidate]
    frontier: List[ClusterCandidate]
    feasible: List[ClusterCandidate]
    cheapest: Optional[ClusterCandidate]
    fastest: Optional[ClusterCandidate]
    skipped: List[str] = field(default_factory=list)

    def to_payload(self) -> Dict[str, object]:
        """JSON-serializable plan (``--json``), deterministically ordered."""
        return {
            "model": self.model_name,
            "dataset": self.dataset,
            "seq_len": self.seq_len,
            "num_queries": self.num_queries,
            "epochs": self.epochs,
            "deadline_hours": self.deadline_hours,
            "budget_dollars": self.budget_dollars,
            "num_candidates": len(self.candidates),
            "num_feasible": len(self.feasible),
            "frontier": [c.to_dict() for c in self.frontier],
            "cheapest": self.cheapest.to_dict() if self.cheapest else None,
            "fastest": self.fastest.to_dict() if self.fastest else None,
            "skipped": list(self.skipped),
        }

    def to_table(self, top: int = 10) -> str:
        """Frontier + recommendation as a report-style text table."""
        lines = [
            f"== cluster plan: {self.model_name} on {self.dataset or f'seq {self.seq_len}'} "
            f"({self.num_queries} queries x {self.epochs} epochs) ==",
        ]
        target = []
        if self.deadline_hours is not None:
            target.append(f"deadline {self.deadline_hours:g} h")
        if self.budget_dollars is not None:
            target.append(f"budget ${self.budget_dollars:g}")
        lines.append(
            f"target: {', '.join(target) if target else 'none (full frontier)'}; "
            f"{len(self.feasible)}/{len(self.candidates)} candidates feasible"
        )
        width = max([len(c.label) for c in self.frontier[:top]] + [12])
        lines.append(
            f"{'pareto-optimal configuration':<{width}}  {'hours':>8}  {'dollars':>9}  "
            f"{'q/s':>6}  {'eff':>5}"
        )
        for candidate in self.frontier[:top]:
            lines.append(
                f"{candidate.label:<{width}}  {candidate.hours:>8.2f}  "
                f"{candidate.dollars:>9.2f}  {candidate.estimate.queries_per_second:>6.2f}  "
                f"{candidate.estimate.scaling_efficiency:>5.2f}"
            )
        if len(self.frontier) > top:
            lines.append(f"... {len(self.frontier) - top} more frontier points (--top)")
        if self.cheapest is not None:
            lines.append(
                f"cheapest feasible: {self.cheapest.label} — "
                f"${self.cheapest.dollars:.2f} in {self.cheapest.hours:.2f} h"
            )
        else:
            lines.append("cheapest feasible: none — no configuration meets the target")
        if self.fastest is not None and self.fastest is not self.cheapest:
            lines.append(
                f"fastest feasible:  {self.fastest.label} — "
                f"{self.fastest.hours:.2f} h for ${self.fastest.dollars:.2f}"
            )
        for reason in self.skipped:
            lines.append(f"skipped: {reason}")
        return "\n".join(lines)


class ClusterPlanner:
    """Sweeps the cluster space through the scenario engine and prices it.

    ``model`` accepts a registry key or a config; the dataset supplies the
    padded sequence length and query count unless overridden. All
    simulation flows through the (shared) :class:`SimulationCache`, so a
    warm planner pass — and every cluster size beyond the first within a
    cold pass — performs zero redundant ``simulate_step`` calls.
    """

    def __init__(
        self,
        model: Union[str, ModelConfig],
        dataset: Optional[str] = "math14k",
        epochs: int = 10,
        num_queries: Optional[int] = None,
        seq_len: Optional[int] = None,
        catalog: Optional[PriceCatalog] = None,
        cache: Optional[SimulationCache] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.cfg = get_model_spec(model).config if isinstance(model, str) else model
        self.dataset = dataset
        if seq_len is None:
            if dataset is None:
                raise ValueError("ClusterPlanner needs a dataset or an explicit seq_len")
            if dataset not in EFFECTIVE_SEQ_LEN:
                raise KeyError(
                    f"unknown dataset {dataset!r}; known: {sorted(EFFECTIVE_SEQ_LEN)}"
                )
            seq_len = EFFECTIVE_SEQ_LEN[dataset]
        self.seq_len = seq_len
        if num_queries is None:
            if dataset is None:
                raise ValueError("ClusterPlanner needs a dataset or an explicit num_queries")
            num_queries = dataset_num_queries(dataset)
        self.num_queries = num_queries
        self.epochs = epochs
        self.catalog = catalog if catalog is not None else DEFAULT_CATALOG
        self.cache = resolve_cache(cache)
        self.tracer = resolve_tracer(tracer)
        # The most recent plan's swept grid, kept for run manifests
        # (telemetry computes its digest only when a flag asks for it).
        self.last_grid: Optional[ScenarioGrid] = None

    # ------------------------------------------------------------------
    def _resolve_gpus(
        self, gpus: Optional[Sequence[Union[str, GPUSpec]]], providers: Sequence[str]
    ) -> List[GPUSpec]:
        if gpus is not None:
            return [get_gpu(g) if isinstance(g, str) else g for g in gpus]
        # Default: every registered GPU priced by at least one requested
        # provider, in deterministic name order.
        priced = {
            name for provider in providers for name in self.catalog.gpus(provider)
        }
        return [GPU_REGISTRY[name] for name in sorted(priced) if name in GPU_REGISTRY]

    def _strategy_degrees(self, parallelism: str, max_tp: int) -> Tuple[int, ...]:
        """TP degrees a parallelism mode enumerates (1 = data parallel)."""
        if parallelism not in PARALLELISM_MODES:
            raise ValueError(
                f"parallelism must be one of {PARALLELISM_MODES}, got {parallelism!r}"
            )
        if parallelism == "dp":
            return (1,)
        if parallelism == "tp":
            degrees = tp_degrees(max_tp)
            if not degrees:
                raise ValueError(
                    f"parallelism='tp' needs max_tp >= 2, got {max_tp}"
                )
            return degrees
        return (1,) + tp_degrees(max_tp)

    def scenarios(
        self,
        gpus: Optional[Sequence[Union[str, GPUSpec]]] = None,
        providers: Optional[Sequence[str]] = None,
        num_gpus: Sequence[int] = DEFAULT_NUM_GPUS,
        interconnects: Sequence[Union[str, Interconnect]] = DEFAULT_INTERCONNECTS,
        densities: Sequence[bool] = (False, True),
        batch_sizes: Optional[Sequence[int]] = None,
        parallelism: str = "dp",
        max_tp: int = DEFAULT_MAX_TP,
        grad_accums: Sequence[int] = (1,),
    ) -> Tuple[ScenarioGrid, List[str]]:
        """The candidate grid plus human-readable skip reasons.

        ``batch_sizes=None`` uses the memory-oracle per-device maximum for
        each (GPU, density, TP degree) cell — the throughput-optimal
        choice; explicit batch sizes are kept only where they fit.
        ``parallelism`` selects the layout axis: ``"dp"`` reproduces the
        pre-strategy sweep exactly; ``"tp"``/``"auto"`` also enumerate
        tensor-parallel degrees (powers of two up to ``max_tp``), so a
        cell where the model does not fit one device is *priced* at the
        degrees that shard it into fitting — skip reasons are reserved
        for cells no enumerated degree can fit. ``grad_accums`` adds the
        accumulation axis; every depth shares its cell's per-device trace.
        """
        providers = list(providers) if providers is not None else self.catalog.providers()
        resolved_gpus = self._resolve_gpus(gpus, providers)
        degrees = self._strategy_degrees(parallelism, max_tp)
        accums = list(dict.fromkeys(grad_accums))
        if not accums or any(a < 1 for a in accums):
            raise ValueError(f"grad_accums must name depths >= 1, got {grad_accums!r}")
        # Duplicate axis values (e.g. --num-gpus 4,4, or "nvlink" next to
        # NVLINK) would duplicate every candidate; collapse them while
        # preserving order.
        sizes = list(dict.fromkeys(num_gpus))
        links = list(dict.fromkeys(get_interconnect(link) for link in interconnects))
        scenarios: List[ClusterScenario] = []
        skipped: List[str] = []
        for gpu in resolved_gpus:
            # Filter unpriced (GPU, provider) pairs *before* simulating:
            # without a price there is nothing to rank, so tracing the
            # replica would be wasted work ending in an empty, unexplained
            # plan.
            if not set(self.catalog.providers_for(gpu.name)).intersection(providers):
                skipped.append(
                    f"{gpu.name} is not priced by provider(s) {sorted(providers)}"
                )
                continue
            for dense in densities:
                density = "dense" if dense else "sparse"
                cell_count = len(scenarios)
                fits_any = False  # some degree fits memory at batch 1
                batches_any = False  # ...and had an admissible batch size
                dp_mbs = 0
                for degree in degrees:
                    mbs = max_batch_size(
                        self.cfg, gpu, self.seq_len, dense, tensor_parallel=degree
                    )
                    if mbs < 1:
                        continue
                    fits_any = True
                    if degree == 1:
                        dp_mbs = mbs
                    if batch_sizes is None:
                        batches: List[int] = [mbs]
                    else:
                        batches = [b for b in batch_sizes if 1 <= b <= mbs]
                    if batches:
                        batches_any = True
                    for batch in batches:
                        for accum in accums:
                            strategy: ParallelismStrategy = (
                                DataParallel(grad_accum=accum)
                                if degree == 1
                                else TensorParallel(grad_accum=accum, degree=degree)
                            )
                            for n in sizes:
                                if not strategy.fits(n):
                                    continue
                                for link in links:
                                    scenarios.append(
                                        ClusterScenario(
                                            model=self.cfg,
                                            gpu=gpu,
                                            batch_size=batch,
                                            seq_len=self.seq_len,
                                            dense=dense,
                                            dataset=self.dataset,
                                            num_gpus=n,
                                            interconnect=link,
                                            strategy=strategy,
                                        )
                                    )
                if len(scenarios) > cell_count:
                    continue  # the cell produced candidates; nothing to explain
                if not fits_any:
                    # Truly impossible cell: no enumerated layout fits.
                    reason = (
                        f"{self.cfg.name} ({density}) does not fit "
                        f"on {gpu.name} at seq_len={self.seq_len}"
                    )
                    if parallelism != "dp":
                        reason += f" at any tensor-parallel degree <= {max_tp}"
                    skipped.append(reason)
                elif not batches_any:
                    if parallelism == "dp":
                        skipped.append(
                            f"no requested batch size fits on {gpu.name} "
                            f"({density}, max {dp_mbs})"
                        )
                    else:
                        skipped.append(
                            f"no requested batch size fits on {gpu.name} "
                            f"({density}) at any tensor-parallel degree <= {max_tp}"
                        )
                else:
                    # Memory fits and batches exist, but no requested
                    # cluster size hosts a fitting degree — point the
                    # user at --num-gpus, not --batch-size. (Degree 1
                    # fits every size, so this branch is TP-only.)
                    skipped.append(
                        f"no requested cluster size (sizes {sizes}) hosts a "
                        f"tensor-parallel degree <= {max_tp} fitting "
                        f"{self.cfg.name} ({density}) on {gpu.name}"
                    )
        return ScenarioGrid(scenarios), skipped

    def plan(
        self,
        gpus: Optional[Sequence[Union[str, GPUSpec]]] = None,
        providers: Optional[Sequence[str]] = None,
        num_gpus: Sequence[int] = DEFAULT_NUM_GPUS,
        interconnects: Sequence[Union[str, Interconnect]] = DEFAULT_INTERCONNECTS,
        densities: Sequence[bool] = (False, True),
        batch_sizes: Optional[Sequence[int]] = None,
        deadline_hours: Optional[float] = None,
        budget_dollars: Optional[float] = None,
        parallelism: str = "dp",
        max_tp: int = DEFAULT_MAX_TP,
        grad_accums: Sequence[int] = (1,),
    ) -> ClusterPlan:
        """Sweep, price, and rank the full cluster space.

        Traced as a ``planner.plan`` span with one child per phase —
        enumerate (grid construction), simulate (the trace sweep),
        strategy (applying the parallelism model to each trace), price
        (provider rates), pareto (ordering, frontier, picks) — so a
        ``--telemetry`` run shows exactly where a plan's time went.
        """
        tracer = self.tracer
        providers = (
            list(dict.fromkeys(providers)) if providers is not None
            else self.catalog.providers()
        )
        with tracer.span("planner.plan", model=self.cfg.name):
            with tracer.span("planner.enumerate") as sp:
                grid, skipped = self.scenarios(
                    gpus=gpus,
                    providers=providers,
                    num_gpus=num_gpus,
                    interconnects=interconnects,
                    densities=densities,
                    batch_sizes=batch_sizes,
                    parallelism=parallelism,
                    max_tp=max_tp,
                    grad_accums=grad_accums,
                )
                sp.attributes["cells"] = len(grid)
                sp.attributes["skipped"] = len(skipped)
            self.last_grid = grid
            with tracer.span("planner.simulate"):
                points = SweepRunner(cache=self.cache, tracer=tracer).run(grid)
            with tracer.span("planner.strategy"):
                estimates = []
                for point in points:
                    scenario = point.scenario
                    assert isinstance(scenario, ClusterScenario)
                    estimates.append(
                        estimate_from_trace(
                            scenario.config,
                            point.trace,
                            scenario.num_gpus,
                            scenario.interconnect_spec,
                            strategy=scenario.strategy_spec,
                        )
                    )
            with tracer.span("planner.price") as sp:
                candidates: List[ClusterCandidate] = []
                for point, estimate in zip(points, estimates):
                    scenario = point.scenario
                    priced = set(self.catalog.providers_for(scenario.gpu_spec.name))
                    hours = wall_clock_hours(
                        self.num_queries * self.epochs, estimate.queries_per_second
                    )
                    tag = scenario.label(include_gpu=True)
                    for provider in providers:
                        if provider not in priced:
                            continue  # this provider does not rent this GPU
                        rate = self.catalog.dollars_per_hour(
                            scenario.gpu_spec.name, provider
                        )
                        candidates.append(
                            ClusterCandidate(
                                scenario=scenario,
                                provider=provider,
                                dollars_per_gpu_hour=rate,
                                estimate=estimate,
                                hours=hours,
                                dollars=hours * rate * scenario.num_gpus,
                                label=f"{tag}_{provider}",
                            )
                        )
                sp.attributes["candidates"] = len(candidates)
            with tracer.span("planner.pareto") as sp:
                ranking = pareto_frontier(candidates, deadline_hours, budget_dollars)
                sp.attributes["frontier"] = len(ranking.frontier)
        return ClusterPlan(
            model_name=self.cfg.name,
            dataset=self.dataset,
            seq_len=self.seq_len,
            num_queries=self.num_queries,
            epochs=self.epochs,
            deadline_hours=deadline_hours,
            budget_dollars=budget_dollars,
            candidates=ranking.candidates,
            frontier=ranking.frontier,
            feasible=ranking.feasible,
            cheapest=ranking.cheapest,
            fastest=ranking.fastest,
            skipped=skipped,
        )
