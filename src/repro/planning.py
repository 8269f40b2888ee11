"""One plan request behind both plan CLIs and the planning service.

``python -m repro.cluster.plan``, ``python -m repro.spot.plan`` and
``POST /plan/{cluster,spot}`` share one request model. :data:`FIELDS` is
its field table: each entry gives a field's name, type, default, bound,
CLI flag and help text. :class:`PlanRequest` reads a JSON body
(``from_json``) or a command line (``from_args``, whose parser is built
from the table) into the same canonical values, and ``run`` hands them
to the planners. Both surfaces share these rules:

* a list field takes a JSON scalar or list, or a repeatable flag whose
  values may be comma-separated; entries are deduplicated after name
  resolution, in first-seen order;
* integer fields reject booleans and non-integral numbers;
* an unknown ``dataset`` is rejected unless ``seq_len`` and
  ``num_queries`` are both given, the only case the plan does not read it.

A rejection is a :class:`RequestError` naming the field in the surface's
spelling (``'num_gpus'`` in a body, ``--num-gpus`` on a command line):
a 400 on the service, an argparse error (exit status 2) on the CLIs.
This module must not import :mod:`repro.service`, so the plan CLIs load
neither the service nor ``http.server``.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from .cluster.planner import (
    DEFAULT_INTERCONNECTS,
    DEFAULT_MAX_TP,
    DEFAULT_NUM_GPUS,
    PARALLELISM_MODES,
    ClusterPlanner,
)
from .data.registry import DATASET_STATS
from .gpu.multigpu import INTERCONNECTS
from .gpu.specs import GPU_REGISTRY
from .memory.estimator import EFFECTIVE_SEQ_LEN
from .models.registry import MODEL_REGISTRY
from .spot.planner import (
    DEFAULT_CONFIDENCE,
    DEFAULT_RISK_MODE,
    DEFAULT_SEED,
    RISK_MODES,
    RiskAdjustedPlanner,
)
from .spot.risk import DEFAULT_TRIALS
from .telemetry import add_telemetry_arguments, begin_telemetry, finish_telemetry


class RequestError(Exception):
    """A malformed request: reported as the HTTP ``status`` (default
    400) with the message as the ``error`` body, or as an argparse error
    on the CLIs, never a traceback. ``field`` names the offending field."""

    def __init__(self, message: str, status: int = 400, field: Optional[str] = None) -> None:
        super().__init__(message)
        self.status = status
        self.field = field


# ---------------------------------------------------------------------------
# Name resolution
# ---------------------------------------------------------------------------

# Family shorthands resolve to the paper-scale configs (never the tiny
# training stand-ins, which share the family prefix).
MODEL_ALIASES = {
    "mixtral": "mixtral-8x7b",
    "blackmamba": "blackmamba-2.8b",
}


def _resolve(name: str, registry, kind: str, aliases=None) -> str:
    """Registry entry for ``name``: alias, exact (case-insensitive)
    match, or unique prefix — with an ambiguity/availability hint."""
    lowered = name.lower()
    if aliases and lowered in aliases:
        return aliases[lowered]
    table = {entry.lower(): entry for entry in registry}
    if lowered in table:
        return table[lowered]
    matches = sorted(entry for low, entry in table.items() if low.startswith(lowered))
    if len(matches) == 1:
        return matches[0]
    hint = f"ambiguous between {matches}" if matches else f"available: {sorted(registry)}"
    raise KeyError(f"unknown {kind} {name!r}; {hint}")


def resolve_model_key(name: str) -> str:
    """Model registry key: family alias ('mixtral'), exact key, or
    unique prefix."""
    return _resolve(name, MODEL_REGISTRY, "model", MODEL_ALIASES)


def resolve_gpu_name(name: str) -> str:
    """GPU registry name: exact or unique prefix, so ``a40`` and ``h100``
    work while ``a100`` demands a suffix."""
    return _resolve(name, GPU_REGISTRY, "GPU")


# ---------------------------------------------------------------------------
# The field table
# ---------------------------------------------------------------------------

#: Bounds: what a value must be, and the test of it.
POSITIVE = ("positive", lambda value: value > 0)  # also rejects NaN
UNIT = ("in [0, 1]", lambda value: 0.0 <= value <= 1.0)
NON_EMPTY = ("non-empty", bool)

#: Type names in error messages: (one value, list entries).
_TYPE_NAMES = {
    int: ("a whole number", "whole numbers"),
    float: ("a number", "numbers"),
    str: ("a string", "strings"),
}

#: The expert-routing axis each ``density`` value sweeps.
DENSITY_AXES = {"sparse": (False,), "dense": (True,), "both": (False, True)}


@dataclass(frozen=True)
class Field:
    """One request field. ``many`` fields are lists; ``spot`` fields
    exist only on spot requests. ``flag`` defaults to ``--`` plus the
    dashed name."""

    name: str
    type: type
    default: object = None
    bound: Optional[Tuple[str, Callable[[object], bool]]] = None
    choices: Tuple[str, ...] = ()
    resolve: Optional[Callable[[str], str]] = None
    many: bool = False
    required: bool = False
    spot: bool = False
    flag: str = ""
    metavar: Optional[str] = None
    help: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.flag:
            object.__setattr__(self, "flag", "--" + self.name.replace("_", "-"))

    def label(self, cli: bool) -> str:
        return self.flag if cli else repr(self.name)

    def error(self, cli: bool, problem: str, entries: bool = False, sep: str = " ") -> RequestError:
        subject = self.label(cli) + (" entries" if entries else "")
        return RequestError(f"{subject}{sep}{problem}", field=self.name)

    # -- argparse -------------------------------------------------------
    def token(self, text: str):
        """A CLI token as this field's type; one that does not convert is
        passed on for the type check to reject with the usual message."""
        try:
            return self.type(text)
        except ValueError:
            return text

    def add_to(self, parser: argparse.ArgumentParser) -> None:
        if self.many:
            kwargs = dict(action="append")
        else:
            kwargs = dict(type=self.token, default=self.default, required=self.required)
        choices = "{" + ",".join(self.choices) + "}" if self.choices else None
        parser.add_argument(self.flag, dest=self.name, metavar=self.metavar or choices,
                            help=self.help, **kwargs)

    # -- validation -----------------------------------------------------
    def parse(self, value, cli: bool):
        """The canonical value of this field. ``value`` is a JSON value,
        or on the CLI the argparse value: a converted scalar, or the list
        of raw tokens of a repeatable flag. ``None`` means unset for list
        fields and fields without a default."""
        if value is None and (self.many or self.default is None):
            if self.required:
                raise self.error(cli, "is required")
            return list(self.default) if self.many and self.default is not None else None
        if not self.many:
            return self._check(value, cli, entries=False)
        if cli:
            items = [self.token(part) for text in value for part in text.split(",") if part]
        else:
            items = value if isinstance(value, list) else [value]
        if not items:
            raise self.error(cli, "must not be an empty list")
        return list(dict.fromkeys(self._check(item, cli, entries=True) for item in items))

    def _check(self, value, cli: bool, entries: bool):
        typed = _typed(self.type, value, integral_floats=entries)
        if typed is None:
            raise self.error(cli, f"must be {_TYPE_NAMES[self.type][entries]}, got {value!r}",
                             entries)
        if self.choices and typed not in self.choices:
            raise self.error(cli, f"must be one of {list(self.choices)}, got {typed!r}", entries)
        if self.bound is not None and not self.bound[1](typed):
            raise self.error(cli, f"must be {self.bound[0]}, got {typed!r}", entries)
        if self.resolve is not None:
            try:
                return self.resolve(typed)
            except KeyError as exc:
                raise self.error(cli, exc.args[0], entries, sep=": ") from exc
        return typed


def _typed(kind: type, value, integral_floats: bool):
    """``value`` as ``kind``, or ``None`` if it is not one. Integers
    widen to floats. List entries of integer fields also take integral
    floats (``[2.0]``) and scalar integer fields do not: valid bodies
    keep their answers."""
    if isinstance(value, bool):
        return None
    if isinstance(value, kind):
        return value
    if kind is float and isinstance(value, int):
        return float(value)
    if kind is int and integral_floats and isinstance(value, float) and value.is_integer():
        return int(value)
    return None


#: The field table: the 16 cluster fields, then the 7 spot fields, in
#: the order canonical requests list them.
FIELDS: Tuple[Field, ...] = (
    Field("model", str, resolve=resolve_model_key, required=True,
          help="model to plan for (family alias like 'mixtral' or registry key)"),
    Field("dataset", str, "math14k", NON_EMPTY,
          help="dataset supplying seq_len and query count (default: math14k)"),
    Field("gpu", str, resolve=resolve_gpu_name, many=True, metavar="NAME[,NAME...]",
          help="candidate GPU(s) (repeatable; default: every priced GPU)"),
    Field("provider", str, many=True, metavar="NAME[,NAME...]",
          help="cloud provider(s) (repeatable; default: all in the catalog)"),
    Field("num_gpus", int, DEFAULT_NUM_GPUS, POSITIVE, many=True, metavar="N[,N...]",
          help=f"cluster sizes to sweep (default: {','.join(map(str, DEFAULT_NUM_GPUS))})"),
    Field("interconnect", str, DEFAULT_INTERCONNECTS, choices=tuple(sorted(INTERCONNECTS)),
          many=True, help="interconnect(s) to sweep (default: all)"),
    Field("density", str, "both", choices=tuple(DENSITY_AXES),
          help="expert routing(s) to sweep (default: both)"),
    Field("batch_size", int, None, POSITIVE, many=True, metavar="B[,B...]",
          help="explicit per-GPU batch size(s); default: per-cell memory maximum"),
    Field("parallelism", str, "dp", choices=PARALLELISM_MODES,
          help="layout axis: dp (full replicas, the classic sweep), tp (tensor-parallel "
               "only), auto (both; cells that fit no single device are priced at the TP "
               "degrees that shard them into fitting) (default: dp)"),
    Field("max_tp", int, DEFAULT_MAX_TP, POSITIVE, metavar="N",
          help=f"largest tensor-parallel degree to enumerate (powers of two; "
               f"default: {DEFAULT_MAX_TP})"),
    Field("grad_accum", int, (1,), POSITIVE, many=True, metavar="K[,K...]",
          help="gradient-accumulation depth(s) to sweep — trades per-device micro-batch "
               "for global batch at fixed memory (default: 1)"),
    Field("epochs", int, 10, POSITIVE, help="passes over the dataset (default: 10)"),
    Field("num_queries", int, None, POSITIVE, help="override the dataset's query count"),
    Field("seq_len", int, None, POSITIVE, help="override the dataset's padded sequence length"),
    Field("deadline_hours", float, None, POSITIVE,
          help="wall-clock target the recommendation must meet"),
    Field("budget_dollars", float, None, POSITIVE, flag="--budget",
          help="dollar target (expected dollars on spot plans) the recommendation must meet"),
    Field("spot", str, "both", choices=("both", "only", "off"), spot=True,
          help="capacity tiers to price (default: both)"),
    Field("mtbp_hours", float, None, POSITIVE, spot=True,
          help="override every provider's mean time between preemptions "
               "(default: per-provider market model; inf = never preempted)"),
    Field("checkpoint_minutes", float, None, POSITIVE, many=True, spot=True, metavar="M[,M...]",
          help="checkpoint cadence menu; each spot candidate adopts the best entry "
               "(default: Daly's closed-form optimum sqrt(2*MTBP*C) per candidate)"),
    Field("confidence", float, DEFAULT_CONFIDENCE, UNIT, spot=True,
          help=f"completion probability the deadline must be met with "
               f"(default: {DEFAULT_CONFIDENCE})"),
    Field("risk_mode", str, DEFAULT_RISK_MODE, choices=RISK_MODES, spot=True,
          help="percentile engine: 'analytic' serves p50/p95 from the closed-form "
               "distribution with no sampling, 'mc' runs the batched Monte Carlo "
               "validation path, 'both' serves analytic and reports the MC mean "
               f"(default: {DEFAULT_RISK_MODE})"),
    Field("trials", int, DEFAULT_TRIALS, POSITIVE, spot=True,
          help=f"Monte Carlo trials per spot candidate (default: {DEFAULT_TRIALS})"),
    Field("seed", int, DEFAULT_SEED, spot=True,
          help="base Monte Carlo seed (per-candidate seeds derive from it)"),
)

FIELD = {field.name: field for field in FIELDS}
KINDS: Dict[str, Tuple[Field, ...]] = {
    "cluster": tuple(field for field in FIELDS if not field.spot),
    "spot": FIELDS,
}


# ---------------------------------------------------------------------------
# The request model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PlanRequest:
    """A validated plan request: ``kind`` (``"cluster"`` or ``"spot"``)
    and the canonical value of each of the kind's fields."""

    kind: str
    values: Mapping[str, object]

    @classmethod
    def from_json(cls, kind: str, body: Mapping[str, object]) -> "PlanRequest":
        """The request a service body asks for; raises :class:`RequestError`."""
        fields = KINDS[kind]
        known = sorted(field.name for field in fields)
        unknown = sorted(set(body) - set(known))
        if unknown:
            raise RequestError(
                f"unknown {kind} request field(s) {unknown}; known: {known}",
                field=unknown[0],
            )
        return cls._parse(kind, {
            field.name: body.get(field.name, None if field.many else field.default)
            for field in fields
        }, cli=False)

    @classmethod
    def from_args(
        cls, kind: str, argv: Optional[Sequence[str]] = None, description: Optional[str] = None
    ) -> Tuple["PlanRequest", argparse.Namespace]:
        """The request a plan CLI's command line asks for, plus the parsed
        namespace (engine, telemetry and output flags). A given list flag
        holds its parsed entries there, not its raw tokens, so a traced
        run's manifest records ``[4, 8]`` for ``--batch-size 4,8``.
        Rejections exit through ``parser.error``."""
        parser = build_parser(kind, description)
        args = parser.parse_args(argv)
        try:
            request = cls._parse(
                kind, {field.name: getattr(args, field.name) for field in KINDS[kind]}, cli=True
            )
        except RequestError as exc:
            parser.error(str(exc))
        for field in KINDS[kind]:
            if field.many and getattr(args, field.name) is not None:
                setattr(args, field.name, request.values[field.name])
        return request, args

    @classmethod
    def _parse(cls, kind: str, raw: Mapping[str, object], cli: bool) -> "PlanRequest":
        values = {field.name: field.parse(raw[field.name], cli) for field in KINDS[kind]}
        if values["parallelism"] == "tp" and values["max_tp"] < 2:
            parallelism, max_tp = FIELD["parallelism"].label(cli), FIELD["max_tp"].label(cli)
            raise RequestError(f"{parallelism}: 'tp' needs {max_tp} >= 2", field="max_tp")
        dataset = values["dataset"]
        if (values["seq_len"] is None and dataset not in EFFECTIVE_SEQ_LEN) or (
            values["num_queries"] is None and dataset not in DATASET_STATS
        ):
            known = sorted(set(EFFECTIVE_SEQ_LEN) & set(DATASET_STATS))
            raise FIELD["dataset"].error(cli, f"unknown dataset {dataset!r}; known: {known}",
                                         sep=": ")
        return cls(kind, values)

    def canonical(self) -> Dict[str, object]:
        """Every field, resolved and defaulted, in table order: the
        service's request echo and the input of its request digest."""
        return {
            name: list(value) if isinstance(value, list) else value
            for name, value in self.values.items()
        }

    def run(self, cache=None, catalog=None, tracer=None):
        """Plan the request: ``(planner, plan)``. ``None`` picks each
        planner default (process-global cache and tracer, built-in
        price catalog)."""
        v = self.values
        common = dict(dataset=v["dataset"], epochs=v["epochs"], num_queries=v["num_queries"],
                      seq_len=v["seq_len"], catalog=catalog, cache=cache, tracer=tracer)
        sweep = dict(
            gpus=v["gpu"], providers=v["provider"], num_gpus=tuple(v["num_gpus"]),
            interconnects=tuple(v["interconnect"]), densities=DENSITY_AXES[v["density"]],
            batch_sizes=tuple(v["batch_size"]) if v["batch_size"] else None,
            parallelism=v["parallelism"], max_tp=v["max_tp"],
            grad_accums=tuple(v["grad_accum"]),
            deadline_hours=v["deadline_hours"], budget_dollars=v["budget_dollars"],
        )
        if self.kind == "cluster":
            planner = ClusterPlanner(v["model"], **common)
            return planner, planner.plan(**sweep)
        checkpoint = v["checkpoint_minutes"]
        planner = RiskAdjustedPlanner(
            v["model"], mtbp_hours=v["mtbp_hours"],
            checkpoint_minutes=tuple(checkpoint) if checkpoint else None,
            trials=v["trials"], seed=v["seed"], risk_mode=v["risk_mode"], **common,
        )
        return planner, planner.plan_spot(spot=v["spot"], confidence=v["confidence"], **sweep)


# ---------------------------------------------------------------------------
# The plan CLIs
# ---------------------------------------------------------------------------

def _row_count(text: str) -> int:
    """``--top``'s type: a whole number of rows, zero or more."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be a whole number, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def build_parser(kind: str, description: Optional[str] = None) -> argparse.ArgumentParser:
    """``python -m repro.{kind}.plan``'s parser: the kind's request
    fields, then the engine, telemetry and output flags."""
    parser = argparse.ArgumentParser(prog=f"python -m repro.{kind}.plan", description=description)
    for field in KINDS[kind]:
        field.add_to(parser)
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="disk-backed trace store; a pre-populated store makes "
                             "the plan simulate nothing (default: $REPRO_CACHE_DIR "
                             "if set, else no persistence)")
    add_telemetry_arguments(parser)
    parser.add_argument("--top", type=_row_count, default=10, metavar="N",
                        help="frontier rows in the text table (default: 10)")
    parser.add_argument("--json", action="store_true", dest="as_json",
                        help="emit the plan as JSON instead of a table")
    return parser


def run_cli(kind: str, argv: Optional[List[str]], description: str,
            resolve_cache: Callable, dumps: Callable) -> int:
    """One plan CLI run: parse, plan, print. The CLI module passes its
    own ``resolve_plan_cache`` and ``dumps``, looked up when it runs."""
    request, args = PlanRequest.from_args(kind, argv, description)
    begin_telemetry(args)
    planner, plan = request.run(cache=resolve_cache(args.cache_dir))
    block = finish_telemetry(args, f"repro.{kind}.plan", planner.cache, grid=planner.last_grid)
    if args.as_json:
        payload = plan.to_payload()
        if block is not None:
            payload["telemetry"] = block
        print(dumps(payload, indent=2))
    else:
        print(plan.to_table(top=args.top))
    return 0
