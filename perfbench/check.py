"""The output check: every answer the program gave in a timed run is
compared with the in-process library answer for the same request.

Plan blocks are compared as canonical JSON text (sorted keys, no
whitespace; floats round-trip exactly), so "equal" means byte-equal
after parsing. For the service workloads the reference is
``PlanningService.plan`` on a fresh cache; for ``cli-disk-warm`` it is
the same CLI's ``--json`` plan block without a store. For the default
seed the plan blocks are also compared with the sha256 list committed
in ``golden_sha256.json``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from harness import Result
from workloads import Op, cli_argv

GOLDEN = Path(__file__).resolve().parent / "golden_sha256.json"
DEFAULT_SEED = 0


def canonical_plan(kind_of_answer: str, text: bytes) -> str:
    """The plan block of a service response or a CLI ``--json`` output."""
    payload = json.loads(text)
    plan = payload["plan"] if kind_of_answer == "service" else payload
    return json.dumps(plan, sort_keys=True, separators=(",", ":"))


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def service_reference() -> Callable[[Op], Tuple[int, Optional[str]]]:
    """``op -> (status, canonical plan or None)`` from a fresh
    in-process ``PlanningService``."""
    from repro.service import PlanningService, RequestError

    service = PlanningService()

    def answer(op: Op) -> Tuple[int, Optional[str]]:
        try:
            text = service.plan(op.kind, json.loads(json.dumps(op.body)))
        except RequestError as exc:
            return exc.status, None
        return 200, canonical_plan("service", text.encode())

    return answer


def cli_reference() -> Callable[[Op], Tuple[int, Optional[str]]]:
    """``op -> (status, canonical plan)`` from the CLI's ``main(argv)``
    in-process, on a fresh process-global cache and no store."""
    from repro.cluster import plan as cluster_cli
    from repro.scenarios import reset_default_cache
    from repro.spot import plan as spot_cli

    mains = {"cluster": cluster_cli.main, "spot": spot_cli.main}

    def answer(op: Op) -> Tuple[int, Optional[str]]:
        reset_default_cache()
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = mains[op.kind](cli_argv(op)[2:])
        if code != 0:
            return 0, None
        return 200, canonical_plan("cli", out.getvalue().encode())

    return answer


def golden() -> Dict[str, str]:
    return json.loads(GOLDEN.read_text())["plans"]


def verify(
    results: Iterable[Result],
    reference: Callable[[Op], Tuple[int, Optional[str]]],
    answer_kind: str,
    seed: int,
) -> Tuple[int, List[str]]:
    """Check each result; returns (failed ops, problems). An op fails on
    a transport error, a status other than its body expects, or a plan
    that differs from the reference. With the default seed, plans are
    also checked against the committed sha256 list, which must cover at
    least one op of the run."""
    expected: Dict[str, Tuple[int, Optional[str]]] = {}
    pinned = golden() if seed == DEFAULT_SEED else {}
    compared_with_golden = 0
    failed = 0
    problems: List[str] = []
    for result in results:
        op = result.op
        if result.status != op.status:
            failed += 1
            problems.append(f"{op.key}: status {result.status}, expected {op.status}")
            continue
        if op.status != 200:
            continue
        if op.key not in expected:
            expected[op.key] = reference(op)
        status, plan = expected[op.key]
        try:
            got = canonical_plan(answer_kind, result.body)
        except (ValueError, KeyError):
            got = None
        if status != 200 or got != plan:
            failed += 1
            problems.append(f"{op.key}: plan differs from the in-process answer")
            continue
        if op.key in pinned:
            compared_with_golden += 1
            if sha256(got) != pinned[op.key]:
                failed += 1
                problems.append(f"{op.key}: plan differs from golden_sha256.json")
    if pinned and not compared_with_golden:
        problems.append("no op of the default seed was covered by golden_sha256.json")
    return failed, problems
