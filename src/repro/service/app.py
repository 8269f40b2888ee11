"""The planning service: request normalization, coalescing, planning.

One :class:`PlanningService` owns the shared warm state — a
:class:`~repro.scenarios.cache.SimulationCache` (optionally LRU-bounded
and disk-tiered), a :class:`~repro.service.catalog.PricingCatalog`, and
a :class:`~repro.scenarios.singleflight.SingleFlight` request coalescer
— and answers ``plan("cluster" | "spot", body)`` with the serialized
JSON response. The HTTP layer (:mod:`repro.service.serve`) is a thin
adapter over this class, so tests and benchmarks drive the service
in-process without sockets.

Request bodies mirror the plan CLIs' flags field-for-field (``model``,
``gpu``, ``num_gpus``, ``deadline_hours``, ...): both are read through
the one field table of :mod:`repro.planning`, with identical defaults
and checks, so a disk store prewarmed by
``python -m repro.cluster.plan`` serves the equivalent service request
without a single simulation.

Coalescing key: the sha256 of the *normalized* request (not the raw
body — two spellings of the same sweep are one key) plus the pricing
catalog digest (a price refresh must split otherwise-identical
requests) plus the API version. Concurrent requests with equal digests
share one plan computation and receive byte-identical response strings.
The response body carries no wall-clock (latency lives in the service
metrics and the optional telemetry block), so the only thing that
distinguishes a warm repeat from its cold predecessor is the ``engine``
delta block — which is exactly what it is for.

The per-request ``engine`` block reports the cache-counter deltas the
request observed (simulations, hits, ...). Under concurrent *distinct*
requests the deltas can attribute a neighbor's traffic (the counters
are process-global); for sequential or coalesced-identical traffic —
everything the acceptance tests assert on — they are exact.
"""

from __future__ import annotations

import hashlib
import json
import time
from typing import Callable, Dict, Optional

from ..planning import PlanRequest, RequestError
from ..scenarios import SimulationCache, SingleFlight
from ..scenarios.store import DiskTraceStore
from ..serialization import dumps
from ..telemetry.export import export_run
from ..telemetry.metrics import MetricsRegistry
from ..telemetry.tracer import Tracer
from .catalog import PricingCatalog

#: Bumped on any change to the request normalization or response layout
#: — it salts the coalescing digest, so two service versions can never
#: alias each other's in-flight computations.
API_VERSION = 1


# ---------------------------------------------------------------------------
# Request normalization
# ---------------------------------------------------------------------------

def normalize_cluster_request(body: Dict[str, object]) -> Dict[str, object]:
    """The canonical form of a ``/plan/cluster`` body (see
    :class:`~repro.planning.PlanRequest`): every field present, resolved
    and validated, with the defaults of ``python -m repro.cluster.plan``.
    It is both the coalescing-digest input and the response's
    ``request`` echo. Raises :class:`RequestError` on anything malformed."""
    return PlanRequest.from_json("cluster", body).canonical()


def normalize_spot_request(body: Dict[str, object]) -> Dict[str, object]:
    """The canonical form of a ``/plan/spot`` body: the cluster fields
    plus the risk knobs, defaults identical to
    ``python -m repro.spot.plan``."""
    return PlanRequest.from_json("spot", body).canonical()


def request_digest(kind: str, request: Dict[str, object], catalog_digest: str) -> str:
    """The coalescing key: sha256 over the canonical JSON of the
    normalized request, the pricing-catalog digest and the API version."""
    text = json.dumps(
        {"api": API_VERSION, "kind": kind, "catalog": catalog_digest, "request": request},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# The service
# ---------------------------------------------------------------------------

class PlanningService:
    """Shared warm planning state plus the request pipeline.

    ``telemetry`` / ``telemetry_out`` / ``run_store`` mirror the CLIs'
    flags: any of them enables per-request tracing (a fresh
    ``service.request`` span tree per request, wrapping the planner's
    own phases) and adds a ``telemetry`` block to responses.
    ``telemetry_out`` atomically rewrites the JSONL event log after
    every request (the file always holds the latest request's events);
    ``run_store`` is a :class:`~repro.telemetry.runstore.RunStore` that
    ingests each request as one run, so the PR 8 analyzer reads a
    serving window out of the box.
    """

    def __init__(
        self,
        cache: Optional[SimulationCache] = None,
        capacity: Optional[int] = None,
        store: Optional[DiskTraceStore] = None,
        pricing: Optional[PricingCatalog] = None,
        telemetry: bool = False,
        telemetry_out: Optional[str] = None,
        run_store=None,
        clock: Callable[[], float] = time.time,
    ) -> None:
        if cache is None:
            cache = SimulationCache(store=store, capacity=capacity)
        elif store is not None or capacity is not None:
            raise ValueError("pass either an explicit cache or store/capacity, not both")
        self.cache = cache
        self.pricing = pricing if pricing is not None else PricingCatalog()
        self.flight = SingleFlight()
        self._telemetry_out = telemetry_out
        self._run_store = run_store
        self._traced = bool(telemetry or telemetry_out or run_store is not None)
        self._clock = clock
        self.metrics = MetricsRegistry()
        self._requests = self.metrics.counter("service.requests")
        self._coalesced = self.metrics.counter("service.coalesced")
        self._errors = self.metrics.counter("service.errors")
        self._request_seconds = self.metrics.histogram("service.request_seconds")
        self._started_at = clock()

    # ------------------------------------------------------------------
    def plan(self, kind: str, body: Dict[str, object]) -> str:
        """The serialized JSON response for one plan request.

        Raises :class:`RequestError` for malformed bodies; any other
        exception is a planning bug (the HTTP layer maps it to 500 and
        keeps serving).
        """
        started = time.perf_counter()
        self._requests.inc()
        try:
            if kind == "cluster":
                request = normalize_cluster_request(body)
            elif kind == "spot":
                request = normalize_spot_request(body)
            else:
                raise RequestError(f"unknown plan kind {kind!r}", status=404)
            catalog, stale = self.pricing.get()
            catalog_digest = catalog.digest()
            digest = request_digest(kind, request, catalog_digest)
            response, shared = self.flight.do(
                digest,
                lambda: self._compute(kind, request, catalog, stale, digest, catalog_digest),
            )
            if shared:
                self._coalesced.inc()
            return response
        except Exception:
            self._errors.inc()
            raise
        finally:
            self._request_seconds.observe(time.perf_counter() - started)

    # ------------------------------------------------------------------
    def _compute(
        self, kind, request, catalog, stale, digest, catalog_digest
    ) -> str:
        tracer = Tracer(enabled=self._traced)
        before = self.cache.stats()
        with tracer.span("service.request", kind=kind, digest=digest[:16]):
            planner, plan = PlanRequest(kind, request).run(self.cache, catalog, tracer)
        after = self.cache.stats()
        payload = {
            "kind": kind,
            "request": request,
            "request_digest": digest,
            "pricing": {"digest": catalog_digest, "stale": stale},
            "pricing_stale": stale,
            "engine": {
                "simulations": after.simulations - before.simulations,
                "hits": after.hits - before.hits,
                "disk_hits": after.disk_hits - before.disk_hits,
                "misses": after.misses - before.misses,
                "risk_hits": after.risk_hits - before.risk_hits,
                "risk_misses": after.risk_misses - before.risk_misses,
                "evictions": after.evictions - before.evictions,
            },
            "plan": plan.to_payload(),
        }
        if self._traced:
            payload["telemetry"] = export_run(
                f"repro.service.plan_{kind}",
                request,
                tracer,
                self.cache,
                grid=planner.last_grid,
                snapshots=[self.metrics.snapshot()],
                telemetry_out=self._telemetry_out,
                run_store=self._run_store,
                clock=self._clock,
            )
        return dumps(payload, indent=2)

    # ------------------------------------------------------------------
    def health_payload(self) -> Dict[str, object]:
        return {"status": "ok"}

    def stats_payload(self) -> Dict[str, object]:
        """The ``/stats`` body: request counters, coalescing stats, the
        shared cache's accounting (plus its LRU bound) and the pricing
        catalog's freshness."""
        stats = self.cache.stats()
        return {
            "uptime_seconds": max(0.0, self._clock() - self._started_at),
            "requests": {
                "total": self._requests.value,
                "coalesced": self._coalesced.value,
                "errors": self._errors.value,
            },
            "flight": self.flight.stats(),
            "cache": {
                "hits": stats.hits,
                "disk_hits": stats.disk_hits,
                "misses": stats.misses,
                "simulations": stats.simulations,
                "risk_hits": stats.risk_hits,
                "risk_misses": stats.risk_misses,
                "evictions": stats.evictions,
                "entries": stats.entries,
                "capacity": self.cache.capacity,
            },
            "pricing": self.pricing.status(),
        }
