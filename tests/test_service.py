"""Tests for the planning service: single-flight coalescing, the LRU
cache bound, the TTL/stale-while-revalidate pricing catalog, request
normalization, and the HTTP surface."""

import http.client
import json
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.cloud.pricing import DEFAULT_CATALOG, GPUPrice, PriceCatalog
from repro.scenarios import (
    DiskTraceStore,
    InFlightMap,
    Scenario,
    SimulationCache,
    SingleFlight,
)
from repro.service import PlanningService, PricingCatalog as LivePricing, RequestError
from repro.service.app import (
    normalize_cluster_request,
    normalize_spot_request,
    request_digest,
)
from repro.service.serve import MAX_BODY_BYTES, make_server
from repro.telemetry import validate_file
from repro.telemetry.runstore import RunStore

MIXTRAL_A40 = {"model": "mixtral", "gpu": ["a40"], "deadline_hours": 24}


def scenario(batch_size=1, dense=False):
    return Scenario(
        model="mixtral-8x7b", gpu="A40", batch_size=batch_size,
        seq_len=64, dense=dense,
    )


# ---------------------------------------------------------------------------
# Single-flight primitives
# ---------------------------------------------------------------------------

class TestInFlightMap:
    def test_claim_release(self):
        inflight = InFlightMap()
        event, leader = inflight.claim("k")
        assert leader and "k" in inflight and len(inflight) == 1
        again, second = inflight.claim("k")
        assert again is event and not second
        inflight.release("k")
        assert "k" not in inflight
        inflight.release("k")  # idempotent

    def test_keys_are_independent(self):
        inflight = InFlightMap()
        _, first = inflight.claim("a")
        _, second = inflight.claim("b")
        assert first and second


class TestSingleFlight:
    def test_sequential_calls_each_lead(self):
        flight = SingleFlight()
        assert flight.do("k", lambda: 1) == (1, False)
        assert flight.do("k", lambda: 2) == (2, False)  # coalescing, not caching
        assert flight.stats() == {"leaders": 2, "shared": 0, "inflight": 0}

    def test_concurrent_duplicates_share_one_computation(self):
        flight = SingleFlight()
        calls = []

        def slow():
            calls.append(1)
            time.sleep(0.2)
            return object()

        barrier = threading.Barrier(8)
        results = [None] * 8

        def worker(i):
            barrier.wait()
            results[i] = flight.do("k", slow)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(10)
        assert len(calls) == 1
        values = {id(value) for value, _shared in results}
        assert len(values) == 1  # the identical object, not a copy
        assert sum(shared for _v, shared in results) == 7
        assert flight.stats() == {"leaders": 1, "shared": 7, "inflight": 0}

    def test_leader_exception_propagates_to_followers(self):
        flight = SingleFlight()
        entered = threading.Event()
        release = threading.Event()

        def boom():
            entered.set()
            assert release.wait(10)
            raise RuntimeError("leader failed")

        errors = []

        def leader():
            try:
                flight.do("k", boom)
            except RuntimeError as exc:
                errors.append(str(exc))

        def follower():
            assert entered.wait(10)
            try:
                flight.do("k", lambda: "never")
            except RuntimeError as exc:
                errors.append(str(exc))

        threads = [threading.Thread(target=leader), threading.Thread(target=follower)]
        threads[0].start()
        assert entered.wait(10)
        threads[1].start()
        deadline = time.time() + 10
        while flight.stats()["shared"] < 1:
            assert time.time() < deadline
            time.sleep(0.005)
        release.set()
        for t in threads:
            t.join(10)
        assert errors == ["leader failed", "leader failed"]
        assert flight.stats()["inflight"] == 0  # failed keys retry fresh
        assert flight.do("k", lambda: "ok") == ("ok", False)


# ---------------------------------------------------------------------------
# LRU bound on the simulation cache
# ---------------------------------------------------------------------------

class TestCacheLRU:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            SimulationCache(capacity=0)

    def test_unbounded_cache_never_evicts(self):
        cache = SimulationCache()
        for batch in (1, 2, 3):
            cache.simulate(scenario(batch))
        stats = cache.stats()
        assert stats.entries == 3 and stats.evictions == 0
        assert cache.capacity is None

    def test_bounded_cache_evicts_lru_and_counts(self):
        cache = SimulationCache(capacity=2)
        for batch in (1, 2, 3):
            cache.simulate(scenario(batch))
        stats = cache.stats()
        assert stats.entries == 2
        assert stats.evictions == 1
        assert scenario(1) not in cache  # oldest evicted
        assert scenario(2) in cache and scenario(3) in cache

    def test_hit_refreshes_recency(self):
        cache = SimulationCache(capacity=2)
        cache.simulate(scenario(1))
        cache.simulate(scenario(2))
        cache.simulate(scenario(1))  # touch: batch 1 is now most recent
        cache.simulate(scenario(3))  # evicts batch 2, not batch 1
        assert scenario(1) in cache and scenario(2) not in cache

    def test_evicted_trace_reserved_from_disk_without_resimulating(self, tmp_path):
        cache = SimulationCache(store=DiskTraceStore(tmp_path), capacity=1)
        cache.simulate(scenario(1))
        cache.simulate(scenario(2))  # evicts batch 1 (already persisted)
        assert cache.stats().evictions == 1
        before = cache.stats().simulations
        trace, source = cache.fetch(scenario(1))
        assert source == "disk"
        assert cache.stats().simulations == before  # zero new simulate_step calls
        assert trace.queries_per_second > 0

    def test_eviction_spills_to_store_attached_after_simulation(self, tmp_path):
        cache = SimulationCache(capacity=1)
        cache.simulate(scenario(1))
        cache.attach_store(DiskTraceStore(tmp_path))  # attached late: not persisted yet
        cache.simulate(scenario(2))  # evicting batch 1 must write it back
        before = cache.stats().simulations
        _, source = cache.fetch(scenario(1))
        assert source == "disk"
        assert cache.stats().simulations == before

    def test_derived_results_bounded_too(self):
        cache = SimulationCache(capacity=2)
        for key in ("a", "b", "c"):
            cache.memoize(("derived", key), lambda: key)
        evictions = cache.stats().evictions
        assert evictions >= 1
        # An evicted derived result recomputes (counts a fresh miss).
        misses = cache.stats().misses
        cache.memoize(("derived", "a"), lambda: "a")
        assert cache.stats().misses == misses + 1

    def test_cachestats_evictions_defaults_for_old_constructions(self):
        from repro.scenarios import CacheStats
        stats = CacheStats(hits=1, misses=1, entries=1)
        assert stats.evictions == 0


# ---------------------------------------------------------------------------
# Pricing: payload interchange + TTL catalog
# ---------------------------------------------------------------------------

class TestPricingPayload:
    def test_roundtrip_preserves_both_tiers(self):
        rebuilt = PriceCatalog.from_payload(DEFAULT_CATALOG.to_payload())
        assert rebuilt.to_payload() == DEFAULT_CATALOG.to_payload()
        assert rebuilt.digest() == DEFAULT_CATALOG.digest()
        assert rebuilt.spot_dollars_per_hour("A40") == DEFAULT_CATALOG.spot_dollars_per_hour("A40")

    def test_digest_distinguishes_price_changes(self):
        catalog = PriceCatalog([GPUPrice("A40", "cudo", 0.79)])
        bumped = PriceCatalog([GPUPrice("A40", "cudo", 0.99)])
        assert catalog.digest() != bumped.digest()

    @pytest.mark.parametrize("payload", [
        None,
        [],
        {"version": 999, "prices": []},
        {"version": 1, "prices": {"not": "a list"}},
        {"version": 1, "prices": [{"gpu": "A40"}]},  # missing fields
        {"version": 1, "prices": [{"gpu": "A40", "provider": "x", "dollars_per_hour": -1}]},
        # spot above on-demand violates the discount-tier invariant
        {"version": 1,
         "prices": [{"gpu": "A40", "provider": "x", "dollars_per_hour": 1.0}],
         "spot_prices": [{"gpu": "A40", "provider": "x", "dollars_per_hour": 2.0}]},
    ])
    def test_malformed_payloads_raise(self, payload):
        with pytest.raises(ValueError):
            PriceCatalog.from_payload(payload)


class FakeFeed:
    """A scriptable feed: push payloads/exceptions, count fetches."""

    def __init__(self):
        self.payload = DEFAULT_CATALOG.to_payload()
        self.error = None
        self.fetches = 0

    def __call__(self, feed):
        self.fetches += 1
        if self.error is not None:
            raise self.error
        return self.payload


class FakeClock:
    def __init__(self):
        self.now = 1000.0

    def __call__(self):
        return self.now


class TestPricingCatalogTTL:
    def _catalog(self, ttl=60.0):
        feed, clock = FakeFeed(), FakeClock()
        return LivePricing(feed="fake://feed", ttl_seconds=ttl,
                           clock=clock, fetch=feed), feed, clock

    def test_feedless_catalog_is_never_stale(self):
        live = LivePricing()
        catalog, stale = live.get()
        assert catalog is DEFAULT_CATALOG and not stale
        assert live.status()["source"] == "builtin"
        assert live.status()["stale"] is False

    def test_ttl_must_be_positive(self):
        with pytest.raises(ValueError):
            LivePricing(feed="x", ttl_seconds=0)

    def test_first_touch_fetches_synchronously(self):
        live, feed, _clock = self._catalog()
        catalog, stale = live.get()
        assert not stale and feed.fetches == 1
        assert catalog.digest() == DEFAULT_CATALOG.digest()

    def test_within_ttl_serves_from_memory(self):
        live, feed, clock = self._catalog(ttl=60)
        live.get()
        clock.now += 59
        _, stale = live.get()
        assert not stale and feed.fetches == 1  # zero feed I/O on the hot path

    def test_past_ttl_serves_stale_while_revalidating(self):
        live, feed, clock = self._catalog(ttl=60)
        live.get()
        feed.payload = PriceCatalog([GPUPrice("A40", "cudo", 0.99)]).to_payload()
        clock.now += 61
        catalog, stale = live.get()
        assert stale  # served immediately, old prices
        assert catalog.dollars_per_hour("A40") == 0.79
        live.join_refresh(10)
        catalog, stale = live.get()
        assert not stale
        assert catalog.dollars_per_hour("A40") == 0.99
        assert live.status()["refreshes"] == 2

    def test_dead_feed_on_first_touch_serves_fallback_stale(self):
        live, feed, _clock = self._catalog()
        feed.error = OSError("connection refused")
        catalog, stale = live.get()
        assert stale and catalog is DEFAULT_CATALOG
        status = live.status()
        assert status["failures"] == 1
        assert "connection refused" in status["last_error"]

    def test_feed_dying_later_keeps_last_good_catalog(self):
        live, feed, clock = self._catalog(ttl=60)
        live.get()
        feed.error = OSError("feed down")
        clock.now += 61
        catalog, stale = live.get()
        assert stale
        assert catalog.digest() == DEFAULT_CATALOG.digest()  # last good snapshot
        live.join_refresh(10)
        _, still_stale = live.get()
        assert still_stale  # refresh failed; stays stale until the feed heals
        assert live.status()["failures"] >= 1
        feed.error = None
        live.join_refresh(10)
        assert live.refresh()
        _, stale = live.get()
        assert not stale


# ---------------------------------------------------------------------------
# Request normalization
# ---------------------------------------------------------------------------

class TestNormalization:
    def test_defaults_mirror_the_cli(self):
        request = normalize_cluster_request({"model": "mixtral"})
        assert request["model"] == "mixtral-8x7b"
        assert request["dataset"] == "math14k"
        assert request["num_gpus"] == [1, 2, 4, 8]
        assert request["density"] == "both"
        assert request["parallelism"] == "dp"
        assert request["grad_accum"] == [1]
        assert request["epochs"] == 10
        assert request["gpu"] is None and request["provider"] is None

    def test_scalars_and_lists_normalize_identically(self):
        a = normalize_cluster_request({"model": "mixtral", "gpu": "a40"})
        b = normalize_cluster_request({"model": "mixtral", "gpu": ["A40"]})
        assert a == b
        assert a["gpu"] == ["A40"]

    def test_digest_is_spelling_independent(self):
        digest = DEFAULT_CATALOG.digest()
        a = request_digest("cluster", normalize_cluster_request(
            {"model": "mixtral", "gpu": "a40"}), digest)
        b = request_digest("cluster", normalize_cluster_request(
            {"gpu": ["A40"], "model": "MIXTRAL"}), digest)
        assert a == b

    def test_digest_splits_on_catalog_change(self):
        request = normalize_cluster_request({"model": "mixtral"})
        bumped = PriceCatalog([GPUPrice("A40", "cudo", 0.99)])
        assert request_digest("cluster", request, DEFAULT_CATALOG.digest()) != \
            request_digest("cluster", request, bumped.digest())

    @pytest.mark.parametrize("body,fragment", [
        ({}, "model"),
        ({"model": 7}, "model"),
        ({"model": "nope"}, "unknown model"),
        ({"model": "mixtral", "bogus": 1}, "unknown cluster request field"),
        ({"model": "mixtral", "gpu": []}, "empty list"),
        ({"model": "mixtral", "gpu": "z9000"}, "unknown GPU"),
        ({"model": "mixtral", "num_gpus": [0]}, "positive"),
        ({"model": "mixtral", "num_gpus": [True]}, "numbers"),
        ({"model": "mixtral", "density": "extra"}, "density"),
        ({"model": "mixtral", "epochs": 0}, "epochs"),
        ({"model": "mixtral", "deadline_hours": -1}, "positive"),
        ({"model": "mixtral", "parallelism": "tp", "max_tp": 1}, "max_tp"),
        ({"model": "mixtral", "interconnect": "carrier-pigeon"}, "interconnect"),
    ])
    def test_malformed_cluster_bodies_are_400s(self, body, fragment):
        with pytest.raises(RequestError) as excinfo:
            normalize_cluster_request(body)
        assert excinfo.value.status == 400
        assert fragment in str(excinfo.value)

    @pytest.mark.parametrize("body,fragment", [
        ({"model": "mixtral", "confidence": 1.5}, "confidence"),
        ({"model": "mixtral", "risk_mode": "psychic"}, "risk_mode"),
        ({"model": "mixtral", "trials": 0}, "trials"),
        ({"model": "mixtral", "seed": "x"}, "seed"),
        ({"model": "mixtral", "spot": "maybe"}, "spot"),
        ({"model": "mixtral", "mtbp_hours": 0}, "positive"),
    ])
    def test_malformed_spot_bodies_are_400s(self, body, fragment):
        with pytest.raises(RequestError) as excinfo:
            normalize_spot_request(body)
        assert fragment in str(excinfo.value)

    def test_spot_defaults(self):
        request = normalize_spot_request({"model": "mixtral"})
        assert request["spot"] == "both"
        assert request["risk_mode"] == "analytic"
        assert request["confidence"] == 0.95
        assert request["seed"] == 20240724


# ---------------------------------------------------------------------------
# The service
# ---------------------------------------------------------------------------

class TestServiceWarmPath:
    def test_warm_repeat_simulates_nothing(self):
        service = PlanningService()
        cold = json.loads(service.plan("cluster", dict(MIXTRAL_A40)))
        assert cold["engine"]["simulations"] > 0
        warm = json.loads(service.plan("cluster", dict(MIXTRAL_A40)))
        assert warm["engine"]["simulations"] == 0
        assert warm["engine"]["misses"] == 0
        assert warm["engine"]["hits"] > 0
        assert warm["plan"] == cold["plan"]

    def test_warm_spot_repeat_recomputes_no_risk(self):
        service = PlanningService()
        body = {"model": "mixtral", "gpu": ["a40"], "deadline_hours": 24}
        cold = json.loads(service.plan("spot", body))
        assert cold["engine"]["risk_misses"] > 0
        warm = json.loads(service.plan("spot", body))
        assert warm["engine"]["simulations"] == 0
        assert warm["engine"]["risk_misses"] == 0
        assert warm["engine"]["risk_hits"] > 0
        assert warm["plan"] == cold["plan"]

    def test_unknown_kind_is_404(self):
        with pytest.raises(RequestError) as excinfo:
            PlanningService().plan("quantum", {"model": "mixtral"})
        assert excinfo.value.status == 404

    def test_error_counter_tracks_rejections(self):
        service = PlanningService()
        with pytest.raises(RequestError):
            service.plan("cluster", {"model": "nope"})
        assert service.stats_payload()["requests"]["errors"] == 1

    def test_explicit_cache_excludes_store_and_capacity(self):
        with pytest.raises(ValueError):
            PlanningService(cache=SimulationCache(), capacity=4)


class TestServiceCoalescing:
    def test_concurrent_identical_requests_compute_once(self):
        service = PlanningService()
        n = 6
        release = threading.Event()
        compute = service._compute

        def gated(*args, **kwargs):
            assert release.wait(30)
            return compute(*args, **kwargs)

        service._compute = gated
        results = [None] * n

        def worker(i):
            results[i] = service.plan("cluster", dict(MIXTRAL_A40))

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(n)]
        for t in threads:
            t.start()
        # Release the leader only once every follower is parked on the
        # in-flight call, so the test is deterministic at any speed.
        deadline = time.time() + 30
        while service.flight.stats()["shared"] < n - 1:
            assert time.time() < deadline, service.flight.stats()
            time.sleep(0.005)
        release.set()
        for t in threads:
            t.join(30)
        assert service.flight.stats() == {"leaders": 1, "shared": n - 1, "inflight": 0}
        assert len(set(results)) == 1  # byte-identical responses
        engine = json.loads(results[0])["engine"]
        assert engine["simulations"] > 0  # exactly one cold computation
        stats = service.stats_payload()
        assert stats["requests"]["total"] == n
        assert stats["requests"]["coalesced"] == n - 1

    def test_distinct_requests_do_not_coalesce(self):
        service = PlanningService()
        sparse = service.plan("cluster", {"model": "mixtral", "gpu": ["a40"], "density": "sparse"})
        dense = service.plan("cluster", {"model": "mixtral", "gpu": ["a40"], "density": "dense"})
        assert sparse != dense
        assert service.flight.stats()["leaders"] == 2


class TestServiceLRU:
    def test_evicted_plans_reserve_from_disk(self, tmp_path):
        service = PlanningService(store=DiskTraceStore(tmp_path), capacity=1)
        first = json.loads(service.plan(
            "cluster", {"model": "mixtral", "gpu": ["a40"], "density": "sparse"}))
        assert first["engine"]["simulations"] > 0
        second = json.loads(service.plan(
            "cluster", {"model": "mixtral", "gpu": ["a40"], "density": "dense"}))
        assert second["engine"]["evictions"] >= 1
        again = json.loads(service.plan(
            "cluster", {"model": "mixtral", "gpu": ["a40"], "density": "sparse"}))
        assert again["engine"]["simulations"] == 0  # zero new simulate_step calls
        assert again["engine"]["disk_hits"] > 0
        assert again["plan"] == first["plan"]
        assert service.stats_payload()["cache"]["capacity"] == 1


class TestServiceStalePricing:
    def test_plans_served_from_stale_catalog_when_feed_is_down(self):
        feed = FakeFeed()
        feed.error = OSError("feed unreachable")
        pricing = LivePricing(feed="fake://feed", clock=FakeClock(), fetch=feed)
        service = PlanningService(pricing=pricing)
        response = json.loads(service.plan("cluster", dict(MIXTRAL_A40)))
        assert response["pricing_stale"] is True
        assert response["pricing"]["stale"] is True
        assert response["plan"]["frontier"]  # still a real plan
        stats = service.stats_payload()
        assert stats["pricing"]["stale"] is True
        assert stats["pricing"]["failures"] >= 1

    def test_price_refresh_splits_the_coalescing_key(self):
        feed, clock = FakeFeed(), FakeClock()
        pricing = LivePricing(feed="fake://feed", ttl_seconds=60,
                              clock=clock, fetch=feed)
        service = PlanningService(pricing=pricing)
        first = json.loads(service.plan("cluster", dict(MIXTRAL_A40)))
        payload = DEFAULT_CATALOG.to_payload()
        for entry in payload["prices"]:
            entry["dollars_per_hour"] *= 2
        for entry in payload["spot_prices"]:
            entry["dollars_per_hour"] *= 2
        feed.payload = payload
        clock.now += 61
        service.plan("cluster", dict(MIXTRAL_A40))  # stale serve + revalidate
        pricing.join_refresh(10)
        third = json.loads(service.plan("cluster", dict(MIXTRAL_A40)))
        assert third["pricing"]["digest"] != first["pricing"]["digest"]
        assert third["request_digest"] != first["request_digest"]
        # Doubled prices, same sweep: the frontier costs doubled too.
        cheapest_first = first["plan"]["cheapest"]["dollars"]
        cheapest_third = third["plan"]["cheapest"]["dollars"]
        assert cheapest_third == pytest.approx(2 * cheapest_first)


# ---------------------------------------------------------------------------
# HTTP surface
# ---------------------------------------------------------------------------

@pytest.fixture
def served(tmp_path):
    """A live server on an ephemeral port with telemetry sinks wired."""
    events = tmp_path / "events.jsonl"
    service = PlanningService(
        telemetry_out=str(events),
        run_store=RunStore(tmp_path / "runs"),
    )
    server = make_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    try:
        yield f"http://{host}:{port}", service, events, tmp_path / "runs"
    finally:
        server.shutdown()
        server.server_close()


def _get(url):
    with urllib.request.urlopen(url, timeout=30) as response:
        return response.status, json.loads(response.read())


def _post(url, body):
    request = urllib.request.Request(
        url, data=json.dumps(body).encode("utf-8"), method="POST",
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(request, timeout=120) as response:
        return response.status, json.loads(response.read())


class TestHTTP:
    def test_round_trip_with_telemetry(self, served):
        base, _service, events, runs = served
        assert _get(base + "/healthz") == (200, {"status": "ok"})

        status, body = _post(base + "/plan/cluster", MIXTRAL_A40)
        assert status == 200
        assert body["kind"] == "cluster"
        assert body["engine"]["simulations"] > 0
        assert "telemetry" in body

        status, warm = _post(base + "/plan/cluster", MIXTRAL_A40)
        assert warm["engine"]["simulations"] == 0
        assert warm["telemetry"]["manifest"]["cache"]["hits"] > 0

        status, stats = _get(base + "/stats")
        assert stats["requests"]["total"] == 2
        assert stats["cache"]["simulations"] > 0

        counts = validate_file(events)
        assert counts["manifest"] == 1 and counts["span"] >= 2
        assert len(RunStore(runs).records()) == 2

    def test_http_errors(self, served):
        base, service, _events, _runs = served
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(base + "/plan/cluster", {"model": "nope"})
        assert excinfo.value.code == 400
        assert "unknown model" in json.loads(excinfo.value.read())["error"]

        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _post(base + "/plan/teleport", {"model": "mixtral"})
        assert excinfo.value.code == 404

        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(base + "/nope")
        assert excinfo.value.code == 404

        request = urllib.request.Request(
            base + "/plan/cluster", data=b"not json", method="POST")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 400

        request = urllib.request.Request(
            base + "/plan/cluster", data=b"[1, 2]", method="POST")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 400
        assert service.stats_payload()["requests"]["errors"] == 1

    def test_body_length_bounds(self, served):
        """An oversized declared body is a 413 answered without reading
        it, a negative one a 400; both close the connection."""
        base, service, _events, _runs = served
        host, port = base[len("http://"):].rsplit(":", 1)
        for length, status in ((MAX_BODY_BYTES + 1, 413), (-1, 400)):
            with socket.create_connection((host, int(port)), timeout=10) as sock:
                sock.sendall(
                    f"POST /plan/cluster HTTP/1.1\r\nHost: {host}\r\n"
                    f"Content-Length: {length}\r\n\r\n".encode("ascii")
                )
                response = http.client.HTTPResponse(sock)
                response.begin()
                assert response.status == status
                assert response.getheader("Connection") == "close"
                assert "error" in json.loads(response.read())
                assert sock.recv(1) == b""  # the server hung up
        assert service.stats_payload()["requests"]["total"] == 0

    @pytest.mark.parametrize("declared", ["abc", "1_0", "+2"])
    def test_non_integer_content_length_closes_the_connection(self, served, declared):
        """A Content-Length that is not a plain digit string is a 400
        naming the header, and the connection closes: the body's extent
        is unknown, so a request pipelined behind it must not be parsed."""
        base, service, _events, _runs = served
        host, port = base[len("http://"):].rsplit(":", 1)
        with socket.create_connection((host, int(port)), timeout=10) as sock:
            sock.sendall(
                f"POST /plan/cluster HTTP/1.1\r\nHost: {host}\r\n"
                f"Content-Length: {declared}\r\n\r\n{{}}"
                f"GET /healthz HTTP/1.1\r\nHost: {host}\r\n\r\n".encode("ascii")
            )
            response = http.client.HTTPResponse(sock)
            response.begin()
            assert response.status == 400
            assert response.getheader("Connection") == "close"
            assert "Content-Length" in json.loads(response.read())["error"]
            try:
                rest = sock.recv(1)
            except ConnectionResetError:  # closed with the pipelined bytes unread
                rest = b""
            assert rest == b""  # no answer to the pipelined GET
        assert service.stats_payload()["requests"]["total"] == 0
