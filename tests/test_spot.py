"""Tests for the spot-market risk subsystem."""

import json
import math

import pytest

from repro.cloud.pricing import DEFAULT_CATALOG, GPUPrice, PriceCatalog
from repro.cluster import ClusterPlanner
from repro.gpu import A40, H100
from repro.models import MIXTRAL_8X7B
from repro.models.config import BLACKMAMBA_2_8B
from repro.scenarios import SimulationCache, preset, preset_names
from repro.spot import (
    AnalyticMakespanDistribution,
    CheckpointPolicy,
    ONDEMAND,
    RiskAdjustedPlanner,
    SPOT,
    SpotMarket,
    SpotScenario,
    SpotSimulator,
    checkpoint_state_gb,
    expected_makespan_hours,
    expected_preemptions,
    get_spot_market,
    restart_state_gb,
    segment_lengths,
    spot_product,
)
from repro.spot.plan import main as plan_main


def neutral_catalog() -> PriceCatalog:
    """The default on-demand prices with a spot tier at the *same* rates
    — isolates the risk model from the discount."""
    prices = [
        GPUPrice(gpu, provider, DEFAULT_CATALOG.dollars_per_hour(gpu, provider))
        for provider in DEFAULT_CATALOG.providers()
        for gpu in DEFAULT_CATALOG.gpus(provider)
    ]
    return PriceCatalog(prices, spot_prices=prices)


def policy(minutes=30.0, write_s=10.0, restart_s=120.0) -> CheckpointPolicy:
    return CheckpointPolicy(
        interval_minutes=minutes, write_seconds=write_s, restart_seconds=restart_s
    )


class TestSpotPricingTier:
    def test_default_catalog_has_spot_tier(self):
        assert DEFAULT_CATALOG.has_spot("A40", "cudo")
        assert DEFAULT_CATALOG.has_spot("A40", "runpod")
        assert not DEFAULT_CATALOG.has_spot("A100-80GB", "lambda")
        assert DEFAULT_CATALOG.spot_dollars_per_hour("A40", "cudo") == pytest.approx(0.40)

    def test_spot_is_a_discount_tier(self):
        for provider in DEFAULT_CATALOG.providers():
            for gpu in DEFAULT_CATALOG.gpus(provider):
                if DEFAULT_CATALOG.has_spot(gpu, provider):
                    assert DEFAULT_CATALOG.spot_discount(gpu, provider) <= 1.0

    def test_providers_for_is_backward_compatible(self):
        # On-demand lookup is unchanged by the spot tier: lambda has no
        # spot listing yet still rents the A100-80GB on demand.
        assert DEFAULT_CATALOG.providers_for("A100-80GB") == ["cudo", "lambda", "runpod"]
        assert DEFAULT_CATALOG.spot_providers_for("A100-80GB") == ["cudo", "runpod"]

    def test_unknown_spot_price_raises(self):
        with pytest.raises(KeyError):
            DEFAULT_CATALOG.spot_price_for("A40", "lambda")

    def test_add_spot_rejects_premium_over_ondemand(self):
        catalog = PriceCatalog([GPUPrice("A40", "x", 1.0)])
        with pytest.raises(ValueError):
            catalog.add_spot(GPUPrice("A40", "x", 1.5))
        catalog.add_spot(GPUPrice("A40", "x", 1.0))  # equal is allowed
        assert catalog.has_spot("A40", "x")

    def test_spot_only_listing_is_allowed(self):
        catalog = PriceCatalog([], spot_prices=[GPUPrice("A40", "x", 0.2)])
        assert catalog.has_spot("A40", "x")
        assert catalog.providers_for("A40") == []

    def test_add_cannot_undercut_an_existing_spot_listing(self):
        # The discount invariant holds from both sides: updating the
        # on-demand tier below an existing spot quote must fail too.
        catalog = PriceCatalog([GPUPrice("A40", "x", 1.0)],
                               spot_prices=[GPUPrice("A40", "x", 0.9)])
        with pytest.raises(ValueError):
            catalog.add(GPUPrice("A40", "x", 0.5))
        catalog.add(GPUPrice("A40", "x", 0.9))  # equal is allowed
        assert catalog.spot_discount("A40", "x") <= 1.0


class TestSpotMarket:
    def test_registry_and_default(self):
        assert get_spot_market("cudo").mtbp_hours == 8.0
        assert get_spot_market("runpod").mtbp_hours == 4.0
        unknown = get_spot_market("somecloud")
        assert unknown.provider == "somecloud" and unknown.mtbp_hours == 6.0

    def test_mtbp_override(self):
        assert get_spot_market("cudo", mtbp_hours=2.0).mtbp_hours == 2.0

    def test_infinite_mtbp_means_zero_hazard(self):
        market = SpotMarket("x", mtbp_hours=float("inf"))
        assert market.preemptions_per_hour == 0.0
        assert market.preemption_probability(1e9) == 0.0

    def test_fleet_rate_scales_with_cluster_size(self):
        market = SpotMarket("x", mtbp_hours=8.0)
        assert market.fleet_rate_per_hour(8) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            market.fleet_rate_per_hour(0)

    def test_preemption_probability(self):
        market = SpotMarket("x", mtbp_hours=2.0)
        assert market.preemption_probability(2.0) == pytest.approx(1 - math.exp(-1))
        assert market.preemption_probability(0.0) == 0.0

    def test_invalid_mtbp(self):
        for bad in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError):
                SpotMarket("x", mtbp_hours=bad)


class TestCheckpointPolicy:
    def test_state_size_follows_the_recipe(self):
        # QLoRA checkpoints adapters + moments, not the frozen weights.
        mixtral = checkpoint_state_gb(MIXTRAL_8X7B)
        assert 2.0 < mixtral < 4.0
        # Full fine-tuning checkpoints weights + moments.
        blackmamba = checkpoint_state_gb(BLACKMAMBA_2_8B)
        assert 25.0 < blackmamba < 32.0
        assert blackmamba > mixtral

    def test_restart_reloads_weights_plus_checkpoint(self):
        assert restart_state_gb(MIXTRAL_8X7B) > checkpoint_state_gb(MIXTRAL_8X7B)

    def test_for_model_derives_costs_from_state(self):
        p = CheckpointPolicy.for_model(MIXTRAL_8X7B, interval_minutes=15.0)
        assert p.interval_minutes == 15.0
        assert p.write_seconds == pytest.approx(checkpoint_state_gb(MIXTRAL_8X7B))
        assert p.restart_seconds == pytest.approx(
            180.0 + restart_state_gb(MIXTRAL_8X7B)
        )
        # Slower durable storage, slower checkpoints.
        slow = CheckpointPolicy.for_model(
            MIXTRAL_8X7B, interval_minutes=15.0, disk_bandwidth_gbs=0.5
        )
        assert slow.write_seconds == pytest.approx(2 * p.write_seconds)

    def test_validation(self):
        with pytest.raises(ValueError):
            policy(minutes=0.0)
        with pytest.raises(ValueError):
            policy(write_s=-1.0)
        with pytest.raises(ValueError):
            CheckpointPolicy.for_model(MIXTRAL_8X7B, disk_bandwidth_gbs=0.0)


class TestHazardClosedForm:
    def test_zero_rate_equals_ondemand_makespan(self):
        """The load-bearing identity: no hazard -> no checkpoints -> the
        uninterrupted makespan, exactly (not approximately)."""
        p = policy()
        for work in (0.5, 13.0, 52.0):
            assert expected_makespan_hours(work, 0.0, p) == work
            assert expected_preemptions(work, 0.0, p) == 0.0

    def test_segment_structure(self):
        p = policy(minutes=30.0, write_s=36.0)  # tau=0.5h, c=0.01h
        assert segment_lengths(0.0, p) == []
        # Interval longer than the job: one write-free segment.
        assert segment_lengths(0.3, p) == [0.3]
        # Exact division: the last interval is the final (write-free) one.
        lengths = segment_lengths(1.0, p)
        assert lengths == pytest.approx([0.51, 0.5])
        # Remainder: full segments carry the write, the tail does not.
        lengths = segment_lengths(1.25, p)
        assert lengths == pytest.approx([0.51, 0.51, 0.25])
        # Work is conserved regardless of structure.
        for work in (0.3, 1.0, 1.25, 7.77):
            total = sum(segment_lengths(work, p))
            writes = sum(1 for s in segment_lengths(work, p)) - 1
            assert total == pytest.approx(work + max(0, writes) * p.write_hours)

    def test_interval_longer_than_job_single_segment_formula(self):
        p = policy(minutes=600.0)  # 10h interval, 2h job
        rate = 0.25
        expected = expected_makespan_hours(2.0, rate, p)
        assert expected == pytest.approx(
            (1.0 / rate + p.restart_hours) * math.expm1(rate * 2.0)
        )
        assert expected > 2.0  # risk only ever stretches the clock

    def test_makespan_increases_with_hazard(self):
        p = policy()
        makespans = [expected_makespan_hours(13.0, r, p) for r in (0.0, 0.1, 0.5, 1.0)]
        assert makespans == sorted(makespans)
        assert makespans[0] == 13.0

    def test_checkpointing_caps_the_blowup(self):
        # With checkpoints the expectation stays near-linear in the work;
        # without them it goes exponential.
        rate = 0.5
        with_ckpt = expected_makespan_hours(20.0, rate, policy(minutes=30.0))
        without = expected_makespan_hours(20.0, rate, policy(minutes=20.0 * 60))
        assert with_ckpt < 2 * 20.0
        assert without > 100 * 20.0

    def test_extreme_hazard_saturates_to_inf_instead_of_overflowing(self):
        # rate * segment >> 709 overflows exp(); the expectation is
        # "never finishes", not an OverflowError.
        p = policy(minutes=30.0)
        assert expected_makespan_hours(20.0, 8000.0, p) == math.inf
        assert expected_preemptions(20.0, 8000.0, p) == math.inf

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            expected_makespan_hours(1.0, -0.1, policy())
        with pytest.raises(ValueError):
            segment_lengths(-1.0, policy())

    def test_even_division_tolerance_scales_with_the_job(self):
        """Regression: a long job whose work_hours accumulated float
        drift used to fail the absolute ``tau * 1e-9`` even-division test
        and emit a spurious near-zero final segment, inflating expected
        preemptions by one extra segment term."""
        p = policy(minutes=7.0, write_s=0.0)
        tau = p.interval_hours
        n = 500_000
        work = 0.0
        for _ in range(n):  # drift: work != n * tau exactly
            work += tau
        residue = work - int(work // tau) * tau
        # The scenario is real only while the drift exceeds the old
        # absolute tolerance (guards the constants against bit-rot).
        assert residue > tau * 1e-9
        lengths = segment_lengths(work, p)
        assert len(lengths) == n
        assert lengths[-1] == pytest.approx(tau)
        assert min(lengths) > tau * 0.5  # no near-zero segment anywhere
        # And the preemption expectation matches the clean-division job.
        rate = 0.05
        assert expected_preemptions(work, rate, p) == pytest.approx(
            n * math.expm1(rate * tau), rel=1e-6
        )

    def test_genuine_small_remainders_are_still_segments(self):
        # The relative tolerance must not swallow real (if small) tails:
        # 1% of an interval is work, not float noise.
        p = policy(minutes=30.0, write_s=0.0)
        tau = p.interval_hours
        lengths = segment_lengths(10 * tau + tau * 0.01, p)
        assert len(lengths) == 11
        assert lengths[-1] == pytest.approx(tau * 0.01)


class TestSpotSimulator:
    def test_zero_rate_is_a_point_mass_at_the_work(self):
        dist = SpotSimulator(trials=64, seed=1).simulate(13.0, 0.0, policy())
        assert set(dist.samples) == {13.0}
        assert dist.mean_preemptions == 0.0
        assert dist.completion_probability(13.0) == 1.0

    def test_deterministic_across_runs_and_instances(self):
        a = SpotSimulator(trials=128, seed=7).simulate(13.0, 0.25, policy())
        b = SpotSimulator(trials=128, seed=7).simulate(13.0, 0.25, policy())
        assert a == b
        c = SpotSimulator(trials=128, seed=8).simulate(13.0, 0.25, policy())
        assert a != c

    def test_seed_override_wins(self):
        sim = SpotSimulator(trials=64, seed=1)
        assert sim.simulate(5.0, 0.5, policy(), seed=2) == SpotSimulator(
            trials=64, seed=2
        ).simulate(5.0, 0.5, policy())

    def test_mean_and_median_agree_with_closed_form_on_long_jobs(self):
        p = policy()
        rate = 0.5
        dist = SpotSimulator(trials=512, seed=3).simulate(26.0, rate, p)
        expected = expected_makespan_hours(26.0, rate, p)
        assert dist.mean_hours == pytest.approx(expected, rel=0.03)
        assert dist.p50_hours == pytest.approx(expected, rel=0.05)
        assert dist.p95_hours > dist.p50_hours
        assert dist.mean_preemptions == pytest.approx(
            expected_preemptions(26.0, rate, p), rel=0.15
        )

    def test_degenerate_hazard_produces_inf_percentiles(self):
        # A segment that essentially never completes: the simulator cuts
        # trials off as inf instead of looping forever, and the
        # serializer later maps inf to null.
        p = policy(minutes=600.0, restart_s=0.0)
        dist = SpotSimulator(trials=8, seed=5).simulate(100.0, 5.0, p)
        assert math.isinf(dist.p95_hours)
        assert dist.completion_probability(1e9) < 1.0

    def test_abandoned_trials_excluded_from_mean_preemptions(self):
        """Regression: preemptions racked up by abandoned (inf) trials —
        an artifact of the non-termination guards, growing with the
        attempt cap — used to be folded into ``mean_preemptions``."""
        p = policy(minutes=600.0, restart_s=0.0)
        # Hazard so high every trial blows through the guard: each
        # abandoned trial has seen thousands of preemptions by cutoff.
        dist = SpotSimulator(trials=16, seed=5).simulate(100.0, 50.0, p)
        assert dist.abandoned_trials == dist.trials
        assert dist.completed_trials == 0
        assert set(dist.samples) == {math.inf}
        assert dist.mean_preemptions == 0.0  # guard noise, not statistics

    def test_mixed_abandonment_counts_only_completed_trials(self):
        # A hazard where some seeds finish and some hit the time cap: the
        # mean must stay finite and consistent with the completed share.
        p = policy(minutes=600.0, restart_s=0.0)
        sim = SpotSimulator(trials=64, seed=5, max_makespan_hours=3000.0)
        dist = sim.simulate(100.0, 0.5, p)
        finite = [s for s in dist.samples if math.isfinite(s)]
        assert dist.completed_trials == len(finite)
        assert 0 < dist.abandoned_trials < dist.trials
        assert math.isfinite(dist.mean_preemptions)
        # Abandoned trials saw >= cap-many restarts; had they leaked into
        # the mean it would exceed the cap-free expectation by orders of
        # magnitude. Completed 100h trials at rate 0.5 average a few
        # thousand preemptions — bound it loosely from both sides.
        assert 100.0 < dist.mean_preemptions < 10_000.0

    def test_distribution_accessors(self):
        dist = SpotSimulator(trials=100, seed=9).simulate(10.0, 0.3, policy())
        assert dist.trials == 100
        assert dist.samples == tuple(sorted(dist.samples))
        assert dist.percentile(1.0) == dist.samples[-1]
        with pytest.raises(ValueError):
            dist.percentile(0.0)
        with pytest.raises(ValueError):
            dist.percentile(1.5)
        assert dist.completion_probability(None) == 1.0

    def test_invalid_trials(self):
        with pytest.raises(ValueError):
            SpotSimulator(trials=0)

    def test_repeat_calls_share_no_stream_state(self):
        """Each simulate call opens a fresh seeded stream: calling the
        same simulator twice yields the identical distribution, not a
        continuation of the first call's stream."""
        sim = SpotSimulator(trials=64, seed=3)
        assert sim.simulate(8.0, 0.4, policy()) == sim.simulate(8.0, 0.4, policy())

    def test_mean_hours_counts_completed_trials_only(self):
        """Regression: a single abandoned (inf) trial used to poison
        ``mean_hours`` for the whole distribution."""
        p = policy(minutes=600.0, restart_s=0.0)
        sim = SpotSimulator(trials=64, seed=5, max_makespan_hours=3000.0)
        dist = sim.simulate(100.0, 0.5, p)
        assert 0 < dist.abandoned_trials < dist.trials
        assert math.isfinite(dist.mean_hours)  # completed-trials mean
        assert math.isinf(dist.mean_hours_all)  # every-sample mean
        # With no abandonment the two means coincide.
        clean = SpotSimulator(trials=64, seed=5).simulate(10.0, 0.3, policy())
        assert clean.abandoned_trials == 0
        assert clean.mean_hours == clean.mean_hours_all
        # All-abandoned mirrors mean_preemptions: 0.0, not inf/NaN.
        hopeless = SpotSimulator(trials=8, seed=5).simulate(100.0, 50.0, p)
        assert hopeless.completed_trials == 0
        assert hopeless.mean_hours == 0.0
        assert math.isinf(hopeless.mean_hours_all)


class TestAnalyticMakespanDistribution:
    def test_zero_hazard_is_the_on_demand_point_mass_on_both_paths(self):
        """At lam == 0 the analytic path and the Monte Carlo agree with
        the on-demand makespan *exactly* — no tolerance."""
        p = policy()
        ana = AnalyticMakespanDistribution(13.0, 0.0, p)
        mc = SpotSimulator(trials=64, seed=1).simulate(13.0, 0.0, p)
        assert ana.mean_hours == 13.0
        assert ana.p50_hours == ana.p95_hours == 13.0
        assert ana.percentile(0.999) == 13.0
        assert ana.completion_probability(13.0) == 1.0
        assert ana.completion_probability(12.99) == 0.0
        assert mc.p50_hours == ana.p50_hours
        assert mc.p95_hours == ana.p95_hours
        assert mc.mean_hours == ana.mean_hours

    def test_mean_is_the_exact_closed_form(self):
        p = policy()
        for rate in (0.05, 0.5, 2.0):
            ana = AnalyticMakespanDistribution(26.0, rate, p)
            assert ana.mean_hours == expected_makespan_hours(26.0, rate, p)

    @pytest.mark.parametrize(
        "work,rate,minutes",
        [
            (26.0, 0.05, 30.0),  # light: ~1 preemption over the job
            (26.0, 0.5, 30.0),   # moderate: lam*s ~ 0.25 per segment
            (13.0, 2.0, 30.0),   # heavy: lam*s ~ 1, restarts dominate
            (26.0, 4.0, 10.0),   # hostile but still completing
        ],
    )
    def test_percentiles_agree_with_high_trial_monte_carlo(self, work, rate, minutes):
        """Acceptance: across hazard regimes the closed form stays within
        the documented 5% serving tolerance of a high-trial Monte Carlo."""
        p = policy(minutes=minutes)
        ana = AnalyticMakespanDistribution(work, rate, p)
        mc = SpotSimulator(trials=4096, seed=11).simulate(work, rate, p)
        assert ana.p50_hours == pytest.approx(mc.p50_hours, rel=0.05)
        assert ana.p95_hours == pytest.approx(mc.p95_hours, rel=0.05)
        deadline = ana.percentile(0.8)
        assert ana.completion_probability(deadline) == pytest.approx(
            mc.completion_probability(deadline), abs=0.05
        )

    def test_degenerate_regime_matches_monte_carlo_abandonment(self):
        """A job whose expectation exceeds the makespan cap reports the
        same way the Monte Carlo guards do: inf percentiles, completion
        probability zero."""
        p = policy(minutes=600.0, restart_s=0.0)
        ana = AnalyticMakespanDistribution(100.0, 5.0, p)
        mc = SpotSimulator(trials=8, seed=5).simulate(100.0, 5.0, p)
        assert math.isinf(ana.p50_hours) and math.isinf(ana.p95_hours)
        assert ana.completion_probability(1e9) == 0.0
        assert ana.completion_probability(None) == 1.0
        assert math.isinf(mc.p95_hours)

    def test_percentiles_are_monotone_and_bounded_below_by_the_work(self):
        ana = AnalyticMakespanDistribution(26.0, 0.5, policy())
        values = [ana.percentile(q) for q in (0.05, 0.25, 0.5, 0.75, 0.95, 0.999)]
        assert values == sorted(values)
        assert values[0] >= 26.0  # never faster than the work itself

    def test_validation(self):
        with pytest.raises(ValueError):
            AnalyticMakespanDistribution(10.0, -0.1, policy())
        with pytest.raises(ValueError):
            AnalyticMakespanDistribution(10.0, 0.5, policy(), grid_size=8)
        ana = AnalyticMakespanDistribution(10.0, 0.5, policy())
        with pytest.raises(ValueError):
            ana.percentile(0.0)
        with pytest.raises(ValueError):
            ana.percentile(1.5)


class TestSpotScenarioAndPreset:
    def scenario(self, minutes=30.0, n=4, link="nvlink"):
        return SpotScenario(
            model=MIXTRAL_8X7B, gpu="A40", batch_size=4, seq_len=128,
            num_gpus=n, interconnect=link, checkpoint_minutes=minutes,
        )

    def test_cadence_axis_excluded_from_trace_key(self):
        """All cadences of one cluster point share one cached trace."""
        keys = {self.scenario(minutes=m).key() for m in (10.0, 30.0, 60.0)}
        assert len(keys) == 1
        cluster_keys = {self.scenario(minutes=m).cluster_key() for m in (10.0, 30.0)}
        assert len(cluster_keys) == 1
        spot_keys = {self.scenario(minutes=m).spot_key() for m in (10.0, 30.0)}
        assert len(spot_keys) == 2

    def test_labels_carry_the_cadence(self):
        s = self.scenario(minutes=15.0, n=8)
        assert s.label().endswith("_x8_NVLink_ck15m")
        assert "_ck15m" in s.qualified_label()

    def test_invalid_cadence(self):
        with pytest.raises(ValueError):
            self.scenario(minutes=0.0)

    def test_spot_scaling_preset_round_trip(self):
        assert "spot-scaling" in preset_names()
        grid = preset("spot-scaling")
        assert len(grid) == 48  # cluster-scaling's 16 cells x 3 cadences
        assert all(isinstance(s, SpotScenario) for s in grid)
        # Round trip: rebuilding the preset yields the identical grid.
        assert preset("spot-scaling") == grid
        # The cadence axis adds no replica traces over cluster-scaling.
        assert {s.key() for s in grid} == {s.key() for s in preset("cluster-scaling")}

    def test_preset_simulates_nothing_beyond_cluster_scaling(self):
        cache = SimulationCache()
        for s in preset("spot-scaling"):
            cache.simulate(s)
        assert cache.stats().misses == len({s.key() for s in preset("spot-scaling")})

    def test_spot_product_cadence_innermost(self):
        grid = spot_product(
            models=(MIXTRAL_8X7B,), gpus=("A40",), seq_lens=(128,),
            num_gpus=(1, 2), checkpoint_minutes=(10.0, 30.0),
        )
        assert [(s.num_gpus, s.checkpoint_minutes) for s in grid] == [
            (1, 10.0), (1, 30.0), (2, 10.0), (2, 30.0)
        ]


class TestRiskAdjustedPlanner:
    def _planner(self, cache=None, **kw):
        kw.setdefault("dataset", "math14k")
        # `is None`, not truthiness: an *empty* SimulationCache is falsy
        # (it defines __len__), and `cache or ...` would silently swap a
        # caller's cold cache for a fresh one.
        kw.setdefault("cache", SimulationCache() if cache is None else cache)
        return RiskAdjustedPlanner("mixtral-8x7b", **kw)

    def _plan(self, planner=None, **kw):
        planner = planner or self._planner()
        kw.setdefault("gpus", (A40, H100))
        kw.setdefault("providers", ("cudo",))
        kw.setdefault("densities", (False,))
        return planner.plan_spot(**kw)

    def test_every_candidate_priced_on_both_tiers(self):
        plan = self._plan()
        by_tier = {}
        for c in plan.candidates:
            by_tier.setdefault(c.tier, []).append(c)
        assert len(by_tier[ONDEMAND]) == len(by_tier[SPOT])
        assert len(by_tier[ONDEMAND]) == len(plan.ondemand.candidates)

    def test_spot_candidates_save_money_or_are_excluded(self):
        """Acceptance (a): no listed spot candidate costs more than its
        own on-demand counterpart; the rest carry recorded reasons."""
        plan = self._plan()
        for c in plan.spot_candidates:
            assert c.expected_dollars <= c.ondemand_dollars
        # Pin the pre-Daly menu default: at a 0.2 h MTBP a 30-minute
        # cadence loses more to redone work than the discount recovers.
        harsh = self._plan(
            self._planner(mtbp_hours=0.2, checkpoint_minutes=(30.0,))
        )
        assert not harsh.spot_candidates
        assert harsh.excluded
        assert all("exceeds on-demand" in reason for reason in harsh.excluded)
        # Daly's closed-form cadence rescues some of those candidates:
        # sqrt(2*MTBP*C) shortens the interval until spot saves again.
        daly = self._plan(self._planner(mtbp_hours=0.2))
        assert daly.spot_candidates
        # Even an overflow-grade hazard excludes cleanly (expected cost
        # saturates to inf) rather than crashing the plan.
        hopeless = self._plan(self._planner(mtbp_hours=1e-4))
        assert not hopeless.spot_candidates
        assert hopeless.excluded

    def test_zero_hazard_neutral_prices_reproduce_ondemand_frontier(self):
        """Acceptance (b): with the preemption rate at zero and the spot
        discount neutralized, risk-adjusted planning degenerates to the
        PR 2 on-demand plan exactly."""
        cache = SimulationCache()
        catalog = neutral_catalog()
        risk = RiskAdjustedPlanner(
            "mixtral-8x7b", dataset="math14k", cache=cache, catalog=catalog,
            mtbp_hours=float("inf"),
        )
        kwargs = dict(gpus=(A40, H100), providers=("cudo",), densities=(False,))
        spot_plan = risk.plan_spot(spot="only", **kwargs)
        baseline = ClusterPlanner(
            "mixtral-8x7b", dataset="math14k", cache=cache, catalog=catalog
        ).plan(**kwargs)
        assert [
            (c.base.label, c.expected_hours, c.p50_hours, c.p95_hours, c.expected_dollars)
            for c in spot_plan.frontier
        ] == [(c.label, c.hours, c.hours, c.hours, c.dollars) for c in baseline.frontier]
        for c in spot_plan.spot_candidates:
            assert c.expected_preemptions == 0.0
            assert c.completion_probability == 1.0
        # The embedded on-demand plan is the PR 2 answer, bit for bit.
        assert spot_plan.ondemand.to_payload() == baseline.to_payload()

    def test_zero_hazard_with_discount_keeps_hours_shrinks_dollars(self):
        plan = self._plan(self._planner(mtbp_hours=float("inf")))
        for c in plan.spot_candidates:
            assert c.expected_hours == c.ondemand_hours
            assert c.expected_dollars < c.ondemand_dollars

    def test_risk_frontier_is_nondominated(self):
        plan = self._plan()
        frontier = plan.frontier
        assert frontier
        p95 = [c.p95_hours for c in frontier]
        dollars = [c.expected_dollars for c in frontier]
        assert p95 == sorted(p95)
        assert all(b < a for a, b in zip(dollars, dollars[1:]))
        for candidate in plan.candidates:
            if candidate in frontier:
                continue
            assert any(
                f.p95_hours <= candidate.p95_hours
                and f.expected_dollars <= candidate.expected_dollars
                for f in frontier
            )

    def test_confidence_constrains_the_recommendation(self):
        plan = self._plan(deadline_hours=24.0, confidence=0.95)
        assert plan.recommended is not None
        assert plan.recommended.completion_probability >= 0.95
        for c in plan.feasible:
            assert plan.recommended.expected_dollars <= c.expected_dollars
        # Demanding certainty forces the pick toward on-demand (a spot
        # candidate can never promise probability 1.0 under hazard).
        certain = self._plan(deadline_hours=24.0, confidence=1.0)
        assert certain.recommended is not None
        assert certain.recommended.completion_probability == 1.0

    def test_cadence_menu_picks_the_best_per_candidate(self):
        menu = self._plan(
            self._planner(mtbp_hours=1.0, checkpoint_minutes=(5.0, 30.0, 120.0))
        )
        single = self._plan(self._planner(mtbp_hours=1.0, checkpoint_minutes=(120.0,)))
        menu_spot = {c.base.label: c for c in menu.spot_candidates}
        for label, c in ((c.base.label, c) for c in single.spot_candidates):
            assert menu_spot[label].expected_hours <= c.expected_hours
        assert any(
            c.policy.interval_minutes != 120.0 for c in menu.spot_candidates
        )

    def test_cadence_ties_break_deterministically(self):
        # At zero hazard every cadence yields the identical expectation;
        # the planner must pick the shortest interval, not crash trying
        # to order CheckpointPolicy instances.
        plan = self._plan(
            self._planner(
                mtbp_hours=float("inf"), checkpoint_minutes=(10.0, 30.0, 60.0)
            )
        )
        assert plan.spot_candidates
        assert all(
            c.policy.interval_minutes == 10.0 for c in plan.spot_candidates
        )

    def test_spot_modes(self):
        only = self._plan(spot="only")
        assert all(c.tier == SPOT for c in only.candidates)
        off = self._plan(spot="off")
        assert all(c.tier == ONDEMAND for c in off.candidates)
        with pytest.raises(ValueError):
            self._plan(spot="sometimes")
        with pytest.raises(ValueError):
            self._plan(confidence=1.5)

    def test_provider_without_spot_tier_is_noted_not_failed(self):
        planner = RiskAdjustedPlanner(
            "mixtral-8x7b", dataset="math14k", cache=SimulationCache()
        )
        plan = planner.plan_spot(
            gpus=("A100-80GB",), providers=("lambda",), densities=(False,)
        )
        assert not plan.spot_candidates
        assert any(c.tier == ONDEMAND for c in plan.candidates)
        assert any("no spot tier" in reason for reason in plan.excluded)

    def test_risk_sweep_adds_zero_simulations(self):
        """The risk layer is post-processing: a risk plan on a cache
        warmed by the plain cluster planner simulates nothing."""
        cache = SimulationCache()
        kwargs = dict(gpus=(A40,), providers=("cudo",), densities=(False,))
        ClusterPlanner("mixtral-8x7b", dataset="math14k", cache=cache).plan(**kwargs)
        misses = cache.stats().misses
        plan = self._plan(self._planner(cache=cache), **kwargs)
        assert cache.stats().misses == misses
        assert plan.spot_candidates

    def test_jobs_do_not_change_the_plan(self):
        payloads = [
            self._plan(
                self._planner(jobs=jobs), deadline_hours=24.0
            ).to_payload()
            for jobs in (1, 4)
        ]
        assert payloads[0] == payloads[1]

    def test_mc_distribution_is_candidate_deterministic(self):
        a = self._plan()
        b = self._plan()
        assert a.to_payload() == b.to_payload()

    def test_invalid_cadence_menu(self):
        with pytest.raises(ValueError):
            self._planner(checkpoint_minutes=())

    def test_invalid_risk_mode(self):
        with pytest.raises(ValueError):
            self._planner(risk_mode="exact")

    def test_analytic_mode_never_samples(self, monkeypatch):
        """The default serving path is sampling-free: poison the Monte
        Carlo and the analytic plan must not notice."""
        planner = self._planner()
        def boom(*args, **kwargs):
            raise AssertionError("analytic mode must not run the Monte Carlo")
        monkeypatch.setattr(planner.simulator, "simulate", boom)
        plan = self._plan(planner)
        assert plan.spot_candidates

    def test_analytic_serves_mc_validates_within_tolerance(self):
        """Acceptance: on the spot-scaling cadence menu the analytic
        percentiles stay within the documented 5% of the 512-trial
        Monte Carlo, candidate by candidate."""
        kwargs = dict(checkpoint_minutes=(10.0, 30.0, 60.0))
        ana = self._plan(self._planner(risk_mode="analytic", **kwargs))
        mc = self._plan(self._planner(risk_mode="mc", **kwargs))
        by_label = {c.label: c for c in mc.spot_candidates}
        assert {c.label for c in ana.spot_candidates} == set(by_label)
        assert ana.spot_candidates
        for c in ana.spot_candidates:
            m = by_label[c.label]
            assert c.expected_hours == m.expected_hours  # shared closed form
            assert c.p50_hours == pytest.approx(m.p50_hours, rel=0.05)
            assert c.p95_hours == pytest.approx(m.p95_hours, rel=0.05)

    def test_both_mode_reports_the_sampled_mean_alongside(self):
        plan = self._plan(self._planner(risk_mode="both"))
        assert plan.spot_candidates
        for c in plan.spot_candidates:
            assert math.isfinite(c.mc_mean_hours)
            assert c.mc_mean_hours == pytest.approx(c.expected_hours, rel=0.05)
        # Without sampling the field degrades to the closed-form mean.
        ana = self._plan(self._planner(risk_mode="analytic"))
        for c in ana.spot_candidates:
            assert c.mc_mean_hours == c.expected_hours

    def test_risk_mode_recorded_in_payload(self):
        assert self._plan().to_payload()["risk_mode"] == "analytic"
        mc = self._plan(self._planner(risk_mode="mc"))
        assert mc.to_payload()["risk_mode"] == "mc"
        assert "risk mode: mc" in mc.to_table()

    def test_warm_risk_plan_recomputes_nothing(self):
        """Acceptance: risk results are memoized — a second plan over the
        same cache books only risk hits, zero new risk computations, and
        reproduces the first plan bit for bit."""
        cache = SimulationCache()
        first = self._plan(self._planner(cache=cache))
        stats = cache.stats()
        assert stats.risk_misses > 0
        assert stats.risk_hits == 0  # every bundle was new
        misses, simulations = stats.risk_misses, stats.simulations
        second = self._plan(self._planner(cache=cache))
        stats = cache.stats()
        assert stats.risk_misses == misses
        assert stats.risk_hits > 0
        assert second.to_payload() == first.to_payload()
        # Neither the warm risk plan nor the on-demand plan it wraps
        # simulates: both ride the replica traces the cold plan made.
        ClusterPlanner("mixtral-8x7b", dataset="math14k", cache=cache).plan(
            gpus=(A40, H100), providers=("cudo",), densities=(False,))
        assert cache.stats().simulations == simulations


class TestSpotPlanCLI:
    ACCEPTANCE = ["--model", "mixtral", "--gpu", "a40", "--deadline-hours", "24",
                  "--confidence", "0.95", "--json"]

    def _payload(self, capsys, argv):
        assert plan_main(argv) == 0
        out = capsys.readouterr().out
        # Strict JSON: bare NaN/Infinity tokens must not appear.
        return json.loads(out, parse_constant=lambda tok: pytest.fail(
            f"non-strict JSON token {tok!r} in --json output"
        ))

    def test_acceptance_command(self, capsys):
        payload = self._payload(capsys, self.ACCEPTANCE)
        assert payload["model"] == "mixtral-8x7b"
        assert payload["confidence"] == 0.95
        assert payload["num_spot_candidates"] > 0
        listed = [c for c in payload["frontier"]]
        for key in ("recommended", "fastest"):
            if payload[key] is not None:
                listed.append(payload[key])
        spot_entries = [c for c in listed if c["tier"] == "spot"]
        assert spot_entries
        for c in spot_entries:
            # (a) every listed spot candidate saves money in expectation.
            assert c["expected_dollars"] <= c["ondemand_dollars"]
            # (c) Monte Carlo p50 agrees with the closed form within 5%.
            assert abs(c["p50_hours"] - c["expected_hours"]) <= 0.05 * c["expected_hours"]
        # The recommendation honors the deadline with the required confidence.
        assert payload["recommended"]["completion_probability"] >= 0.95

    def test_zero_hazard_cli_reproduces_ondemand_hours(self, capsys):
        payload = self._payload(
            capsys, self.ACCEPTANCE + ["--mtbp-hours", "inf"]
        )
        for c in payload["frontier"]:
            assert c["expected_hours"] == pytest.approx(c["ondemand_hours"])
            assert c["p95_hours"] == pytest.approx(c["ondemand_hours"])
        assert payload["ondemand_frontier"]  # the PR 2 view rides along

    def test_output_deterministic_and_jobs_independent(self, capsys):
        assert plan_main(self.ACCEPTANCE) == 0
        first = capsys.readouterr().out
        assert plan_main(self.ACCEPTANCE) == 0
        second = capsys.readouterr().out
        assert plan_main(self.ACCEPTANCE + ["--jobs", "4"]) == 0
        parallel = capsys.readouterr().out
        assert first == second == parallel

    def test_text_output_names_recommendation(self, capsys):
        assert plan_main(["--model", "mixtral", "--gpu", "a40",
                          "--deadline-hours", "24"]) == 0
        out = capsys.readouterr().out
        assert "recommended:" in out
        assert "risk-pareto configuration" in out

    def test_spot_off_matches_cluster_planner_numbers(self, capsys):
        payload = self._payload(
            capsys,
            ["--model", "mixtral", "--gpu", "a40", "--spot", "off", "--json"],
        )
        assert payload["num_spot_candidates"] == 0
        for c in payload["frontier"]:
            assert c["tier"] == "ondemand"
            assert c["expected_dollars"] == pytest.approx(c["ondemand_dollars"])

    def test_risk_mode_default_is_analytic(self, capsys):
        payload = self._payload(capsys, self.ACCEPTANCE)
        assert payload["risk_mode"] == "analytic"

    def test_risk_mode_mc_byte_identical_across_jobs(self, capsys):
        """Acceptance: the batched Monte Carlo is seeded per candidate,
        so --risk-mode mc output is byte-identical at any --jobs."""
        argv = self.ACCEPTANCE + ["--risk-mode", "mc"]
        assert plan_main(argv) == 0
        first = capsys.readouterr().out
        assert plan_main(argv + ["--jobs", "4"]) == 0
        fanned = capsys.readouterr().out
        assert fanned == first
        assert json.loads(first)["risk_mode"] == "mc"

    def test_invalid_risk_mode_rejected(self, capsys):
        with pytest.raises(SystemExit):
            plan_main(["--model", "mixtral", "--risk-mode", "exact"])
        assert "--risk-mode" in capsys.readouterr().err

    def test_bad_flags_error_cleanly(self, capsys):
        with pytest.raises(SystemExit):
            plan_main(["--model", "mixtral", "--checkpoint-minutes", "0"])
        assert "error: --checkpoint-minutes" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            plan_main(["--model", "mixtral", "--mtbp-hours", "-2"])
        assert "mtbp-hours" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            plan_main(["--model", "mixtral", "--confidence", "2"])
        assert "confidence" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            plan_main(["--model", "mixtral", "--trials", "0"])
        assert "trials" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            plan_main(["--model", "mixtral", "--checkpoint-minutes", "nan"])
        assert "error: --checkpoint-minutes" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            plan_main(["--model", "gpt2"])
        assert "unknown model" in capsys.readouterr().err


class TestSpotExperiment:
    def test_experiment_registered_and_runs(self):
        from repro.experiments import ALL_EXPERIMENTS, spot_plan

        assert ALL_EXPERIMENTS["spot"] is spot_plan
        result = spot_plan.run(cache=SimulationCache())
        measured = result.measured_dict()
        assert measured["num_spot_candidates"] >= 1
        assert measured["recommended_saving_vs_ondemand"] >= 0.0
        assert measured["max_makespan_inflation"] >= 1.0
        assert measured["max_mc_mean_vs_closed_form"] <= 0.05
        assert measured["recommended_completion_probability"] >= 0.95
