"""Tests of the statistical campaign engine: estimators, strata, plans,
priors, the adaptive controller, and cross-driver bit-identity."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.efficiency_table import (
    average_saving,
    efficiency_rows,
    fixed_equivalent,
    render_efficiency_table,
)
from repro.errors import SimulatorError
from repro.injection.campaign import CampaignConfig, ScenarioCampaign
from repro.injection.classify import NOT_INJECTED
from repro.injection.injector import FaultInjector
from repro.npb.suite import Scenario
from repro.orchestration.database import ResultsDatabase, campaign_fingerprint
from repro.orchestration.runner import CampaignRunner
from repro.orchestration.store import CampaignStore
from repro.stats import (
    STOP_CONVERGED,
    AdaptiveController,
    MinedPrior,
    SamplingPlan,
    binomial_interval,
    clopper_pearson,
    confidence_z,
    max_half_width,
    normal_quantile,
    outcome_estimates,
    post_stratified,
    rank_buckets,
    rank_order,
    smoothed_variance,
    time_bin_counts,
    time_bin_of,
    wilson_interval,
)

# ----------------------------------------------------------------------
# quantiles and intervals
# ----------------------------------------------------------------------


class TestNormalQuantile:
    def test_known_critical_values(self):
        assert normal_quantile(0.975) == pytest.approx(1.959964, abs=1e-5)
        assert normal_quantile(0.995) == pytest.approx(2.575829, abs=1e-5)
        assert confidence_z(0.95) == pytest.approx(1.959964, abs=1e-5)

    def test_symmetry(self):
        for p in (0.01, 0.2, 0.4):
            assert normal_quantile(p) == pytest.approx(-normal_quantile(1.0 - p), abs=1e-9)

    def test_rejects_boundaries(self):
        for p in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(ValueError):
                normal_quantile(p)


class TestBinomialIntervals:
    def test_contains_point_estimate(self):
        for successes, trials in [(0, 10), (3, 10), (10, 10), (500, 1000)]:
            for method in ("wilson", "clopper-pearson"):
                lower, upper = binomial_interval(successes, trials, 0.95, method)
                assert 0.0 <= lower <= successes / trials <= upper <= 1.0

    def test_zero_trials_is_vacuous(self):
        assert wilson_interval(0, 0) == (0.0, 1.0)
        assert clopper_pearson(0, 0) == (0.0, 1.0)

    def test_zero_successes(self):
        lower, upper = wilson_interval(0, 50)
        assert lower == 0.0
        assert 0.0 < upper < 0.2
        lower, upper = clopper_pearson(0, 50)
        assert lower == 0.0
        # Exact one-sided bound: 1 - (alpha/2)^(1/n)
        assert upper == pytest.approx(1.0 - 0.025 ** (1.0 / 50.0), abs=1e-6)

    def test_all_successes_mirror_zero(self):
        lo0, hi0 = clopper_pearson(0, 30)
        lo1, hi1 = clopper_pearson(30, 30)
        assert lo1 == pytest.approx(1.0 - hi0, abs=1e-9)
        assert hi1 == 1.0 and lo0 == 0.0

    def test_clopper_pearson_is_conservative(self):
        for successes, trials in [(2, 20), (10, 40), (77, 100)]:
            w_lo, w_hi = wilson_interval(successes, trials)
            c_lo, c_hi = clopper_pearson(successes, trials)
            assert c_hi - c_lo >= w_hi - w_lo

    def test_width_shrinks_with_trials(self):
        widths = []
        for trials in (10, 100, 1000):
            lower, upper = wilson_interval(trials // 4, trials)
            widths.append(upper - lower)
        assert widths == sorted(widths, reverse=True)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown interval method"):
            binomial_interval(1, 10, method="wald")

    def test_invalid_counts_rejected(self):
        with pytest.raises(ValueError):
            wilson_interval(5, 3)
        with pytest.raises(ValueError):
            clopper_pearson(-1, 3)


# ----------------------------------------------------------------------
# rate estimates over outcome counts
# ----------------------------------------------------------------------


class TestOutcomeEstimates:
    def test_not_injected_excluded_from_denominator(self):
        counts = {"Vanished": 30, "UT": 10, NOT_INJECTED: 60}
        estimates = outcome_estimates(counts)
        assert estimates["masked"].trials == 40
        assert estimates["masked"].estimate == pytest.approx(0.75)
        assert estimates["UT"].estimate == pytest.approx(0.25)

    def test_all_not_injected_yields_vacuous_intervals(self):
        estimates = outcome_estimates({NOT_INJECTED: 25})
        for estimate in estimates.values():
            assert estimate.trials == 0
            assert estimate.estimate == 0.0
            assert (estimate.lower, estimate.upper) == (0.0, 1.0)
            assert estimate.half_width == 0.5

    def test_zero_successes_rate(self):
        estimates = outcome_estimates({"Vanished": 40})
        hang = estimates["Hang"]
        assert hang.successes == 0 and hang.lower == 0.0 and hang.upper > 0.0

    def test_max_half_width_empty_is_one(self):
        assert max_half_width({}) == 1.0

    def test_as_dict_round(self):
        estimate = outcome_estimates({"Vanished": 9, "UT": 1})["masked"]
        payload = estimate.as_dict()
        assert payload["successes"] == 9 and payload["trials"] == 10
        assert payload["half_width"] == pytest.approx(estimate.half_width)


# ----------------------------------------------------------------------
# post-stratified estimation
# ----------------------------------------------------------------------

_cells = st.dictionaries(
    st.text(alphabet="abcdef", min_size=1, max_size=3),
    st.tuples(st.integers(0, 50), st.integers(1, 50)).map(
        lambda pair: (min(pair), max(pair))
    ),
    min_size=1,
    max_size=8,
)


class TestPostStratified:
    def test_empty_is_fully_unsampled(self):
        estimate = post_stratified({}, {"a": 1.0})
        assert estimate.unsampled_weight == 1.0
        assert estimate.half_width == 1.0

    def test_unsampled_stratum_widens_interval(self):
        cells = {"a": (5, 10), "b": (0, 0)}
        probabilities = {"a": 0.7, "b": 0.3}
        estimate = post_stratified(cells, probabilities)
        assert estimate.unsampled_weight == pytest.approx(0.3)
        assert estimate.half_width >= 0.3

    @given(_cells)
    @settings(max_examples=50, deadline=None)
    def test_observed_share_weights_reduce_to_pooled(self, cells):
        """Post-stratified == plain pooled estimator under uniform
        (observed-share) strata — the satellite property of the issue."""
        estimate = post_stratified(cells)
        total_trials = sum(trials for _, trials in cells.values())
        total_successes = sum(successes for successes, _ in cells.values())
        assert estimate.estimate == pytest.approx(total_successes / total_trials, abs=1e-12)
        assert estimate.trials == total_trials

    @given(_cells)
    @settings(max_examples=25, deadline=None)
    def test_explicit_proportional_weights_match_observed_share(self, cells):
        total = sum(trials for _, trials in cells.values())
        probabilities = {key: trials / total for key, (_, trials) in cells.items()}
        implicit = post_stratified(cells)
        explicit = post_stratified(cells, probabilities)
        assert explicit.estimate == pytest.approx(implicit.estimate, abs=1e-12)
        assert explicit.variance == pytest.approx(implicit.variance, abs=1e-12)

    def test_variance_override_is_used(self):
        cells = {"a": (5, 10)}
        default = post_stratified(cells, {"a": 1.0})
        overridden = post_stratified(cells, {"a": 1.0}, variance_of={"a": 0.0})
        assert overridden.variance == 0.0
        assert default.variance > 0.0

    def test_smoothed_variance_never_zero(self):
        assert smoothed_variance(0, 10) > 0.0
        assert smoothed_variance(10, 10) > 0.0
        assert smoothed_variance(5, 10) == pytest.approx(
            (5.5 * 5.5) / (11.0 * 11.0)
        )


# ----------------------------------------------------------------------
# stratification
# ----------------------------------------------------------------------


class TestStrata:
    def test_time_bin_counts_partition_the_span(self):
        for total, bins in [(101, 4), (17, 8), (2, 4), (1000, 7)]:
            counts = time_bin_counts(total, bins)
            assert sum(counts) == total - 1
            assert len(counts) == bins

    def test_time_bin_of_agrees_with_counts(self):
        total, bins = 53, 6
        seen = [0] * bins
        for t in range(1, total):
            seen[time_bin_of(t, total, bins)] += 1
        assert tuple(seen) == time_bin_counts(total, bins)

    def test_rank_order_sorts_by_ace_descending(self):
        order = rank_order({0: 0.1, 1: 0.9, 2: 0.5}, 4)
        assert order == (1, 2, 0, 3)  # register 3 has no ACE -> last

    def test_rank_buckets_partition_registers(self):
        order = tuple(range(16))
        mapping = rank_buckets(order, 4)
        assert sorted(mapping) == list(range(16))
        assert set(mapping.values()) == {0, 1, 2, 3}
        # Even split: 4 registers per bucket
        for bucket in range(4):
            assert sum(1 for b in mapping.values() if b == bucket) == 4

    def test_stratum_probabilities_sum_to_one(self, stats_campaign):
        campaign, _ = stats_campaign
        controller = AdaptiveController(campaign=campaign, plan=PLAN)
        probabilities = controller.space.probabilities()
        assert sum(probabilities.values()) == pytest.approx(1.0, abs=1e-9)
        assert list(probabilities) == sorted(probabilities)


# ----------------------------------------------------------------------
# plans and priors
# ----------------------------------------------------------------------


class TestSamplingPlan:
    def test_round_trip(self):
        plan = SamplingPlan(target_half_width=0.01, batch_size=32, track=("masked", "UT"))
        assert SamplingPlan.from_dict(plan.as_dict()) == plan

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown sampling plan keys"):
            SamplingPlan.from_dict({"target_half_width": 0.02, "surprise": 1})

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"target_half_width": 0.0},
            {"target_half_width": 0.6},
            {"confidence": 1.0},
            {"batch_size": 0},
            {"min_faults": 10, "max_faults": 5},
            {"method": "wald"},
            {"track": ("masked", "bogus")},
            {"track": ()},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SamplingPlan(**kwargs)


class TestMinedPrior:
    def test_round_trip(self):
        prior = MinedPrior(
            cells={"armv7|gpr|3|0": {"Vanished": 7, "UT": 3}},
            fb_by_isa={"armv7": 1.5},
            scenarios=2,
        )
        assert MinedPrior.from_dict(prior.as_dict()).as_dict() == prior.as_dict()

    def test_unmined_cell_returns_none(self):
        prior = MinedPrior()
        assert prior.stratum_variance("armv7", "gpr", [0], 0.0, 0.25, ("masked",)) is None

    def test_fb_tilt_caps_and_defaults(self):
        prior = MinedPrior(fb_by_isa={"armv7": 100.0})
        assert prior.fb_tilt("armv7", 0.875, 1.0) == 2.0  # capped at FB_TILT_CAP
        assert prior.fb_tilt("armv7", 0.0, 0.25) == 1.0  # not a tail bin
        assert prior.fb_tilt("armv8", 0.875, 1.0) == 1.0  # unmined isa


# ----------------------------------------------------------------------
# the adaptive controller, end to end on a real scenario
# ----------------------------------------------------------------------

PLAN = SamplingPlan(
    target_half_width=0.1, min_faults=32, max_faults=512, batch_size=32
)
CONFIG = CampaignConfig(seed=2018)
SCENARIO = Scenario(app="IS", mode="serial", isa="armv7", cores=1)


@pytest.fixture(scope="module")
def stats_campaign():
    """One golden-complete campaign plus its adaptive reference report."""
    campaign = ScenarioCampaign(SCENARIO, CONFIG)
    campaign.run_golden()
    reference = campaign.run_adaptive(PLAN)
    return campaign, reference


class TestAdaptiveController:
    def test_converges_below_fixed_equivalent(self, stats_campaign):
        _, reference = stats_campaign
        adaptive = reference.adaptive
        assert adaptive["stopping"] == STOP_CONVERGED
        widths = [e["half_width"] for e in adaptive["estimates"].values()]
        assert max(widths) <= PLAN.target_half_width
        assert adaptive["spent"] < fixed_equivalent(PLAN.target_half_width, PLAN.confidence)

    def test_deterministic_across_fresh_controllers(self, stats_campaign):
        campaign, reference = stats_campaign
        again = ScenarioCampaign(SCENARIO, CONFIG).run_adaptive(PLAN)
        assert again.adaptive == reference.adaptive
        assert again.counts == reference.counts

    def test_single_batch_convergence(self, stats_campaign):
        campaign, _ = stats_campaign
        loose = SamplingPlan(
            target_half_width=0.4, min_faults=8, max_faults=512, batch_size=64
        )
        report = ScenarioCampaign(SCENARIO, CONFIG).run_adaptive(loose)
        assert report.adaptive["stopping"] == STOP_CONVERGED
        assert len(report.adaptive["batches"]) == 1

    def test_budget_stop(self):
        tight = SamplingPlan(
            target_half_width=0.005, min_faults=8, max_faults=64, batch_size=32
        )
        report = ScenarioCampaign(SCENARIO, CONFIG).run_adaptive(tight)
        assert report.adaptive["stopping"] == "max_faults"
        assert report.adaptive["spent"] == 64

    def test_restore_rebuilds_identical_state(self, stats_campaign):
        campaign, reference = stats_campaign
        fresh = ScenarioCampaign(SCENARIO, CONFIG)
        fresh.run_golden()
        driven = AdaptiveController(campaign=fresh, plan=PLAN)
        injected = []
        injector = FaultInjector(fresh.scenario, fresh.golden)
        while True:
            batch = driven.next_batch()
            if batch is None:
                break
            results = sorted(injector.run_many(batch.faults), key=lambda r: r.fault.fault_id)
            driven.record_batch(batch, results)
            injected.extend(results)
        restored = AdaptiveController(campaign=fresh, plan=PLAN)
        restored.restore(driven.batches, injected)
        assert restored.summary() == driven.summary()

    def test_restore_rejects_truncated_results(self, stats_campaign):
        campaign, reference = stats_campaign
        fresh = ScenarioCampaign(SCENARIO, CONFIG)
        fresh.run_golden()
        controller = AdaptiveController(campaign=fresh, plan=PLAN)
        with pytest.raises(ValueError, match="truncated"):
            controller.restore(reference.adaptive["batches"], [])

    def test_report_record_carries_adaptive_columns(self, stats_campaign):
        _, reference = stats_campaign
        record = reference.as_record()
        assert record["adaptive_spent"] == reference.adaptive["spent"]
        assert record["adaptive_stopping"] == STOP_CONVERGED
        assert 0.0 < record["adaptive_ci_half_width"] <= PLAN.target_half_width


class TestAdaptiveDrivers:
    """Every execution driver must reproduce the reference bit-for-bit."""

    def test_runner_suite_matches_reference(self, stats_campaign, tmp_path):
        _, reference = stats_campaign
        runner = CampaignRunner(config=CONFIG, plan=PLAN)
        database = runner.run_suite([SCENARIO], store=tmp_path / "store")
        report = database.get(SCENARIO.scenario_id)
        assert report.adaptive == reference.adaptive
        assert report.counts == reference.counts
        store = CampaignStore(tmp_path / "store")
        assert store.read_manifest()["plan"] == PLAN.as_dict()
        assert store.partial_ids() == set()  # cleared on completion

    def test_checkpoint_resume_matches_straight_run(self, stats_campaign):
        _, reference = stats_campaign
        checkpoints = []
        runner = CampaignRunner(config=CONFIG, plan=PLAN)
        runner.run_one(SCENARIO, checkpoint=lambda sid, payload: checkpoints.append(payload))
        assert checkpoints, "multi-batch run must checkpoint at least once"
        resumed = CampaignRunner(config=CONFIG, plan=PLAN).run_one(
            SCENARIO, partial=checkpoints[0]
        )
        assert resumed.adaptive == reference.adaptive
        assert resumed.counts == reference.counts

    def test_leased_driver_matches_reference(self, stats_campaign, tmp_path):
        _, reference = stats_campaign
        runner = CampaignRunner(config=CONFIG, plan=PLAN)
        database = runner.run_leased([SCENARIO], store=tmp_path / "store", owner="w0")
        report = database.get(SCENARIO.scenario_id)
        assert report.adaptive == reference.adaptive

    def test_shard_round_trip_preserves_adaptive(self, stats_campaign, tmp_path):
        _, reference = stats_campaign
        store = CampaignStore(tmp_path / "store")
        store.write_shard(reference)
        assert store.load_shard(SCENARIO.scenario_id).adaptive == reference.adaptive

    def test_database_round_trip_preserves_adaptive(self, tmp_path):
        """save_json -> load keeps the adaptive provenance, flat columns
        and fingerprint: the report is rebuilt from its lossless payload."""
        plan = SamplingPlan(target_half_width=0.2, min_faults=32, max_faults=64, batch_size=32)
        scenario = Scenario("IS", "serial", 1, "armv8")
        report = CampaignRunner(config=CONFIG, plan=plan).run_scenario(scenario)
        database = ResultsDatabase()
        database.add_report(report)
        loaded = ResultsDatabase.load(
            database.save_json(tmp_path / "db.json", include_injections=True)
        )
        assert loaded.get(scenario.scenario_id).adaptive == report.adaptive
        assert loaded.scenario_records() == database.scenario_records()
        assert campaign_fingerprint(loaded) == campaign_fingerprint(database)

    def test_fixed_count_payload_has_no_adaptive_keys(self, stats_campaign):
        campaign, _ = stats_campaign
        fixed = ScenarioCampaign(SCENARIO, CONFIG).run(count=8)
        assert fixed.adaptive is None
        assert "adaptive" not in fixed.to_payload()
        assert not any(key.startswith("adaptive_") for key in fixed.as_record())

    def test_write_partial_requires_lease(self, tmp_path):
        store = CampaignStore(tmp_path / "store")
        assert store.write_partial_leased("S1", {"batches": []}, "nobody") is False
        store.acquire_lease("S1", "holder", ttl=60.0)
        assert store.write_partial_leased("S1", {"batches": []}, "holder") is True
        assert store.load_partial("S1") == {"batches": []}
        assert store.write_partial_leased("S1", {}, "impostor") is False


# ----------------------------------------------------------------------
# efficiency table
# ----------------------------------------------------------------------


class TestEfficiencyTable:
    def test_fixed_equivalent_known_values(self):
        # ceil(1.96^2 * 0.25 / w^2)
        assert fixed_equivalent(0.05, 0.95) == 385
        assert fixed_equivalent(0.02, 0.95) == 2401
        assert fixed_equivalent(0.01, 0.95) == 9604

    def test_fixed_equivalent_rejects_bad_width(self):
        with pytest.raises(SimulatorError):
            fixed_equivalent(0.0, 0.95)

    def test_rows_and_average(self, stats_campaign):
        _, reference = stats_campaign
        database = ResultsDatabase()
        database.add_report(reference)
        rows = efficiency_rows(database, PLAN.as_dict())
        assert len(rows) == 1
        row = rows[0]
        assert row["fixed_equivalent"] == fixed_equivalent(
            PLAN.target_half_width, PLAN.confidence
        )
        assert row["saving"] == pytest.approx(row["fixed_equivalent"] / row["spent"])
        assert average_saving(rows) == pytest.approx(row["saving"])
        rendered = render_efficiency_table(rows)
        assert SCENARIO.scenario_id in rendered and "average saving" in rendered

    def test_fixed_count_reports_are_skipped(self):
        database = ResultsDatabase()
        fixed = ScenarioCampaign(SCENARIO, CONFIG).run(count=4)
        database.add_report(fixed)
        assert efficiency_rows(database) == []
        assert average_saving([]) == 0.0
