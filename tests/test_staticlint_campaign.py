"""End-to-end validation of the static vulnerability analysis.

Runs a small but real fault-injection campaign (2 ISAs x 2 programming
models, register targets) and checks that the statically predicted
masking ranks the scenarios the same way the measured masking does.
Also pins the unweighted campaign fingerprint to its pre-analysis
golden value: the weighted-sampling feature must not perturb default
fault lists by even one bit.
"""

import hashlib

import pytest

from repro.injection.campaign import CampaignConfig, Scenario, ScenarioCampaign
from repro.injection.fault import FaultModel, WeightedFaultModel
from repro.errors import SimulatorError
from repro.orchestration.database import ResultsDatabase, campaign_fingerprint
from repro.staticlint import analyze_scenario
from repro.staticlint.validate import validate_database

SEED = 2018

#: sha256 of the canonical fingerprint of the reference campaign below
#: (IS serial 1-core, gpr-only mix, 40 faults, seed 2018, armv7 then
#: armv8), captured before the weighted fault model existed.  The
#: unweighted path must keep producing bit-identical results.
GOLDEN_FINGERPRINT_SHA256 = "bad9c06da3f747979c1715abce75b7e6cd83b0ce5dfe995b3f51b0b10fbb80d2"
GOLDEN_FINGERPRINT_LEN = 31224


def _scenarios():
    return [
        Scenario(app="IS", mode=mode, cores=cores, isa=isa, target_mix=(("gpr", 1.0),))
        for isa in ("armv7", "armv8")
        for mode, cores in (("serial", 1), ("omp", 2))
    ]


@pytest.fixture(scope="module")
def validation_database():
    database = ResultsDatabase()
    for scenario in _scenarios():
        campaign = ScenarioCampaign(scenario, CampaignConfig(faults_per_scenario=80, seed=SEED))
        database.add_report(campaign.run())
    return database


class TestPredictedVsMeasured:
    def test_spearman_correlation(self, validation_database):
        report = validate_database(validation_database)
        assert len(report.rows) == 4
        assert report.overall_spearman is not None
        assert report.overall_spearman >= 0.5

    def test_rows_carry_both_quantities(self, validation_database):
        report = validate_database(validation_database)
        for row in report.rows:
            assert 0.0 <= row.predicted_masking_pct <= 100.0
            assert 0.0 <= row.measured_masking_pct <= 100.0
            assert row.faults > 0

    def test_render_mentions_correlation(self, validation_database):
        text = validate_database(validation_database).render()
        assert "Spearman" in text
        assert "predicted" in text.lower()

    def test_prediction_reproduces_isa_ordering(self):
        """The paper's headline: more architectural registers -> more
        masking.  The static prediction alone must already order armv8
        above armv7, before any injection is run."""
        masking = {}
        for isa in ("armv7", "armv8"):
            scenario = Scenario(app="IS", mode="serial", cores=1, isa=isa)
            vulnerability = analyze_scenario(scenario)
            masking[isa] = vulnerability.predicted_masking("gpr")
            assert 0.0 < masking[isa] < 1.0
        assert masking["armv8"] > masking["armv7"]


class TestFingerprintStability:
    def test_unweighted_fingerprint_is_bit_identical_to_pre_analysis(self):
        database = ResultsDatabase()
        for isa in ("armv7", "armv8"):
            scenario = Scenario(app="IS", mode="serial", cores=1, isa=isa, target_mix=(("gpr", 1.0),))
            report = ScenarioCampaign(
                scenario, CampaignConfig(faults_per_scenario=40, seed=SEED)
            ).run()
            database.add_report(report)
        fingerprint = campaign_fingerprint(database)
        assert len(fingerprint) == GOLDEN_FINGERPRINT_LEN
        assert hashlib.sha256(fingerprint.encode()).hexdigest() == GOLDEN_FINGERPRINT_SHA256


class TestWeightedFaultModel:
    def test_weighting_changes_only_register_indices(self):
        base = FaultModel("armv8", cores=1, seed=77, target_mix={"gpr": 1.0})
        weights = [0.0] * 32
        weights[5] = 1.0
        weights[7] = 3.0
        weighted = WeightedFaultModel(
            "armv8", cores=1, seed=77, target_mix={"gpr": 1.0}, gpr_weights=weights
        )
        plain = base.generate(10_000, 50)
        biased = weighted.generate(10_000, 50)
        assert len(plain) == len(biased)
        for a, b in zip(plain, biased):
            assert (a.injection_time, a.core_id, a.target_kind, a.bit) == (
                b.injection_time,
                b.core_id,
                b.target_kind,
                b.bit,
            )
            assert b.register_index in (5, 7)

    def test_no_weights_is_bit_identical_to_base_model(self):
        base = FaultModel("armv7", cores=2, seed=3)
        weighted = WeightedFaultModel("armv7", cores=2, seed=3)
        assert base.generate(5_000, 40) == weighted.generate(5_000, 40)

    def test_weight_validation(self):
        with pytest.raises(SimulatorError):
            WeightedFaultModel("armv8", cores=1, gpr_weights=[1.0] * 7)  # wrong length
        with pytest.raises(SimulatorError):
            WeightedFaultModel("armv8", cores=1, gpr_weights=[-1.0] + [1.0] * 31)
        with pytest.raises(SimulatorError):
            WeightedFaultModel("armv8", cores=1, gpr_weights=[0.0] * 32)

    def test_build_fault_list_weighted_vs_unweighted(self):
        scenario = Scenario(app="IS", mode="serial", cores=1, isa="armv8", target_mix=(("gpr", 1.0),))
        campaign = ScenarioCampaign(scenario, CampaignConfig(faults_per_scenario=30, seed=SEED))
        campaign.run_golden()
        unweighted_a = campaign.build_fault_list()
        unweighted_b = campaign.build_fault_list()
        assert unweighted_a == unweighted_b  # deterministic
        vulnerability = analyze_scenario(scenario)
        weighted = campaign.build_fault_list(vulnerability=vulnerability)
        assert len(weighted) == len(unweighted_a)
        changed = 0
        for plain, biased in zip(unweighted_a, weighted):
            assert plain.injection_time == biased.injection_time
            assert plain.target_kind == biased.target_kind
            assert plain.bit == biased.bit
            changed += plain.register_index != biased.register_index
        assert changed > 0  # the bias actually moved draws
