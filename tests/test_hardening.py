"""Tests of the software-hardening subsystem.

Covers the scheme registry, the AST transforms (semantics preservation,
determinism, instrumentation shape), the Detected outcome end to end
through the injector, the scenario-axis plumbing (ids, serialisation,
sweeps, store/resume) and the hardening analysis table — including the
acceptance campaign: a seeded sweep over 2 ISAs x 3 programming models
x {off, dwc, dwc+cfc} through ``run_suite`` with store and resume.
"""

import pytest

from repro.analysis.hardening_table import (
    hardening_matrix,
    hardening_rows,
    render_hardening_table,
)
from repro.compiler import ast
from repro.compiler.ast import Function, Module, Return, assign, call, store, var
from repro.compiler.linker import link
from repro.errors import CompileError
from repro.hardening import (
    CFC_SIG_VAR,
    FT_TRAP,
    HARDENING_SCHEMES,
    build_ft_module,
    dwc_top_n,
    harden_module,
    hardening_label,
    normalize_hardening,
    scheme_components,
    shadow_name,
)
from repro.injection.campaign import CampaignConfig, ScenarioCampaign, ScenarioReport
from repro.injection.classify import NOT_INJECTED, Outcome, classify_run, detection_rate
from repro.injection.fault import FaultModel
from repro.injection.golden import GoldenRunner
from repro.injection.injector import FaultInjector
from repro.isa.arch import ARMV7, ARMV8
from repro.npb.suite import Scenario, ScenarioSuite, build_program, instruction_budget
from repro.orchestration import CampaignRunner, CampaignStore
from repro.orchestration.database import ResultsDatabase, campaign_fingerprint
from repro.runtime import runtime_modules
from repro.soc.multicore import build_system

SEED = 2018


# ---------------------------------------------------------------------------
# scheme registry
# ---------------------------------------------------------------------------


class TestSchemes:
    def test_normalization(self):
        assert normalize_hardening(None) is None
        assert normalize_hardening("off") is None
        assert normalize_hardening("none") is None
        assert normalize_hardening("") is None
        assert normalize_hardening("dwc") == "dwc"
        assert normalize_hardening("CFC") == "cfc"
        assert normalize_hardening("cfc+dwc") == "dwc+cfc"
        assert normalize_hardening("dwc+cfc") == "dwc+cfc"

    def test_unknown_component_rejected(self):
        with pytest.raises(ValueError, match="unknown hardening component"):
            normalize_hardening("tmr")
        with pytest.raises(ValueError):
            normalize_hardening("dwc+sihft")

    def test_components_and_labels(self):
        assert scheme_components(None) == frozenset()
        assert scheme_components("dwc+cfc") == {"dwc", "cfc"}
        assert hardening_label(None) == "off"
        assert hardening_label("cfc+dwc") == "dwc+cfc"
        assert set(HARDENING_SCHEMES) == {"off", "dwc", "cfc", "dwc+cfc"}


# ---------------------------------------------------------------------------
# the transforms
# ---------------------------------------------------------------------------


def _toy_module() -> Module:
    main = Function(
        name="main",
        params=[("rank", ast.INT)],
        locals=[("i", ast.INT), ("acc", ast.INT), ("x", ast.INT)],
        body=[
            assign("acc", ast.const(0)),
            ast.For(
                "i",
                ast.const(0),
                ast.const(12),
                [
                    assign("x", ast.mul(var("i"), var("i"))),
                    ast.If(
                        ast.gt(var("x"), ast.const(30)),
                        [assign("acc", ast.add(var("acc"), var("x")))],
                        [assign("acc", ast.sub(var("acc"), ast.const(1)))],
                    ),
                    store("g", var("i"), var("x")),
                ],
            ),
            ast.ExprStmt(call("print_int", var("acc"), type=ast.VOID)),
            Return(ast.const(0)),
        ],
        return_type=ast.INT,
    )
    return Module("toy", [main], [ast.GlobalVar("g", ast.INT, 16)])


def _run_program(program, arch, cores=1):
    system = build_system(arch.name, cores=cores)
    system.load_process(program, name="t")
    system.run(max_instructions=5_000_000)
    process = system.kernel.processes[0]
    assert process.state.value == "exited", system.kernel.process_summary()
    return process.output_text()


class TestTransform:
    def test_off_is_identity(self):
        module = _toy_module()
        assert harden_module(module, None) is module
        assert harden_module(module, "off") is module

    def test_dwc_adds_shadow_locals_and_trap_calls(self):
        hardened = harden_module(_toy_module(), "dwc")
        main = hardened.function("main")
        local_names = [name for name, _ in main.locals]
        assert shadow_name("i") in local_names
        assert shadow_name("acc") in local_names
        assert shadow_name("rank") in local_names  # params get shadows too
        text = repr(main.body)
        assert FT_TRAP in text

    def test_cfc_adds_signature_variable(self):
        hardened = harden_module(_toy_module(), "cfc")
        main = hardened.function("main")
        assert CFC_SIG_VAR in [name for name, _ in main.locals]
        assert FT_TRAP in repr(main.body)

    def test_instrumentation_name_collision_rejected(self):
        bad = Module(
            "bad",
            [Function(name="main", params=[], locals=[("x__ftdup", ast.INT)], body=[Return(ast.const(0))], return_type=ast.INT)],
        )
        with pytest.raises(CompileError, match="collides with hardening"):
            harden_module(bad, "dwc")

    @pytest.mark.parametrize("arch", [ARMV7, ARMV8], ids=["armv7", "armv8"])
    @pytest.mark.parametrize("scheme", ["dwc", "cfc", "dwc+cfc"])
    def test_semantics_preserved_and_static_overhead(self, arch, scheme):
        module = _toy_module()
        baseline = link([module] + runtime_modules(arch), arch, name="t")
        hardened = link([module] + runtime_modules(arch), arch, name="t", hardening=scheme)
        assert _run_program(hardened, arch) == _run_program(baseline, arch)
        assert len(hardened.instructions) > len(baseline.instructions)

    def test_transform_is_deterministic_and_composes_with_optimizer(self):
        from repro.compiler.optimizer import optimize_module

        module = _toy_module()
        once = harden_module(optimize_module(module), "dwc+cfc")
        twice = harden_module(optimize_module(module), "dwc+cfc")
        assert repr(once.functions) == repr(twice.functions)
        # and the full pipeline produces identical code both times
        a = link([_toy_module()] + runtime_modules(ARMV8), ARMV8, name="t", hardening="dwc+cfc")
        b = link([_toy_module()] + runtime_modules(ARMV8), ARMV8, name="t", hardening="dwc+cfc")
        assert [repr(i) for i in a.instructions] == [repr(i) for i in b.instructions]

    def test_for_with_continue_uses_resync_fallback(self):
        # continue binds to the for loop, so the lowering to while (which
        # would skip the increment) must not be applied; the loop still
        # runs to completion and produces the right sum.
        main = Function(
            name="main",
            params=[("rank", ast.INT)],
            locals=[("i", ast.INT), ("acc", ast.INT)],
            body=[
                assign("acc", ast.const(0)),
                ast.For(
                    "i",
                    ast.const(0),
                    ast.const(10),
                    [
                        ast.If(
                            ast.eq(ast.mod(var("i"), ast.const(2)), ast.const(0)),
                            [ast.Continue()],
                        ),
                        assign("acc", ast.add(var("acc"), var("i"))),
                    ],
                ),
                ast.ExprStmt(call("print_int", var("acc"), type=ast.VOID)),
                Return(ast.const(0)),
            ],
            return_type=ast.INT,
        )
        module = Module("t", [main])
        for scheme in ("dwc", "cfc", "dwc+cfc"):
            hardened = link([module], ARMV8, name="t", hardening=scheme)
            assert _run_program(hardened, ARMV8).split() == ["25"]

    def test_break_restores_the_loop_signature(self):
        main = Function(
            name="main",
            params=[("rank", ast.INT)],
            locals=[("i", ast.INT)],
            body=[
                assign("i", ast.const(0)),
                ast.While(
                    ast.lt(var("i"), ast.const(100)),
                    [
                        ast.If(ast.ge(var("i"), ast.const(7)), [ast.Break()]),
                        assign("i", ast.add(var("i"), ast.const(1))),
                    ],
                ),
                ast.ExprStmt(call("print_int", var("i"), type=ast.VOID)),
                Return(ast.const(0)),
            ],
            return_type=ast.INT,
        )
        module = Module("t", [main])
        hardened = link([module], ARMV8, name="t", hardening="dwc+cfc")
        assert _run_program(hardened, ARMV8).split() == ["7"]

    def test_ft_module_linked_automatically_only_when_hardening(self):
        module = _toy_module()
        baseline = link([module], ARMV8, name="t")
        hardened = link([module], ARMV8, name="t", hardening="dwc")
        assert FT_TRAP not in baseline.labels
        assert FT_TRAP in hardened.labels

    def test_ft_trap_kills_with_distinct_fault_kind(self):
        main = Function(
            name="main",
            params=[("rank", ast.INT)],
            body=[ast.ExprStmt(call(FT_TRAP, type=ast.VOID)), Return(ast.const(0))],
            return_type=ast.INT,
        )
        program = link([Module("t", [main]), build_ft_module()], ARMV8, name="t")
        system = build_system("armv8", cores=1)
        system.load_process(program, name="t")
        system.run(max_instructions=100_000)
        process = system.kernel.processes[0]
        assert process.state.value == "killed"
        assert process.fault_kind == "ft_detected"


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


class TestDetectedOutcome:
    def test_detected_dominates_everything(self):
        result = classify_run(
            any_process_killed=True,
            all_exited_zero=False,
            watchdog_expired=True,
            deadlocked=True,
            output_matches=False,
            memory_matches=False,
            state_matches=False,
            fault_detected=True,
        )
        assert result.outcome == Outcome.DETECTED

    def test_detected_not_folded_into_ut(self):
        # a killed process without the trap stays UT
        result = classify_run(
            any_process_killed=True,
            all_exited_zero=False,
            watchdog_expired=False,
            deadlocked=False,
            output_matches=True,
            memory_matches=True,
            state_matches=True,
        )
        assert result.outcome == Outcome.UT

    def test_detection_rate(self):
        counts = {"Vanished": 40, "Detected": 10, "OMM": 0, NOT_INJECTED: 50}
        assert detection_rate(counts) == pytest.approx(20.0)
        assert detection_rate({}) == 0.0


# ---------------------------------------------------------------------------
# the scenario axis
# ---------------------------------------------------------------------------


class TestHardeningAxis:
    def test_scenario_id_tags_the_scheme(self):
        scenario = Scenario("IS", "serial", 1, "armv8").with_hardening("cfc+dwc")
        assert scenario.hardening == "dwc+cfc"
        assert scenario.scenario_id == "IS-SER-1-armv8-dwc+cfc"
        assert scenario.describe()["hardening"] == "dwc+cfc"
        base = Scenario("IS", "serial", 1, "armv8")
        assert base.scenario_id == "IS-SER-1-armv8"
        assert base.hardening_label == "off"

    def test_mix_and_hardening_tags_compose(self):
        scenario = (
            Scenario("IS", "serial", 1, "armv8")
            .with_target_mix({"gpr": 0.6, "memory": 0.4})
            .with_hardening("dwc")
        )
        assert scenario.scenario_id == "IS-SER-1-armv8-gpr0.6+memory0.4-dwc"

    def test_as_dict_roundtrip(self):
        scenario = Scenario("LU", "omp", 2, "armv7").with_hardening("dwc")
        assert Scenario.from_dict(scenario.as_dict()) == scenario
        # payloads from before the axis existed deserialise unhardened
        legacy = {"app": "LU", "mode": "omp", "cores": 2, "isa": "armv7", "target_mix": None}
        assert Scenario.from_dict(legacy).hardening is None

    def test_direct_construction_normalizes_the_label(self):
        # a directly built scenario must share ids (and store shards)
        # with swept/deserialised ones no matter how the label is spelt
        scenario = Scenario("LU", "serial", 1, "armv8", hardening="cfc+dwc")
        assert scenario.hardening == "dwc+cfc"
        assert scenario.scenario_id == "LU-SER-1-armv8-dwc+cfc"
        assert Scenario("LU", "serial", 1, "armv8", hardening="off").hardening is None

    def test_sweep_dedupes_equivalent_schemes(self):
        suite = ScenarioSuite([Scenario("IS", "serial", 1, "armv8")])
        swept = suite.sweep_hardenings(["off", "dwc", None, "cfc+dwc", "dwc+cfc"])
        assert [s.hardening for s in swept] == [None, "dwc", "dwc+cfc"]
        assert len({s.scenario_id for s in swept}) == len(swept)

    def test_suite_sweep_and_filter(self):
        suite = ScenarioSuite([Scenario("IS", "serial", 1, "armv8"), Scenario("IS", "omp", 2, "armv8")])
        swept = suite.sweep_hardenings([None, "dwc", "dwc+cfc"])
        assert len(swept) == 6
        assert len({s.scenario_id for s in swept}) == 6
        only_dwc = swept.filter(hardenings=["dwc"])
        assert len(only_dwc) == 2 and all(s.hardening == "dwc" for s in only_dwc)
        off = swept.filter(hardenings=["off"])
        assert len(off) == 2 and all(s.hardening is None for s in off)

    def test_report_record_roundtrip(self, golden_hardened):
        report = _small_report(golden_hardened)
        record = report.as_record()
        assert record["hardening"] == "dwc+cfc"
        rebuilt = ScenarioReport.from_payload(report.to_payload())
        assert rebuilt.scenario == report.scenario
        assert rebuilt.counts == report.counts

    def test_build_program_cached_per_scheme(self):
        base = build_program("IS", "serial", "armv8")
        hardened = build_program("IS", "serial", "armv8", "dwc")
        assert base is build_program("IS", "serial", "armv8")
        assert hardened is build_program("IS", "serial", "armv8", "dwc")
        assert hardened is not base
        assert len(hardened.instructions) > len(base.instructions)
        # equivalent labels share one cache entry (no redundant links)
        assert base is build_program("IS", "serial", "armv8", "off")
        assert base is build_program("IS", "serial", "armv8", None)
        assert build_program("IS", "serial", "armv8", "cfc+dwc") is build_program(
            "IS", "serial", "armv8", "dwc+cfc"
        )


# ---------------------------------------------------------------------------
# injector integration: budgets, accounting, detection
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def golden_base():
    scenario = Scenario("LU", "serial", 1, "armv8")
    return GoldenRunner(model_caches=False, checkpoint_interval=None).run(
        scenario, collect_stats=False
    )


@pytest.fixture(scope="module")
def golden_hardened():
    scenario = Scenario("LU", "serial", 1, "armv8").with_hardening("dwc+cfc")
    return GoldenRunner(model_caches=False, checkpoint_interval=None).run(
        scenario, collect_stats=False
    )


def _small_report(golden) -> ScenarioReport:
    from repro.injection.campaign import summarize

    faults = FaultModel("armv8", cores=1, seed=SEED).generate(golden.total_instructions, 4)
    injector = FaultInjector(golden.scenario, golden)
    return summarize(golden.scenario, golden, injector.run_many(faults), 0.0)


class TestHardenedInjection:
    def test_watchdog_budget_uses_the_hardened_golden_length(self, golden_base, golden_hardened):
        # The hardened golden run is longer; the injector's budget must
        # scale with *it*, not with the unhardened twin.
        assert golden_hardened.total_instructions > golden_base.total_instructions
        assert golden_hardened.watchdog_budget(4) == max(
            50_000, 4 * golden_hardened.total_instructions
        )
        assert golden_hardened.watchdog_budget(4) > golden_base.watchdog_budget(4)
        # the static (pre-golden) budget scales with the scheme as well
        base, hard = golden_base.scenario, golden_hardened.scenario
        assert instruction_budget(hard) > instruction_budget(base)
        assert instruction_budget(hard, golden_hardened.total_instructions) == max(
            50_000, 4 * golden_hardened.total_instructions
        )

    def test_campaign_draws_faults_over_the_hardened_lifespan(self, golden_hardened):
        campaign = ScenarioCampaign(
            golden_hardened.scenario, CampaignConfig(faults_per_scenario=64, seed=SEED)
        )
        campaign.golden = golden_hardened
        faults = campaign.build_fault_list()
        assert max(f.injection_time for f in faults) < golden_hardened.total_instructions

    def test_detection_and_accounting(self, golden_base, golden_hardened):
        """The acceptance comparison: identical fault list, strictly
        lower OMM share plus nonzero Detected on the hardened binary."""
        faults = FaultModel("armv8", cores=1, seed=SEED).generate(
            golden_base.total_instructions, 120
        )
        base_results = FaultInjector(golden_base.scenario, golden_base).run_many(faults)
        hard_results = FaultInjector(golden_hardened.scenario, golden_hardened).run_many(faults)

        def shares(results):
            injected = [r for r in results if r.outcome != NOT_INJECTED]
            counts = {}
            for r in injected:
                counts[r.outcome] = counts.get(r.outcome, 0) + 1
            return counts, len(injected)

        base_counts, base_injected = shares(base_results)
        hard_counts, hard_injected = shares(hard_results)
        assert base_counts.get("Detected", 0) == 0
        assert hard_counts.get("Detected", 0) > 0
        assert (
            hard_counts.get("OMM", 0) / hard_injected
            < base_counts.get("OMM", 0) / base_injected
        )
        # Detected runs were injected: the accounting counts them as
        # applied faults, never as NotInjected.
        detected = [r for r in hard_results if r.outcome == "Detected"]
        assert detected and all(r.executed_instructions > 0 for r in detected)
        from repro.injection.campaign import summarize

        report = summarize(golden_hardened.scenario, golden_hardened, hard_results, 0.0)
        assert report.faults_injected == len(hard_results) - report.counts.get(NOT_INJECTED, 0)
        assert report.counts.get("Detected", 0) == len(detected)
        assert report.percentages.get("Detected", 0.0) > 0.0

    def test_not_injected_still_reported_for_late_faults(self, golden_base):
        # A fault scheduled past the end of the run is never applied and
        # must surface as NotInjected (same contract as unhardened runs).
        from repro.injection.fault import FaultDescriptor, TARGET_GPR

        hardened = golden_base.scenario.with_hardening("dwc")
        golden_hard = GoldenRunner(model_caches=False).run(hardened, collect_stats=False)
        late = FaultDescriptor(
            fault_id=0,
            injection_time=golden_hard.total_instructions + 10,
            core_id=0,
            target_kind=TARGET_GPR,
            register_index=2,
            bit=1,
        )
        result = FaultInjector(hardened, golden_hard).run_one(late)
        assert result.outcome == NOT_INJECTED


# ---------------------------------------------------------------------------
# the acceptance campaign: sweep through run_suite with store/resume
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def swept_campaign(tmp_path_factory):
    suite = ScenarioSuite(
        [
            Scenario("IS", "serial", 1, isa)
            for isa in ("armv7", "armv8")
        ]
        + [Scenario("IS", "omp", 2, isa) for isa in ("armv7", "armv8")]
        + [Scenario("IS", "mpi", 2, isa) for isa in ("armv7", "armv8")]
    ).sweep_hardenings([None, "dwc", "dwc+cfc"])
    store_dir = tmp_path_factory.mktemp("hardening-store")
    config = CampaignConfig(faults_per_scenario=8, seed=SEED)
    runner = CampaignRunner(config, workers=0)
    database = runner.run_suite(suite, store=CampaignStore(store_dir), resume=False)
    return suite, store_dir, config, database


class TestSweptCampaign:
    def test_full_matrix_completes(self, swept_campaign):
        suite, _store, _config, database = swept_campaign
        assert len(suite) == 18  # 2 ISAs x 3 models x 3 schemes
        assert len(database) == 18
        assert not database.failures
        schemes = {report.scenario.hardening_label for report in database.reports.values()}
        assert schemes == {"off", "dwc", "dwc+cfc"}

    def test_hardened_scenarios_detect_faults(self, swept_campaign):
        _suite, _store, _config, database = swept_campaign
        detected = sum(
            report.counts.get("Detected", 0)
            for report in database.reports.values()
            if report.scenario.hardening == "dwc+cfc"
        )
        assert detected > 0
        unhardened_detected = sum(
            report.counts.get("Detected", 0)
            for report in database.reports.values()
            if report.scenario.hardening is None
        )
        assert unhardened_detected == 0

    def test_store_resume_is_bit_identical(self, swept_campaign):
        suite, store_dir, config, database = swept_campaign
        resumed = CampaignRunner(config, workers=0).run_suite(
            suite, store=CampaignStore(store_dir), resume=True
        )
        assert campaign_fingerprint(resumed) == campaign_fingerprint(database)

    def test_hardening_table_renders(self, swept_campaign):
        _suite, _store, _config, database = swept_campaign
        rows = hardening_rows(database)
        assert {row["hardening"] for row in rows} == {"off", "dwc", "dwc+cfc"}
        for row in rows:
            if row["hardening"] == "off":
                assert row["static_overhead_x"] == "-"
            else:
                assert row["static_overhead_x"] > 1.0
                assert row["dynamic_overhead_x"] > 1.0
        matrix = hardening_matrix(database)
        assert all("dwc+cfc_detected_pct" in row for row in matrix)
        rendered = render_hardening_table(database)
        assert "Software-hardening dimension" in rendered
        assert "dwc+cfc" in rendered

    def test_table_survives_database_roundtrip(self, swept_campaign, tmp_path):
        _suite, _store, _config, database = swept_campaign
        path = database.save_json(tmp_path / "db.json")
        reloaded = ResultsDatabase.load(path)
        assert hardening_rows(reloaded) == hardening_rows(database)


# ---------------------------------------------------------------------------
# selective DWC: top-N shadowing steered by the static analysis
# ---------------------------------------------------------------------------


class TestSelectiveDwcScheme:
    def test_dwc_top_n_grammar(self):
        assert normalize_hardening("dwc4") == "dwc4"
        assert normalize_hardening("cfc+dwc4") == "dwc4+cfc"
        assert dwc_top_n("dwc4") == 4
        assert dwc_top_n("dwc12+cfc") == 12
        assert dwc_top_n("dwc") is None
        assert dwc_top_n("cfc") is None
        assert dwc_top_n(None) is None
        assert scheme_components("dwc4+cfc") == {"dwc", "cfc"}

    def test_conflicting_dwc_variants_rejected(self):
        with pytest.raises(ValueError, match="conflicting"):
            normalize_hardening("dwc+dwc4")
        with pytest.raises(ValueError, match="conflicting"):
            normalize_hardening("dwc2+dwc3")
        with pytest.raises(ValueError):
            normalize_hardening("dwc0")  # zero-variable selection is meaningless

    def test_selective_without_ranks_is_an_error(self):
        with pytest.raises(CompileError, match="ranks"):
            harden_module(_toy_module(), "dwc2")

    @pytest.mark.parametrize("arch", [ARMV7, ARMV8], ids=["armv7", "armv8"])
    def test_selective_semantics_and_reduced_overhead(self, arch):
        from repro.staticlint import analyze_liveness, top_variables, variable_ranks

        module = _toy_module()
        baseline = link([module] + runtime_modules(arch), arch, name="t")
        full = link([module] + runtime_modules(arch), arch, name="t", hardening="dwc")
        ranks = variable_ranks(baseline, analyze_liveness(baseline))
        shadow_ranks = top_variables(ranks, 1)
        selective = link(
            [module] + runtime_modules(arch),
            arch,
            name="t",
            hardening="dwc1",
            shadow_ranks=shadow_ranks,
        )
        # same observable behaviour, strictly less instrumentation than
        # full duplication, strictly more than no hardening at all
        assert _run_program(selective, arch) == _run_program(baseline, arch)
        assert len(baseline.instructions) < len(selective.instructions)
        assert len(selective.instructions) < len(full.instructions)

    def test_build_program_ranks_automatically(self):
        baseline = build_program("IS", "serial", "armv8", None)
        full = build_program("IS", "serial", "armv8", "dwc")
        selective = build_program("IS", "serial", "armv8", "dwc2")
        assert len(baseline.instructions) < len(selective.instructions)
        assert len(selective.instructions) < len(full.instructions)
        composed = build_program("IS", "serial", "armv8", "dwc2+cfc")
        assert len(composed.instructions) > len(selective.instructions)


@pytest.fixture(scope="module")
def selective_campaign(tmp_path_factory):
    """Coverage-vs-overhead sweep: off vs full DWC vs top-2 selective DWC."""
    suite = ScenarioSuite([Scenario("IS", "serial", 1, "armv8")]).sweep_hardenings(
        [None, "dwc", "dwc2"]
    )
    store_dir = tmp_path_factory.mktemp("selective-store")
    config = CampaignConfig(faults_per_scenario=12, seed=SEED)
    database = CampaignRunner(config, workers=0).run_suite(
        suite, store=CampaignStore(store_dir), resume=False
    )
    return database


class TestSelectiveDwcCampaign:
    def test_sweep_completes(self, selective_campaign):
        assert len(selective_campaign) == 3
        assert not selective_campaign.failures
        schemes = {r.scenario.hardening_label for r in selective_campaign.reports.values()}
        assert schemes == {"off", "dwc", "dwc2"}

    def test_coverage_vs_overhead_report(self, selective_campaign):
        rows = {row["hardening"]: row for row in hardening_rows(selective_campaign)}
        assert set(rows) == {"off", "dwc", "dwc2"}
        # selective duplication pays measurably less than full duplication
        assert 1.0 < rows["dwc2"]["static_overhead_x"] < rows["dwc"]["static_overhead_x"]
        assert 1.0 < rows["dwc2"]["dynamic_overhead_x"] < rows["dwc"]["dynamic_overhead_x"]
        rendered = render_hardening_table(selective_campaign)
        assert "dwc2" in rendered
