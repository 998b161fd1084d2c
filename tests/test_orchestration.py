"""Tests of campaign orchestration: jobs, runner, results database."""

import json
import multiprocessing
import pickle
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.errors import SimulatorError
from repro.injection.campaign import CampaignConfig, ScenarioCampaign, ScenarioReport
from repro.injection.fault import FaultModel
from repro.injection.golden import GoldenRunner
from repro.npb.suite import Scenario
from repro.orchestration.database import (
    DuplicateReportError,
    ResultsDatabase,
    campaign_fingerprint,
    strip_wall_times,
)
from repro.orchestration.jobs import JobBatcher
from repro.orchestration.store import (
    CampaignStore,
    LeaseHeartbeat,
    ScenarioFailure,
    ScenarioLease,
)
from repro.orchestration import runner as runner_module
from repro.orchestration.runner import (
    CampaignRunner,
    GoldenCache,
    PersistentSuitePool,
    _WORKER_CACHE,
    _execute_job_guarded,
    evict_golden,
    execute_job,
    install_golden,
    pool_context,
    resolve_golden,
)
from repro.stats.plan import SamplingPlan


def synthetic_report(app="IS", mode="serial", cores=1, isa="armv8", counts=None, stats=None):
    """A hand-built report (no simulation); counts fill the outcome map."""
    from repro.injection.classify import empty_outcome_counts, masking_rate, outcome_percentages

    scenario = Scenario(app=app, mode=mode, cores=cores, isa=isa)
    full_counts = empty_outcome_counts()
    full_counts.update(counts or {})
    return ScenarioReport(
        scenario=scenario,
        faults_injected=sum(full_counts.values()),
        counts=full_counts,
        percentages=outcome_percentages(full_counts),
        masking_rate_pct=masking_rate(full_counts),
        golden_summary={"scenario": scenario.scenario_id, "instructions": 10_000},
        golden_stats=stats or {},
        wall_time_seconds=0.01,
        results=[],
    )


@pytest.fixture(scope="module")
def golden():
    return GoldenRunner(model_caches=False).run(Scenario("IS", "serial", 1, "armv8"), collect_stats=False)


class TestJobBatcher:
    def test_batch_sizes(self, golden):
        faults = FaultModel("armv8", 1, seed=1).generate(golden.total_instructions, 25)
        jobs = JobBatcher(faults_per_job=10).batch(golden.scenario, golden, faults)
        assert [len(job) for job in jobs] == [10, 10, 5]
        assert [job.job_id for job in jobs] == [0, 1, 2]
        assert jobs[0].describe()["scenario_id"] == golden.scenario.scenario_id

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError):
            JobBatcher(faults_per_job=0)

    def test_execute_job_returns_results(self, golden):
        faults = FaultModel("armv8", 1, seed=2).generate(golden.total_instructions, 4)
        job = JobBatcher(faults_per_job=8).batch(golden.scenario, golden, faults)[0]
        results = execute_job(job)
        assert len(results) == 4
        assert all(r.scenario_id == golden.scenario.scenario_id for r in results)


class TestCampaignRunner:
    def test_serial_and_parallel_runs_agree(self):
        scenario = Scenario("IS", "serial", 1, "armv8")
        config = CampaignConfig(faults_per_scenario=16, seed=42)
        serial = CampaignRunner(config, workers=0, faults_per_job=4).run_scenario(scenario)
        parallel = CampaignRunner(config, workers=4, faults_per_job=4).run_scenario(scenario)
        assert serial.counts == parallel.counts

    def test_run_suite_builds_database(self):
        config = CampaignConfig(faults_per_scenario=8, seed=1, keep_individual_results=True)
        runner = CampaignRunner(config, workers=0)
        database = runner.run_suite([Scenario("IS", "serial", 1, "armv8"), Scenario("EP", "serial", 1, "armv8")])
        assert len(database) == 2
        assert database.total_injections() == 16
        assert len(database.injection_records()) == 16

    def test_progress_callback_invoked(self):
        messages = []
        config = CampaignConfig(faults_per_scenario=4, seed=1)
        CampaignRunner(config, workers=0, progress=messages.append).run_scenario(Scenario("IS", "serial", 1, "armv8"))
        assert any(message.startswith("[golden]") for message in messages)
        assert any(message.startswith("[done]") for message in messages)


class TestJobPayloads:
    """Pool jobs must stay light: golden data ships once per worker."""

    #: Generous ceiling for one pickled pool job (scenario + ~16 fault
    #: descriptors); the golden reference alone is orders of magnitude
    #: bigger, so a regression reattaching it to jobs trips this fast.
    MAX_JOB_PICKLE_BYTES = 16_384

    def test_pool_jobs_are_payload_light(self, golden):
        # Campaign goldens carry checkpoints: that is what ships once per
        # worker, and what jobs must never duplicate.
        campaign_golden = GoldenRunner(model_caches=False, checkpoint_interval=None).run(
            golden.scenario, collect_stats=False
        )
        faults = FaultModel("armv8", 1, seed=3).generate(campaign_golden.total_instructions, 64)
        jobs = JobBatcher(faults_per_job=16).batch(campaign_golden.scenario, None, faults)
        golden_size = len(pickle.dumps(campaign_golden))
        for job in jobs:
            assert job.golden is None
            assert len(pickle.dumps(job)) < self.MAX_JOB_PICKLE_BYTES
        assert golden_size > 10 * self.MAX_JOB_PICKLE_BYTES

    def test_light_job_resolves_worker_cached_golden(self, golden):
        faults = FaultModel("armv8", 1, seed=4).generate(golden.total_instructions, 3)
        job = JobBatcher(faults_per_job=8).batch(golden.scenario, None, faults)[0]
        install_golden(golden.scenario.scenario_id, golden)
        assert resolve_golden(job) is golden
        results = execute_job(job)
        assert len(results) == 3
        evict_golden(golden.scenario.scenario_id)

    def test_unresolvable_golden_raises(self, golden):
        faults = FaultModel("armv8", 1, seed=5).generate(golden.total_instructions, 2)
        job = JobBatcher(faults_per_job=8).batch(golden.scenario, None, faults)[0]
        evict_golden(golden.scenario.scenario_id)
        install_golden("EP-SER-1-armv8", golden)
        with pytest.raises(SimulatorError):
            resolve_golden(job)
        evict_golden("EP-SER-1-armv8")

    def test_job_resolves_golden_from_spool_file(self, golden, tmp_path):
        """The spool reference is the lazy fallback when the cache misses."""
        spool = tmp_path / "golden.pickle"
        spool.write_bytes(pickle.dumps(golden))
        faults = FaultModel("armv8", 1, seed=4).generate(golden.total_instructions, 2)
        job = JobBatcher(faults_per_job=8).batch(
            golden.scenario, None, faults, golden_ref=str(spool)
        )[0]
        evict_golden(golden.scenario.scenario_id)
        resolved = resolve_golden(job)
        assert resolved.total_instructions == golden.total_instructions
        assert golden.scenario.scenario_id in _WORKER_CACHE
        evict_golden(golden.scenario.scenario_id)

    def test_batcher_sorts_faults_by_injection_time(self, golden):
        faults = FaultModel("armv8", 1, seed=6).generate(golden.total_instructions, 30)
        jobs = JobBatcher(faults_per_job=10).batch(golden.scenario, golden, faults)
        times = [fault.injection_time for job in jobs for fault in job.faults]
        assert times == sorted(times)
        assert sorted(f.fault_id for job in jobs for f in job.faults) == list(range(30))


class TestCampaignReproducibility:
    """Serial and pooled campaigns must agree, with and without checkpoints."""

    @pytest.mark.parametrize("checkpoint_interval", [0, 2_000], ids=["no-checkpoints", "checkpointed"])
    def test_serial_and_pooled_reports_identical(self, checkpoint_interval):
        scenario = Scenario("IS", "serial", 1, "armv8")
        config = CampaignConfig(
            faults_per_scenario=12, seed=2018, checkpoint_interval=checkpoint_interval
        )
        serial = CampaignRunner(config, workers=0, faults_per_job=4).run_scenario(scenario)
        pooled = CampaignRunner(config, workers=2, faults_per_job=4).run_scenario(scenario)
        assert serial.counts == pooled.counts
        assert serial.percentages == pooled.percentages
        assert serial.masking_rate_pct == pooled.masking_rate_pct

    def test_checkpointing_does_not_change_outcomes(self):
        scenario = Scenario("IS", "omp", 2, "armv8")
        base = dict(faults_per_scenario=10, seed=77)
        plain = CampaignRunner(
            CampaignConfig(checkpoint_interval=0, **base), workers=0
        ).run_scenario(scenario)
        checkpointed = CampaignRunner(
            CampaignConfig(checkpoint_interval=1_000, **base), workers=0
        ).run_scenario(scenario)
        assert plain.counts == checkpointed.counts
        records_plain = [(r.fault.fault_id, r.outcome, r.executed_instructions) for r in plain.results]
        records_cp = [(r.fault.fault_id, r.outcome, r.executed_instructions) for r in checkpointed.results]
        assert records_plain == records_cp


class TestPoolContext:
    def test_auto_context_available(self):
        context = pool_context()
        assert hasattr(context, "Pool")

    def test_explicit_method_honoured(self):
        context = pool_context("spawn")
        assert context.get_start_method() == "spawn"

    def test_fallback_when_fork_unavailable(self, monkeypatch):
        real_get_context = multiprocessing.get_context

        def no_fork(method=None):
            if method in ("fork", "forkserver"):
                raise ValueError(f"cannot find context for {method!r}")
            return real_get_context(method)

        monkeypatch.setattr("repro.orchestration.runner.multiprocessing.get_context", no_fork)
        context = pool_context()
        assert context.get_start_method() == "spawn"

    def test_campaign_runs_under_spawn(self, monkeypatch):
        # spawn workers import repro afresh: make sure the children can
        # find the package even when only conftest put src on sys.path.
        src = str(Path(__file__).resolve().parent.parent / "src")
        import os

        existing = [p for p in os.environ.get("PYTHONPATH", "").split(":") if p]
        monkeypatch.setenv("PYTHONPATH", ":".join([src] + existing))
        scenario = Scenario("EP", "serial", 1, "armv8")
        config = CampaignConfig(faults_per_scenario=6, seed=9)
        serial = CampaignRunner(config, workers=0, faults_per_job=2).run_scenario(scenario)
        spawned = CampaignRunner(
            config, workers=2, faults_per_job=2, start_method="spawn"
        ).run_scenario(scenario)
        assert serial.counts == spawned.counts


class TestGoldenCache:
    """The keyed per-worker golden cache behind the persistent pool."""

    def test_install_get_evict(self):
        cache = GoldenCache(capacity=2)
        cache.install("A", "golden-A")
        assert cache.get("A") == "golden-A"
        assert "A" in cache
        cache.evict("A")
        assert cache.get("A") is None
        cache.evict("A")  # idempotent

    def test_lru_eviction_order(self):
        cache = GoldenCache(capacity=2)
        cache.install("A", 1)
        cache.install("B", 2)
        assert cache.get("A") == 1  # refresh A: B is now least recent
        cache.install("C", 3)
        assert cache.ids() == ["A", "C"]
        assert cache.get("B") is None

    def test_invalid_capacity(self):
        with pytest.raises(SimulatorError):
            GoldenCache(capacity=0)

    def test_load_from_spool_file(self, golden, tmp_path):
        spool = tmp_path / "g.pickle"
        spool.write_bytes(pickle.dumps(golden))
        cache = GoldenCache()
        loaded = cache.load(golden.scenario.scenario_id, str(spool))
        assert loaded.total_instructions == golden.total_instructions
        assert golden.scenario.scenario_id in cache


class TestPersistentPool:
    """Install/evict broadcast on a pool that outlives scenarios."""

    def test_install_broadcast_then_evict_clears_workers(self, golden):
        scenario_id = golden.scenario.scenario_id
        faults = FaultModel("armv8", 1, seed=11).generate(golden.total_instructions, 4)
        with PersistentSuitePool(2) as pool:
            pool.install(scenario_id, golden)
            # No golden_ref on these jobs: success requires the install
            # broadcast to have populated the worker caches.
            jobs = JobBatcher(faults_per_job=2).batch(golden.scenario, None, faults)
            results, failures = pool.run_jobs(jobs, retries=0)
            assert len(results) == 4
            assert failures == []
            pool.evict(scenario_id)
            assert not Path(pool.spool_path(scenario_id)).exists()
            jobs = JobBatcher(faults_per_job=2).batch(golden.scenario, None, faults)
            results, failures = pool.run_jobs(jobs, retries=0)
            assert results == []
            assert len(failures) == 2
            assert all("no golden reference" in failure["error"] for failure in failures)

    def test_pool_requires_two_workers(self):
        with pytest.raises(SimulatorError):
            PersistentSuitePool(1)


class TestJobIsolation:
    """A poisoned job fails alone instead of sinking its scenario."""

    SCENARIO = Scenario("IS", "serial", 1, "armv8")

    def test_poisoned_job_fails_alone(self, monkeypatch):
        real_execute = runner_module.execute_job

        def poisoned(job):
            if job.job_id == 1:
                raise RuntimeError("poisoned job")
            return real_execute(job)

        monkeypatch.setattr(runner_module, "execute_job", poisoned)
        config = CampaignConfig(faults_per_scenario=12, seed=5)
        report = CampaignRunner(config, workers=0, faults_per_job=4, job_retries=1).run_scenario(
            self.SCENARIO
        )
        assert sum(report.counts.values()) == 8  # 12 faults minus the poisoned batch of 4
        assert len(report.job_failures) == 1
        failure = report.job_failures[0]
        assert failure["job_id"] == 1
        assert failure["faults"] == 4
        assert failure["attempts"] == 2  # initial round + one retry
        assert "RuntimeError: poisoned job" in failure["error"]
        assert report.as_record()["failed_jobs"] == 1

    def test_transient_failure_recovered_by_retry(self, monkeypatch):
        real_execute = runner_module.execute_job
        seen: dict[int, int] = {}

        def flaky(job):
            seen[job.job_id] = seen.get(job.job_id, 0) + 1
            if job.job_id == 2 and seen[job.job_id] == 1:
                raise RuntimeError("transient failure")
            return real_execute(job)

        config = CampaignConfig(faults_per_scenario=12, seed=5)
        clean = CampaignRunner(config, workers=0, faults_per_job=4).run_scenario(self.SCENARIO)
        monkeypatch.setattr(runner_module, "execute_job", flaky)
        retried = CampaignRunner(config, workers=0, faults_per_job=4, job_retries=1).run_scenario(
            self.SCENARIO
        )
        assert retried.job_failures == []
        assert retried.counts == clean.counts
        assert seen[2] == 2

    def test_guarded_execution_captures_error_type(self, golden):
        faults = FaultModel("armv8", 1, seed=12).generate(golden.total_instructions, 2)
        job = JobBatcher(faults_per_job=4).batch(golden.scenario, None, faults)[0]
        evict_golden(golden.scenario.scenario_id)
        job_id, results, error = _execute_job_guarded(job)
        assert job_id == job.job_id
        assert results is None
        assert error.startswith("SimulatorError:")


class TestSuiteResilience:
    """Failure paths of the resumable suite engine."""

    GOOD = [Scenario("IS", "serial", 1, "armv8"), Scenario("EP", "serial", 1, "armv8")]

    def _runner(self, progress=None, **kwargs):
        config = CampaignConfig(faults_per_scenario=6, seed=3)
        return CampaignRunner(config, workers=0, faults_per_job=3, progress=progress, **kwargs)

    def test_failed_scenario_recorded_and_suite_continues(self, tmp_path):
        bad = Scenario("ZZ", "serial", 1, "armv8")  # unknown app: golden phase raises
        store = CampaignStore(tmp_path / "store")
        database = self._runner().run_suite([self.GOOD[0], bad, self.GOOD[1]], store=store)
        assert len(database) == 2
        assert {f.scenario_id for f in database.failures} == {bad.scenario_id}
        assert database.failures[0].phase == "golden"
        assert database.failures[0].attempts == 1
        assert store.completed_ids() == {s.scenario_id for s in self.GOOD}
        stored = store.load_failures()
        assert len(stored) == 1 and stored[0].scenario_id == bad.scenario_id
        # the failure rides along in the persisted summary
        payload = database.to_dict()
        assert payload["failures"][0]["error_type"] == "KeyError"

    def test_resume_retries_failed_scenario_and_clears_record(self, tmp_path, monkeypatch):
        target = self.GOOD[1].scenario_id

        class FlakyCampaign(runner_module.ScenarioCampaign):
            def run_golden(self):
                if self.scenario.scenario_id == target:
                    raise RuntimeError("injected golden failure")
                return super().run_golden()

        store = CampaignStore(tmp_path / "store")
        monkeypatch.setattr(runner_module, "ScenarioCampaign", FlakyCampaign)
        first = self._runner().run_suite(self.GOOD, store=store)
        assert len(first) == 1 and len(first.failures) == 1
        monkeypatch.undo()
        resumed = self._runner().run_suite(self.GOOD, store=store, resume=True)
        assert len(resumed) == 2
        assert resumed.failures == []
        assert store.load_failures() == []
        assert store.completed_ids() == {s.scenario_id for s in self.GOOD}
        clean = self._runner().run_suite(self.GOOD)
        assert campaign_fingerprint(resumed) == campaign_fingerprint(clean)

    def test_interrupt_preserves_shards_and_resume_is_bit_identical(self, tmp_path):
        store_dir = tmp_path / "store"
        fired = []

        def interrupt_after_first_scenario(message):
            if message.startswith("[suite]") and not fired:
                fired.append(message)
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            self._runner(progress=interrupt_after_first_scenario).run_suite(
                self.GOOD, store=store_dir
            )
        store = CampaignStore(store_dir)
        assert store.completed_ids() == {self.GOOD[0].scenario_id}
        resumed = self._runner().run_suite(self.GOOD, store=store, resume=True)
        assert len(resumed) == 2
        clean = self._runner().run_suite(self.GOOD)
        assert campaign_fingerprint(resumed) == campaign_fingerprint(clean)

    def test_in_process_suite_evicts_golden_cache(self):
        self._runner().run_suite(self.GOOD)
        for scenario in self.GOOD:
            assert scenario.scenario_id not in _WORKER_CACHE

    def test_resume_without_store_runs_everything(self):
        database = self._runner().run_suite(self.GOOD, resume=True)
        assert len(database) == 2

    def test_fresh_run_refuses_populated_store(self, tmp_path):
        """A fresh run into an existing campaign store would leave stale
        shards behind, so it must raise instead of silently mixing."""
        store = CampaignStore(tmp_path / "store")
        self._runner().run_suite(self.GOOD, store=store)
        with pytest.raises(SimulatorError, match="already holds a campaign"):
            self._runner().run_suite(self.GOOD, store=store, resume=False)
        # continuing it explicitly is still fine
        database = self._runner().run_suite(self.GOOD, store=store, resume=True)
        assert len(database) == 2

    def test_assemble_failure_is_recorded_not_fatal(self, tmp_path):
        """A database collision surfaces as an 'assemble' ScenarioFailure."""
        prefilled = ResultsDatabase()
        prefilled.add_report(
            synthetic_report(app=self.GOOD[0].app, counts={"Vanished": 1})
        )
        store = CampaignStore(tmp_path / "store")
        result = self._runner().run_suite(self.GOOD, database=prefilled, store=store)
        # the second scenario still completed and was sharded
        assert self.GOOD[1].scenario_id in result
        assert self.GOOD[1].scenario_id in store.completed_ids()
        failures = {f.scenario_id: f for f in result.failures}
        assert failures[self.GOOD[0].scenario_id].phase == "assemble"
        assert failures[self.GOOD[0].scenario_id].error_type == "DuplicateReportError"

    @pytest.mark.parametrize("damage", ["truncated", "wrong-format"])
    def test_resume_reruns_an_unreadable_shard(self, tmp_path, damage):
        """A damaged shard counts as not completed: its scenario re-runs,
        its shard is rewritten, and the resumed database is the clean one."""
        store = CampaignStore(tmp_path / "store")
        self._runner().run_suite(self.GOOD, store=store)
        damaged = self.GOOD[0].scenario_id
        path = store.shard_path(damaged)
        if damage == "truncated":
            raw = path.read_bytes()
            path.write_bytes(raw[: len(raw) // 2])
        else:
            path.write_text(json.dumps({"format": -1, "report": {}}))
        messages = []
        resumed = self._runner(progress=messages.append).run_suite(
            self.GOOD, store=store, resume=True
        )
        assert any(m.startswith("[resume]") and damaged in m for m in messages)
        assert any(m.startswith("[skip]") and self.GOOD[1].scenario_id in m for m in messages)
        assert resumed.failures == []
        assert store.load_shard(damaged).counts == resumed.get(damaged).counts
        clean = self._runner().run_suite(self.GOOD)
        assert campaign_fingerprint(resumed) == campaign_fingerprint(clean)

    def test_fixed_count_runs_never_checkpoint(self, tmp_path):
        calls = []
        self._runner().run_one(self.GOOD[0], checkpoint=lambda *args: calls.append(args))
        assert calls == []
        store = CampaignStore(tmp_path / "store")
        self._runner().run_suite(self.GOOD, store=store)
        self._runner().run_leased(self.GOOD, store=tmp_path / "leased", owner="w0")
        assert store.partial_ids() == set()
        assert CampaignStore(tmp_path / "leased").partial_ids() == set()

    def test_filtered_resume_keeps_manifest_union(self, tmp_path):
        """Resuming a subset must not shrink the manifest's suite coverage."""
        store = CampaignStore(tmp_path / "store")
        self._runner().run_suite(self.GOOD, store=store)
        self._runner().run_suite(self.GOOD[:1], store=store, resume=True)
        manifest = store.read_manifest()
        assert manifest["scenario_ids"] == [s.scenario_id for s in self.GOOD]
        # and the full suite still resumes cleanly afterwards
        database = self._runner().run_suite(self.GOOD, store=store, resume=True)
        assert len(database) == 2


class TestCampaignStore:
    def test_shard_round_trip_is_lossless(self, tmp_path):
        config = CampaignConfig(faults_per_scenario=5, seed=7)
        report = CampaignRunner(config, workers=0).run_scenario(Scenario("IS", "serial", 1, "armv8"))
        store = CampaignStore(tmp_path / "store")
        store.write_shard(report)
        loaded = store.load_shard(report.scenario_id)
        assert loaded.to_payload() == report.to_payload()
        assert loaded.scenario == report.scenario
        assert [r.fault for r in loaded.results] == [r.fault for r in report.results]

    def test_no_temp_files_left_behind(self, tmp_path, synthetic_database):
        store = CampaignStore(tmp_path / "store")
        for report in synthetic_database.reports.values():
            store.write_shard(report)
        leftovers = [p for p in (tmp_path / "store").rglob("*") if p.name.startswith(".")]
        assert leftovers == []
        assert len(store.completed_ids()) == len(synthetic_database)

    def test_resume_rejects_mismatched_config(self, tmp_path):
        store = CampaignStore(tmp_path / "store")
        store.write_manifest(["A"], CampaignConfig(seed=1).as_dict(), None)
        store.check_resumable(["A"], CampaignConfig(seed=1).as_dict(), None)  # same: fine
        with pytest.raises(SimulatorError):
            store.check_resumable(["A"], CampaignConfig(seed=2).as_dict(), None)
        with pytest.raises(SimulatorError):
            store.check_resumable(["A"], CampaignConfig(seed=1).as_dict(), 99)

    def test_resume_mismatch_names_the_differing_keys(self, tmp_path):
        """The rejection must say *what* differs, not just that it does."""
        store = CampaignStore(tmp_path / "store")
        store.write_manifest(["A"], CampaignConfig(seed=1, watchdog_multiplier=4).as_dict(), 50)
        with pytest.raises(SimulatorError, match=r"seed: store has 1, requested 2"):
            store.check_resumable(["A"], CampaignConfig(seed=2, watchdog_multiplier=4).as_dict(), 50)
        with pytest.raises(SimulatorError, match=r"faults: store has 50, requested 99"):
            store.check_resumable(["A"], CampaignConfig(seed=1).as_dict(), 99)
        # several mismatches are all named
        with pytest.raises(SimulatorError, match=r"seed:.*watchdog_multiplier:") as excinfo:
            store.check_resumable(
                ["A"], CampaignConfig(seed=3, watchdog_multiplier=8).as_dict(), 50
            )
        assert "checkpoint_interval" not in str(excinfo.value)  # matching keys stay out

    def test_resume_rejects_unknown_scenarios(self, tmp_path):
        store = CampaignStore(tmp_path / "store")
        store.write_manifest(["A", "B"], CampaignConfig().as_dict(), None)
        store.check_resumable(["A"], CampaignConfig().as_dict(), None)  # subset: fine
        with pytest.raises(SimulatorError):
            store.check_resumable(["A", "C"], CampaignConfig().as_dict(), None)

    def test_failure_record_round_trip_and_clear(self, tmp_path):
        store = CampaignStore(tmp_path / "store")
        failure = ScenarioFailure("X", "inject", "RuntimeError", "boom", attempts=2)
        store.write_failure(failure)
        assert store.load_failures() == [failure]
        store.clear_failure("X")
        assert store.load_failures() == []


def _race_acquire(root, owner, barrier, queue):
    """Claim one fixed scenario from a separate process (fork target)."""
    store = CampaignStore(root)
    barrier.wait()
    lease = store.acquire_lease("RACED", owner, ttl=60.0)
    queue.put((owner, lease is not None))


def _race_claim_next(root, owner, barrier, queue):
    """Drain claim_next from a separate process (fork target)."""
    store = CampaignStore(root)
    barrier.wait()
    claimed = []
    while True:
        lease = store.claim_next(owner, ttl=60.0)
        if lease is None:
            break
        claimed.append(lease.scenario_id)
    queue.put((owner, claimed))


class TestScenarioLeases:
    """The store's lease protocol: atomic claims, expiry, reclaim."""

    def test_acquire_is_exclusive_and_release_frees(self, tmp_path):
        store = CampaignStore(tmp_path / "store")
        lease = store.acquire_lease("A", "w1", ttl=60.0, now=1000.0)
        assert lease is not None and lease.owner == "w1"
        assert store.acquire_lease("A", "w2", ttl=60.0) is None
        assert store.read_lease("A").owner == "w1"
        assert store.release_lease("A", "w2") is False  # not the holder
        assert store.release_lease("A", "w1") is True
        assert store.read_lease("A") is None
        assert store.acquire_lease("A", "w2", ttl=60.0) is not None

    def test_lease_round_trip_and_expiry(self, tmp_path):
        store = CampaignStore(tmp_path / "store")
        lease = store.acquire_lease("A", "w1", ttl=10.0, now=1000.0)
        assert lease == ScenarioLease.from_dict(lease.as_dict())
        assert not lease.expired(now=1009.9)
        assert lease.expired(now=1010.0)
        assert store.renew_lease("A", "w1", now=1008.0) is True
        renewed = store.read_lease("A")
        assert renewed.renewed_at == 1008.0 and renewed.acquired_at == 1000.0
        assert not renewed.expired(now=1017.9)  # renewal pushed expiry out

    def test_renew_fails_for_lost_or_foreign_lease(self, tmp_path):
        store = CampaignStore(tmp_path / "store")
        assert store.renew_lease("A", "w1") is False  # never acquired
        store.acquire_lease("A", "w1", ttl=60.0)
        assert store.renew_lease("A", "w2") is False  # different owner

    def test_two_processes_race_exactly_one_wins(self, tmp_path):
        context = pool_context("fork")
        barrier = context.Barrier(2)
        queue = context.Queue()
        processes = [
            context.Process(
                target=_race_acquire, args=(str(tmp_path / "store"), owner, barrier, queue)
            )
            for owner in ("w1", "w2")
        ]
        for process in processes:
            process.start()
        outcomes = dict(queue.get(timeout=30) for _ in processes)
        for process in processes:
            process.join(timeout=30)
        assert sorted(outcomes.values()) == [False, True]
        winner = next(owner for owner, won in outcomes.items() if won)
        store = CampaignStore(tmp_path / "store")
        assert store.read_lease("RACED").owner == winner

    def test_two_processes_partition_a_manifest(self, tmp_path):
        """claim_next across processes: every scenario claimed exactly once."""
        store = CampaignStore(tmp_path / "store")
        suite_ids = [f"S{i:02d}" for i in range(8)]
        store.write_manifest(suite_ids, CampaignConfig().as_dict(), None)
        context = pool_context("fork")
        barrier = context.Barrier(2)
        queue = context.Queue()
        processes = [
            context.Process(
                target=_race_claim_next, args=(str(tmp_path / "store"), owner, barrier, queue)
            )
            for owner in ("w1", "w2")
        ]
        for process in processes:
            process.start()
        results = dict(queue.get(timeout=30) for _ in processes)
        for process in processes:
            process.join(timeout=30)
        claimed = results["w1"] + results["w2"]
        assert sorted(claimed) == suite_ids  # no scenario lost or double-claimed
        assert not set(results["w1"]) & set(results["w2"])

    def test_expiry_reclaim_no_duplicate_shard(self, tmp_path):
        """A stalled worker's result is discarded after its lease expired."""
        store = CampaignStore(tmp_path / "store")
        report = synthetic_report(counts={"Vanished": 2})
        sid = report.scenario_id
        store.write_manifest([sid], CampaignConfig().as_dict(), None)
        assert store.acquire_lease(sid, "w1", ttl=10.0, now=1000.0) is not None
        # w1 goes silent; at now=1020 its lease is expired and w2's
        # claim_next reclaims + re-leases the scenario.
        lease = store.claim_next("w2", ttl=10.0, now=1020.0)
        assert lease is not None and lease.scenario_id == sid and lease.owner == "w2"
        assert store.renew_lease(sid, "w1") is False  # w1 has lost it
        # w2 finishes first and commits.
        assert store.commit_leased(report, "w2") is True
        assert store.completed_ids() == {sid}
        assert store.read_lease(sid) is None
        # the stalled w1 resurfaces with its own result: refused.
        assert store.commit_leased(report, "w1") is False
        shards = list((tmp_path / "store" / "shards").glob("*"))
        assert [p.name for p in shards] == [f"{sid}.json"]  # exactly one shard

    def test_reclaim_only_removes_expired_leases(self, tmp_path):
        store = CampaignStore(tmp_path / "store")
        store.acquire_lease("A", "w1", ttl=60.0, now=1000.0)
        assert store.reclaim_lease("A", now=1030.0) is False  # still live
        assert store.read_lease("A") is not None
        assert store.reclaim_lease("A", now=1060.0) is True
        assert store.read_lease("A") is None
        assert store.reclaim_lease("A", now=1060.0) is False  # already gone
        leftovers = [p for p in (tmp_path / "store" / "leases").iterdir()]
        assert leftovers == []  # no tombstones left behind

    def test_claim_next_skips_completed_and_live_leases(self, tmp_path):
        store = CampaignStore(tmp_path / "store")
        report = synthetic_report(counts={"Vanished": 1})
        store.write_manifest(
            [report.scenario_id, "B", "C"], CampaignConfig().as_dict(), None
        )
        store.write_shard(report)  # completed
        store.acquire_lease("B", "other", ttl=60.0)  # live lease
        lease = store.claim_next("me", ttl=60.0)
        assert lease is not None and lease.scenario_id == "C"
        assert store.claim_next("me", ttl=60.0) is None  # nothing left
        assert store.pending_ids() == ["B", "C"]

    def test_heartbeat_renews_and_detects_loss(self, tmp_path):
        store = CampaignStore(tmp_path / "store")
        store.acquire_lease("A", "w1", ttl=0.4)
        with LeaseHeartbeat(store, "A", "w1", ttl=0.4) as heartbeat:
            first = store.read_lease("A").renewed_at
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                if store.read_lease("A").renewed_at > first:
                    break
                time.sleep(0.02)
            assert store.read_lease("A").renewed_at > first
            assert heartbeat.lost is False
        # losing the lease flips the flag on the next beat
        with LeaseHeartbeat(store, "A", "w1", ttl=0.4) as heartbeat:
            store.release_lease("A", "w1")
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline and not heartbeat.lost:
                time.sleep(0.02)
            assert heartbeat.lost is True

    def test_torn_lease_file_reads_as_live(self, tmp_path):
        """An empty/half-written claim must never be treated as free."""
        store = CampaignStore(tmp_path / "store")
        store.leases_dir.mkdir(parents=True)
        store.lease_path("A").write_text("")  # caught between O_EXCL and write
        lease = store.read_lease("A")
        assert lease is not None and lease.owner == "?"
        assert not lease.expired(now=lease.renewed_at + 1.0)
        assert store.acquire_lease("A", "w1") is None  # still claimed

    def test_write_shard_atomic_under_concurrent_scan(self, tmp_path):
        """completed_ids readers never observe a torn or temp shard."""
        store = CampaignStore(tmp_path / "store")
        reports = [
            synthetic_report(app=f"A{i:02d}", counts={"Vanished": i + 1}) for i in range(30)
        ]
        errors = []
        seen = set()
        stop = threading.Event()

        def scan():
            while not stop.is_set():
                for scenario_id in store.completed_ids():
                    try:
                        loaded = store.load_shard(scenario_id)
                        assert loaded.scenario_id == scenario_id
                        seen.add(scenario_id)
                    except Exception as exc:  # noqa: BLE001 — the assertion target
                        errors.append(f"{scenario_id}: {exc}")
                        stop.set()

        scanner = threading.Thread(target=scan)
        scanner.start()
        try:
            for report in reports:
                store.write_shard(report)
        finally:
            time.sleep(0.05)  # let the scanner observe the final state
            stop.set()
            scanner.join(timeout=30)
        assert errors == []
        assert store.completed_ids() == {report.scenario_id for report in reports}
        assert seen  # the scanner really ran against in-flight writes


class TestRunLeased:
    """The lease-driven suite driver (direct shared-filesystem mode)."""

    SCENARIOS = [Scenario("IS", "serial", 1, "armv8"), Scenario("EP", "serial", 1, "armv8")]

    def _runner(self, **kwargs):
        config = CampaignConfig(faults_per_scenario=6, seed=3)
        return CampaignRunner(config, workers=0, faults_per_job=3, **kwargs)

    def test_leased_run_matches_local_suite(self, tmp_path):
        store = CampaignStore(tmp_path / "store")
        leased = self._runner().run_leased(self.SCENARIOS, store, owner="w1")
        assert len(leased) == len(self.SCENARIOS)
        assert store.completed_ids() == {s.scenario_id for s in self.SCENARIOS}
        assert store.active_leases() == []
        clean = self._runner().run_suite(self.SCENARIOS)
        assert campaign_fingerprint(leased) == campaign_fingerprint(clean)

    def test_two_sequential_workers_partition_the_suite(self, tmp_path):
        store = CampaignStore(tmp_path / "store")
        # worker 1 takes everything; worker 2 arrives late and finds no work
        first = self._runner().run_leased(self.SCENARIOS, store, owner="w1")
        second = self._runner().run_leased(self.SCENARIOS, store, owner="w2")
        assert len(first) == 2 and len(second) == 0
        assert store.completed_ids() == {s.scenario_id for s in self.SCENARIOS}

    def test_leased_failure_recorded_and_lease_released(self, tmp_path):
        bad = Scenario("ZZ", "serial", 1, "armv8")
        store = CampaignStore(tmp_path / "store")
        database = self._runner().run_leased([bad, self.SCENARIOS[0]], store, owner="w1")
        assert len(database) == 1
        assert [f.scenario_id for f in database.failures] == [bad.scenario_id]
        assert store.load_failures()[0].phase == "run"
        assert store.active_leases() == []  # the failed scenario's lease was freed

    def test_leased_run_rejects_mismatched_store(self, tmp_path):
        store = CampaignStore(tmp_path / "store")
        store.write_manifest(
            [s.scenario_id for s in self.SCENARIOS],
            CampaignConfig(faults_per_scenario=6, seed=999).as_dict(),
            None,
        )
        with pytest.raises(SimulatorError, match="seed"):
            self._runner().run_leased(self.SCENARIOS, store)


class TestResultsDatabase:
    def test_queries(self, synthetic_database):
        assert len(synthetic_database) > 0
        assert "IS-MPI-4-armv7" in synthetic_database
        report = synthetic_database.get("IS-MPI-4-armv7")
        assert report.scenario.cores == 4
        selected = synthetic_database.select(app="IS", isa="armv7", mode="mpi")
        assert {r.scenario.cores for r in selected} == {1, 2, 4}
        totals = synthetic_database.outcome_totals()
        assert totals["Vanished"] > 0

    def test_scenario_records_flat(self, synthetic_database):
        records = synthetic_database.scenario_records()
        assert all("pct_UT" in record and "scenario_id" in record for record in records)

    def test_save_and_load_json(self, synthetic_database, tmp_path):
        path = synthetic_database.save_json(tmp_path / "campaign.json")
        payload = ResultsDatabase.load_json(path)
        assert len(payload["scenarios"]) == len(synthetic_database)
        with path.open() as handle:
            assert json.load(handle)["scenarios"]

    def test_export_csv(self, synthetic_database, tmp_path):
        path = synthetic_database.export_csv(tmp_path / "campaign.csv")
        lines = path.read_text().strip().splitlines()
        assert len(lines) == len(synthetic_database) + 1
        assert lines[0].startswith("scenario_id")

    def test_empty_database(self, tmp_path):
        database = ResultsDatabase()
        assert database.total_injections() == 0
        path = database.export_csv(tmp_path / "empty.csv")
        assert path.read_text() == ""

    def test_export_csv_quotes_commas_and_newlines(self, tmp_path):
        """Regression: raw join corrupted any field containing a comma."""
        import csv as csv_module

        report = synthetic_report(
            counts={"Vanished": 3, "UT": 1},
            stats={"note": "a,b", "multiline": "line1\nline2", "plain": 1.5},
        )
        database = ResultsDatabase()
        database.add_report(report)
        path = database.export_csv(tmp_path / "campaign.csv")
        with path.open(newline="") as handle:
            rows = list(csv_module.DictReader(handle))
        assert len(rows) == 1
        assert rows[0]["stat_note"] == "a,b"
        assert rows[0]["stat_multiline"] == "line1\nline2"
        assert rows[0]["stat_plain"] == "1.5"
        assert rows[0]["scenario_id"] == "IS-SER-1-armv8"

    def test_add_report_rejects_duplicates(self, synthetic_database):
        report = next(iter(synthetic_database.reports.values()))
        with pytest.raises(DuplicateReportError):
            synthetic_database.add_report(report)
        before = len(synthetic_database)
        synthetic_database.add_report(report, replace=True)  # explicit escape hatch
        assert len(synthetic_database) == before

    def test_load_round_trips_queryable_database(self, synthetic_database, tmp_path):
        path = synthetic_database.save_json(tmp_path / "campaign.json")
        loaded = ResultsDatabase.load(path)
        assert len(loaded) == len(synthetic_database)
        assert loaded.outcome_totals() == synthetic_database.outcome_totals()
        assert loaded.total_injections() == synthetic_database.total_injections()
        report = loaded.get("IS-MPI-4-armv7")
        assert report is not None and report.scenario.cores == 4
        selected = loaded.select(app="IS", isa="armv7", mode="mpi")
        assert {r.scenario.cores for r in selected} == {1, 2, 4}
        # flat records survive the round trip exactly
        assert loaded.to_dict() == synthetic_database.to_dict()

    def test_load_reattaches_injections(self, tmp_path):
        config = CampaignConfig(faults_per_scenario=5, seed=13)
        report = CampaignRunner(config, workers=0).run_scenario(Scenario("IS", "serial", 1, "armv8"))
        database = ResultsDatabase()
        database.add_report(report)
        path = database.save_json(tmp_path / "full.json", include_injections=True)
        loaded = ResultsDatabase.load(path)
        loaded_report = loaded.get(report.scenario_id)
        assert len(loaded_report.results) == len(report.results)
        assert [r.fault for r in loaded_report.results] == [r.fault for r in report.results]
        assert [r.outcome for r in loaded_report.results] == [r.outcome for r in report.results]
        assert loaded.injection_records() == database.injection_records()

    def test_load_round_trips_job_failures(self, tmp_path, monkeypatch):
        """Regression: failed-job records must survive save_json -> load."""
        real_execute = runner_module.execute_job

        def poisoned(job):
            if job.job_id == 0:
                raise RuntimeError("poisoned job")
            return real_execute(job)

        monkeypatch.setattr(runner_module, "execute_job", poisoned)
        config = CampaignConfig(faults_per_scenario=8, seed=21)
        report = CampaignRunner(config, workers=0, faults_per_job=4, job_retries=0).run_scenario(
            Scenario("IS", "serial", 1, "armv8")
        )
        assert len(report.job_failures) == 1
        database = ResultsDatabase()
        database.add_report(report)
        loaded = ResultsDatabase.load(database.save_json(tmp_path / "failed.json"))
        loaded_report = loaded.get(report.scenario_id)
        assert loaded_report.job_failures == report.job_failures
        assert loaded_report.as_record()["failed_jobs"] == 1
        assert loaded.to_dict() == database.to_dict()

    def test_load_reconstructs_target_mix_scenarios(self, tmp_path):
        scenario = Scenario("IS", "serial", 1, "armv8").with_target_mix(
            {"gpr": 0.5, "memory": 0.5}
        )
        report = synthetic_report(counts={"Vanished": 2})
        report.scenario = scenario
        report.target_mix_label = scenario.target_mix_label
        database = ResultsDatabase()
        database.add_report(report)
        rebuilt = ResultsDatabase.load(database.save_json(tmp_path / "mix.json")).get(
            scenario.scenario_id
        )
        assert rebuilt.scenario == scenario
        assert rebuilt.scenario_id == scenario.scenario_id


    def test_load_rejects_summary_without_lossless_section(self, synthetic_database, tmp_path):
        path = synthetic_database.save_json(tmp_path / "campaign.json")
        payload = json.loads(path.read_text())
        del payload["reports"]
        path.write_text(json.dumps(payload))
        with pytest.raises(SimulatorError, match="'reports'"):
            ResultsDatabase.load(path)

    def test_save_json_writes_each_injection_once(self, tmp_path):
        config = CampaignConfig(faults_per_scenario=5, seed=13)
        report = CampaignRunner(config, workers=0).run_scenario(Scenario("IS", "serial", 1, "armv8"))
        database = ResultsDatabase()
        database.add_report(report)
        payload = ResultsDatabase.load_json(
            database.save_json(tmp_path / "full.json", include_injections=True)
        )
        assert len(payload["injections"]) == len(report.results)
        assert all("results" not in lossless for lossless in payload["reports"])
        # the flat view is exactly to_dict: mining readers see no change
        assert {k: v for k, v in payload.items() if k != "reports"} == json.loads(
            json.dumps(database.to_dict(include_injections=True))
        )


class TestRecordOrderContract:
    """The order each driver records results in (docs/orchestration.md).

    Downstream fingerprint shas pin these orders; a merge of the fixed
    and adaptive loops that changed one must fail here.
    """

    SCENARIO = Scenario("IS", "serial", 1, "armv8")
    CONFIG = CampaignConfig(faults_per_scenario=24, seed=2018)

    def test_runner_fixed_path_records_in_job_order(self):
        report = CampaignRunner(self.CONFIG, workers=0, faults_per_job=5).run_scenario(
            self.SCENARIO
        )
        keys = [(r.fault.injection_time, r.fault.fault_id) for r in report.results]
        assert keys == sorted(keys)
        ids = [r.fault.fault_id for r in report.results]
        assert ids != sorted(ids)  # the two orders really differ here

    def test_reference_fixed_driver_records_in_fault_id_order(self):
        report = ScenarioCampaign(self.SCENARIO, self.CONFIG).run()
        assert [r.fault.fault_id for r in report.results] == list(range(24))

    def test_adaptive_batches_record_in_fault_id_order(self):
        plan = SamplingPlan(target_half_width=0.2, min_faults=32, max_faults=64, batch_size=16)
        reference = ScenarioCampaign(self.SCENARIO, self.CONFIG).run_adaptive(plan)
        pooled = CampaignRunner(self.CONFIG, workers=0, faults_per_job=5, plan=plan).run_scenario(
            self.SCENARIO
        )
        job_ordered_batches = 0
        for report in (reference, pooled):
            offset = 0
            for batch in report.adaptive["batches"]:
                chunk = report.results[offset : offset + batch["size"]]
                offset += batch["size"]
                ids = [r.fault.fault_id for r in chunk]
                assert ids == sorted(ids)
                by_time = sorted(chunk, key=lambda r: (r.fault.injection_time, r.fault.fault_id))
                job_ordered_batches += by_time != chunk
            assert offset == len(report.results)
        assert job_ordered_batches  # the job order would have differed
        assert [r.fault for r in pooled.results] == [r.fault for r in reference.results]


class TestThroughputReporting:
    """--throughput plumbing: guest MIPS and per-scenario wall time."""

    def test_suite_line_carries_guest_mips(self):
        messages = []
        config = CampaignConfig(faults_per_scenario=8, keep_individual_results=False)
        runner = CampaignRunner(
            config, workers=0, progress=messages.append, throughput=True
        )
        runner.run_suite([Scenario("IS", "serial", 1, "armv8")])
        assert runner.guest_instructions > 0
        guest, wall = runner.last_scenario_throughput
        assert guest > 0 and wall > 0
        suite_lines = [m for m in messages if m.startswith("[suite]")]
        assert suite_lines
        assert any("guest MIPS" in line for line in suite_lines)
        assert any("last scenario" in line for line in suite_lines)

    def test_throughput_off_keeps_line_clean(self):
        messages = []
        config = CampaignConfig(faults_per_scenario=8, keep_individual_results=False)
        runner = CampaignRunner(config, workers=0, progress=messages.append)
        runner.run_suite([Scenario("IS", "serial", 1, "armv8")])
        assert runner.guest_instructions > 0  # tracked either way
        assert not any("guest MIPS" in m for m in messages)
