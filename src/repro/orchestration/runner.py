"""Campaign runner: a resilient, resumable, pipelined suite engine.

Phases one and two (golden run, fault list) execute in the parent
process because they are common to all injections of a scenario; phase
three (the injections) fans out over worker processes; phase four
(assembling the database) runs back in the parent.

Suite-scale orchestration is built around four ideas:

**Persistent pool.**  One worker pool lives for the whole suite.  Each
worker keeps a small keyed cache of golden references
(:class:`GoldenCache`); the parent broadcasts an explicit *install*
message when a scenario starts and an *evict* message when it ends,
instead of tearing the pool down between scenarios.  Broadcast delivery
is barrier-coordinated but never load-bearing: every job carries a
spool-file reference (:attr:`CampaignJob.golden_ref`), so a worker that
missed the broadcast lazily loads the golden it needs.

**Pipelined phases.**  While scenario N's injection jobs drain on the
pool, scenario N+1's golden run executes on a background thread.  The
parent is idle while waiting on the pool (the workers are separate
processes), so the golden phase no longer serialises the suite.

**Streaming persistence and resume.**  With a
:class:`~repro.orchestration.store.CampaignStore`, every finished
scenario is written to its own shard atomically; ``resume=True`` skips
scenarios whose shards exist and retries recorded failures.  An
exception in one scenario becomes a structured
:class:`~repro.orchestration.store.ScenarioFailure` and the suite
continues; a ``KeyboardInterrupt`` stops the suite but all completed
shards stay on disk.

**Per-job fault isolation.**  Jobs run through ``imap_unordered`` with
per-job error capture and bounded retry; a single poisoned job is
recorded in the report's ``job_failures`` instead of discarding the
scenario's other results.  Assembly sorts by job id, so the report is
deterministic regardless of worker scheduling.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import pickle
import tempfile
import threading
import time
from collections import OrderedDict
from pathlib import Path
from typing import Callable, Iterable, Optional, Union

from repro.errors import SimulatorError
from repro.injection.campaign import CampaignConfig, ScenarioCampaign, ScenarioReport, summarize
from repro.injection.golden import GoldenRunResult
from repro.injection.injector import FaultInjector, InjectionResult
from repro.npb.suite import Scenario
from repro.orchestration.database import ResultsDatabase
from repro.orchestration.jobs import CampaignJob, JobBatcher
from repro.orchestration.store import (
    DEFAULT_LEASE_TTL,
    CampaignStore,
    LeaseHeartbeat,
    ScenarioFailure,
)
from repro.stats.controller import AdaptiveController
from repro.stats.plan import SamplingPlan
from repro.stats.prior import MinedPrior

#: How long a control broadcast waits for every worker to rendezvous.
#: Broadcasts happen at scenario boundaries when the pool is idle, so
#: hitting this means a worker is wedged; the suite then falls back to
#: lazy spool-file loading rather than failing.
CONTROL_BARRIER_TIMEOUT = 60.0


class GoldenCache:
    """Keyed per-worker cache of golden references, LRU-bounded.

    One instance lives at module level in every worker process (and in
    the parent for in-process execution).  ``capacity`` stays small —
    with pipelining at most two scenarios are in flight, so two entries
    bound worker memory no matter how long the suite is.
    """

    def __init__(self, capacity: int = 2) -> None:
        if capacity < 1:
            raise SimulatorError(f"invalid golden cache capacity {capacity}")
        self.capacity = capacity
        self._entries: "OrderedDict[str, GoldenRunResult]" = OrderedDict()

    def install(self, scenario_id: str, golden: GoldenRunResult) -> None:
        self._entries[scenario_id] = golden
        self._entries.move_to_end(scenario_id)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def load(self, scenario_id: str, path: str) -> GoldenRunResult:
        with open(path, "rb") as handle:
            golden = pickle.load(handle)
        self.install(scenario_id, golden)
        return golden

    def evict(self, scenario_id: str) -> None:
        self._entries.pop(scenario_id, None)

    def get(self, scenario_id: str) -> Optional[GoldenRunResult]:
        golden = self._entries.get(scenario_id)
        if golden is not None:
            self._entries.move_to_end(scenario_id)
        return golden

    def clear(self) -> None:
        self._entries.clear()

    def ids(self) -> list[str]:
        return list(self._entries)

    def __contains__(self, scenario_id: str) -> bool:
        return scenario_id in self._entries

    def __len__(self) -> int:
        return len(self._entries)


#: Per-process golden cache (worker processes and in-process execution).
_WORKER_CACHE = GoldenCache()

#: Barrier shared by all pool workers, used to deliver exactly one
#: control message per worker; ``None`` outside pool workers.
_WORKER_BARRIER = None


def _init_worker(barrier=None, cache_capacity: int = 2) -> None:
    """Pool initializer: reset this worker's golden cache.

    Runs once per worker for the lifetime of the *suite* (not per
    scenario); goldens arrive later through install broadcasts or lazy
    spool loads.
    """
    global _WORKER_BARRIER
    _WORKER_BARRIER = barrier
    _WORKER_CACHE.capacity = cache_capacity
    _WORKER_CACHE.clear()


def install_golden(scenario_id: str, golden: GoldenRunResult) -> None:
    """Install one golden reference in this process's keyed cache."""
    _WORKER_CACHE.install(scenario_id, golden)


def evict_golden(scenario_id: str) -> None:
    """Drop one golden reference from this process's keyed cache."""
    _WORKER_CACHE.evict(scenario_id)


def _worker_control(message: tuple) -> int:
    """Apply one install/evict control message in a worker.

    The message is applied *before* the barrier rendezvous, so delivery
    hiccups (a broken barrier, a worker taking two messages because a
    peer was slow) degrade to harmless duplicate application — install
    and evict are idempotent, and a missed install is covered by the
    jobs' lazy spool-file fallback.
    """
    kind = message[0]
    if kind == "install":
        _, scenario_id, path = message
        if scenario_id not in _WORKER_CACHE:
            try:
                _WORKER_CACHE.load(scenario_id, path)
            except FileNotFoundError:
                pass  # stale broadcast: the scenario already finished
    elif kind == "evict":
        _WORKER_CACHE.evict(message[1])
    else:
        raise SimulatorError(f"unknown worker control message {message!r}")
    if _WORKER_BARRIER is not None:
        try:
            _WORKER_BARRIER.wait(timeout=CONTROL_BARRIER_TIMEOUT)
        except threading.BrokenBarrierError:
            pass  # a peer timed out; the message was applied regardless
    return os.getpid()


def resolve_golden(job: CampaignJob) -> GoldenRunResult:
    """The golden reference for ``job``: inline, cached, or spooled."""
    if job.golden is not None:
        return job.golden
    golden = _WORKER_CACHE.get(job.scenario.scenario_id)
    if golden is not None:
        return golden
    if job.golden_ref is not None:
        try:
            return _WORKER_CACHE.load(job.scenario.scenario_id, job.golden_ref)
        except FileNotFoundError as exc:
            raise SimulatorError(
                f"golden spool file for {job.scenario.scenario_id} disappeared: {exc}"
            ) from exc
    raise SimulatorError(
        f"no golden reference for {job.scenario.scenario_id}: job carries none "
        "and the worker cache has no entry for it"
    )


def execute_job(job: CampaignJob) -> list[InjectionResult]:
    """Execute one batch of injections (runs inside a worker process)."""
    allowed = job.allowed_target_kinds()
    if allowed is not None:
        for fault in job.faults:
            if fault.target_kind not in allowed:
                raise SimulatorError(
                    f"job {job.job_id} carries a {fault.target_kind!r} fault but its "
                    f"target mix only permits {sorted(allowed)}"
                )
    injector = FaultInjector(
        job.scenario, resolve_golden(job), watchdog_multiplier=job.watchdog_multiplier
    )
    return injector.run_many(job.faults)


def _execute_job_guarded(job: CampaignJob):
    """Run one job, capturing any exception instead of raising.

    Returns ``(job_id, results, None)`` on success and
    ``(job_id, None, "ErrorType: message")`` on failure, so a poisoned
    job cannot sink the other jobs sharing its ``imap`` stream.
    ``KeyboardInterrupt`` is deliberately not captured.
    """
    try:
        return job.job_id, execute_job(job), None
    except Exception as exc:  # noqa: BLE001 — the whole point is capture
        return job.job_id, None, f"{type(exc).__name__}: {exc}"


def _drain_jobs(
    jobs: list[CampaignJob],
    submit: Callable[[list[CampaignJob]], Iterable[tuple]],
    retries: int,
    progress: Callable[[str], None] = lambda message: None,
) -> tuple[list[InjectionResult], list[dict]]:
    """Collect guarded job executions with bounded retry.

    ``submit`` maps a job list to an iterable of guarded result tuples
    (``imap_unordered`` on a pool, a plain ``map`` in process).  Failed
    jobs are resubmitted up to ``retries`` extra rounds; whatever still
    fails becomes a structured entry of the report's ``job_failures``.
    Results are assembled in job-id order, so the outcome is
    deterministic no matter how workers interleave.
    """
    by_id = {job.job_id: job for job in jobs}
    chunks: dict[int, list[InjectionResult]] = {}
    errors: dict[int, str] = {}
    attempts: dict[int, int] = {}
    outstanding = list(jobs)
    for round_index in range(max(0, retries) + 1):
        failed_ids: list[int] = []
        for job_id, results, error in submit(outstanding):
            attempts[job_id] = attempts.get(job_id, 0) + 1
            if error is None:
                chunks[job_id] = results
                errors.pop(job_id, None)
            else:
                errors[job_id] = error
                failed_ids.append(job_id)
        if not failed_ids:
            break
        outstanding = [by_id[job_id] for job_id in sorted(failed_ids)]
        if round_index < retries:
            progress(f"[retry]  {len(outstanding)} job(s) failed, retrying")
    failures = [
        {
            "job_id": job_id,
            "faults": len(by_id[job_id].faults),
            "error": errors[job_id],
            "attempts": attempts[job_id],
        }
        for job_id in sorted(errors)
    ]
    results = [result for job_id in sorted(chunks) for result in chunks[job_id]]
    return results, failures


class GoldenPrefetch:
    """One golden run computed ahead of time on a daemon thread.

    A plain ``ThreadPoolExecutor`` would be joined at interpreter exit,
    so a Ctrl-C during a suite would silently wait for the in-flight
    golden run of the *next* scenario to finish — minutes, at paper
    scale.  A daemon thread dies with the process instead; the suite's
    interrupt contract ("completed shards are preserved, stop now")
    costs at most the current scenario, never the prefetched one.
    """

    def __init__(self, compute: Callable[[Scenario], ScenarioCampaign], scenario: Scenario) -> None:
        self._done = threading.Event()
        self._result: Optional[ScenarioCampaign] = None
        self._error: Optional[BaseException] = None
        self._thread = threading.Thread(
            target=self._run,
            args=(compute, scenario),
            name=f"golden-prefetch-{scenario.scenario_id}",
            daemon=True,
        )
        self._thread.start()

    def _run(self, compute: Callable[[Scenario], ScenarioCampaign], scenario: Scenario) -> None:
        try:
            self._result = compute(scenario)
        except BaseException as exc:  # noqa: BLE001 — re-raised in result()
            self._error = exc
        finally:
            self._done.set()

    def result(self) -> ScenarioCampaign:
        self._done.wait()
        if self._error is not None:
            raise self._error
        return self._result


def pool_context(start_method: Optional[str] = None):
    """A multiprocessing context, falling back to spawn-safe methods.

    ``fork`` is the cheapest start method (workers inherit the parent's
    compiled program cache), but it is unavailable on some platforms
    (Windows; macOS defaults away from it).  When no method is forced,
    fall back through ``fork`` → ``forkserver`` → ``spawn`` → the
    platform default.
    """
    if start_method is not None:
        return multiprocessing.get_context(start_method)
    for method in ("fork", "forkserver", "spawn"):
        try:
            return multiprocessing.get_context(method)
        except ValueError:
            continue
    return multiprocessing.get_context()


class PersistentSuitePool:
    """A worker pool that lives for a whole suite run.

    Golden references are spooled to a temp directory once per scenario
    and announced to the workers with an install broadcast; an evict
    broadcast (plus spool-file removal) ends the scenario.  The barrier
    guarantees each worker takes exactly one control message per
    broadcast under normal operation; when a rendezvous fails the pool
    keeps going, because jobs can always load the spool file themselves.
    """

    def __init__(
        self,
        workers: int,
        start_method: Optional[str] = None,
        cache_capacity: int = 2,
        progress: Callable[[str], None] = lambda message: None,
    ) -> None:
        if workers < 2:
            raise SimulatorError(f"PersistentSuitePool needs >= 2 workers, got {workers}")
        self.workers = workers
        self.progress = progress
        context = pool_context(start_method)
        self._barrier = context.Barrier(workers)
        self._spool = tempfile.TemporaryDirectory(prefix="repro-golden-spool-")
        self.pool = context.Pool(
            processes=workers,
            initializer=_init_worker,
            initargs=(self._barrier, cache_capacity),
        )

    # ------------------------------------------------------------------

    def spool_path(self, scenario_id: str) -> str:
        return os.path.join(self._spool.name, f"{scenario_id}.golden.pickle")

    def broadcast(self, message: tuple, timeout: float = CONTROL_BARRIER_TIMEOUT) -> bool:
        """Deliver one control message to every worker (best effort)."""
        handles = [self.pool.apply_async(_worker_control, (message,)) for _ in range(self.workers)]
        deadline = time.monotonic() + timeout + 5.0
        delivered = True
        for handle in handles:
            try:
                handle.get(timeout=max(0.1, deadline - time.monotonic()))
            except multiprocessing.TimeoutError:
                delivered = False
        if not delivered:
            self._barrier.reset()  # unstick any waiters; lazy loads cover the miss
            self.progress(f"[pool]   control broadcast {message[0]!r} timed out; relying on lazy loads")
        return delivered

    def install(self, scenario_id: str, golden: GoldenRunResult) -> str:
        """Spool one golden reference and announce it to the workers."""
        path = self.spool_path(scenario_id)
        with open(path, "wb") as handle:
            pickle.dump(golden, handle, protocol=pickle.HIGHEST_PROTOCOL)
        self.broadcast(("install", scenario_id, path))
        return path

    def evict(self, scenario_id: str) -> None:
        """Drop one scenario's golden from the workers and the spool."""
        self.broadcast(("evict", scenario_id))
        path = self.spool_path(scenario_id)
        if os.path.exists(path):
            os.unlink(path)

    def run_jobs(
        self,
        jobs: list[CampaignJob],
        retries: int = 1,
        progress: Callable[[str], None] = lambda message: None,
    ) -> tuple[list[InjectionResult], list[dict]]:
        return _drain_jobs(
            jobs,
            lambda outstanding: self.pool.imap_unordered(_execute_job_guarded, outstanding),
            retries,
            progress,
        )

    # ------------------------------------------------------------------

    def close(self) -> None:
        self.pool.close()
        self.pool.join()
        self._spool.cleanup()

    def terminate(self) -> None:
        self.pool.terminate()
        self.pool.join()
        self._spool.cleanup()

    def __enter__(self) -> "PersistentSuitePool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:
            self.terminate()


def prepare_store(
    store: CampaignStore,
    suite_ids: list[str],
    config_dict: dict,
    faults: Optional[int],
    resume: bool,
    plan: Optional[dict] = None,
) -> dict[str, int]:
    """Validate and (re)write a store's manifest for a campaign run.

    The shared entry protocol of every driver — the local suite loop,
    lease-mode workers and the coordinator service all pass through
    here, so they enforce identical rules: a resume must match the
    stored configuration (mismatching keys are named in the error), a
    filtered resume keeps the manifest's scenario-id union, and a fresh
    run refuses a store that already holds a campaign.  Returns the
    prior failure-attempt counts (empty unless resuming).
    """
    prior_attempts: dict[str, int] = {}
    if resume:
        store.check_resumable(suite_ids, config_dict, faults, plan=plan)
        prior_attempts = {
            failure.scenario_id: failure.attempts for failure in store.load_failures()
        }
        # A filtered resume must not shrink the manifest: keep the
        # union so the full suite can still resume later.
        manifest = store.read_manifest()
        if manifest is not None:
            stored_ids = list(manifest.get("scenario_ids", []))
            known = set(stored_ids)
            suite_ids = stored_ids + [sid for sid in suite_ids if sid not in known]
    elif store.read_manifest() is not None:
        # A fresh run into a populated store would leave stale shards
        # from the previous campaign behind; a later resume would then
        # silently mix the two result sets.
        raise SimulatorError(
            f"campaign store {store.root} already holds a campaign; pass "
            "resume=True to continue it, or point at a fresh directory"
        )
    store.write_manifest(suite_ids, config_dict, faults, plan=plan)
    return prior_attempts


class CampaignRunner:
    """Runs fault-injection campaigns over many scenarios.

    Parameters
    ----------
    config:
        Campaign configuration (faults per scenario, seeds, watchdog,
        checkpoint interval).
    workers:
        Number of worker processes; 0 or 1 selects in-process execution.
    faults_per_job:
        Batch size used by the job batcher.
    start_method:
        Multiprocessing start method; ``None`` auto-selects (fork where
        available, spawn otherwise).
    job_retries:
        Extra execution rounds granted to failed jobs before they are
        recorded as ``job_failures`` on the scenario report.
    golden_cache_capacity:
        Entries kept in each worker's keyed golden cache.
    throughput:
        Report aggregate guest MIPS (injected-run guest instructions
        per wall second, summed across workers) and the last scenario's
        wall time in the suite progress/ETA line, so campaign speed
        regressions are visible from the CLI.
    plan:
        A :class:`~repro.stats.plan.SamplingPlan` switches every driver
        (run_one/run_suite/run_leased) into *adaptive* mode: instead of
        a fixed fault count, each scenario draws CI-driven batches from
        its canonical fault stream until the plan's stopping rule fires.
    prior:
        Optional :class:`~repro.stats.prior.MinedPrior` steering the
        adaptive allocation.  Must be identical across distributed
        workers (mine it from a *completed* store, never the one in
        flight) or their draws diverge.
    """

    def __init__(
        self,
        config: Optional[CampaignConfig] = None,
        workers: int = 0,
        faults_per_job: int = 16,
        progress: Optional[Callable[[str], None]] = None,
        start_method: Optional[str] = None,
        job_retries: int = 1,
        golden_cache_capacity: int = 2,
        throughput: bool = False,
        plan: Optional[SamplingPlan] = None,
        prior: Optional[MinedPrior] = None,
    ) -> None:
        self.config = config or CampaignConfig()
        self.plan = plan
        self.prior = prior
        self.workers = workers
        self.start_method = start_method
        self.batcher = JobBatcher(faults_per_job=faults_per_job)
        self.progress = progress or (lambda message: None)
        self.job_retries = job_retries
        self.golden_cache_capacity = golden_cache_capacity
        self.throughput = throughput
        #: guest instructions executed by this runner's injection runs
        #: (reset per run_suite; exposed for tests/tooling)
        self.guest_instructions = 0
        #: (guest_instructions, wall_seconds) of the last scenario
        self.last_scenario_throughput: Optional[tuple[int, float]] = None

    @property
    def plan_dict(self) -> Optional[dict]:
        """The plan as store manifests record it; None for fixed counts."""
        return self.plan.as_dict() if self.plan is not None else None

    # ------------------------------------------------------------------
    # building blocks
    # ------------------------------------------------------------------

    @contextlib.contextmanager
    def _pool_scope(self):
        """A pool for the enclosed work, or ``None`` for in-process runs."""
        if self.workers and self.workers > 1:
            with PersistentSuitePool(
                self.workers,
                start_method=self.start_method,
                cache_capacity=self.golden_cache_capacity,
                progress=self.progress,
            ) as pool:
                yield pool
        else:
            yield None

    def _compute_golden(self, scenario: Scenario) -> ScenarioCampaign:
        """Phase one for one scenario (also runs on the prefetch thread)."""
        self.progress(f"[golden] {scenario.scenario_id}")
        campaign = ScenarioCampaign(scenario, self.config)
        campaign.run_golden()
        return campaign

    def _drain_fault_list(
        self,
        scenario: Scenario,
        fault_list,
        pool: Optional[PersistentSuitePool],
        campaign: ScenarioCampaign,
        golden_ref: Optional[str],
    ) -> tuple[list[InjectionResult], list[dict]]:
        """Batch one fault list into jobs and drain them; returns
        (results, job_failures) in job order."""
        jobs = self.batcher.batch(
            scenario,
            None,
            fault_list,
            watchdog_multiplier=self.config.watchdog_multiplier,
            target_mix=campaign.resolved_target_mix(),
            golden_ref=golden_ref,
        )
        self.progress(
            f"[inject] {scenario.scenario_id}: {len(fault_list)} faults in {len(jobs)} jobs, "
            f"{len(campaign.golden.checkpoints)} checkpoints"
        )
        if pool is not None:
            return pool.run_jobs(jobs, self.job_retries, self.progress)
        return _drain_jobs(
            jobs,
            lambda outstanding: map(_execute_job_guarded, outstanding),
            self.job_retries,
            self.progress,
        )

    def _run_adaptive(
        self,
        scenario: Scenario,
        pool: Optional[PersistentSuitePool],
        campaign: ScenarioCampaign,
        golden_ref: Optional[str],
        partial: Optional[dict],
        checkpoint: Optional[Callable[[str, dict], None]],
    ) -> tuple[list[InjectionResult], AdaptiveController]:
        """Adaptive injection phase: drain controller batches on the pool.

        Batch results are recorded in ``fault_id`` order — the canonical
        order of :meth:`ScenarioCampaign.run_adaptive` — so every driver
        (in-process, pooled, leased) produces bit-identical tallies and
        draws.  A failed job inside a batch fails the whole scenario:
        the controller's accounting assumes complete batches, and a
        silently short batch would skew every later draw.

        ``partial`` replays a stored checkpoint before drawing anything
        new; ``checkpoint(scenario_id, payload)`` persists one after
        every unconverged batch.
        """
        scenario_id = scenario.scenario_id
        controller = AdaptiveController(campaign=campaign, plan=self.plan, prior=self.prior)
        results: list[InjectionResult] = []
        if partial is not None:
            restored = [InjectionResult.from_record(r) for r in partial.get("results", [])]
            controller.restore(partial.get("batches", []), restored)
            results.extend(restored)
            self.progress(
                f"[adapt]  {scenario_id}: restored {len(controller.batches)} batch(es), "
                f"{controller.spent} faults spent"
            )
        while True:
            batch = controller.next_batch()
            if batch is None:
                break
            batch_results, job_failures = self._drain_fault_list(
                scenario, batch.faults, pool, campaign, golden_ref
            )
            if job_failures:
                raise SimulatorError(
                    f"adaptive batch {batch.index} of {scenario_id} lost "
                    f"{len(job_failures)} job(s) ({job_failures[0]['error']}); "
                    "adaptive accounting requires complete batches"
                )
            batch_results = sorted(batch_results, key=lambda r: r.fault.fault_id)
            record = controller.record_batch(batch, batch_results)
            results.extend(batch_results)
            self.progress(
                f"[adapt]  {scenario_id}: batch {record['index']} ({record['size']} faults), "
                f"spent {controller.spent}, half-width {record['half_width']:.4f}"
                + (f", stop: {record['stopping']}" if record["stopping"] else "")
            )
            if checkpoint is not None and controller.stopping is None:
                checkpoint(
                    scenario_id,
                    {
                        "scenario_id": scenario_id,
                        "plan": self.plan.as_dict(),
                        "batches": list(controller.batches),
                        "results": [result.as_record() for result in results],
                    },
                )
        return results, controller

    def run_one(
        self,
        scenario: Scenario,
        faults: Optional[int] = None,
        pool: Optional[PersistentSuitePool] = None,
        campaign: Optional[ScenarioCampaign] = None,
        partial: Optional[dict] = None,
        checkpoint: Optional[Callable[[str, dict], None]] = None,
    ) -> ScenarioReport:
        """Execute one scenario end to end: golden, fault list, jobs, report.

        This is the scenario-granular unit every execution driver is
        built from — the local suite loop, the lease loop
        (:meth:`run_leased`) and the service worker agent all funnel
        through here, so any driver combination yields bit-identical
        reports.  ``campaign`` supplies a pre-computed golden run (the
        suite's prefetch thread); without it the golden runs inline.

        This is the only place that branches on the sampling plan.  With
        a plan on the runner, the injection phase is adaptive (see
        :meth:`_run_adaptive`) and ``partial``/``checkpoint`` carry its
        batch-granular resume state; a fixed-count run ignores both (it
        never checkpoints, so its store holds no partials).
        """
        start = time.perf_counter()
        if campaign is None:
            campaign = self._compute_golden(scenario)
        golden = campaign.golden
        scenario_id = scenario.scenario_id
        if pool is not None:
            golden_ref = pool.install(scenario_id, golden)
        else:
            install_golden(scenario_id, golden)
            golden_ref = None
        interrupted = False
        adaptive: Optional[dict] = None
        try:
            if self.plan is not None:
                results, controller = self._run_adaptive(
                    scenario, pool, campaign, golden_ref, partial, checkpoint
                )
                adaptive = controller.summary()
                job_failures: list[dict] = []
            else:
                results, job_failures = self._drain_fault_list(
                    scenario, campaign.build_fault_list(faults), pool, campaign, golden_ref
                )
        except KeyboardInterrupt:
            interrupted = True
            raise
        finally:
            if pool is not None:
                # No evict broadcast on Ctrl-C: the workers are still
                # busy with this scenario's queued jobs, so the control
                # tasks would sit behind them until the barrier timeout
                # — and the pool is about to be terminated anyway.
                if not interrupted:
                    pool.evict(scenario_id)
            else:
                evict_golden(scenario_id)
        elapsed = time.perf_counter() - start
        guest = sum(result.executed_instructions for result in results)
        self.guest_instructions += guest
        self.last_scenario_throughput = (guest, elapsed)
        report = summarize(
            scenario,
            golden,
            results,
            elapsed,
            keep_individual_results=self.config.keep_individual_results,
            target_mix=campaign.resolved_target_mix(),
            job_failures=job_failures,
            adaptive=adaptive,
        )
        done = ", ".join(f"{k}={v}" for k, v in report.counts.items())
        if job_failures:
            done += f", failed_jobs={len(job_failures)}"
        if adaptive is not None:
            done += f", spent={adaptive['spent']}, stop={adaptive['stopping']}"
        self.progress(f"[done]   {scenario_id}: {done}")
        return report

    def _load_completed(
        self, store: CampaignStore, scenarios: list[Scenario]
    ) -> dict[str, ScenarioReport]:
        """The reports of the scenarios' readable shards, by scenario id.

        A shard that fails to parse or fails its format check counts as
        not completed: its scenario re-runs and its shard is rewritten.
        """
        completed = store.completed_ids()
        reports: dict[str, ScenarioReport] = {}
        for scenario_id in (scenario.scenario_id for scenario in scenarios):
            if scenario_id not in completed:
                continue
            try:
                reports[scenario_id] = store.load_shard(scenario_id)
            except Exception as exc:  # noqa: BLE001 — any unreadable shard re-runs
                self.progress(f"[resume] {scenario_id}: bad shard, re-running: {type(exc).__name__}: {exc}")
        return reports

    def _record_failure(
        self,
        database: ResultsDatabase,
        store: Optional[CampaignStore],
        prior_attempts: dict[str, int],
        scenario_id: str,
        phase: str,
        exc: Exception,
    ) -> None:
        """Record one failed scenario in the database and the store."""
        failure = ScenarioFailure(
            scenario_id=scenario_id,
            phase=phase,
            error_type=type(exc).__name__,
            error=str(exc),
            attempts=prior_attempts.get(scenario_id, 0) + 1,
        )
        database.add_failure(failure)
        if store is not None:
            store.write_failure(failure)
        self.progress(f"[fail]   {scenario_id}: {phase} phase: {failure.error_type}: {failure.error}")

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def run_scenario(self, scenario: Scenario, faults: Optional[int] = None) -> ScenarioReport:
        """Run the four-phase workflow for one scenario."""
        with self._pool_scope() as pool:
            return self.run_one(scenario, faults, pool)

    def run_suite(
        self,
        scenarios: Iterable[Scenario],
        faults: Optional[int] = None,
        database: Optional[ResultsDatabase] = None,
        store: Optional[Union[CampaignStore, str, Path]] = None,
        resume: bool = False,
    ) -> ResultsDatabase:
        """Run a campaign over many scenarios, assembling a results database.

        With a ``store``, every completed scenario is persisted as one
        shard the moment it finishes, and ``resume=True`` skips the
        scenarios whose shards already exist (previously *failed*
        scenarios are retried).  A scenario that raises is recorded as a
        :class:`ScenarioFailure` and the suite continues; an interrupt
        stops the suite but completed shards stay on disk.
        """
        scenarios = list(scenarios)
        database = database if database is not None else ResultsDatabase()
        if store is not None and not isinstance(store, CampaignStore):
            store = CampaignStore(store)
        prior_attempts: dict[str, int] = {}
        if store is not None:
            prior_attempts = prepare_store(
                store,
                [scenario.scenario_id for scenario in scenarios],
                self.config.as_dict(),
                faults,
                resume,
                plan=self.plan_dict,
            )
        resuming = store is not None and resume
        resumed = self._load_completed(store, scenarios) if resuming else {}
        pending = [scenario for scenario in scenarios if scenario.scenario_id not in resumed]

        suite_start = time.monotonic()
        executed = 0
        done = 0
        self.guest_instructions = 0
        self.last_scenario_throughput = None
        prefetched: dict[str, GoldenPrefetch] = {}

        def ensure_prefetch(index: int) -> None:
            if 0 <= index < len(pending):
                ahead = pending[index]
                if ahead.scenario_id not in prefetched:
                    prefetched[ahead.scenario_id] = GoldenPrefetch(self._compute_golden, ahead)

        try:
            with self._pool_scope() as pool:
                pending_pos = 0
                for scenario in scenarios:
                    scenario_id = scenario.scenario_id
                    if scenario_id in resumed:
                        database.add_report(resumed[scenario_id])
                        done += 1
                        self.progress(f"[skip]   {scenario_id}: resumed from shard")
                        continue
                    ensure_prefetch(pending_pos)
                    prefetch = prefetched.pop(scenario_id)
                    # Start the next golden now: it overlaps with this
                    # scenario's injection jobs draining on the pool.
                    ensure_prefetch(pending_pos + 1)
                    pending_pos += 1
                    try:
                        campaign = prefetch.result()
                    except KeyboardInterrupt:
                        raise
                    except Exception as exc:  # noqa: BLE001 — isolate the scenario
                        self._record_failure(database, store, prior_attempts, scenario_id, "golden", exc)
                        continue
                    try:
                        report = self.run_one(
                            scenario,
                            faults,
                            pool,
                            campaign=campaign,
                            partial=store.load_partial(scenario_id) if resuming else None,
                            checkpoint=store.write_partial if store is not None else None,
                        )
                    except KeyboardInterrupt:
                        raise
                    except Exception as exc:  # noqa: BLE001 — isolate the scenario
                        self._record_failure(database, store, prior_attempts, scenario_id, "inject", exc)
                        continue
                    try:
                        database.add_report(report)
                        if store is not None:
                            store.write_shard(report)
                    except KeyboardInterrupt:
                        raise
                    except Exception as exc:  # noqa: BLE001 — isolate the scenario
                        self._record_failure(database, store, prior_attempts, scenario_id, "assemble", exc)
                        continue
                    executed += 1
                    done += 1
                    elapsed = time.monotonic() - suite_start
                    remaining = len(scenarios) - done - len(database.failures)
                    eta = (elapsed / executed) * remaining if executed else 0.0
                    line = (
                        f"[suite]  {done}/{len(scenarios)} scenarios done"
                        + (f", {len(database.failures)} failed" if database.failures else "")
                        + (f", ETA {eta:.0f}s" if remaining > 0 else "")
                    )
                    if self.throughput and elapsed > 0:
                        mips = self.guest_instructions / elapsed / 1e6
                        line += f", {mips:.2f} guest MIPS"
                        if self.last_scenario_throughput is not None:
                            line += f", last scenario {self.last_scenario_throughput[1]:.1f}s"
                    self.progress(line)
        except KeyboardInterrupt:
            # Prefetch threads are daemons: an in-flight golden run of a
            # scenario we will never execute must not delay the stop.
            self.progress(
                "[suite]  interrupted — completed scenario shards are preserved; "
                "rerun with resume=True to continue"
            )
            raise
        return database

    def run_leased(
        self,
        scenarios: Iterable[Scenario],
        store: Union[CampaignStore, str, Path],
        faults: Optional[int] = None,
        owner: Optional[str] = None,
        lease_ttl: float = DEFAULT_LEASE_TTL,
        database: Optional[ResultsDatabase] = None,
    ) -> ResultsDatabase:
        """Lease-driven execution: partition a shared store with peers.

        The distributed counterpart of :meth:`run_suite`'s local loop.
        Any number of processes (or hosts mounting the same store root)
        call this concurrently with the same suite; the store's lease
        protocol guarantees each scenario executes exactly once.  Each
        iteration claims the first unleased, uncompleted scenario,
        executes it through :meth:`run_one` under a heartbeat that
        keeps the lease alive, and commits the shard only if the lease
        survived (a worker that stalls past the ttl discards its result
        — the reclaiming peer's run is the one that counts).  Returns
        the scenarios *this* worker completed; the union of all
        workers' shards is bit-identical to a single-process
        ``run_suite`` of the same suite and seed.
        """
        if not isinstance(store, CampaignStore):
            store = CampaignStore(store)
        scenarios = list(scenarios)
        by_id = {scenario.scenario_id: scenario for scenario in scenarios}
        owner = owner or f"worker-{os.getpid()}"
        database = database if database is not None else ResultsDatabase()
        if store.read_manifest() is None:
            # First worker in: publish the manifest peers will claim
            # against.  Concurrent first workers write identical bytes,
            # and _atomic_write_json makes the race harmless.
            store.write_manifest(list(by_id), self.config.as_dict(), faults, plan=self.plan_dict)
        else:
            store.check_resumable(list(by_id), self.config.as_dict(), faults, plan=self.plan_dict)
        prior_attempts = {
            failure.scenario_id: failure.attempts for failure in store.load_failures()
        }
        # Scenarios that failed in *this* invocation are quarantined from
        # further claims — mirroring run_suite's attempt-once-per-run
        # semantics.  Without this, fail -> release -> claim_next would
        # re-claim the same broken scenario forever.
        attempted_failures: set = set()

        # A reclaimed lease continues its predecessor's batch stream
        # from the checkpoint; commit-iff-held writes keep a stalled
        # predecessor from clobbering ours.
        def checkpoint(scenario_id: str, payload: dict) -> None:
            store.write_partial_leased(scenario_id, payload, owner)

        with self._pool_scope() as pool:
            while True:
                claimable = [sid for sid in by_id if sid not in attempted_failures]
                lease = store.claim_next(owner, scenario_ids=claimable, ttl=lease_ttl)
                if lease is None:
                    break
                scenario = by_id[lease.scenario_id]
                scenario_id = scenario.scenario_id
                self.progress(f"[lease]  {scenario_id}: claimed by {owner}")
                with LeaseHeartbeat(store, scenario_id, owner, lease_ttl) as heartbeat:
                    try:
                        report = self.run_one(
                            scenario,
                            faults,
                            pool,
                            partial=store.load_partial(scenario_id),
                            checkpoint=checkpoint,
                        )
                    except KeyboardInterrupt:
                        store.release_lease(scenario_id, owner)
                        raise
                    except Exception as exc:  # noqa: BLE001 — isolate the scenario
                        self._record_failure(database, store, prior_attempts, scenario_id, "run", exc)
                        attempted_failures.add(scenario_id)
                        store.release_lease(scenario_id, owner)
                        continue
                if heartbeat.lost or not store.commit_leased(report, owner):
                    self.progress(
                        f"[lease]  {scenario_id}: lease lost during execution; "
                        "discarding result (a peer reclaimed the scenario)"
                    )
                    continue
                database.add_report(report)
        return database
