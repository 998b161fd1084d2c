"""Fault injection campaigns over single scenarios and scenario suites.

One *campaign* corresponds to one scenario of the paper's matrix: a
golden run, a fault target list and N injections, summarised into the
per-category percentages that Figures 2 and 3 plot.
"""

from __future__ import annotations

import time
import zlib
from dataclasses import asdict, dataclass, field, fields as dataclasses_fields
from typing import Optional

from repro.injection.classify import (
    NOT_INJECTED,
    Outcome,
    empty_outcome_counts,
    masking_rate,
    outcome_percentages,
)
from repro.injection.fault import FaultDescriptor, FaultModel
from repro.injection.golden import GoldenRunner, GoldenRunResult
from repro.hardening.schemes import compile_scheme, recovery_retries
from repro.isa.arch import get_arch
from repro.injection.injector import FaultInjector, InjectionResult
from repro.npb.suite import Scenario, format_target_mix


@dataclass(frozen=True)
class CampaignConfig:
    """Configuration of a fault injection campaign.

    The paper uses 8,000 faults per scenario; the default here is kept
    as a parameter so laptop-scale campaigns can dial it down.

    ``checkpoint_interval`` is the base spacing (in instructions) of the
    golden run's checkpoints, which injection runs restore instead of
    re-simulating from boot.  ``None`` picks the default spacing, ``0``
    disables checkpointing (every injection replays from boot).
    """

    faults_per_scenario: int = 8000
    seed: int = 2018
    watchdog_multiplier: int = 4
    include_pc: bool = True
    target_mix: Optional[dict] = None
    model_caches_golden: bool = True
    keep_individual_results: bool = True
    checkpoint_interval: Optional[int] = None

    def as_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "CampaignConfig":
        """Rebuild a config from :meth:`as_dict` output (JSON-safe).

        The coordinator hands its campaign configuration to workers
        over the wire; unknown keys raise so a version-skewed worker
        fails loudly instead of silently running a different campaign.
        """
        known = {f.name for f in dataclasses_fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ValueError(f"unknown campaign config keys {unknown}")
        return cls(**payload)


@dataclass
class ScenarioReport:
    """Aggregated result of one scenario's campaign.

    ``faults_injected`` counts the faults actually applied; runs that
    finished before their injection point are tallied under the
    ``NotInjected`` pseudo-outcome and excluded from the percentages.
    """

    scenario: Scenario
    faults_injected: int
    counts: dict[str, int]
    percentages: dict[str, float]
    masking_rate_pct: float
    golden_summary: dict
    golden_stats: dict[str, float]
    wall_time_seconds: float
    results: list[InjectionResult] = field(default_factory=list)
    #: label of the mix the faults were actually drawn from — the
    #: scenario's own mix or the campaign-level one ("default" = the
    #: paper's register-file campaign)
    target_mix_label: str = "default"
    #: jobs whose execution failed after retries: the scenario survives
    #: with the remaining jobs' results, and each failure is recorded as
    #: ``{"job_id", "faults", "error", "attempts"}``
    job_failures: list[dict] = field(default_factory=list)
    #: provenance of CI-driven adaptive sampling (plan, batches, interval
    #: estimates, stopping reason — see repro.stats.controller); None for
    #: fixed-count campaigns, whose payloads stay byte-identical
    adaptive: Optional[dict] = None
    #: aggregate rollback accounting of a ``rec`` scheme (retry budget,
    #: total rollbacks, re-executed instructions, escalations); None for
    #: every other scheme, whose payloads stay byte-identical
    recovery: Optional[dict] = None

    @property
    def scenario_id(self) -> str:
        return self.scenario.scenario_id

    # ------------------------------------------------------------------
    # raw-count access: estimators must consume integer counts, never
    # the display-rounded percentages
    # ------------------------------------------------------------------

    def observed_counts(self) -> dict[str, int]:
        """Raw outcome counts over *injected* runs (NotInjected excluded)."""
        return {key: value for key, value in self.counts.items() if key != NOT_INJECTED}

    @property
    def not_injected(self) -> int:
        """Runs that finished before their injection point."""
        return self.counts.get(NOT_INJECTED, 0)

    @property
    def observed_total(self) -> int:
        """Number of injected runs — the denominator of every rate."""
        return sum(self.observed_counts().values())

    def as_record(self) -> dict:
        record = {
            "scenario_id": self.scenario_id,
            "app": self.scenario.app,
            "mode": self.scenario.mode,
            "cores": self.scenario.cores,
            "isa": self.scenario.isa,
            "target_mix": self.target_mix_label,
            "hardening": self.scenario.hardening_label,
            "faults": self.faults_injected,
            "failed_jobs": len(self.job_failures),
            "masking_rate_pct": round(self.masking_rate_pct, 3),
            "wall_time_seconds": round(self.wall_time_seconds, 3),
        }
        for outcome, count in self.counts.items():
            record[f"count_{outcome}"] = count
        for outcome, pct in self.percentages.items():
            record[f"pct_{outcome}"] = round(pct, 3)
        for key, value in self.golden_stats.items():
            record[f"stat_{key}"] = value
        if self.adaptive:
            # flat-row summary of the adaptive run; fixed-count rows are
            # untouched (no new keys) so existing datasets stay identical
            record["adaptive_spent"] = self.adaptive.get("spent")
            record["adaptive_batches"] = len(self.adaptive.get("batches", []))
            record["adaptive_stopping"] = self.adaptive.get("stopping")
            widths = [
                estimate.get("half_width")
                for estimate in self.adaptive.get("estimates", {}).values()
                if estimate.get("half_width") is not None
            ]
            if widths:
                record["adaptive_ci_half_width"] = round(max(widths), 6)
        if self.recovery:
            # flat-row summary of the recovery policy; non-rec rows are
            # untouched (no new keys) so existing datasets stay identical
            record["recovery_retries"] = self.recovery.get("retries")
            record["recovery_rollbacks"] = self.recovery.get("rollbacks")
            record["recovery_reexecuted_instructions"] = self.recovery.get(
                "reexecuted_instructions"
            )
            record["recovery_escalations"] = self.recovery.get("escalations")
            record["recovery_multi_retry_injections"] = self.recovery.get(
                "multi_retry_injections"
            )
        return record

    # ------------------------------------------------------------------
    # serialisation: the lossless payload is the only report form ever
    # parsed back (store shards, saved databases); as_record above is a
    # write-only flat view
    # ------------------------------------------------------------------

    def to_payload(self) -> dict:
        """Lossless JSON-safe form, the unit the campaign store shards."""
        payload = {
            "scenario": self.scenario.as_dict(),
            "faults_injected": self.faults_injected,
            "counts": dict(self.counts),
            "percentages": dict(self.percentages),
            "masking_rate_pct": self.masking_rate_pct,
            "golden_summary": dict(self.golden_summary),
            "golden_stats": dict(self.golden_stats),
            "wall_time_seconds": self.wall_time_seconds,
            "target_mix_label": self.target_mix_label,
            "job_failures": [dict(failure) for failure in self.job_failures],
            "results": [result.as_record() for result in self.results],
        }
        # emitted only for adaptive campaigns: fixed-count shard payloads
        # (and therefore pinned fingerprints) stay byte-identical
        if self.adaptive is not None:
            payload["adaptive"] = dict(self.adaptive)
        # likewise emitted only for rec schemes: every pre-recovery
        # shard (and every non-rec shard) keeps its exact byte layout
        if self.recovery is not None:
            payload["recovery"] = dict(self.recovery)
        return payload

    @classmethod
    def from_payload(cls, payload: dict) -> "ScenarioReport":
        """Rebuild a full report from :meth:`to_payload` output."""
        return cls(
            scenario=Scenario.from_dict(payload["scenario"]),
            faults_injected=int(payload["faults_injected"]),
            counts={str(k): int(v) for k, v in payload["counts"].items()},
            percentages={str(k): float(v) for k, v in payload["percentages"].items()},
            masking_rate_pct=float(payload["masking_rate_pct"]),
            golden_summary=dict(payload["golden_summary"]),
            # values stay as-parsed: coercing int-valued stats to float
            # would break bit-identical resume (10000 vs 10000.0 in JSON)
            golden_stats=dict(payload["golden_stats"]),
            wall_time_seconds=float(payload["wall_time_seconds"]),
            results=[InjectionResult.from_record(r) for r in payload.get("results", [])],
            target_mix_label=str(payload.get("target_mix_label", "default")),
            job_failures=[dict(failure) for failure in payload.get("job_failures", [])],
            adaptive=dict(payload["adaptive"]) if payload.get("adaptive") is not None else None,
            recovery=dict(payload["recovery"]) if payload.get("recovery") is not None else None,
        )


def aggregate_results(results: list[InjectionResult]) -> dict[str, int]:
    counts = empty_outcome_counts()
    for result in results:
        counts[result.outcome] = counts.get(result.outcome, 0) + 1
    return counts


def summarize(
    scenario: Scenario,
    golden: GoldenRunResult,
    results: list[InjectionResult],
    wall_time_seconds: float,
    keep_individual_results: bool = True,
    target_mix: Optional[dict] = None,
    job_failures: Optional[list[dict]] = None,
    adaptive: Optional[dict] = None,
) -> ScenarioReport:
    """Aggregate one scenario's injection results into a report.

    ``target_mix`` is the mix the fault list was drawn from (the
    resolved scenario- or campaign-level mix); it defaults to the
    scenario's own mix so standalone callers stay correct.
    ``job_failures`` records jobs that failed after retries; their
    faults contribute no outcomes but the failure stays visible.
    ``adaptive`` attaches the sampling controller's provenance (plan,
    batches, interval estimates) for CI-driven adaptive campaigns.

    Scenarios under a ``rec`` scheme additionally seed the ``Recovered``
    zero entry (so recovery tables always see the column) and aggregate
    the per-injection rollback metadata into the report's ``recovery``
    dict — both strictly opt-in, keeping every other scheme's report
    byte-identical to the pre-recovery format.
    """
    counts = aggregate_results(results)
    retries = recovery_retries(scenario.hardening)
    recovery = None
    if retries is not None:
        counts.setdefault(Outcome.RECOVERED.value, 0)
        with_meta = [r for r in results if r.recovery is not None]
        recovery = {
            "retries": retries,
            "recovered": counts.get(Outcome.RECOVERED.value, 0),
            "rollbacks": sum(r.recovery["rollbacks"] for r in with_meta),
            "reexecuted_instructions": sum(
                r.recovery["reexecuted_instructions"] for r in with_meta
            ),
            "escalations": sum(1 for r in with_meta if r.recovery.get("escalated")),
            "multi_retry_injections": sum(
                1 for r in with_meta if r.recovery["rollbacks"] >= 2
            ),
        }
    if target_mix is None:
        target_mix = scenario.target_mix_dict()
    return ScenarioReport(
        scenario=scenario,
        faults_injected=len(results) - counts.get(NOT_INJECTED, 0),
        counts=counts,
        percentages=outcome_percentages(counts),
        masking_rate_pct=masking_rate(counts),
        golden_summary=golden.summary(),
        golden_stats=dict(golden.stats),
        wall_time_seconds=wall_time_seconds,
        results=list(results) if keep_individual_results else [],
        target_mix_label=format_target_mix(target_mix),
        job_failures=list(job_failures) if job_failures else [],
        adaptive=adaptive,
        recovery=recovery,
    )


class ScenarioCampaign:
    """Runs the full four-phase workflow for one scenario, in process."""

    def __init__(self, scenario: Scenario, config: CampaignConfig | None = None):
        self.scenario = scenario
        self.config = config or CampaignConfig()
        self.golden: Optional[GoldenRunResult] = None

    def run_golden(self) -> GoldenRunResult:
        runner = GoldenRunner(
            model_caches=self.config.model_caches_golden,
            checkpoint_interval=self.config.checkpoint_interval,
        )
        self.golden = runner.run(self.scenario)
        return self.golden

    def resolved_target_mix(self) -> Optional[dict]:
        """The effective mix: the scenario's own axis wins over the config."""
        scenario_mix = self.scenario.target_mix_dict()
        return scenario_mix if scenario_mix is not None else self.config.target_mix

    def build_fault_list(
        self, count: Optional[int] = None, vulnerability=None
    ) -> list[FaultDescriptor]:
        """The scenario's fault list; deterministic given (scenario, seed).

        ``vulnerability`` optionally supplies a
        :class:`repro.staticlint.ace.ScenarioVulnerability`: register
        draws are then importance-weighted by its predicted per-register
        ACE fractions (via :class:`WeightedFaultModel`).  The default is
        the uniform model — its fault lists, and therefore campaign
        fingerprints, are unaffected by the weighting feature.
        """
        if self.golden is None:
            self.run_golden()
        # zlib.crc32 is used instead of hash() so the derived seed is stable
        # across interpreter invocations and worker processes.  The tag is
        # derived from the recovery-stripped scenario id: recovery is a
        # response policy, not a fault-model axis, so a rec scheme faces
        # the exact fault list of its detect-and-die twin (which is what
        # makes their Detected counts directly comparable).  Non-rec
        # scenario ids are unchanged by the stripping.
        fault_stream_id = self.scenario.with_hardening(
            compile_scheme(self.scenario.hardening)
        ).scenario_id
        scenario_tag = zlib.crc32(fault_stream_id.encode()) % 100_000
        model_args = dict(
            isa=self.scenario.isa,
            cores=self.scenario.cores,
            seed=self.config.seed + scenario_tag,
            target_mix=self.resolved_target_mix(),
            include_pc=self.config.include_pc,
        )
        if vulnerability is not None:
            from repro.injection.fault import WeightedFaultModel

            arch = get_arch(self.scenario.isa)
            fpr_weights = vulnerability.register_weights("fpr") if arch.num_fpr else None
            model = WeightedFaultModel(
                gpr_weights=vulnerability.register_weights("gpr") or None,
                fpr_weights=fpr_weights or None,
                **model_args,
            )
        else:
            model = FaultModel(**model_args)
        return model.generate(
            total_instructions=self.golden.total_instructions,
            count=count if count is not None else self.config.faults_per_scenario,
            memory_ranges=self.golden.injectable_memory_ranges(),
            num_processes=len(self.golden.process_names),
        )

    def run_adaptive(self, plan, prior=None) -> ScenarioReport:
        """CI-driven adaptive campaign, in process (the reference driver).

        Draws deterministic stratified batches from the canonical fault
        stream until the plan's stopping rule fires (see
        :mod:`repro.stats.controller`).  Batch results are recorded in
        ``fault_id`` order — the canonical order every driver (pool,
        distributed) must reproduce for adaptive runs to be
        bit-identical across execution modes.
        """
        from repro.stats.controller import AdaptiveController

        start = time.perf_counter()
        if self.golden is None:
            self.run_golden()
        controller = AdaptiveController(campaign=self, plan=plan, prior=prior)
        injector = FaultInjector(
            self.scenario,
            self.golden,
            watchdog_multiplier=self.config.watchdog_multiplier,
        )
        results: list[InjectionResult] = []
        while True:
            batch = controller.next_batch()
            if batch is None:
                break
            batch_results = sorted(
                injector.run_many(batch.faults), key=lambda r: r.fault.fault_id
            )
            controller.record_batch(batch, batch_results)
            results.extend(batch_results)
        elapsed = time.perf_counter() - start
        return summarize(
            self.scenario,
            self.golden,
            results,
            elapsed,
            keep_individual_results=self.config.keep_individual_results,
            target_mix=self.resolved_target_mix(),
            adaptive=controller.summary(),
        )

    def run(self, count: Optional[int] = None) -> ScenarioReport:
        start = time.perf_counter()
        if self.golden is None:
            self.run_golden()
        faults = self.build_fault_list(count)
        injector = FaultInjector(
            self.scenario,
            self.golden,
            watchdog_multiplier=self.config.watchdog_multiplier,
        )
        results = injector.run_many(faults)
        elapsed = time.perf_counter() - start
        return summarize(
            self.scenario,
            self.golden,
            results,
            elapsed,
            keep_individual_results=self.config.keep_individual_results,
            target_mix=self.resolved_target_mix(),
        )
