"""One repetition of a benchmark workload, in a fresh process.

Runs the workload's campaign through ``CampaignRunner.run_suite`` and
prints one JSON line with the raw measurements: timestamps on the
shared monotonic clock (``time.perf_counter``), per-injection host
latencies, exact counts, the campaign fingerprint and any correctness
problems.  ``run.py`` starts one process per repetition so that every
repetition starts with cold caches, as a real campaign does.

Modes:

``full``
    the whole campaign.
``setup``
    stops at the first drain of injection jobs, i.e. once everything
    an injection needs is in place (program builds, golden run with
    checkpoints, fault list or adaptive controller, worker pool).

The untraced run installs one probe: a wrapper around the runner's
batch-drain entry point that records when it is first entered and how
long draining takes.  ``--trace-dir`` additionally installs the span
wrappers of :mod:`spans`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from workloads import load_workload, resolve_workers  # noqa: E402


class SetupReached(BaseException):
    """Raised at the first job drain of a set-up-only repetition.

    A ``BaseException`` so that the runner's per-scenario ``except
    Exception`` isolation lets it through.
    """


class DrainProbe:
    """First-entry time and total duration of the batch-drain calls."""

    def __init__(self, stop_at_first: bool) -> None:
        self.stop_at_first = stop_at_first
        self.first: float | None = None
        self.seconds = 0.0

    def install(self) -> None:
        import repro.orchestration.runner as runner_mod

        original = runner_mod._drain_jobs

        def drain(*args, **kwargs):
            start = time.perf_counter()
            if self.first is None:
                self.first = start
                if self.stop_at_first:
                    raise SetupReached()
            try:
                return original(*args, **kwargs)
            finally:
                self.seconds += time.perf_counter() - start

        runner_mod._drain_jobs = drain


def build_runner(spec: dict, seed: int, workers: int):
    from repro.injection.campaign import CampaignConfig
    from repro.npb.suite import Scenario
    from repro.orchestration.runner import CampaignRunner
    from repro.stats.plan import SamplingPlan

    scenarios = [
        Scenario(
            cell["app"], cell["mode"], cell["cores"], cell["isa"],
            target_mix=tuple(tuple(pair) for pair in cell["target_mix"]) if cell.get("target_mix") else None,
            hardening=cell.get("hardening"),
        )
        for cell in spec["cells"]
    ]
    plan = SamplingPlan(**spec["plan"]) if spec["plan"] else None
    config = CampaignConfig(faults_per_scenario=spec["faults_per_cell"] or 0, seed=seed)
    return CampaignRunner(config, workers=workers, plan=plan), scenarios


def check(spec: dict, scenarios, database) -> tuple[list[str], int, int]:
    """Structural correctness of a finished campaign.

    Returns (problems, injections with an outcome, injections without).
    """
    from repro.injection.classify import NOT_INJECTED, Outcome

    known = {outcome.value for outcome in Outcome} | {NOT_INJECTED}
    problems: list[str] = []
    classified = 0
    unclassified = 0
    nominal = spec["faults_per_cell"] or spec["plan"]["max_faults"]
    for failure in database.failures:
        problems.append(f"{failure.scenario_id}: {failure.phase} failed: {failure.error}")
        unclassified += nominal
    for scenario in scenarios:
        report = database.get(scenario.scenario_id)
        if report is None:
            if not any(f.scenario_id == scenario.scenario_id for f in database.failures):
                problems.append(f"{scenario.scenario_id}: no report")
                unclassified += nominal
            continue
        for failure in report.job_failures:
            problems.append(f"{scenario.scenario_id}: job {failure['job_id']} failed: {failure['error']}")
            unclassified += failure["faults"]
        expected = report.adaptive["spent"] if report.adaptive else spec["faults_per_cell"]
        got = len(report.results)
        if got + sum(f["faults"] for f in report.job_failures) != expected:
            problems.append(f"{scenario.scenario_id}: {got} results for {expected} faults")
        strange = sorted({r.outcome for r in report.results} - known)
        if strange:
            problems.append(f"{scenario.scenario_id}: unknown outcomes {strange}")
        if not report.golden_summary.get("exit_ok"):
            problems.append(f"{scenario.scenario_id}: golden run did not exit cleanly")
        classified += got
    return problems, classified, unclassified


def exact_counts(database) -> dict:
    outcomes: dict[str, int] = {}
    rollbacks = reexecuted = spent = 0
    latencies: list[float] = []
    for report in database.reports.values():
        for result in report.results:
            outcomes[result.outcome] = outcomes.get(result.outcome, 0) + 1
            latencies.append(result.wall_time_seconds)
            if result.recovery is not None:
                rollbacks += result.recovery["rollbacks"]
                reexecuted += result.recovery["reexecuted_instructions"]
        if report.adaptive:
            spent += report.adaptive["spent"]
    return {
        "outcomes": dict(sorted(outcomes.items())),
        "rollbacks": rollbacks,
        "reexecuted_instructions": reexecuted,
        "faults_spent": spent,
        "latencies": latencies,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True, help="campaign seed")
    parser.add_argument("--mode", choices=("full", "setup"), default="full")
    parser.add_argument("--launched-at", type=float, required=True,
                        help="perf_counter reading of the launching process just before start")
    parser.add_argument("--trace-dir", default=None)
    args = parser.parse_args()

    spec = load_workload(args.workload)
    workers = resolve_workers(spec["workers"])
    probe = DrainProbe(stop_at_first=args.mode == "setup")
    probe.install()
    if args.trace_dir:
        import spans

        spans.install(Path(args.trace_dir))

    from repro.orchestration.database import campaign_fingerprint

    runner, scenarios = build_runner(spec, args.seed, workers)
    store_dir = tempfile.mkdtemp(prefix="store-") if spec["store"] else None
    out: dict = {"workload": args.workload, "seed": args.seed, "mode": args.mode, "workers": workers}
    try:
        try:
            database = runner.run_suite(scenarios, store=store_dir)
        except SetupReached:
            database = None
        end = time.perf_counter()
    finally:
        if store_dir is not None:
            shutil.rmtree(store_dir, ignore_errors=True)
    out["setup_s"] = (probe.first - args.launched_at) if probe.first is not None else None
    out["wall_s"] = end - args.launched_at
    out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if database is not None:
        problems, classified, unclassified = check(spec, scenarios, database)
        out.update(exact_counts(database))
        out["problems"] = problems
        out["classified"] = classified
        out["unclassified"] = unclassified
        out["drain_s"] = probe.seconds
        out["sha256"] = hashlib.sha256(campaign_fingerprint(database).encode()).hexdigest()
    if args.trace_dir:
        import spans

        spans.flush_main(Path(args.trace_dir))
        out["trace"] = spans.summarize(
            Path(args.trace_dir), f"{os.getpid()}:{threading.main_thread().name}", out["wall_s"]
        )
    print(json.dumps(out))
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
