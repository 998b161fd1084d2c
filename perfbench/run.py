"""Campaign cost benchmark: faults classified per host hour, end to end.

Run from the root of a checkout::

    python3 perfbench/run.py --workload regs-short-armv8 --seed 2018 --seconds 45 --trace 0

One run executes a workload's seeded fault campaign several times, each
repetition in a fresh process (``rep.py``) so that caches start cold,
and prints every end-to-end metric with its unit and sample count, the
exact counts that explain the timings, the campaign fingerprint, and as
its last line one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 1`` instead alternates untraced repetitions with traced ones,
which wrap every layer's public entry points in spans (``spans.py``),
and prints the per-layer self-time table and per-layer metrics.

Workloads, their cells, drivers and reference fingerprints live in
``workloads.json``; ``README.md`` explains the metrics.  The model is
unvalidated against hardware, so no accuracy figure is reported.  Runs
write only under ``perfbench/.work`` (ignored by git).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"

sys.path.insert(0, str(HERE))
from workloads import campaign_seeds, load_spec, load_workload  # noqa: E402

#: A repetition that runs longer than this is killed (with its workers).
REP_TIMEOUT = 170.0

#: Seconds between samples of the repetition's process tree.  Peaks
#: (VmHWM) are monotonic, so a slow poll loses little; a fast one
#: would steal CPU from the campaign it measures.
RSS_POLL = 0.2

END_TO_END = [
    ("faults_per_hour", "faults/h"),
    ("setup_s", "s"),
    ("inj_ms_p50", "ms"),
    ("inj_ms_p95", "ms"),
    ("peak_rss_mb", "MiB"),
]

#: per-layer time metric -> the span whose self time (all threads and processes) it sums
SPAN_METRICS = {
    "npb.build_s": "npb.build",
    "golden.wait_s": "golden.wait",
    "stats.init_s": "stats.init",
    "stats.batch_s": "stats.batch",
    "fault.generate_s": "fault.generate",
    "soc.build_launch_s": "soc.build_launch",
    "checkpoint.restore_s": "checkpoint.restore",
    "checkpoint.capture_s": "checkpoint.capture",
    "soc.golden_run_s": "soc.golden_run",
    "soc.prefix_run_s": "soc.prefix_run",
    "soc.post_run_s": "soc.post_run",
    "recovery.reexec_s": "recovery.reexec",
    "classify.compare_s": "classify.compare",
    "injection.run_one_s": "injection.run_one",
    "orchestration.runner_s": "orchestration.runner",
    "orchestration.job_s": "orchestration.job",
    "orchestration.pool_start_s": "orchestration.pool_start",
    "orchestration.install_s": "orchestration.install",
    "orchestration.golden_load_s": "orchestration.golden_load",
    "orchestration.drain_s": "orchestration.drain",
    "orchestration.evict_s": "orchestration.evict",
    "orchestration.close_s": "orchestration.close",
    "store.write_s": "store.write",
}

#: spans of MulticoreSystem.run, whichever phase they ran in
RUN_SPANS = ("soc.golden_run", "soc.prefix_run", "soc.post_run", "recovery.reexec", "soc.run")

#: Largest gap allowed between wall time and main-thread self times plus other_s.
CLOSURE_TOLERANCE = 0.05

OUTCOMES = ("Vanished", "ONA", "OMM", "UT", "Hang", "Detected", "Recovered", "NotInjected")


# ----------------------------------------------------------------------
# one repetition
# ----------------------------------------------------------------------


def _children(pids: set[int]) -> set[int]:
    found = set()
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) in pids:
            found.add(int(entry))
    return found


def _hwm_kb(pid: int) -> int | None:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


class TreePeaks(threading.Thread):
    """Polls the peak resident set (VmHWM) of a process and its descendants."""

    def __init__(self, pid: int) -> None:
        super().__init__(daemon=True)
        self.pid = pid
        self.peaks: dict[int, int] = {}
        self.done = threading.Event()

    def run(self) -> None:
        while not self.done.wait(RSS_POLL):
            tree = {self.pid} | _children({self.pid})  # pool workers are direct children
            for pid in tree:
                hwm = _hwm_kb(pid)
                if hwm is not None:
                    self.peaks[pid] = max(self.peaks.get(pid, 0), hwm)

    def total_kb(self, root_maxrss_kb: int) -> int:
        """Sum of per-process peaks; the root's own figure is exact."""
        others = sum(kb for pid, kb in self.peaks.items() if pid != self.pid)
        return others + max(root_maxrss_kb, self.peaks.get(self.pid, 0))


def run_rep(workload: str, seed: int, mode: str, trace_dir: Path | None = None) -> dict:
    """Run one repetition in a fresh process and return its measurements."""
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    command = [
        sys.executable, str(HERE / "rep.py"), "--workload", workload, "--seed", str(seed), "--mode", mode,
    ]
    if trace_dir is not None:
        command += ["--trace-dir", str(trace_dir)]
    launched = time.perf_counter()
    process = subprocess.Popen(
        command + ["--launched-at", repr(launched)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, start_new_session=True, text=True,
    )
    peaks = TreePeaks(process.pid)
    peaks.start()
    try:
        stdout, _ = process.communicate(timeout=REP_TIMEOUT)
    except BaseException:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        raise
    finally:
        peaks.done.set()
        peaks.join()
    lines = stdout.strip().splitlines()
    if process.returncode != 0 or not lines:
        return {"mode": mode, "seed": seed, "problems": [f"repetition exited with {process.returncode}"],
                "failed_process": True}
    result = json.loads(lines[-1])
    result.setdefault("problems", [])
    result["peak_rss_mb"] = peaks.total_kb(result["maxrss_kb"]) / 1024
    return result


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------


def percentile(values: list[float], pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def check_reference(rep: dict, reference: str, default_seed: int) -> None:
    """Compare a default-seed repetition's fingerprint with the record."""
    if rep.get("sha256") is not None and rep["seed"] == default_seed and rep["sha256"] != reference:
        rep["problems"].append(f"fingerprint {rep['sha256']} != reference {reference}")
        rep["sha_mismatch"] = True


def injections(rep: dict) -> tuple[int, int]:
    """(attempted, failed) of one full repetition."""
    attempted = rep.get("classified", 0) + rep.get("unclassified", 0)
    if rep.get("failed_process"):
        return max(attempted, 1), max(attempted, 1)
    return attempted, rep.get("unclassified", 0)


def print_counts(rep: dict, counters: dict | None = None) -> None:
    line = ", ".join(f"{k}={v}" for k, v in rep.get("outcomes", {}).items())
    print(f"  exact counts seed {rep['seed']}: outcomes {line}; rollbacks {rep.get('rollbacks')}, "
          f"re-executed instructions {rep.get('reexecuted_instructions')}, "
          f"stats.faults_spent {rep.get('faults_spent')}")
    if counters is not None:
        print("  exact counts (traced): " + ", ".join(
            f"{key}={int(counters.get(key, 0))}" for key in (
                "soc.sim_instructions", "soc.golden_run.instructions", "checkpoint.restores",
                "checkpoint.captures", "soc.build_launch_calls", "stats.batches",
            )))


def end_to_end(full: list[dict], setups: list[dict]) -> tuple[dict, list[str]]:
    rates = [rep["classified"] * 3600 / rep["wall_s"] for rep in full]
    setup = [rep["setup_s"] for rep in full + setups if rep.get("setup_s") is not None]
    latencies = [value * 1000 for rep in full for value in rep["latencies"]]
    rss = [rep["peak_rss_mb"] for rep in full]
    p95 = percentile(latencies, 95)
    values = {
        "faults_per_hour": statistics.median(rates),
        "setup_s": statistics.median(setup),
        "inj_ms_p50": statistics.median(latencies),
        "inj_ms_p95": p95,
        "peak_rss_mb": statistics.median(rss),
    }
    beyond = sum(1 for value in latencies if value > p95)
    notes = [
        f"median of {len(rates)} repetitions",
        f"median of {len(setup)} set-ups",
        f"{len(latencies)} samples",
        f"{len(latencies)} samples, {beyond} beyond",
        f"median of {len(rss)} repetitions, driver plus pool workers",
    ]
    return values, notes


def layer_metrics(traced: dict, untraced: list[dict]) -> dict:
    """Per-layer metrics of one traced repetition; ``untraced`` are the
    untraced repetitions of the same seed (busy ratio and overhead)."""
    trace = traced["trace"]
    table = trace["table"]
    counters = trace["counters"]

    def self_s(span: str) -> float:
        row = table.get(span)
        return row["main"] + row["threads"] + row["workers"] if row else 0.0

    metrics = {name: (self_s(span), "s") for name, span in SPAN_METRICS.items()}
    # inclusive: the golden layer's wall time, simulation and captures included
    metrics["golden.run_s"] = (table["golden.run"]["inclusive"] if "golden.run" in table else 0.0, "s")
    run_seconds = sum(self_s(span) for span in RUN_SPANS)
    sim = counters.get("soc.sim_instructions", 0)
    forwards = counters.get("injector.fast_forwards", 0)
    replays = counters.get("injector.boot_replays", 0)
    latency_s = statistics.median(sum(rep["latencies"]) for rep in untraced)
    drain_s = statistics.median(rep["drain_s"] for rep in untraced)
    untraced_wall = statistics.median(rep["wall_s"] for rep in untraced)
    workers = max(1, untraced[0]["workers"])
    metrics.update({
        "golden.sim_instructions": (counters.get("soc.golden_run.instructions", 0), "count"),
        "golden.checkpoints": (counters.get("golden.checkpoints", 0), "count"),
        "stats.faults_spent": (counters.get("stats.faults_spent", 0), "count"),
        "stats.batches": (counters.get("stats.batches", 0), "count"),
        "soc.build_launch_calls": (counters.get("soc.build_launch_calls", 0), "count"),
        "checkpoint.restores": (counters.get("checkpoint.restores", 0), "count"),
        "checkpoint.captures": (counters.get("checkpoint.captures", 0), "count"),
        "checkpoint.snapshot_bytes": (counters.get("checkpoint.snapshot_bytes", 0), "bytes"),
        "injector.fast_forward_ratio": (forwards / (forwards + replays) if forwards + replays else 0.0, "ratio"),
        "soc.sim_instructions": (sim, "count"),
        "soc.mips": (sim / run_seconds / 1e6 if run_seconds else 0.0, "MIPS"),
        "recovery.rollbacks": (traced["rollbacks"], "count"),
        "recovery.reexecuted_instructions": (traced["reexecuted_instructions"], "count"),
        "orchestration.spool_bytes": (counters.get("orchestration.spool_bytes", 0), "bytes"),
        "orchestration.worker_busy_ratio": (latency_s / (workers * drain_s) if drain_s else 0.0, "ratio"),
        "store.writes": (counters.get("store.writes", 0), "count"),
        "store.bytes": (counters.get("store.bytes", 0), "bytes"),
        "other_s": (trace["other_s"], "s"),
        "trace.wall_s": (traced["wall_s"], "s"),
        "trace.overhead_pct": ((traced["wall_s"] / untraced_wall - 1) * 100, "%"),
    })
    for outcome in OUTCOMES:
        metrics[f"outcome.{outcome}"] = (traced["outcomes"].get(outcome, 0), "count")
    return metrics


def print_table(trace: dict) -> None:
    table = trace["table"]
    print(f"  {'span (self time, s)':28s} {'main':>9s} {'threads':>9s} {'workers':>9s} {'calls':>7s}")
    order = sorted(table, key=lambda name: -(table[name]["main"] + table[name]["threads"] + table[name]["workers"]))
    for name in order:
        row = table[name]
        print(f"  {name:28s} {row['main']:9.4f} {row['threads']:9.4f} {row['workers']:9.4f} {row['calls']:7d}")
    print(f"  {'other_s (main, no span)':28s} {trace['other_s']:9.4f}")
    print(f"  main-thread self {trace['main_self_s']:.4f} s + other_s {trace['other_s']:.4f} s "
          f"= {trace['closure'] * 100:.2f}% of traced wall {trace['wall_s']:.4f} s; "
          f"{trace['negative_self_spans']} spans with negative self time")
    if trace["workers"]:
        print(f"  {trace['workers']} pool workers busy {trace['worker_busy_s']:.4f} s in total "
              "(their rows run concurrently with the main thread's orchestration.drain)")


# ----------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # a terminated run must take its repetition (own session) down with it
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: {ROOT} holds no repro sources (src/repro); run from a checkout", file=sys.stderr)
        return 2
    spec_all = load_spec()
    default_seed = spec_all["default_seed"]
    spec = load_workload(args.workload)
    seed = default_seed if args.seed is None else args.seed
    shutil.rmtree(WORK / "tmp", ignore_errors=True)
    started = time.perf_counter()

    if args.trace == 0:
        count = max(1, round(args.seconds / spec["rep_seconds"]))
        full = [run_rep(args.workload, rep_seed, "full") for rep_seed in campaign_seeds(seed, count, default_seed)]
        setups = [run_rep(args.workload, seed, "setup") for _ in range(spec["setup_reps"])]
        reps = full + setups
    else:
        # alternate untraced and traced repetitions of the same seed; the
        # overhead compares their median walls
        pairs = max(1, round(args.seconds / (2 * spec["rep_seconds"])))
        trace_root = WORK / f"spans-{args.workload}"
        shutil.rmtree(trace_root, ignore_errors=True)
        full = []
        for pair in range(pairs):
            trace_dir = trace_root / f"rep{pair}"
            trace_dir.mkdir(parents=True)
            full += [run_rep(args.workload, seed, "full"), run_rep(args.workload, seed, "full", trace_dir)]
        setups = []
        reps = full
        for rep in full[1::2]:
            trace = rep.get("trace")
            if trace and (abs(trace["closure"] - 1) > CLOSURE_TOLERANCE or trace["negative_self_spans"]):
                rep["problems"].append(
                    f"self-time table does not close: {trace['closure'] * 100:.2f}% of wall, "
                    f"{trace['negative_self_spans']} spans with negative self time"
                )
        shas = {rep.get("sha256") for rep in full}
        if len(shas) != 1:
            full[-1]["problems"].append(f"traced fingerprints differ from untraced: {sorted(map(str, shas))}")
            full[-1]["sha_mismatch"] = True
    for rep in full:
        check_reference(rep, spec["reference_sha256"], default_seed)

    print(f"workload {args.workload}  seed {seed}  trace {args.trace}  "
          f"{len(full)} full + {len(setups)} set-up-only repetitions in "
          f"{time.perf_counter() - started:.1f} s")
    for rep in reps:
        if rep.get("failed_process"):
            print(f"  {rep['mode']:5s} seed {rep['seed']}: FAILED {rep['problems']}")
        elif rep["mode"] == "full":
            print(f"  full  seed {rep['seed']}: {rep['classified']} injections, wall {rep['wall_s']:.3f} s, "
                  f"set-up {rep['setup_s']:.3f} s, peak RSS {rep['peak_rss_mb']:.1f} MiB, "
                  f"sha256 {rep['sha256']}")
        else:
            print(f"  setup seed {rep['seed']}: set-up {rep['setup_s']:.3f} s")
    problems = [problem for rep in reps for problem in rep["problems"]]
    for problem in problems:
        print(f"  PROBLEM: {problem}")

    attempted = failed = 0
    for rep in full:
        a, f = injections(rep)
        attempted += a
        failed += f
    if any(rep.get("sha_mismatch") for rep in full):
        failed = attempted  # wrong simulated results: nothing in this run counts
    usable = [rep for rep in full if not rep.get("failed_process")]
    metrics: dict = {}
    if usable and not problems:
        if args.trace == 0:
            values, notes = end_to_end(usable, [rep for rep in setups if not rep.get("failed_process")])
            for (name, unit), note in zip(END_TO_END, notes):
                print(f"  {name:16s} {values[name]:14.4f} {unit:9s} ({note})")
                metrics[name] = {"value": values[name], "unit": unit}
            print_counts(usable[0])
        else:
            untraced, traced = usable[0::2], usable[1::2]
            print_table(traced[0]["trace"])
            print_counts(traced[0], traced[0]["trace"]["counters"])
            per_rep = [layer_metrics(rep, untraced) for rep in traced]
            for name, (_, unit) in per_rep[0].items():
                value = statistics.median(metrics_of[name][0] for metrics_of in per_rep)
                note = f"median of {len(per_rep)} traced repetitions" if len(per_rep) > 1 else ""
                print(f"  {name:34s} {value:16.4f} {unit:6s} {note}")
                metrics[name] = {"value": value, "unit": unit}
    error_rate = failed / attempted if attempted else 1.0
    print(f"  {'error_rate':16s} {error_rate:14.4f} {'fraction':9s} ({failed} of {attempted} injections)")
    correct = not problems and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1), "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
