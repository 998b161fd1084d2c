"""Span recording around the public entry points of each layer.

Tracing is applied from outside: :func:`install` replaces module and
class attributes of ``repro`` with thin wrappers that open a span around
the original call.  Nothing under ``src/`` knows about it.  Every span
carries its name, start, end, parent and thread; each thread keeps its
own stack, so work on ``run_suite``'s golden-prefetch thread never nests
under (or is subtracted from) a span of the main thread.

Spans are kept in memory and written once, at the end: by the traced
campaign process after the campaign returns, and by each pool worker
when it exits (pool workers inherit the wrappers through ``fork``).

:func:`summarize` turns span files into per-layer self times, span
counts and exact counters.  A span's self time is its duration minus
the durations of its direct children on the same thread.
"""

from __future__ import annotations

import json
import os
import threading
import time
from pathlib import Path

#: MulticoreSystem state getters the classifier compares against the
#: golden run; timed as ``classify.compare`` only inside an injection.
STATE_GETTERS = ("combined_output", "memory_snapshot", "architectural_state")


class Recorder:
    """In-memory spans and counters of one process."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = {}
        self._local = threading.local()
        self._lock = threading.Lock()

    def stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def open(self, name: str, state: dict | None = None) -> dict:
        stack = self.stack()
        frame = {
            "name": name,
            "parent": stack[-1]["id"] if stack else None,
            "id": None,
            "state": state,
            "start": time.perf_counter(),
        }
        with self._lock:
            frame["id"] = len(self.spans)
            self.spans.append(None)  # reserve the slot; filled on close
        stack.append(frame)
        return frame

    def close(self, frame: dict) -> None:
        end = time.perf_counter()
        stack = self.stack()
        stack.pop()
        thread = threading.current_thread().name
        self.spans[frame["id"]] = (
            frame["name"], frame["start"], end, frame["parent"], f"{self.pid}:{thread}"
        )

    def innermost(self, *names: str) -> dict | None:
        """The nearest open frame on this thread whose name is in ``names``."""
        for frame in reversed(self.stack()):
            if frame["name"] in names:
                return frame
        return None

    def write(self, path: Path) -> None:
        """Write the closed spans and counters as JSON lines."""
        with open(path, "w", encoding="utf-8") as handle:
            for index, span in enumerate(self.spans):
                if span is None:
                    continue  # still open (a daemon thread cut off at exit)
                name, start, end, parent, thread = span
                handle.write(json.dumps({
                    "id": index, "name": name, "start": start, "end": end,
                    "parent": parent, "thread": thread,
                }) + "\n")
            handle.write(json.dumps({"counters": self.counters, "pid": self.pid}) + "\n")


#: The recorder of this process; replaced in each pool worker at start.
RECORDER = Recorder()


def _spanned(name: str, original):
    def wrapper(*args, **kwargs):
        frame = RECORDER.open(name)
        try:
            return original(*args, **kwargs)
        finally:
            RECORDER.close(frame)

    return wrapper


def _patch(owner, attribute: str, wrapper_factory) -> None:
    setattr(owner, attribute, wrapper_factory(getattr(owner, attribute)))


def install(span_dir: Path) -> None:
    """Wrap every traced layer entry point of ``repro`` in this process."""
    import repro.injection.golden as golden_mod
    import repro.injection.injector as injector_mod
    import repro.npb.suite as suite_mod
    import repro.orchestration.runner as runner_mod
    from repro.injection.fault import FaultModel
    from repro.injection.golden import GoldenRunner
    from repro.injection.injector import FaultInjector
    from repro.orchestration.store import CampaignStore
    from repro.soc.multicore import MulticoreSystem
    from repro.stats.controller import AdaptiveController

    def span(name: str):
        return lambda original: _spanned(name, original)

    # npb: program builds (by-name imports plus the module attribute
    # that lazy importers such as the stratum space resolve)
    for module in (suite_mod, golden_mod, injector_mod):
        _patch(module, "build_program", span("npb.build"))

    # injection.golden
    def golden_run(original):
        def wrapper(self, scenario, *args, **kwargs):
            frame = RECORDER.open("golden.run")
            try:
                result = original(self, scenario, *args, **kwargs)
            finally:
                RECORDER.close(frame)
            RECORDER.count("golden.checkpoints", len(result.checkpoints))
            RECORDER.count("golden.runs")
            return result
        return wrapper

    _patch(GoldenRunner, "run", golden_run)
    _patch(runner_mod.GoldenPrefetch, "result", span("golden.wait"))

    # stats
    _patch(AdaptiveController, "__post_init__", span("stats.init"))
    _patch(AdaptiveController, "next_batch", span("stats.batch"))

    def record_batch(original):
        def wrapper(self, batch, results):
            frame = RECORDER.open("stats.batch")
            try:
                return original(self, batch, results)
            finally:
                RECORDER.close(frame)
                RECORDER.count("stats.batches")
                RECORDER.count("stats.faults_spent", len(batch.faults))
        return wrapper

    _patch(AdaptiveController, "record_batch", record_batch)

    # injection.fault
    _patch(FaultModel, "generate", span("fault.generate"))

    # soc build and launch; a second build inside one injection is a
    # rollback rebuild, after which simulation counts as re-execution
    def build_launch(original):
        def wrapper(*args, **kwargs):
            injection = RECORDER.innermost("injection.run_one")
            if injection is not None and original.__name__ == "create_system":
                injection["state"]["builds"] += 1
            frame = RECORDER.open("soc.build_launch")
            try:
                return original(*args, **kwargs)
            finally:
                RECORDER.close(frame)
                if original.__name__ == "create_system":
                    RECORDER.count("soc.build_launch_calls")
        return wrapper

    for module in (golden_mod, injector_mod):
        _patch(module, "create_system", build_launch)
        _patch(module, "launch_scenario", build_launch)

    # checkpoint
    def capture(original):
        def wrapper(system):
            frame = RECORDER.open("checkpoint.capture")
            try:
                snapshot = original(system)
            finally:
                RECORDER.close(frame)
            RECORDER.count("checkpoint.captures")
            RECORDER.count("checkpoint.snapshot_bytes", snapshot.approx_bytes())
            return snapshot
        return wrapper

    def restore(original):
        def wrapper(snapshot, system):
            frame = RECORDER.open("checkpoint.restore")
            try:
                return original(snapshot, system)
            finally:
                RECORDER.close(frame)
                RECORDER.count("checkpoint.restores")
        return wrapper

    for module in (golden_mod, injector_mod):
        _patch(module, "capture_snapshot", capture)
    _patch(injector_mod, "restore_snapshot", restore)

    # soc/cpu execution, split by phase; instructions are the delta of
    # total_instructions across each call, i.e. only what was simulated
    def system_run(original):
        def wrapper(self, *args, **kwargs):
            injection = RECORDER.innermost("injection.run_one", "golden.run")
            if injection is None:
                phase = "soc.run"
            elif injection["name"] == "golden.run":
                phase = "soc.golden_run"
            else:
                state = injection["state"]
                if state["runs"] == 0:
                    phase = "soc.prefix_run"
                elif state["builds"] > 1:
                    phase = "recovery.reexec"
                else:
                    phase = "soc.post_run"
                state["runs"] += 1
            before = self.total_instructions
            frame = RECORDER.open(phase)
            try:
                return original(self, *args, **kwargs)
            finally:
                RECORDER.close(frame)
                executed = self.total_instructions - before
                RECORDER.count("soc.sim_instructions", executed)
                RECORDER.count(f"{phase}.instructions", executed)
        return wrapper

    _patch(MulticoreSystem, "run", system_run)

    # injection and classify
    def run_one(original):
        def wrapper(self, fault):
            frame = RECORDER.open("injection.run_one", state={"runs": 0, "builds": 0})
            try:
                return original(self, fault)
            finally:
                RECORDER.close(frame)
        return wrapper

    def run_many(original):
        def wrapper(self, faults):
            ff, boot = self.fast_forwards, self.boot_replays
            try:
                return original(self, faults)
            finally:
                RECORDER.count("injector.fast_forwards", self.fast_forwards - ff)
                RECORDER.count("injector.boot_replays", self.boot_replays - boot)
        return wrapper

    _patch(FaultInjector, "run_one", run_one)
    _patch(FaultInjector, "run_many", run_many)

    def state_getter(original):
        def wrapper(self, *args, **kwargs):
            stack = RECORDER.stack()
            if not stack or stack[-1]["name"] != "injection.run_one":
                return original(self, *args, **kwargs)
            frame = RECORDER.open("classify.compare")
            try:
                return original(self, *args, **kwargs)
            finally:
                RECORDER.close(frame)
        return wrapper

    for getter in STATE_GETTERS:
        _patch(MulticoreSystem, getter, state_getter)
    _patch(injector_mod, "classify_run", span("classify.compare"))

    # orchestration
    _patch(runner_mod.CampaignRunner, "run_suite", span("orchestration.runner"))
    _patch(runner_mod, "execute_job", span("orchestration.job"))
    _patch(runner_mod.PersistentSuitePool, "__init__", span("orchestration.pool_start"))
    _patch(runner_mod.PersistentSuitePool, "run_jobs", span("orchestration.drain"))
    _patch(runner_mod.PersistentSuitePool, "evict", span("orchestration.evict"))
    _patch(runner_mod.PersistentSuitePool, "close", span("orchestration.close"))
    _patch(runner_mod, "install_golden", span("orchestration.install"))
    _patch(runner_mod, "evict_golden", span("orchestration.evict"))
    _patch(runner_mod.GoldenCache, "load", span("orchestration.golden_load"))

    def pool_install(original):
        def wrapper(self, scenario_id, golden):
            frame = RECORDER.open("orchestration.install")
            try:
                path = original(self, scenario_id, golden)
            finally:
                RECORDER.close(frame)
            RECORDER.count("orchestration.spool_bytes", os.path.getsize(path))
            return path
        return wrapper

    _patch(runner_mod.PersistentSuitePool, "install", pool_install)

    def init_worker(original):
        def wrapper(*args, **kwargs):
            global RECORDER
            # A forked worker inherits the parent's spans; start afresh
            # and write this worker's spans when it exits normally.
            RECORDER = Recorder()
            from multiprocessing import util

            util.Finalize(None, _flush_worker, args=(span_dir,), exitpriority=10)
            return original(*args, **kwargs)
        return wrapper

    _patch(runner_mod, "_init_worker", init_worker)

    # orchestration.store
    def store_write(original):
        def wrapper(self, *args, **kwargs):
            frame = RECORDER.open("store.write")
            try:
                path = original(self, *args, **kwargs)
            finally:
                RECORDER.close(frame)
            RECORDER.count("store.writes")
            if path is not None and Path(path).exists():
                RECORDER.count("store.bytes", Path(path).stat().st_size)
            return path
        return wrapper

    for method in ("write_manifest", "write_shard", "write_partial"):
        _patch(CampaignStore, method, store_write)


def _flush_worker(span_dir: Path) -> None:
    RECORDER.write(Path(span_dir) / f"worker-{os.getpid()}.jsonl")


def flush_main(span_dir: Path) -> None:
    RECORDER.write(Path(span_dir) / f"main-{os.getpid()}.jsonl")


# ----------------------------------------------------------------------
# analysis
# ----------------------------------------------------------------------


def load(span_dir: Path) -> tuple[list[dict], dict[str, float], int]:
    """All spans and summed counters of a traced run; also the worker count."""
    spans: list[dict] = []
    counters: dict[str, float] = {}
    workers = 0
    for path in sorted(Path(span_dir).glob("*.jsonl")):
        role = path.name.split("-")[0]
        workers += role == "worker"
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                record = json.loads(line)
                if "counters" in record:
                    for key, value in record["counters"].items():
                        counters[key] = counters.get(key, 0) + value
                else:
                    record["role"] = role
                    record["pid"] = record["thread"].split(":")[0]
                    spans.append(record)
    return spans, counters, workers


def self_times(spans: list[dict]) -> list[dict]:
    """Attach ``self`` (duration minus direct children) to every span.

    A parent always lies on its child's thread (stacks are per thread),
    and span ids are unique within one process.
    """
    by_key = {(span["pid"], span["id"]): span for span in spans}
    for span in spans:
        span["self"] = span["end"] - span["start"]
    for span in spans:
        parent = by_key.get((span["pid"], span["parent"]))
        if parent is not None:
            parent["self"] -= span["end"] - span["start"]
    return spans


def summarize(span_dir: Path, main_thread: str, wall: float) -> dict:
    """Per-layer self times split into the driver's main thread, its
    other threads and pool workers, with the main thread's closure."""
    spans, counters, workers = load(span_dir)
    self_times(spans)
    table: dict[str, dict[str, float]] = {}
    for span in spans:
        if span["role"] == "worker":
            column = "workers"
        elif span["thread"] == main_thread:
            column = "main"
        else:
            column = "threads"
        row = table.setdefault(
            span["name"], {"main": 0.0, "threads": 0.0, "workers": 0.0, "inclusive": 0.0, "calls": 0}
        )
        row[column] += span["self"]
        row["inclusive"] += span["end"] - span["start"]
        row["calls"] += 1
    def root_seconds(keep) -> float:
        return sum(span["end"] - span["start"] for span in spans if span["parent"] is None and keep(span))

    # other_s comes from the root spans alone, so self times plus other_s
    # only close to the wall time if every child was charged to its parent
    main_self = sum(row["main"] for row in table.values())
    other = wall - root_seconds(lambda span: span["thread"] == main_thread)
    negative = [span for span in spans if span["self"] < -1e-6]
    return {
        "table": table,
        "counters": counters,
        "workers": workers,
        "main_self_s": main_self,
        "other_s": other,
        "closure": (main_self + other) / wall,
        "wall_s": wall,
        "negative_self_spans": len(negative),
        "worker_busy_s": root_seconds(lambda span: span["role"] == "worker"),
    }
