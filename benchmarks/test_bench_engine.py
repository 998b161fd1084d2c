"""Perf gates for the pre-decoded block execution engine (PR 5 + PR 6).

Measures guest-MIPS of the block engine against the reference
interpreter (``engine=False`` — the seed's ``Core.step`` loop) on the
campaign shapes:

* **injection-run shape** — caches off, the configuration every fault
  injection executes in (the paper's throughput-critical path);
* **golden-run shape** — caches on, the profiling configuration whose
  hit/miss statistics feed the mining stage.  PR 6 extended superblock
  fusion to this shape (compiled I-fetch batching + inline D-access
  accounting), closing the cached-shape gap the PR 5 record shows
  (1.17x with caches vs 2.4-2.7x without).

Results are written to ``benchmarks/output/BENCH_PR6.json`` (untracked,
like every benchmark output) so a run can be compared against another
run on the same host.  Two hard gates:

* no-caches shape: engine >= 2x the slow path (preserved PR 5 gate;
  the slow path already carries the shared-layer speedups, so 2x
  against it is the conservative bound for the 3x-vs-seed target);
* with-caches shape: engine >= 1.5x the slow path (PR 6 gate — the
  slow path itself got faster from the restructured ``Cache.access``,
  so the ratio is measured against a moving floor).
"""

from __future__ import annotations

import json
import time

from repro.npb.suite import Scenario, build_program, create_system, launch_scenario

from bench_helpers import OUTPUT_DIR

RESULT_PATH = OUTPUT_DIR / "BENCH_PR6.json"

#: Seed-tree throughput of the no-caches shape (measured on the PR 4
#: tree with the identical workload/budget), the baseline for the
#: ">=3x on the injection-run configuration" acceptance line of PR 5.
SEED_NO_CACHES_MIPS = 1.08

#: PR 5 record of the with-caches shape before the cached compile tier:
#: engine 0.77 MIPS / 1.17x over the slow path on this workload family
#: (see ROADMAP PR 5 notes; the retired PR 5 record measured 2.0 MIPS
#: on the short IS run whose compile tier was already warm).
PR5_WITH_CACHES_SPEEDUP = 1.17

#: Engine must beat the (already sped-up) slow path by these factors.
MIN_NO_CACHES_SPEEDUP = 2.0
MIN_WITH_CACHES_SPEEDUP = 1.5

#: name -> (scenario, model_caches, timed rounds)
SHAPES = {
    "injection-run IS-armv8 no-caches": (Scenario("IS", "serial", 1, "armv8"), False, 5),
    "injection-run LU-armv7 no-caches": (Scenario("LU", "serial", 1, "armv7"), False, 3),
    "golden-run IS-armv8 with-caches": (Scenario("IS", "serial", 1, "armv8"), True, 5),
    "golden-run LU-armv7 with-caches": (Scenario("LU", "serial", 1, "armv7"), True, 3),
}

#: shape name -> minimum engine/slow-path speedup enforced in CI
GATES = {
    "injection-run IS-armv8 no-caches": MIN_NO_CACHES_SPEEDUP,
    "golden-run IS-armv8 with-caches": MIN_WITH_CACHES_SPEEDUP,
}

BUDGET = 2_000_000


def _launched(scenario, model_caches, engine):
    program = build_program(scenario.app, scenario.mode, scenario.isa)
    system = create_system(scenario, model_caches=model_caches, engine=engine)
    launch_scenario(system, scenario, program)
    return system


def _timed_run(scenario, model_caches, engine) -> tuple[float, int]:
    system = _launched(scenario, model_caches, engine)
    start = time.perf_counter()
    system.run(max_instructions=BUDGET)
    return time.perf_counter() - start, system.total_instructions


def _throughputs(scenario, model_caches, rounds) -> tuple[float, float, int]:
    """Best-of-N guest MIPS for (engine, slow path), setup excluded.

    Rounds interleave the two configurations so a transient load spike
    on a shared runner hits both symmetrically instead of biasing the
    ratio the gate asserts on.
    """
    # Warm the program build, decode cache and superblock compile tier.
    for engine in (True, False):
        _launched(scenario, model_caches, engine).run(max_instructions=BUDGET)
    best = {True: float("inf"), False: float("inf")}
    instructions = 0
    for _ in range(rounds):
        for engine in (True, False):
            elapsed, instructions = _timed_run(scenario, model_caches, engine)
            best[engine] = min(best[engine], elapsed)
    return instructions / best[True] / 1e6, instructions / best[False] / 1e6, instructions


def test_bench_engine_vs_slow_path():
    shapes = {}
    for name, (scenario, model_caches, rounds) in SHAPES.items():
        engine_mips, slow_mips, instructions = _throughputs(scenario, model_caches, rounds)
        shapes[name] = {
            "scenario": scenario.scenario_id,
            "model_caches": model_caches,
            "instructions": instructions,
            "engine_mips": round(engine_mips, 3),
            "slow_path_mips": round(slow_mips, 3),
            "speedup": round(engine_mips / slow_mips, 3),
        }

    gates = {
        name: {
            "min_speedup": minimum,
            "measured_speedup": shapes[name]["speedup"],
            "passed": shapes[name]["speedup"] >= minimum,
        }
        for name, minimum in GATES.items()
    }
    payload = {
        "benchmark": "block engine vs reference interpreter, cached + uncached shapes (PR 6)",
        "budget_instructions": BUDGET,
        "shapes": shapes,
        "history": {
            "seed_no_caches_mips": SEED_NO_CACHES_MIPS,
            "pr5_with_caches_speedup": PR5_WITH_CACHES_SPEEDUP,
            "note": (
                "MIPS values are host-dependent; cross-PR comparisons should use "
                "the same-run engine/slow-path speedup ratios"
            ),
        },
        "gates": gates,
    }
    RESULT_PATH.parent.mkdir(parents=True, exist_ok=True)
    RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")

    for name, gate in gates.items():
        assert gate["passed"], (
            f"engine is only {gate['measured_speedup']:.2f}x the slow path on "
            f"'{name}' (gate: {gate['min_speedup']}x) — see {RESULT_PATH}"
        )
