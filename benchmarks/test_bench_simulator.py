"""Ablation benchmark: simulator throughput with and without cache modelling.

DESIGN.md calls out the decision to disable the cache model during
injection runs (outcomes are architectural) while keeping it for golden
profiling runs; this benchmark quantifies that trade-off.

Only ``system.run`` is inside the measured region (system construction
and workload launch happen in the per-round setup), so the number is
the interpreter/engine throughput the campaign actually sees — the
quantity the PR 5 pre-decoded block engine is gated on (see
``test_bench_engine.py`` and the ``benchmarks/output/BENCH_PR6.json``
record it writes).
"""

import pytest

from repro.npb.suite import Scenario, build_program, create_system, launch_scenario


def _make_system(model_caches: bool):
    scenario = Scenario("IS", "serial", 1, "armv8")
    program = build_program(scenario.app, scenario.mode, scenario.isa)
    system = create_system(scenario, model_caches=model_caches)
    launch_scenario(system, scenario, program)
    return (system,), {}


def _run(system):
    system.run(max_instructions=2_000_000)
    return system.total_instructions


@pytest.mark.parametrize("model_caches", [False, True], ids=["no-caches", "with-caches"])
def test_bench_simulator_throughput(benchmark, model_caches):
    instructions = benchmark.pedantic(
        _run, setup=lambda: _make_system(model_caches), warmup_rounds=1, rounds=5
    )
    assert instructions > 10_000
