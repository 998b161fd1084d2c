"""Faulty-run differential: the block engine against the interpreter.

The engine differentials in ``test_engine.py`` run fault-free programs.
Campaigns run *faulty* ones: wild PCs, mid-block faults, corrupted
memory and cache lines, rollback re-execution.  Here seeded fault lists
with a gpr/pc/memory/cache mix go through :class:`FaultInjector` twice,
once on the block engine and once with every core pinned to the
reference interpreter, and each fault must end with the same
``(outcome, detail, executed_instructions)``.

Each list runs at the default compile threshold (cold blocks on the
interpreter tier, budget tails mostly on compiled prefixes) and at
threshold 1 (every block and every budget-tail prefix compiled on first
use).  The decode cache is fresh for each run, so earlier tests cannot
have warmed it.
"""

from __future__ import annotations

from collections import OrderedDict

import pytest

from repro.cpu import engine as block_engine
from repro.injection import golden as golden_module
from repro.injection import injector as injector_module
from repro.injection.campaign import CampaignConfig, ScenarioCampaign
from repro.injection.injector import FaultInjector
from repro.npb.suite import Scenario

MIX = {"gpr": 0.4, "pc": 0.2, "memory": 0.2, "cache": 0.2}

#: Both ISAs x serial/omp/mpi, plus one recovery cell (rollbacks re-run
#: the post-fault window on freshly restored systems).
CELLS = [
    Scenario("IS", "serial", 1, "armv8"),
    Scenario("IS", "omp", 2, "armv8"),
    Scenario("IS", "mpi", 2, "armv8"),
    Scenario("IS", "serial", 1, "armv7"),
    Scenario("IS", "omp", 2, "armv7"),
    Scenario("IS", "mpi", 2, "armv7"),
    Scenario("IS", "omp", 2, "armv8", hardening="dwc+rec"),
]
FAULTS_PER_CELL = 24


def _pin_interpreter(monkeypatch, module) -> None:
    """Make ``module`` build every system with the engine off."""
    create_system = module.create_system
    monkeypatch.setattr(
        module, "create_system", lambda *args, **kwargs: create_system(*args, **{**kwargs, "engine": False})
    )


@pytest.fixture(scope="module")
def fault_lists():
    """Golden run and seeded fault list per cell, computed once on the
    interpreter so the reference data does not depend on the engine."""
    lists = {}
    with pytest.MonkeyPatch.context() as monkeypatch:
        _pin_interpreter(monkeypatch, golden_module)
        for scenario in CELLS:
            campaign = ScenarioCampaign(
                scenario, CampaignConfig(faults_per_scenario=FAULTS_PER_CELL, seed=31, target_mix=MIX)
            )
            lists[scenario.scenario_id] = (campaign.build_fault_list(), campaign.golden)
    return lists


def _outcomes(scenario, golden, faults):
    injector = FaultInjector(scenario, golden)
    return [
        (result.outcome, result.detail, result.executed_instructions)
        for result in map(injector.run_one, faults)
    ]


@pytest.mark.parametrize("threshold", [block_engine._COMPILE_THRESHOLD, 1], ids=["default", "threshold1"])
@pytest.mark.parametrize("scenario", CELLS, ids=[scenario.scenario_id for scenario in CELLS])
def test_faulty_runs_engine_matches_interpreter(scenario, threshold, fault_lists, monkeypatch):
    faults, golden = fault_lists[scenario.scenario_id]
    assert {fault.target_kind for fault in faults} >= {"gpr", "memory"}

    monkeypatch.setattr(block_engine, "_DECODE_CACHE", OrderedDict())
    monkeypatch.setattr(block_engine, "_COMPILE_THRESHOLD", threshold)
    engine = _outcomes(scenario, golden, faults)
    info = block_engine.decode_cache_info()
    assert info["compiled"] > 0 and info["compiled_prefixes"] > 0

    _pin_interpreter(monkeypatch, injector_module)
    interpreter = _outcomes(scenario, golden, faults)

    for fault, got, expected in zip(faults, engine, interpreter):
        assert got == expected, (fault, got, expected)
