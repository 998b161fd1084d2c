"""Static vulnerability analysis: CFG + liveness/ACE over linked binaries.

The injection campaigns measure reliability by brute force; this
package *predicts* it by dataflow analysis.  A control-flow graph over
the linked program text (:mod:`repro.staticlint.cfg`), a backward
liveness fixpoint with interprocedural call summaries
(:mod:`repro.staticlint.liveness`) and execution-count weighting from
golden-run profiles (:mod:`repro.staticlint.ace`) yield a predicted
per-register ACE fraction and a predicted masking rate per scenario —
a prior over where faults matter, validated against measured campaign
outcomes by :mod:`repro.staticlint.validate` and consumed by
importance-weighted fault sampling and top-N selective hardening.

The package namespace exports the analysis only.  Import the validator
from :mod:`repro.staticlint.validate` directly: it reads results
databases and renders tables, so loading it here would make every
campaign process that asks for a static prior import the results and
mining layers too.
"""

from repro.staticlint.ace import (
    PREDICTABLE_KINDS,
    ScenarioVulnerability,
    analyze_program,
    analyze_scenario,
    register_ace_fractions,
    top_variables,
    variable_ranks,
)
from repro.staticlint.cfg import (
    BasicBlock,
    ControlFlowGraph,
    build_cfg,
    build_function_cfg,
    build_program_cfg,
)
from repro.staticlint.liveness import LivenessResult, analyze_liveness

__all__ = [
    "PREDICTABLE_KINDS",
    "ScenarioVulnerability",
    "analyze_program",
    "analyze_scenario",
    "register_ace_fractions",
    "top_variables",
    "variable_ranks",
    "BasicBlock",
    "ControlFlowGraph",
    "build_cfg",
    "build_function_cfg",
    "build_program_cfg",
    "LivenessResult",
    "analyze_liveness",
]
