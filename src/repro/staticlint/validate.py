"""Predicted-vs-measured validation of the static vulnerability model.

Given an existing campaign store (or saved results database), this
module recomputes the static ACE prediction for every register-file
scenario in it and correlates predicted masking with the masking rate
the injections actually measured.  Rank correlation (Spearman) is the
headline number: the model's job is to *order* scenarios and targets by
vulnerability — steering sampling and selective hardening — not to
predict absolute percentages.

No injections are re-run: measurements come straight from the store's
reports.  The prediction side does need basic-block weights, which come
from a fresh cache-less golden profiling run per scenario (seconds, not
the hours a campaign takes).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.analysis.render import render_table
from repro.injection.fault import TARGET_FPR, TARGET_GPR
from repro.mining.correlation import grouped_spearman, pearson, spearman
from repro.orchestration.database import ResultsDatabase
from repro.staticlint.ace import PREDICTABLE_KINDS, analyze_scenario

#: Minimum combined weight of gpr/fpr targets for a scenario's
#: measurement to be attributable to the register-file model.
_MIN_PREDICTABLE_SHARE = 0.75


@dataclass
class ValidationRow:
    scenario_id: str
    app: str
    mode: str
    isa: str
    hardening: str
    faults: int
    predicted_masking_pct: float
    measured_masking_pct: float

    def as_record(self) -> dict:
        return {
            "scenario_id": self.scenario_id,
            "app": self.app,
            "mode": self.mode,
            "isa": self.isa,
            "hardening": self.hardening,
            "faults": self.faults,
            "predicted_masking_pct": round(self.predicted_masking_pct, 3),
            "measured_masking_pct": round(self.measured_masking_pct, 3),
        }


@dataclass
class ValidationReport:
    rows: List[ValidationRow] = field(default_factory=list)
    skipped: List[Tuple[str, str]] = field(default_factory=list)

    @property
    def overall_spearman(self) -> float:
        xs = [row.predicted_masking_pct for row in self.rows]
        ys = [row.measured_masking_pct for row in self.rows]
        return spearman(xs, ys)

    @property
    def overall_pearson(self) -> float:
        xs = [row.predicted_masking_pct for row in self.rows]
        ys = [row.measured_masking_pct for row in self.rows]
        return pearson(xs, ys)

    def spearman_by(self, key: str) -> Dict[str, float]:
        # the unrounded fields, so groups rank what overall_spearman ranks
        records = [vars(row) for row in self.rows]
        return grouped_spearman(
            records, key, "predicted_masking_pct", "measured_masking_pct"
        )

    def render(self) -> str:
        columns = [
            "scenario_id",
            "isa",
            "mode",
            "hardening",
            "faults",
            "predicted_masking_pct",
            "measured_masking_pct",
        ]
        lines = [
            render_table(
                [row.as_record() for row in self.rows],
                columns,
                title="Static vulnerability model: predicted vs measured masking",
            )
        ]
        lines.append("")
        lines.append(f"overall Spearman: {self.overall_spearman:+.3f}   "
                     f"Pearson: {self.overall_pearson:+.3f}   n={len(self.rows)}")
        for axis in ("isa", "mode"):
            per_group = self.spearman_by(axis)
            if per_group:
                parts = ", ".join(f"{name}: {value:+.3f}" for name, value in per_group.items())
                lines.append(f"Spearman by {axis}: {parts}")
        if self.skipped:
            lines.append("")
            lines.append("skipped scenarios (not register-file campaigns):")
            for scenario_id, reason in self.skipped:
                lines.append(f"  {scenario_id}: {reason}")
        return "\n".join(lines)


def _predictable_mix(report) -> Optional[Dict[str, float]]:
    """The report's target mix restricted to kinds the model covers.

    Returns normalised shares over gpr/fpr, or ``None`` when too little
    of the campaign targeted the register files for the measured
    masking to be attributable to them.
    """
    mix = report.scenario.target_mix
    shares: Dict[str, float]
    if mix is None:
        # the default campaign targets the GPR file (plus a small PC
        # share in some configurations) — treat as a GPR campaign
        shares = {TARGET_GPR: 1.0}
    else:
        shares = {kind: float(weight) for kind, weight in mix}
    total = sum(shares.values()) or 1.0
    covered = {
        kind: weight / total
        for kind, weight in shares.items()
        if kind in PREDICTABLE_KINDS and weight > 0
    }
    covered_share = sum(covered.values())
    if covered_share < _MIN_PREDICTABLE_SHARE:
        return None
    return {kind: weight / covered_share for kind, weight in covered.items()}


def validate_database(
    database: ResultsDatabase, min_faults: int = 1
) -> ValidationReport:
    """Correlate static predictions with every report in a database."""
    out = ValidationReport()
    for scenario_id in sorted(database.reports):
        report = database.reports[scenario_id]
        mix = _predictable_mix(report)
        if mix is None:
            out.skipped.append((scenario_id, "target mix is not register-file dominated"))
            continue
        if report.faults_injected < min_faults:
            out.skipped.append((scenario_id, "no injected faults"))
            continue
        if TARGET_FPR in mix and report.scenario.isa == "armv7":
            out.skipped.append((scenario_id, "no FP register file on armv7"))
            continue
        vulnerability = analyze_scenario(report.scenario)
        predicted = sum(
            share * vulnerability.predicted_masking(kind) for kind, share in mix.items()
        )
        out.rows.append(
            ValidationRow(
                scenario_id=scenario_id,
                app=report.scenario.app,
                mode=report.scenario.mode,
                isa=report.scenario.isa,
                hardening=report.scenario.hardening_label,
                faults=report.faults_injected,
                predicted_masking_pct=100.0 * predicted,
                measured_masking_pct=report.masking_rate_pct,
            )
        )
    return out


def load_results(path: Union[str, Path]) -> ResultsDatabase:
    """Load measurements from a campaign store directory or a JSON file."""
    path = Path(path)
    if path.is_dir():
        from repro.service.results import ResultsService

        return ResultsService(path).database()
    return ResultsDatabase.load(path)


def validate_store(path: Union[str, Path]) -> ValidationReport:
    """End-to-end: load a store and produce the validation report."""
    return validate_database(load_results(path))
