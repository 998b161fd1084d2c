"""The 130-scenario evaluation matrix of the paper.

A *scenario* is one (application, parallelisation model, core count,
ISA) combination.  The availability matrix follows Section 3.3.2: ten
serial applications, ten OpenMP applications and nine MPI applications,
with BT and SP lacking an MPI dual-core configuration — which yields
exactly 130 scenarios over the two ISAs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Optional

from repro.compiler.linker import link
from repro.hardening.schemes import (
    compile_scheme,
    dwc_top_n,
    hardening_label,
    normalize_hardening,
)
from repro.isa.arch import ArchSpec, get_arch
from repro.isa.program import Program
from repro.npb import bt, cg, dc, dt, ep, ft, is_sort, lu, mg, sp, ua
from repro.npb.common import MPI, OMP, SERIAL
from repro.runtime import runtime_modules
from repro.soc.multicore import MulticoreSystem, build_system

#: Application registry: name -> (module builder, availability per mode).
APPLICATIONS = {
    "BT": {"builder": bt.build_module, "serial": True, "omp": True, "mpi": True, "mpi_core_counts": (1, 4)},
    "CG": {"builder": cg.build_module, "serial": True, "omp": True, "mpi": True, "mpi_core_counts": (1, 2, 4)},
    "DC": {"builder": dc.build_module, "serial": True, "omp": True, "mpi": False, "mpi_core_counts": ()},
    "DT": {"builder": dt.build_module, "serial": False, "omp": False, "mpi": True, "mpi_core_counts": (1, 2, 4)},
    "EP": {"builder": ep.build_module, "serial": True, "omp": True, "mpi": True, "mpi_core_counts": (1, 2, 4)},
    "FT": {"builder": ft.build_module, "serial": True, "omp": True, "mpi": True, "mpi_core_counts": (1, 2, 4)},
    "IS": {"builder": is_sort.build_module, "serial": True, "omp": True, "mpi": True, "mpi_core_counts": (1, 2, 4)},
    "LU": {"builder": lu.build_module, "serial": True, "omp": True, "mpi": True, "mpi_core_counts": (1, 2, 4)},
    "MG": {"builder": mg.build_module, "serial": True, "omp": True, "mpi": True, "mpi_core_counts": (1, 2, 4)},
    "SP": {"builder": sp.build_module, "serial": True, "omp": True, "mpi": True, "mpi_core_counts": (1, 4)},
    "UA": {"builder": ua.build_module, "serial": True, "omp": True, "mpi": False, "mpi_core_counts": ()},
}

OMP_CORE_COUNTS = (1, 2, 4)
ISAS = ("armv7", "armv8")


def normalize_target_mix(mix) -> Optional[tuple[tuple[str, float], ...]]:
    """Canonical, hashable form of a fault-target mix.

    Accepts a ``{kind: weight}`` mapping or an iterable of
    ``(kind, weight)`` pairs; returns a tuple of pairs (insertion order
    preserved — it defines the cumulative draw order of the fault
    model), or ``None`` for the default register-file mix.  Weight
    validation happens in ``FaultModel``.
    """
    if mix is None:
        return None
    items = mix.items() if hasattr(mix, "items") else mix
    return tuple((str(kind), float(weight)) for kind, weight in items)


def format_target_mix(mix) -> str:
    """Compact mix tag (e.g. ``gpr0.6+memory0.3+cache0.1``)."""
    normalized = normalize_target_mix(mix)
    if normalized is None:
        return "default"
    return "+".join(f"{kind}{weight:g}" for kind, weight in normalized)


@dataclass(frozen=True)
class Scenario:
    """One fault-injection scenario of the evaluation matrix.

    ``target_mix`` is the optional fault-target axis: a tuple of
    ``(kind, weight)`` pairs (see :func:`normalize_target_mix`) that
    overrides the campaign-level mix, letting one suite sweep register,
    memory and cache fault dimensions side by side.  ``None`` keeps the
    paper's register-file campaign.

    ``hardening`` is the software-hardening axis: a canonical scheme
    label (``"dwc"``, ``"cfc"``, ``"dwc+cfc"`` — see
    :mod:`repro.hardening`) selecting the compiler-implemented
    fault-tolerance transforms applied to the application module.
    ``None`` keeps the paper's unhardened binaries.
    """

    app: str
    mode: str  # "serial", "omp" or "mpi"
    cores: int
    isa: str
    target_mix: Optional[tuple[tuple[str, float], ...]] = None
    hardening: Optional[str] = None

    def __post_init__(self):
        # Canonicalise the scheme label at construction so directly
        # built scenarios ("cfc+dwc", "off") get the same scenario_id
        # (and store shards) as swept or deserialised ones.
        object.__setattr__(self, "hardening", normalize_hardening(self.hardening))

    @property
    def scenario_id(self) -> str:
        if self.mode == SERIAL:
            label = "SER-1"
        else:
            label = f"{self.mode.upper()}-{self.cores}"
        base = f"{self.app}-{label}-{self.isa}"
        if self.target_mix is not None:
            base = f"{base}-{self.target_mix_label}"
        if self.hardening is not None:
            base = f"{base}-{self.hardening}"
        return base

    @property
    def target_mix_label(self) -> str:
        """Compact mix tag (e.g. ``gpr0.6+memory0.3+cache0.1``)."""
        return format_target_mix(self.target_mix)

    def with_target_mix(self, mix) -> "Scenario":
        """A copy of this scenario carrying the given fault-target mix."""
        return replace(self, target_mix=normalize_target_mix(mix))

    def with_hardening(self, scheme) -> "Scenario":
        """A copy of this scenario built with the given hardening scheme."""
        return replace(self, hardening=normalize_hardening(scheme))

    @property
    def hardening_label(self) -> str:
        """Display label of the hardening axis (``"off"`` when unhardened)."""
        return hardening_label(self.hardening)

    def target_mix_dict(self) -> Optional[dict[str, float]]:
        """The mix as the mapping ``FaultModel`` consumes (None = default)."""
        return None if self.target_mix is None else dict(self.target_mix)

    @property
    def api_label(self) -> str:
        """The bar label used in Figures 2 and 3 (SER-1, MPI-2, OMP-4, ...)."""
        if self.mode == SERIAL:
            return "SER-1"
        return f"{self.mode.upper()}-{self.cores}"

    def describe(self) -> dict:
        return {
            "scenario_id": self.scenario_id,
            "app": self.app,
            "mode": self.mode,
            "cores": self.cores,
            "isa": self.isa,
            "target_mix": self.target_mix_label,
            "hardening": self.hardening_label,
        }

    def as_dict(self) -> dict:
        """Full-fidelity serialisation (unlike :meth:`describe`, which
        renders the mix as a display label)."""
        return {
            "app": self.app,
            "mode": self.mode,
            "cores": self.cores,
            "isa": self.isa,
            "target_mix": None if self.target_mix is None else [list(pair) for pair in self.target_mix],
            "hardening": self.hardening,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Scenario":
        """Rebuild a scenario from :meth:`as_dict` output (JSON-safe).

        Payloads written before the hardening axis existed carry no
        ``hardening`` key and come back as unhardened scenarios.
        """
        return cls(
            app=str(payload["app"]),
            mode=str(payload["mode"]),
            cores=int(payload["cores"]),
            isa=str(payload["isa"]),
            target_mix=normalize_target_mix(payload.get("target_mix")),
            hardening=normalize_hardening(payload.get("hardening")),
        )


@dataclass
class ScenarioSuite:
    """The full list of scenarios for one or both ISAs."""

    scenarios: list[Scenario]

    def __len__(self) -> int:
        return len(self.scenarios)

    def __iter__(self):
        return iter(self.scenarios)

    def filter(self, apps=None, modes=None, isas=None, core_counts=None, hardenings=None) -> "ScenarioSuite":
        if hardenings is not None:
            hardenings = {normalize_hardening(scheme) for scheme in hardenings}
        selected = [
            s
            for s in self.scenarios
            if (apps is None or s.app in apps)
            and (modes is None or s.mode in modes)
            and (isas is None or s.isa in isas)
            and (core_counts is None or s.cores in core_counts)
            and (hardenings is None or s.hardening in hardenings)
        ]
        return ScenarioSuite(selected)

    def by_isa(self, isa: str) -> "ScenarioSuite":
        return self.filter(isas=[isa])

    def with_target_mix(self, mix) -> "ScenarioSuite":
        """Every scenario of the suite carrying the given fault-target mix."""
        return ScenarioSuite([scenario.with_target_mix(mix) for scenario in self.scenarios])

    def sweep_target_mixes(self, mixes) -> "ScenarioSuite":
        """The cross product of this suite with several fault-target mixes.

        ``mixes`` is an iterable of mixes (``None`` keeps the default
        register campaign); the result opens the target dimension as one
        more campaign axis next to application, API, core count and ISA.
        """
        scenarios = [
            scenario.with_target_mix(mix) if mix is not None else scenario
            for mix in mixes
            for scenario in self.scenarios
        ]
        return ScenarioSuite(scenarios)

    def with_hardening(self, scheme) -> "ScenarioSuite":
        """Every scenario of the suite built with the given hardening scheme."""
        return ScenarioSuite([scenario.with_hardening(scheme) for scenario in self.scenarios])

    def sweep_hardenings(self, schemes) -> "ScenarioSuite":
        """The cross product of this suite with several hardening schemes.

        ``schemes`` is an iterable of scheme labels (``None``/``"off"``
        keeps the unhardened baseline); the result opens software
        hardening as one more campaign axis next to application, API,
        core count, ISA and fault-target mix.  Schemes that normalise
        to the same label are swept once — a duplicate would produce
        colliding scenario ids and a redundant campaign.
        """
        seen: set = set()
        unique: list = []
        for scheme in schemes:
            normalized = normalize_hardening(scheme)
            if normalized not in seen:
                seen.add(normalized)
                unique.append(normalized)
        scenarios = [
            scenario.with_hardening(scheme)
            for scheme in unique
            for scenario in self.scenarios
        ]
        return ScenarioSuite(scenarios)


def scenarios_for_isa(isa: str) -> list[Scenario]:
    """The 65 scenarios of one ISA (10 serial + 30 OpenMP + 25 MPI)."""
    scenarios: list[Scenario] = []
    for app, spec in sorted(APPLICATIONS.items()):
        if spec["serial"]:
            scenarios.append(Scenario(app=app, mode=SERIAL, cores=1, isa=isa))
        if spec["omp"]:
            for cores in OMP_CORE_COUNTS:
                scenarios.append(Scenario(app=app, mode=OMP, cores=cores, isa=isa))
        if spec["mpi"]:
            for cores in spec["mpi_core_counts"]:
                scenarios.append(Scenario(app=app, mode=MPI, cores=cores, isa=isa))
    return scenarios


def build_scenario_suite(isas=ISAS) -> ScenarioSuite:
    """Build the full scenario matrix (130 scenarios for both ISAs)."""
    scenarios: list[Scenario] = []
    for isa in isas:
        scenarios.extend(scenarios_for_isa(isa))
    return ScenarioSuite(scenarios)


def build_program(app: str, mode: str, isa: str, hardening: Optional[str] = None) -> Program:
    """Compile and link one application variant for one ISA (cached).

    ``hardening`` selects the compiler-implemented fault-tolerance
    scheme; it is applied *selectively* to the application module (the
    guest runtime libraries stay unhardened, like system libraries a
    hardening compiler flag does not touch), so baseline binaries are
    bit-identical to the pre-hardening compiler output.  The label is
    canonicalised before the cache lookup, so ``None``/``"off"`` (and
    ``"cfc+dwc"``/``"dwc+cfc"``) share one compiled program.  The
    recovery policy component (``rec``) is stripped here: recovery is
    how the injector *handles* a detection, not a code transform, so
    ``dwc+rec`` and ``dwc`` scenarios share the bit-identical binary.
    """
    return _build_program_cached(app, mode, isa, compile_scheme(hardening))


@lru_cache(maxsize=None)
def _build_program_cached(app: str, mode: str, isa: str, hardening: Optional[str]) -> Program:
    if app not in APPLICATIONS:
        raise KeyError(f"unknown application {app!r}; expected one of {sorted(APPLICATIONS)}")
    arch = get_arch(isa)
    spec = APPLICATIONS[app]
    if not spec.get(mode, False):
        raise ValueError(f"application {app} has no {mode} implementation")
    app_module = spec["builder"](mode)
    modules = [app_module] + runtime_modules(arch, parallel_mode=mode)
    name = f"{app.lower()}.{mode}.{arch.name}"
    if hardening is not None:
        name = f"{name}.{hardening}"
    shadow_ranks = None
    if hardening is not None and dwc_top_n(hardening) is not None:
        # Selective dwcN: rank the baseline build's variables with the
        # static (profile-free) vulnerability analysis and duplicate
        # only the top N per function.  Using the unhardened program of
        # the same variant breaks the circularity of ranking a binary
        # that does not exist yet; the ranks are deterministic, so the
        # hardened build stays cacheable.
        from repro.staticlint import analyze_liveness, top_variables, variable_ranks

        baseline = _build_program_cached(app, mode, isa, None)
        ranks = variable_ranks(baseline, analyze_liveness(baseline))
        shadow_ranks = top_variables(ranks, dwc_top_n(hardening))
    return link(
        modules,
        arch,
        name=name,
        hardening=hardening,
        harden_modules=(app_module.name,),
        shadow_ranks=shadow_ranks,
    )


def create_system(
    scenario: Scenario,
    model_caches: bool = False,
    quantum: int = 20_000,
    engine: bool = True,
) -> MulticoreSystem:
    """Build the simulated processor for one scenario.

    ``engine=False`` pins the cores to the reference interpreter
    instead of the pre-decoded block engine (differential testing and
    slow-path benchmarking).
    """
    return build_system(
        scenario.isa,
        cores=scenario.cores,
        model_caches=model_caches,
        quantum=quantum,
        engine=engine,
    )


def launch_scenario(system: MulticoreSystem, scenario: Scenario, program: Program | None = None) -> None:
    """Load the scenario's workload onto a freshly built system."""
    if program is None:
        program = build_program(scenario.app, scenario.mode, scenario.isa, scenario.hardening)
    if scenario.mode == MPI:
        system.load_mpi_job(program, nranks=scenario.cores, name=scenario.app.lower())
    else:
        nthreads = scenario.cores if scenario.mode == OMP else 1
        system.load_process(program, name=scenario.app.lower(), nthreads_hint=nthreads)


def instruction_budget(scenario: Scenario, golden_instructions: int | None = None) -> int:
    """Watchdog budget for one scenario run.

    When the golden instruction count is known the budget is a multiple
    of it (a hung run is detected quickly); otherwise a generous
    per-ISA default is used.  The static default scales with the
    scenario's hardening scheme: hardened binaries legitimately execute
    several times more instructions, and a budget derived from
    *unhardened* run lengths would misfile slow hardened runs as hangs.
    """
    if golden_instructions is not None:
        return max(50_000, 4 * golden_instructions)
    budget = 8_000_000 if scenario.isa == "armv7" else 2_000_000
    compiled = compile_scheme(scenario.hardening)
    if compiled is not None:
        # dwc and cfc each roughly double the dynamic instruction count.
        # Only *compiled* components count: the rec policy never adds
        # instructions to the binary, so dwc+rec budgets like dwc.
        budget *= 2 * (1 + compiled.count("+"))
    return budget
