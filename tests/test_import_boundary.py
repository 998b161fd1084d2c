"""Import boundary of campaign processes.

Every process that runs injections (the in-process driver, pool workers
and fleet workers) must start without loading the numeric stack, and
the in-process driver path must not load the results-analysis layers
either.  Each check runs in a fresh interpreter, so modules imported by
other tests cannot hide a regression.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

NUMERIC = ("scipy", "numpy")
ANALYSIS = ("repro.analysis", "repro.mining")

CAMPAIGN_PATH = """
import repro.orchestration.runner
import repro.stats
import repro.staticlint.ace
from repro.npb.suite import Scenario, build_program
from repro.stats.strata import static_vulnerability

static_vulnerability(Scenario("IS", "serial", 1, "armv8"))
build_program("IS", "serial", "armv8", "dwc4")
"""


def loaded_after(source: str, names) -> list:
    """Which of ``names`` a fresh interpreter holds after running ``source``."""
    probe = source + f"\nimport json, sys\nprint(json.dumps([n for n in {list(names)!r} if n in sys.modules]))\n"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    completed = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=300
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.splitlines()[-1])


def test_campaign_driver_path_loads_no_numeric_or_analysis_modules():
    assert loaded_after(CAMPAIGN_PATH, NUMERIC + ANALYSIS) == []


def test_fleet_worker_loads_no_numeric_modules():
    assert loaded_after("import repro.service.worker", NUMERIC) == []
