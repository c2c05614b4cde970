"""The runner arms the tripwire around every cell (ROADMAP's RNG audit).

A driver that touches process-global RNG state must fail its cell with a
clear error naming the offending call site; clean drivers run unchanged.
"""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.tripwire import GlobalRngError
from repro.runner.engine import execute_jobs
from repro.runner.jobs import Job
from repro.util.rng import SeededRng

SRC = Path(__file__).resolve().parents[2] / "src"


def _dirty_driver(seed: int) -> float:
    # Module-level function so the job pickles into worker processes.
    return random.random() + seed


def _clean_driver(seed: int) -> float:
    return SeededRng(seed).random()


def _job(fn, cell: str) -> Job:
    return Job(experiment="unit", cell=cell, fn=fn, args=(3,), seed=3)


def test_dirty_cell_fails_loudly_in_serial_mode():
    with pytest.raises(GlobalRngError) as excinfo:
        execute_jobs([_job(_dirty_driver, "dirty")], serial=True)
    message = str(excinfo.value)
    assert "random.random()" in message
    assert "test_runner_tripwire.py" in message  # the offending call site
    assert "unit:dirty" in message  # the failing cell


def test_dirty_cell_fails_loudly_across_the_pool():
    with pytest.raises(GlobalRngError, match="unit:dirty"):
        execute_jobs([_job(_dirty_driver, "dirty")], workers=2)


def test_clean_cell_passes_with_tripwire_armed():
    outcomes, _, _ = execute_jobs([_job(_clean_driver, "clean")], serial=True)
    assert outcomes[0].result == SeededRng(3).random()


def test_tripwire_escape_hatch():
    outcomes, _, _ = execute_jobs(
        [_job(_dirty_driver, "dirty")], serial=True, tripwire=False
    )
    assert isinstance(outcomes[0].result, float)


def test_engines_import_the_tripwire_without_the_analyzer():
    # The engines arm the tripwire; loading it must not pull in the
    # static-analysis passes (a fresh interpreter sees the import cost).
    code = (
        "import sys\n"
        "import repro.runner.engine, repro.sim.sharded.engine\n"
        "print(sorted(sys.modules))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        check=True, capture_output=True, text=True,
    ).stdout
    for name in ("project", "visitor", "callgraph"):
        assert f"'repro.analysis.{name}'" not in out, out
    assert "'repro.analysis.tripwire'" in out, out
