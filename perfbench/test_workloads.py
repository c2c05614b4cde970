"""Checks of the benchmark itself (not part of the repo's tier-1 suite).

    python3 -m pytest perfbench/test_workloads.py -q

The workload generators must be deterministic in the seed and keep their
regime across seeds; the traced run must reconcile and leave the program
as it found it; ``BENCHMARK.json`` must name exactly what ``run.py``
prints.  Takes about a minute: every check runs real repetitions.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run
import workloads
from run import HERE, ROOT, gate, launch

MANIFEST = json.loads((HERE / "manifest.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", ["dense-flood", "sparse-city", "paper-grid"])
def test_same_seed_same_output(workload):
    first = launch(workload, 1)
    again = launch(workload, 1)
    assert gate(first, MANIFEST) == []
    assert gate(again, MANIFEST) == []
    key = "cells" if workload == "paper-grid" else "digest"
    assert first[key] == again[key]


@pytest.mark.parametrize("workload, receivers", [
    ("dense-flood", 88.0),
    ("sparse-city", 1.8),
])
def test_other_seed_other_digest_same_regime(workload, receivers):
    entries = MANIFEST[workload]
    assert len({entry["digest"] for entry in entries}) == len(entries)
    for entry in entries:
        assert entry["receivers_per_broadcast"] == pytest.approx(receivers, rel=0.1)
    fresh = launch(workload, 2)
    assert fresh["digest"] == entries[2]["digest"] != entries[1]["digest"]
    assert fresh["receivers_per_broadcast"] == pytest.approx(receivers, rel=0.1)


def test_paper_grid_seeds_differ_but_stay_close_to_the_paper():
    entries = MANIFEST["paper-grid"]
    assert len({json.dumps(entry["cells"]) for entry in entries}) == len(entries)
    for entry in entries:
        assert 0.0 < entry["paper_err_pct"] < 10.0


def test_city_sharded_matches_serial_city():
    record = launch("city-sharded", 3)
    assert gate(record, MANIFEST) == []
    assert record["digest"] == MANIFEST["sparse-city"][3]["digest"]


def test_traced_run_reconciles_and_matches_untraced():
    record = launch("dense-flood", 0, traced=True)
    assert gate(record, MANIFEST) == []
    layers = record["layers"]
    self_times = [value for name, value in layers.items()
                  if run.PER_LAYER.get(name) == "s"
                  and not name.startswith(("trace.", "runner.cell_s.",
                                           "sharded.compute_s."))
                  and name != "phy.add_node_setup_s"]
    assert sum(self_times) + layers["trace.remainder_s"] == pytest.approx(
        layers["trace.run_s"], rel=1e-9)
    assert 0.0 <= layers["trace.remainder_s"] < 0.01 * layers["trace.run_s"]
    assert layers["app.handler_calls"] == record["frames_delivered"]


def test_tracer_restores_every_attribute():
    sys.path.insert(0, str(ROOT / "src"))
    import repro.runner  # noqa: F401
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    swapped = list(tracer.patches._saved)
    assert swapped
    assert all(vars(owner)[name] is not original
               for owner, name, original in swapped)
    tracer.uninstall()
    assert all(vars(owner)[name] is original
               for owner, name, original in swapped)


def test_benchmark_json_names_what_run_prints():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dense-flood",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
