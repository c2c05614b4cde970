"""The repo benchmark: one workload, measured for a fixed time, gated.

    python3 perfbench/run.py --workload sparse-city --seed 3 --seconds 30 --trace 0

Run from the root of a checkout.  The run is a closed batch loop: it
starts one repetition of the workload in a fresh process
(``worker.py``), waits for it to finish, and starts the next until
``--seconds`` have passed (at least one repetition).  Every repetition
is checked against the committed reference in ``manifest.json``; a
repetition that fails a check counts in ``failed`` and its timings are
left out.  Reported values are medians over the passing repetitions.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced repetitions and reports the per-layer metrics: the
traced repetition's self times and counts, the unattributed remainder
and the tracing overhead against the untraced ones.

The last line of output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is the
full record (environment, regime, every repetition).  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

#: A repetition that takes longer than this is killed and counts as failed.
REP_TIMEOUT_S = 150.0

#: End-to-end metrics (``--trace 0``) and their units.
END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "deliveries_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics (``--trace 1``) and their units, in report order.
#: A layer the workload does not reach reports 0.
PER_LAYER = {
    "sim.events": "count", "sim.instants": "count", "sim.processes": "count",
    "sim.self_s": "s",
    "phy.queries": "count", "phy.candidates": "count", "phy.query_s": "s",
    "phy.position_calls": "count", "phy.positions_s": "s",
    "phy.add_node_s": "s", "phy.add_node_setup_s": "s",
    "medium.broadcasts": "count", "medium.broadcast_s": "s",
    "medium.frames_delivered": "count", "medium.frames_dropped": "count",
    "medium.batch_cache_hit_ratio": "ratio",
    "medium.delivered_per_candidate": "ratio",
    "radio.tx_s": "s", "radio.rx_batches": "count", "radio.rx_frames": "count",
    "radio.rx_s": "s",
    "app.handler_calls": "count", "app.handler_s": "s",
    "energy.calls": "count", "energy.s": "s",
    "rng.streams": "count", "rng.stream_s": "s",
    "core.calls": "count", "core.s": "s", "comm.s": "s", "net.s": "s",
    **{f"runner.cell_s.{name}": "s" for name in workloads.PAPER_EXPERIMENTS},
    "runner.cell_self_s": "s", "runner.overhead_s": "s",
    "sharded.compute_s.max": "s", "sharded.compute_s.mean": "s",
    "sharded.imbalance": "ratio", "sharded.exchange_s": "s",
    "sharded.shard_s": "s", "sharded.handoffs": "count",
    "sharded.mirror_adds": "count", "sharded.cross_shard_frames": "count",
    "sharded.cpu_s": "s", "sharded.workers": "count",
    "engine.self_s": "s",
    "trace.run_s": "s", "trace.remainder_s": "s", "trace.overhead_pct": "%",
}


def git_rev() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text(encoding="utf-8").strip()
        return ref
    except OSError:
        return "unknown"


def launch(workload: str, slot: int, traced: bool = False,
           transport: str = "processes") -> Dict[str, Any]:
    """Run one repetition in a fresh process; return its record.

    A repetition that exits non-zero, times out or prints no record
    comes back as ``{"error": ...}``.
    """
    command = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
               "--slot", str(slot), "--transport", transport]
    if traced:
        command.append("--traced")
    command += ["--t0", repr(time.monotonic())]
    try:
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                              timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"repetition timed out after {REP_TIMEOUT_S:.0f} s"}
    if done.returncode != 0:
        tail = (done.stderr or done.stdout).strip().splitlines()[-3:]
        return {"error": f"worker exited {done.returncode}: " + " | ".join(tail)}
    try:
        return json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return {"error": "worker printed no record"}


def gate(record: Dict[str, Any], manifest: Dict[str, Any]) -> List[str]:
    """Every way ``record`` differs from the committed reference."""
    if "error" in record:
        return [record["error"]]
    problems = []
    workload, slot = record["workload"], record["slot"]
    if workload == "paper-grid":
        reference = manifest["paper-grid"][slot]
        if record["cells"] != reference["cells"]:
            changed = [name for name in reference["cells"]
                       if record["cells"].get(name) != reference["cells"][name]]
            problems.append(f"cell result digests differ in {', '.join(changed)}")
        if record["paper_err_pct"] != reference["paper_err_pct"]:
            problems.append(f"paper_err_pct {record['paper_err_pct']!r} != "
                            f"{reference['paper_err_pct']!r}")
    else:
        # city-sharded must reproduce the serial sparse-city log exactly.
        source = "sparse-city" if workload == "city-sharded" else workload
        reference = manifest[source][slot]
        for key in ("digest", "record_count", "frames_sent", "frames_delivered"):
            if record[key] != reference[key]:
                problems.append(f"{key} {record[key]!r} != {source} "
                                f"reference {reference[key]!r}")
    layers = record.get("layers")
    if layers is not None and layers["trace.remainder_s"] < -1e-6:
        problems.append("traced self times exceed the traced window")
    return problems


def median(values: List[float]) -> Optional[float]:
    return statistics.median(values) if values else None


def end_to_end(passed: List[Dict[str, Any]]) -> Dict[str, Optional[float]]:
    return {
        "setup_s": median([r["setup_s"] for r in passed]),
        "run_s": median([r["run_s"] for r in passed]),
        "deliveries_per_s": median([r["frames_delivered"] / r["run_s"]
                                    for r in passed]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in passed]),
    }


def per_layer(passed: List[Dict[str, Any]]) -> Dict[str, Optional[float]]:
    traced = [r for r in passed if r["traced"]]
    # Overhead compares like with like: the traced city-sharded run is
    # inline, so its baseline is the untraced inline repetition.
    baseline = [r for r in passed if not r["traced"] and r.get("baseline")]
    plain = [r for r in passed if not r["traced"] and not r.get("baseline")]
    if not traced or not plain:
        return {}
    metrics = {name: median([r["layers"][name] for r in traced])
               for name in traced[0]["layers"]}
    traced_run_s = median([r["run_s"] for r in traced])
    untraced_run_s = median([r["run_s"] for r in (baseline or plain)])
    metrics["trace.overhead_pct"] = (traced_run_s / untraced_run_s - 1.0) * 100.0
    # Shard counters and CPU come from the untraced forked-worker runs.
    sharded = plain[0]["workload"] == "city-sharded"
    for name, key in (("sharded.handoffs", "handoffs"),
                      ("sharded.mirror_adds", "mirror_adds"),
                      ("sharded.cross_shard_frames", "cross_shard_frames"),
                      ("sharded.cpu_s", "cpu_s"),
                      ("sharded.workers", "worker_processes")):
        metrics[name] = median([r[key] for r in plain]) if sharded else 0
    return {name: metrics[name] for name in PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    manifest = json.loads((HERE / "manifest.json").read_text(encoding="utf-8"))
    slot = args.seed % workloads.SEED_SLOTS

    records: List[Dict[str, Any]] = []

    def repetition(**kwargs: Any) -> Dict[str, Any]:
        records.append(launch(args.workload, slot, **kwargs))
        return records[-1]

    # Start another round only while it is expected to end in time, so a
    # run lasts about --seconds whatever the workload's round length.
    started = time.monotonic()
    rounds = 0
    while True:
        if args.trace:
            repetition()
            if args.workload == "city-sharded":
                repetition(transport="inline")["baseline"] = True
            repetition(traced=True, transport="inline")
        else:
            repetition()
        rounds += 1
        elapsed = time.monotonic() - started
        if elapsed + elapsed / rounds > args.seconds:
            break

    passed = []
    failures = []
    for record in records:
        problems = gate(record, manifest)
        if problems:
            failures.append(problems)
        else:
            passed.append(record)
    # Every passing repetition, traced or not, logged the same simulation.
    digests = {r.get("digest") for r in passed}
    if len(digests) > 1:
        failures.append([f"repetitions disagree: {sorted(digests)}"])
        passed = []

    values = per_layer(passed) if args.trace else end_to_end(passed)
    units = PER_LAYER if args.trace else END_TO_END
    first = passed[0] if passed else {}
    environment = {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": first.get("numpy"),
        "backend": first.get("backend"),
        "git_rev": git_rev(),
        "worker_processes": max((r.get("worker_processes", 0) for r in passed),
                                default=0),
    }
    regime = {key: first.get(key) for key in
              ("scenario_seed", "nodes", "arena_m", "sim_s", "frames_sent",
               "frames_delivered", "receivers_per_broadcast", "cache_hit_ratio",
               "paper_err_pct")}

    print(f"workload {args.workload}  seed {args.seed} (slot {slot})  "
          f"repetitions {len(records)}  failed {len(records) - len(passed)}")
    print("environment " + json.dumps(environment))
    print("regime " + json.dumps(regime))
    for problems in failures:
        print("FAILED: " + "; ".join(problems))
    for name, value in values.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<28} {shown:>14} {units[name]}")
    print(json.dumps({"environment": environment, "regime": regime,
                      "repetitions": [{k: v for k, v in r.items()
                                       if k not in ("cells", "layers")}
                                      for r in records]}))
    ok = bool(passed) and not failures
    print(json.dumps({
        "correct": ok,
        "attempted": len(records),
        "failed": len(records) - len(passed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
