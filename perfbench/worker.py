"""One repetition of one workload, in a process of its own.

``run.py`` starts this script once per repetition so that imports,
set-up and peak memory belong to that repetition alone.  It prints one
JSON record as its last line of output.  ``--t0`` is the launching
process's ``time.monotonic()`` just before the launch; on Linux that
clock is shared by all processes, so ``setup_s`` includes interpreter
start-up and imports.

Untraced runs change nothing on the program's hot paths.  They swap in
two observers while they run: a ``Medium``/``Kernel`` constructor hook
that keeps the instances for their counters, and a one-shot
``Kernel.run_until`` probe that stamps the first simulated event and
steps out before the simulation starts.  Both are restored and checked
afterwards.  ``--traced`` adds the span wrappers of ``tracer.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _cpu_s(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; children reports the largest child.
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--slot", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--transport", choices=("processes", "inline"),
                        default="processes",
                        help="city-sharded only: shard workers or one process")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}")

    import repro
    from repro.radio.medium import Medium
    from repro.sim.kernel import Kernel
    from repro.util import array

    source = Path(repro.__file__).resolve()
    if ROOT / "src" not in source.parents:
        raise SystemExit(f"imported repro from {source}, not from {ROOT / 'src'}")

    tracer = None
    if args.traced:
        import repro.runner  # noqa: F401  (loads every layer to be wrapped)
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    from tracer import Patches, first_call, record_instances

    observers = Patches()
    mediums: list = []
    kernels: list = []
    record_instances(observers, Medium, mediums)
    record_instances(observers, Kernel, kernels)

    stamps = {}

    def window_open() -> None:
        stamps["open"] = time.monotonic()
        if tracer is not None:
            tracer.open_window()

    def window_close() -> None:
        if tracer is not None:
            tracer.close_window()
        stamps["close"] = time.monotonic()

    record = {"workload": args.workload, "slot": args.slot,
              "traced": args.traced, "backend": array.backend_name(),
              "numpy": array.numpy_version()}
    workload = args.workload
    if workload in workloads.BEACON_WORKLOADS:
        from repro.sim.sharded import engine

        spec = workloads.beacon_spec(workload, args.slot)
        record["scenario_seed"] = spec.seed
        if workload == "city-sharded":
            shards = workloads.SHARDS
            processes = (args.transport == "processes"
                         and (os.cpu_count() or 1) >= shards)
            record["worker_processes"] = shards if processes else 0
            cpu0 = _cpu_s(resource.RUSAGE_SELF) + _cpu_s(resource.RUSAGE_CHILDREN)
            window_open()
            outcome = engine.run_sharded(
                spec, shards, processes=processes, use_shared_memory=False
            )
            window_close()
            record["cpu_s"] = (_cpu_s(resource.RUSAGE_SELF)
                               + _cpu_s(resource.RUSAGE_CHILDREN) - cpu0)
            record["handoffs"] = sum(r.handoffs_in for r in outcome.shard_results)
            record["mirror_adds"] = sum(r.mirror_adds for r in outcome.shard_results)
            record["cross_shard_frames"] = outcome.frames_cross_shard
        else:
            record["worker_processes"] = 0
            # The first run_until is the first simulated event: everything
            # before it (models, world, radio attach) is set-up.
            first_call(observers, Kernel, "run_until", window_open, window_close)
            outcome = engine.run_serial(spec)
        record.update(
            digest=outcome.digest,
            record_count=outcome.record_count,
            frames_sent=outcome.frames_sent,
            frames_delivered=outcome.frames_delivered,
            frames_dropped=outcome.frames_dropped,
            nodes=spec.node_count,
            arena_m=spec.arena_m,
            sim_s=spec.duration_s,
        )
    else:
        import repro.runner as runner

        seed = workloads.scenario_seed(workload, args.slot)
        seeds = None if seed is None else [seed]
        record["scenario_seed"] = seed
        record["worker_processes"] = 0
        job_count = sum(len(runner.jobs_for(name, seed))
                        for name in workloads.PAPER_EXPERIMENTS)
        reports = []
        window_open()
        for name in workloads.PAPER_EXPERIMENTS:
            reports.append(runner.run_experiment(name, seeds=seeds, serial=True))
        window_close()
        cells = [(cell.experiment, cell.cell, cell.value)
                 for report in reports for cell in report.outcomes]
        if len(cells) != job_count:
            raise SystemExit(f"{job_count} jobs built but {len(cells)} cells ran")
        record.update(
            cells={name: [cell.result_digest for report in reports
                          for cell in report.outcomes if cell.experiment == name]
                   for name in workloads.PAPER_EXPERIMENTS},
            paper_err_pct=workloads.paper_err_pct(cells),
            frames_sent=sum(m.frames_sent for m in mediums),
            frames_delivered=sum(m.frames_delivered for m in mediums),
            frames_dropped=sum(m.frames_dropped for m in mediums),
            nodes=None,
            arena_m=None,
            sim_s=sum(k.now for k in kernels),
        )

    observers.restore()
    if tracer is not None:
        tracer.uninstall()
    if "open" not in stamps or "close" not in stamps:
        raise SystemExit("the workload never reached its first simulated event")

    hits = sum(m.batch_cache_hits for m in mediums)
    lookups = hits + sum(m.batch_cache_misses for m in mediums)
    record.update(
        setup_s=stamps["open"] - args.t0,
        run_s=stamps["close"] - stamps["open"],
        peak_rss_mb=_peak_rss_mb(),
        # Regime: cache figures need the mediums in this process, so the
        # forked shard workers leave them unset.
        receivers_per_broadcast=(record["frames_delivered"] / record["frames_sent"]
                                 if record["frames_sent"] else 0.0),
        cache_hit_ratio=hits / lookups if lookups else None,
    )
    if tracer is not None:
        layers = tracer.layer_metrics(workloads.SHARDS,
                                       workloads.PAPER_EXPERIMENTS)
        layers["medium.frames_delivered"] = record["frames_delivered"]
        layers["medium.frames_dropped"] = record["frames_dropped"]
        layers["medium.batch_cache_hit_ratio"] = record["cache_hit_ratio"] or 0.0
        candidates = layers["phy.candidates"]
        layers["medium.delivered_per_candidate"] = (
            record["frames_delivered"] / candidates if candidates else 0.0
        )
        record["layers"] = layers
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
