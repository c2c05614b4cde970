"""Regenerate ``manifest.json``: the reference outputs every run is gated on.

    python3 perfbench/make_manifest.py

For every seed slot it runs dense-flood, sparse-city and paper-grid once
(untraced, each in a fresh process, exactly as ``run.py`` does) and
stores the delivery digest and counts, or the per-cell result digests
and ``paper_err_pct``.  city-sharded has no entry of its own: it is
gated on the sparse-city reference of the same slot.  Regenerate only
when the simulated behaviour is meant to change; a perf or simplicity
change must leave this file byte-identical.
"""

from __future__ import annotations

import json
import sys

from run import HERE, launch
import workloads

BEACON_KEYS = ("scenario_seed", "digest", "record_count", "frames_sent",
               "frames_delivered", "receivers_per_broadcast", "cache_hit_ratio")


def main() -> int:
    manifest = {"seed_slots": workloads.SEED_SLOTS}
    for workload in ("dense-flood", "sparse-city", "paper-grid"):
        entries = []
        for slot in range(workloads.SEED_SLOTS):
            record = launch(workload, slot)
            if "error" in record:
                print(f"{workload} slot {slot}: {record['error']}", file=sys.stderr)
                return 1
            if workload == "paper-grid":
                entries.append({"slot": slot,
                                "scenario_seed": record["scenario_seed"],
                                "paper_err_pct": record["paper_err_pct"],
                                "cells": record["cells"]})
            else:
                entries.append({"slot": slot,
                                **{key: record[key] for key in BEACON_KEYS}})
            print(f"{workload} slot {slot}: {entries[-1].get('digest', '')}",
                  file=sys.stderr)
        manifest[workload] = entries
    (HERE / "manifest.json").write_text(
        json.dumps(manifest, indent=1) + "\n", encoding="utf-8"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
