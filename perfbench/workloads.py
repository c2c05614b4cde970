"""The four benchmark workloads, built only from the public API of ``repro``.

Each workload is a function of a *seed index* (``--seed`` modulo
:data:`SEED_SLOTS`): the same index always builds the same scenario, and
every index has a committed reference digest in ``manifest.json``, so
every run can be gated byte for byte.  Index 0 is each workload's
canonical seed (the one the repo's own benches use).

Nothing here imports ``repro`` at module level: the worker imports this
module before the library, so set-up time can include the imports.
"""

from __future__ import annotations

import statistics
from typing import Any, Dict, List, Optional, Tuple

#: How many distinct scenarios a workload has; ``--seed`` picks one of
#: them modulo this count.  Every slot has committed digests.
SEED_SLOTS = 32

WORKLOADS = ("dense-flood", "sparse-city", "paper-grid", "city-sharded")

#: The beacon workloads run a ``ScenarioSpec`` through the sharded engine.
BEACON_WORKLOADS = ("dense-flood", "sparse-city", "city-sharded")

#: city-sharded partitions the arena into this many strips; it uses one
#: worker process per strip when the host has that many cores.
SHARDS = 2

#: The paper grids, in run order.  Each runs in-process through
#: ``repro.runner.run_experiment(..., serial=True)``.
PAPER_EXPERIMENTS = ("table3", "table4", "table5", "fig7", "ablations")

#: Canonical scenario seeds (slot 0); slot ``k`` uses ``base + k``.
DENSE_BASE_SEED = 23
CITY_BASE_SEED = 61


def scenario_seed(workload: str, slot: int) -> Optional[int]:
    """The seed the program receives for ``slot``.

    For paper-grid, slot 0 keeps every grid at its canonical seed
    (``None``) and slot ``k`` overrides all of them with ``k``.
    """
    if workload == "dense-flood":
        return DENSE_BASE_SEED + slot
    if workload in ("sparse-city", "city-sharded"):
        return CITY_BASE_SEED + slot
    if workload == "paper-grid":
        return None if slot == 0 else slot
    raise ValueError(f"unknown workload {workload!r}")


def beacon_spec(workload: str, slot: int):
    """The ``ScenarioSpec`` of a beacon workload."""
    from repro.experiments.sharded_exp import city_scenario
    from repro.sim.sharded import ScenarioSpec

    seed = scenario_seed(workload, slot)
    if workload == "dense-flood":
        # The 2k-node, 250 m arena the vectorized-pipeline bench uses:
        # ~88 receivers per broadcast.
        return ScenarioSpec(
            name="dense-flood",
            arena_m=250.0,
            node_count=2000,
            rounds=3,
            beacon_period_s=5.0,
            horizon_s=5.0,
            seed=seed,
        )
    # 10k nodes on a 4 km square: ~1.8 receivers per broadcast.
    return city_scenario(node_count=10_000, seed=seed)


# -- paper reference values (EXPERIMENTS.md, "paper" column) -----------------

#: Table 4 average current relative to WiFi standby (mA), per runner cell.
PAPER_TABLE4_ENERGY_MA = {
    "SP:BLE/BLE/30B": -92.07,
    "SA:BLE/BLE/30B": 23.47,
    "Omni:BLE/BLE/30B": 7.52,
    "SA:BLE/WiFi/30B": 22.25,
    "Omni:BLE/WiFi/30B": 9.11,
    "SA:BLE/WiFi/25MB": 43.41,
    "Omni:BLE/WiFi/25MB": 36.14,
    "SP:WiFi/WiFi/30B": 21.86,
    "SA:WiFi/WiFi/30B": 22.60,
    "Omni:WiFi/WiFi/30B": 23.12,
    "SP:WiFi/WiFi/25MB": 39.78,
    "SA:WiFi/WiFi/25MB": 42.03,
    "Omni:WiFi/WiFi/25MB": 41.41,
}

#: Table 4 service latency (ms), per runner cell.
PAPER_TABLE4_LATENCY_MS = {
    "SP:BLE/BLE/30B": 82.0,
    "SA:BLE/BLE/30B": 82.0,
    "Omni:BLE/BLE/30B": 82.0,
    "SA:BLE/WiFi/30B": 2793.0,
    "Omni:BLE/WiFi/30B": 16.0,
    "SA:BLE/WiFi/25MB": 5982.0,
    "Omni:BLE/WiFi/25MB": 3112.0,
    "SP:WiFi/WiFi/30B": 3216.0,
    "SA:WiFi/WiFi/30B": 3175.0,
    "Omni:WiFi/WiFi/30B": 3229.0,
    "SP:WiFi/WiFi/25MB": 6499.0,
    "SA:WiFi/WiFi/25MB": 6013.0,
    "Omni:WiFi/WiFi/25MB": 6162.0,
}

#: Table 5 completion time (s), per runner cell.
PAPER_TABLE5_COMPLETION_S = {
    "direct@100KBps": 300.0,
    "SP@100KBps": 229.6,
    "SA@100KBps": 102.7,
    "Omni@100KBps": 101.3,
    "direct@1000KBps": 30.0,
    "SP@1000KBps": 30.0,
    "SA@1000KBps": 13.10,
    "Omni@1000KBps": 11.97,
}


def paper_err_pct(cells: List[Tuple[str, str, Any]]) -> float:
    """Median absolute relative error (%) against the paper's values.

    ``cells`` holds ``(experiment, cell, value)`` triples as the runner
    returns them.  A paper value whose cell is missing or N/A raises, so
    a grid that silently stops producing a cell cannot shrink the set.
    """
    measured: Dict[Tuple[str, str], float] = {}
    for experiment, cell, value in cells:
        if experiment == "table4":
            if value.energy_avg_ma is not None:
                measured[("energy", cell)] = value.energy_avg_ma
            if value.latency_ms is not None:
                measured[("latency", cell)] = value.latency_ms
        elif experiment == "table5" and value.time_to_complete_s is not None:
            measured[("completion", cell)] = value.time_to_complete_s
    errors = []
    for kind, table in (
        ("energy", PAPER_TABLE4_ENERGY_MA),
        ("latency", PAPER_TABLE4_LATENCY_MS),
        ("completion", PAPER_TABLE5_COMPLETION_S),
    ):
        for cell, paper in table.items():
            if (kind, cell) not in measured:
                raise ValueError(f"no measured {kind} for paper cell {cell!r}")
            errors.append(abs(measured[(kind, cell)] - paper) / abs(paper) * 100.0)
    return statistics.median(errors)
