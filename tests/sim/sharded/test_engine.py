"""End-to-end digest equality: serial vs sharded, inline vs processes."""

import pytest

from repro.phy.geometry import Position
from repro.phy.mobility import MobilityModel
from repro.sim.sharded import ScenarioSpec, run_serial, run_sharded
from repro.sim.sharded.boundary import BoundaryProtocolError
from repro.sim.sharded.engine import (
    _checked_digest,
    canonical_records,
    delivery_digest,
)
from repro.sim.sharded.spec import build_models, population_speed_cap

SPEC = ScenarioSpec(
    name="engine-eq",
    arena_m=400.0,
    node_count=70,
    rounds=4,
    beacon_period_s=5.0,
    horizon_s=5.0,
    seed=97,
)


@pytest.fixture(scope="module")
def serial_outcome():
    return run_serial(SPEC)


def test_serial_run_delivers_and_digests(serial_outcome):
    assert serial_outcome.mode == "serial"
    assert serial_outcome.record_count > 0
    assert serial_outcome.record_count == serial_outcome.frames_delivered
    assert len(serial_outcome.digest) == 16
    # The scalar reference loop gives the batch pipeline's bytes; the
    # sharded runs below must match the same digest.
    scalar = run_serial(SPEC, vectorized=False)
    assert scalar.digest == serial_outcome.digest
    assert scalar.record_count == serial_outcome.record_count


@pytest.mark.parametrize("shards", [1, 2, 4, 7])
def test_inline_sharded_matches_serial(serial_outcome, shards):
    outcome = run_sharded(SPEC, shards, processes=False)
    assert outcome.digest == serial_outcome.digest
    assert outcome.record_count == serial_outcome.record_count
    assert outcome.frames_delivered == serial_outcome.frames_delivered
    assert len(outcome.shard_results) == shards


def test_process_sharded_matches_serial(serial_outcome):
    outcome = run_sharded(SPEC, 3, processes=True)
    assert outcome.mode == "sharded-processes"
    assert outcome.digest == serial_outcome.digest
    assert outcome.record_count == serial_outcome.record_count


def test_process_sharded_inline_artifacts_match_serial(serial_outcome):
    outcome = run_sharded(SPEC, 2, processes=True, use_shared_memory=False)
    assert outcome.digest == serial_outcome.digest


def test_sharded_accounting_is_conserved():
    outcome = run_sharded(SPEC, 4, processes=False)
    assert sum(r.handoffs_out for r in outcome.shard_results) \
        == sum(r.handoffs_in for r in outcome.shard_results)
    assert sum(r.owned_final for r in outcome.shard_results) == SPEC.node_count
    # Cross-shard traffic exists in this scenario and is counted.
    assert outcome.frames_cross_shard > 0


def test_shard_count_must_be_positive():
    with pytest.raises(ValueError):
        run_sharded(SPEC, 0)


def test_canonical_merge_is_order_insensitive():
    records = [
        (2.0, 1, 2, 0, 10.0),
        (1.0, 3, 4, 0, 5.0),
        (1.0, 3, 2, 0, 5.0),
    ]
    assert delivery_digest(records) == delivery_digest(list(reversed(records)))
    assert canonical_records(records)[0] == (1.0, 3, 2, 0, 5.0)


@pytest.mark.parametrize("copy_at", [0, 1, 2])
def test_checked_digest_rejects_a_record_seen_twice(copy_at):
    records = [
        (2.0, 1, 2, 0, 10.0),
        (1.0, 3, 4, 0, 5.0),
        (1.0, 3, 2, 0, 5.0),
    ]
    assert _checked_digest(records) == delivery_digest(records)
    with pytest.raises(BoundaryProtocolError, match="duplicate delivery"):
        _checked_digest(records + [records[copy_at]])


class _Teleporter(MobilityModel):
    def position_at(self, time):
        return Position(0.0, 0.0)

    def max_displacement(self, t0, t1):
        return float("inf")


def test_unbounded_mobility_rejected():
    models = build_models(ScenarioSpec(
        name="cap", arena_m=100.0, node_count=5, rounds=1,
        beacon_period_s=5.0, horizon_s=5.0, seed=1,
    ))
    assert population_speed_cap(models) > 0.0
    with pytest.raises(ValueError, match="unbounded"):
        population_speed_cap([_Teleporter()])
