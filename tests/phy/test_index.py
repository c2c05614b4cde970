"""The uniform-grid and time-aware spatial indexes."""

import pytest

from repro.phy.geometry import Position
from repro.phy.index import UniformGridIndex
from repro.phy.mobility import Linear, Static


def test_query_returns_superset_within_radius():
    index = UniformGridIndex(10.0)
    index.insert("near", Position(3.0, 4.0))
    index.insert("far", Position(200.0, 200.0))
    candidates = index.query(Position(0.0, 0.0), 10.0)
    assert "near" in candidates
    assert "far" not in candidates


def test_boundary_item_is_always_a_candidate():
    index = UniformGridIndex(30.0)
    index.insert("edge", Position(30.0, 0.0))
    assert "edge" in index.query(Position(0.0, 0.0), 30.0)


def test_roaming_items_match_every_query():
    index = UniformGridIndex(10.0)
    index.insert("rover", None)
    assert index.roaming_count == 1
    assert "rover" in index.query(Position(1e6, 1e6), 0.001)


def test_update_moves_between_cells():
    index = UniformGridIndex(10.0)
    index.insert("a", Position(0.0, 0.0))
    index.update("a", Position(500.0, 500.0))
    assert "a" not in index.query(Position(0.0, 0.0), 10.0)
    assert "a" in index.query(Position(500.0, 500.0), 10.0)


def test_update_to_and_from_roaming():
    index = UniformGridIndex(10.0)
    index.insert("a", Position(0.0, 0.0))
    index.update("a", None)
    assert index.roaming_count == 1
    assert "a" in index.query(Position(900.0, 900.0), 1.0)
    index.update("a", Position(900.0, 900.0))
    assert index.roaming_count == 0
    assert "a" in index.query(Position(900.0, 900.0), 1.0)


def test_remove_and_reinsert():
    index = UniformGridIndex(10.0)
    index.insert("a", Position(0.0, 0.0))
    index.remove("a")
    assert "a" not in index
    assert index.query(Position(0.0, 0.0), 10.0) == []
    index.insert("a", Position(0.0, 0.0))
    assert "a" in index


def test_double_insert_rejected():
    index = UniformGridIndex(10.0)
    index.insert("a", Position(0.0, 0.0))
    with pytest.raises(ValueError):
        index.insert("a", Position(1.0, 1.0))


def test_negative_coordinates_bucket_correctly():
    index = UniformGridIndex(10.0)
    index.insert("sw", Position(-5.0, -5.0))
    assert "sw" in index.query(Position(0.0, 0.0), 10.0)
    assert "sw" not in index.query(Position(50.0, 50.0), 10.0)


def test_cell_size_must_be_positive():
    with pytest.raises(ValueError):
        UniformGridIndex(0.0)


# -- roaming bookkeeping: O(1) swap-pop removal -------------------------------


def test_roaming_removal_from_middle_keeps_the_rest():
    index = UniformGridIndex(10.0)
    for name in ("r0", "r1", "r2", "r3"):
        index.insert(name, None)
    index.remove("r1")
    assert index.roaming_count == 3
    candidates = index.query(Position(0.0, 0.0), 1.0)
    assert set(candidates) == {"r0", "r2", "r3"}
    # Swap-pop order: the then-last item fills the vacated slot.
    assert candidates == ["r0", "r3", "r2"]


def test_roaming_removal_of_tail():
    index = UniformGridIndex(10.0)
    index.insert("r0", None)
    index.insert("r1", None)
    index.remove("r1")
    assert index.query(Position(0.0, 0.0), 1.0) == ["r0"]
    index.remove("r0")
    assert index.roaming_count == 0
    assert index.query(Position(0.0, 0.0), 1.0) == []


def test_roaming_query_order_is_deterministic():
    def churn():
        index = UniformGridIndex(5.0)
        for item in range(8):
            index.insert(item, None)
        for item in (3, 0, 6):
            index.remove(item)
        index.insert(8, None)
        index.update(4, Position(1.0, 1.0))  # roaming -> static
        index.update(4, None)  # and back
        return index.query(Position(100.0, 100.0), 1.0)

    assert churn() == churn()


def test_roaming_heavy_churn_stays_consistent():
    index = UniformGridIndex(10.0)
    alive = set()
    for step in range(200):
        item = step % 37
        if item in alive:
            index.remove(item)
            alive.discard(item)
        else:
            index.insert(item, None)
            alive.add(item)
    assert index.roaming_count == len(alive)
    assert set(index.query(Position(0.0, 0.0), 1.0)) == alive


# -- the time-aware epoch-bucketed grid ---------------------------------------


from repro.phy.index import MAX_EPOCH_S, MIN_EPOCH_S, TimeAwareGridIndex
from repro.phy.mobility import MobilityModel, RandomWaypoint, WaypointPath
from repro.util.rng import SeededRng


def _linear(x, y, vx, vy):
    return Linear(Position(x, y), (vx, vy))


def test_time_aware_static_items_are_bucketed_and_pruned():
    index = TimeAwareGridIndex(10.0)
    index.insert("near", Static(Position(3.0, 4.0)))
    index.insert("far", Static(Position(500.0, 500.0)))
    candidates = index.query(Position(0.0, 0.0), 10.0, now=0.0)
    assert "near" in candidates
    assert "far" not in candidates


def test_time_aware_mover_is_always_a_candidate_where_it_is():
    index = TimeAwareGridIndex(10.0)
    index.insert("walker", _linear(0.0, 0.0, 2.0, 0.0))
    walker = _linear(0.0, 0.0, 2.0, 0.0)
    for now in (0.0, 3.7, 12.0, 55.5, 123.4):
        here = walker.position_at(now)
        assert "walker" in index.query(here, 1.0, now=now)


def test_time_aware_mover_is_pruned_far_from_its_epoch_cell():
    index = TimeAwareGridIndex(10.0)
    index.insert("walker", _linear(0.0, 0.0, 1.0, 0.0))
    assert "walker" not in index.query(Position(900.0, 900.0), 5.0, now=1.0)


def test_time_aware_rebuckets_across_epoch_boundaries():
    index = TimeAwareGridIndex(10.0)
    index.insert("walker", _linear(0.0, 0.0, 1.0, 0.0))
    assert "walker" in index.query(Position(0.0, 0.0), 5.0, now=0.0)
    first_epoch = index.epoch
    # Much later the walker is far from the origin: the stale bucket must
    # not satisfy the query, and the fresh one must.
    now = 500.0
    assert "walker" not in index.query(Position(0.0, 0.0), 5.0, now=now)
    assert index.epoch > first_epoch
    assert "walker" in index.query(Position(500.0, 0.0), 5.0, now=now)


def test_time_aware_epoch_length_tuned_from_observed_speed():
    index = TimeAwareGridIndex(30.0)
    index.insert("walker", _linear(0.0, 0.0, 1.5, 0.0))
    index.query(Position(0.0, 0.0), 10.0, now=0.0)
    # Half a cell at top speed: 0.5 * 30 / 1.5.
    assert index.epoch_length == pytest.approx(10.0)
    assert index.roaming_count == 0


def test_time_aware_epoch_length_clamps():
    slow = TimeAwareGridIndex(30.0)
    slow.insert("snail", _linear(0.0, 0.0, 1e-6, 0.0))
    slow.query(Position(0.0, 0.0), 10.0, now=0.0)
    assert slow.epoch_length == MAX_EPOCH_S

    fast = TimeAwareGridIndex(30.0)
    fast.insert("rocket", _linear(0.0, 0.0, 1e6, 0.0))
    fast.query(Position(0.0, 0.0), 10.0, now=0.0)
    assert fast.epoch_length == MIN_EPOCH_S


def test_time_aware_fast_mover_gets_coarse_bucket_not_roaming():
    index = TimeAwareGridIndex(10.0)
    index.insert("rocket", _linear(0.0, 0.0, 1000.0, 0.0))
    # Too fast to bound inside one fine cell even at the minimum epoch —
    # but the intra-epoch bound is still finite, so the rocket lands in
    # the coarse second-level grid instead of the O(n) roaming list.
    assert "rocket" in index.query(Position(100.0, 0.0), 5.0, now=0.0)
    assert index.roaming_count == 0
    assert index.coarse_count == 1
    # Far outside the rocket's inflated reach the coarse grid prunes it —
    # the old roaming fallback would have returned it from every query.
    assert "rocket" not in index.query(Position(5e5, 5e5), 0.001, now=0.0)


def test_time_aware_sprinter_does_not_collapse_walker_epoch():
    index = TimeAwareGridIndex(30.0)
    index.insert("walker", _linear(0.0, 0.0, 1.5, 0.0))
    index.insert("sprinter", _linear(0.0, 0.0, 400.0, 0.0))
    index.query(Position(0.0, 0.0), 10.0, now=0.0)
    # Epoch tuning ignores the sprinter (it is coarse-bucketed anyway), so
    # the walker keeps its half-cell epoch: 0.5 * 30 / 1.5.
    assert index.epoch_length == pytest.approx(10.0)
    assert index.coarse_count == 1
    assert index.roaming_count == 0


def test_time_aware_sprinter_is_a_candidate_wherever_it_is():
    index = TimeAwareGridIndex(10.0)
    index.insert("sprinter", _linear(0.0, 0.0, 300.0, 0.0))
    sprinter = _linear(0.0, 0.0, 300.0, 0.0)
    for now in (0.0, 0.2, 1.3, 7.9, 42.0):
        here = sprinter.position_at(now)
        assert "sprinter" in index.query(here, 1.0, now=now), now


def test_time_aware_unknown_model_is_unbounded_hence_roaming():
    class Teleporter(MobilityModel):
        def position_at(self, time):
            return Position(0.0, 0.0)

    index = TimeAwareGridIndex(10.0)
    index.insert("mystery", Teleporter())
    assert "mystery" in index.query(Position(777.0, 777.0), 0.001, now=3.0)
    assert index.roaming_count == 1


def test_time_aware_mixed_population_stays_exact_superset():
    index = TimeAwareGridIndex(25.0)
    models = {
        "static": Static(Position(40.0, 40.0)),
        "walker": _linear(0.0, 0.0, 2.0, 1.0),
        "ferry": WaypointPath([
            (0.0, Position(100.0, 0.0)),
            (50.0, Position(100.0, 80.0)),
        ]),
        "tourist": RandomWaypoint(SeededRng(3), width=120.0, height=120.0,
                                  speed=1.5),
    }
    for name, model in models.items():
        index.insert(name, model)
    probe = SeededRng(17)
    for _ in range(60):
        now = probe.uniform(0.0, 90.0)
        origin = Position(probe.uniform(0.0, 120.0), probe.uniform(0.0, 120.0))
        radius = probe.uniform(5.0, 60.0)
        candidates = index.query(origin, radius, now=now)
        for name, model in models.items():
            if origin.distance_to(model.position_at(now)) <= radius:
                assert name in candidates, (name, now, origin, radius)


def test_time_aware_update_transitions_between_static_and_mobile():
    index = TimeAwareGridIndex(10.0)
    index.insert("a", Static(Position(0.0, 0.0)))
    index.update("a", _linear(50.0, 0.0, 1.0, 0.0))
    assert "a" in index.query(Position(50.0, 0.0), 5.0, now=0.0)
    assert "a" not in index.query(Position(0.0, 0.0), 5.0, now=0.0)
    index.update("a", Static(Position(7.0, 7.0)))
    assert "a" in index.query(Position(7.0, 7.0), 5.0, now=0.0)
    assert index.mover_count == 0


def test_time_aware_remove_before_any_query():
    index = TimeAwareGridIndex(10.0)
    index.insert("ghost", _linear(0.0, 0.0, 1.0, 0.0))
    index.remove("ghost")
    assert len(index) == 0
    assert index.query(Position(0.0, 0.0), 100.0, now=0.0) == []


def test_time_aware_remove_mover_after_query():
    index = TimeAwareGridIndex(10.0)
    index.insert("walker", _linear(0.0, 0.0, 1.0, 0.0))
    index.query(Position(0.0, 0.0), 5.0, now=0.0)
    index.remove("walker")
    assert "walker" not in index
    assert index.query(Position(0.0, 0.0), 100.0, now=0.0) == []


def test_time_aware_double_insert_rejected():
    index = TimeAwareGridIndex(10.0)
    index.insert("a", Static(Position(0.0, 0.0)))
    with pytest.raises(ValueError):
        index.insert("a", _linear(0.0, 0.0, 1.0, 0.0))
    index.insert("b", _linear(0.0, 0.0, 1.0, 0.0))
    with pytest.raises(ValueError):
        index.insert("b", Static(Position(0.0, 0.0)))


def test_time_aware_len_and_contains():
    index = TimeAwareGridIndex(10.0)
    index.insert("s", Static(Position(0.0, 0.0)))
    index.insert("m", _linear(0.0, 0.0, 1.0, 0.0))
    assert len(index) == 2
    assert "s" in index and "m" in index
    assert "nope" not in index
    assert index.mover_count == 1


def test_time_aware_invalid_construction():
    with pytest.raises(ValueError):
        TimeAwareGridIndex(0.0)
    with pytest.raises(ValueError):
        TimeAwareGridIndex(10.0, min_epoch_s=5.0, max_epoch_s=1.0)


def test_time_aware_queries_are_deterministic():
    def run():
        index = TimeAwareGridIndex(20.0)
        index.insert("s1", Static(Position(10.0, 10.0)))
        for i in range(6):
            index.insert(f"m{i}", _linear(float(i * 15), 0.0, 1.0, 0.5))
        out = []
        for step in range(8):
            now = step * 7.5
            out.append(index.query(Position(30.0, 5.0), 25.0, now=now))
        index.remove("m3")
        out.append(index.query(Position(30.0, 5.0), 25.0, now=70.0))
        return out

    assert run() == run()
