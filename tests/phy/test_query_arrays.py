"""query_arrays == query under seeded churn, on both index flavors.

The :class:`~repro.phy.index.CandidateArrays` contract: for a
:class:`UniformGridIndex`, ``unpositioned + items`` equals the
:meth:`query` list exactly and ``xs/ys`` are the inserted coordinates;
for a :class:`TimeAwareGridIndex`, ``items`` equals :meth:`query`'s list
(``unpositioned`` always empty) and ``xs/ys`` are exactly the floats
``position_at(now)`` returns per item — the invariant the vectorized
medium's bit-identical distance kernel rests on.  Churn (insert, remove,
same-cell and cross-cell moves) is driven by a seeded RNG so failures
replay.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.phy.geometry import Position
from repro.phy.index import TimeAwareGridIndex, UniformGridIndex
from repro.phy.mobility import Linear, RandomWaypoint, Static, WaypointPath
from repro.util.rng import SeededRng


def _assert_arrays_match_query(index, origin, radius, now):
    arrays = index.query_arrays(origin, radius, now)
    assert arrays.unpositioned + arrays.items == index.query(origin, radius, now)
    assert len(arrays.xs) == len(arrays.items) == len(arrays.ys)
    assert len(arrays) == len(arrays.items) + len(arrays.unpositioned)
    return arrays


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31), steps=st.integers(10, 60))
def test_uniform_grid_arrays_track_churn(seed, steps):
    rng = SeededRng(seed)
    index = UniformGridIndex(cell_size=10.0)
    positions = {}
    counter = 0
    for _ in range(steps):
        move = rng.uniform(0.0, 1.0)
        if move < 0.45 or not positions:
            # Insert: mostly bucketed, sometimes roaming (position None).
            item = f"i{counter}"
            counter += 1
            if rng.uniform(0.0, 1.0) < 0.2:
                index.insert(item, None)
                positions[item] = None
            else:
                p = Position(rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0))
                index.insert(item, p)
                positions[item] = p
        elif move < 0.65:
            item = rng.choice(sorted(positions))
            index.remove(item)
            del positions[item]
        else:
            item = rng.choice(sorted(positions))
            old = positions[item]
            if old is not None and rng.uniform(0.0, 1.0) < 0.5:
                # Same-cell nudge: the stored coordinates must still track.
                p = Position(
                    (old.x // 10.0) * 10.0 + rng.uniform(0.1, 9.9),
                    (old.y // 10.0) * 10.0 + rng.uniform(0.1, 9.9),
                )
            else:
                p = Position(rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0))
            index.update(item, p)
            positions[item] = p
        origin = Position(rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0))
        radius = rng.uniform(5.0, 40.0)
        arrays = _assert_arrays_match_query(index, origin, radius, 0.0)
        for item, x, y in zip(arrays.items, arrays.xs, arrays.ys):
            stored = positions[item]
            assert (x, y) == (stored.x, stored.y)
        for item in arrays.unpositioned:
            assert positions[item] is None


def _mixed_population(rng: SeededRng, count: int):
    """Static / RandomWaypoint / Linear / WaypointPath mix, seeded."""
    models = []
    for i in range(count):
        flavor = i % 4
        start = Position(rng.uniform(0.0, 200.0), rng.uniform(0.0, 200.0))
        if flavor == 0:
            models.append(Static(start))
        elif flavor == 1:
            models.append(
                RandomWaypoint(
                    rng.child("walk", str(i)),
                    width=200.0,
                    height=200.0,
                    speed=rng.uniform(0.5, 3.0),
                )
            )
        elif flavor == 2:
            models.append(
                Linear(start, (rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)))
            )
        else:
            models.append(
                WaypointPath(
                    [
                        (0.0, start),
                        (30.0, Position(rng.uniform(0.0, 200.0),
                                        rng.uniform(0.0, 200.0))),
                    ]
                )
            )
    return models


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31))
def test_time_aware_arrays_match_query_across_times(seed):
    rng = SeededRng(seed)
    index = TimeAwareGridIndex(cell_size=25.0)
    models = _mixed_population(rng, 24)
    for i, model in enumerate(models):
        index.insert(f"n{i}", model)
    mobility = {f"n{i}": m for i, m in enumerate(models)}
    for _ in range(12):
        now = rng.uniform(0.0, 60.0)
        origin = Position(rng.uniform(0.0, 200.0), rng.uniform(0.0, 200.0))
        radius = rng.uniform(10.0, 80.0)
        arrays = _assert_arrays_match_query(index, origin, radius, now)
        assert arrays.unpositioned == []  # this index knows every model
        for item, x, y in zip(arrays.items, arrays.xs, arrays.ys):
            exact = mobility[item].position_at(now)
            # Bit-identical, not approximately equal: these floats feed the
            # vectorized distance kernel.
            assert (x, y) == (exact.x, exact.y)


def test_time_aware_memo_invalidates_on_mutation():
    """The per-(now, version) mover-position memo must not serve stale
    coordinates after an insert/remove at the same timestamp."""
    index = TimeAwareGridIndex(cell_size=25.0)
    walk = Linear(Position(10.0, 10.0), (1.0, 0.0))
    index.insert("a", walk)
    origin = Position(10.0, 10.0)
    arrays = index.query_arrays(origin, 50.0, now=5.0)
    assert arrays.items == ["a"]
    assert (arrays.xs[0], arrays.ys[0]) == (15.0, 10.0)
    # Mutate at the same `now`: the memoized position of "a" is still
    # valid, but the new item must appear with its own exact position.
    index.insert("b", Linear(Position(20.0, 10.0), (0.0, 1.0)))
    arrays = index.query_arrays(origin, 50.0, now=5.0)
    got = dict(zip(arrays.items, zip(arrays.xs, arrays.ys)))
    assert got == {"a": (15.0, 10.0), "b": (20.0, 15.0)}
    index.remove("a")
    arrays = index.query_arrays(origin, 50.0, now=5.0)
    assert arrays.items == ["b"]
    # And a later timestamp re-resolves every mover.
    arrays = index.query_arrays(origin, 50.0, now=6.0)
    assert (arrays.xs[0], arrays.ys[0]) == (20.0, 16.0)
