"""Delivery-event pooling and the candidate-batch cache counters.

The batch pipeline's two allocation optimizations are observable without
touching delivery semantics: ``batch_cache_hits``/``batch_cache_misses``
count neighbour-table reuse/builds within a (timestamp, version) stamp —
or within a version alone while the kind has no movers — and the
``_Delivery``/``_BatchDelivery`` shells recycle through the medium's
pools — the same object identity serving successive transmissions.
Without numpy a vectorized medium runs the scalar loop, so only the
scalar-shell cases apply there.
"""

from __future__ import annotations

import pytest

from repro.phy.geometry import Position
from repro.phy.mobility import Linear, Static
from repro.phy.world import World
from repro.radio.base import Device
from repro.radio.ble import BleRadio
from repro.radio.medium import Medium
from repro.sim.kernel import Kernel
from repro.util import array

requires_numpy = pytest.mark.skipif(
    array.numpy is None, reason="the batch pipeline needs numpy"
)


def _population(vectorized, count=3, spacing=1.0, moving=False):
    kernel = Kernel(seed=11)
    world = World(kernel)
    medium = Medium(kernel, world, vectorized=vectorized)
    heard = []
    radios = []
    for i in range(count):
        start = Position(i * spacing, 0.0)
        if moving:
            # Slow walkers: non-static mobility, yet still in one grid
            # cell over the seconds these tests span.
            node = world.add_node(f"p{i}", mobility=Linear(start, (0.0, 0.1)))
        else:
            node = world.add_node(f"p{i}", position=start)
        device = Device(kernel, node)
        radio = device.add_radio(BleRadio(device, medium))
        radio.enable()
        radio.start_scanning(
            lambda payload, mac, distance, me=i: heard.append((me, payload))
        )
        radios.append(radio)
    return kernel, medium, radios, heard


@requires_numpy
def test_same_cell_senders_share_one_gather():
    kernel, medium, radios, _ = _population(vectorized=True, moving=True)
    assert (medium.batch_cache_hits, medium.batch_cache_misses) == (0, 0)
    radios[0].advertise_once(b"a")
    assert (medium.batch_cache_hits, medium.batch_cache_misses) == (0, 1)
    # Same timestamp, no attach/move in between: pure hits, movers or not.
    radios[1].advertise_once(b"b")
    radios[2].advertise_once(b"c")
    assert (medium.batch_cache_hits, medium.batch_cache_misses) == (2, 1)


@requires_numpy
def test_same_stamp_senders_share_one_table_build():
    # Senders 40 m apart sit in different 30 m cells: the neighbour table
    # still serves them all from one build per stamp.
    kernel, medium, radios, heard = _population(
        vectorized=True, count=6, spacing=40.0, moving=True
    )
    for radio in radios:
        radio.advertise_once(b"x")
    assert (medium.batch_cache_hits, medium.batch_cache_misses) == (5, 1)
    kernel.run_until(1.0)
    assert heard == []  # 40 m apart: nobody in range, one build regardless


@requires_numpy
def test_clock_advance_invalidates_the_batch_cache():
    kernel, medium, radios, _ = _population(vectorized=True, moving=True)
    radios[0].advertise_once(b"a")
    kernel.run_until(1.0)
    radios[0].advertise_once(b"b")
    # Movers: positions are a function of time, so a new stamp rebuilds.
    assert medium.batch_cache_misses == 2


@requires_numpy
def test_mover_free_table_is_reused_across_stamps():
    kernel, medium, radios, _ = _population(vectorized=True)
    radios[0].advertise_once(b"a")
    kernel.run_until(1.0)
    radios[1].advertise_once(b"b")
    kernel.run_until(2.0)
    radios[2].advertise_once(b"c")
    # No movers: only attach/detach/move can change a position, and each
    # bumps the version, so one build serves every stamp.
    assert (medium.batch_cache_hits, medium.batch_cache_misses) == (2, 1)


@requires_numpy
def test_attach_invalidates_the_batch_cache():
    kernel, medium, radios, _ = _population(vectorized=True)
    radios[0].advertise_once(b"a")
    node = medium.world.add_node("late", position=Position(0.5, 0.0))
    device = Device(kernel, node)
    late = device.add_radio(BleRadio(device, medium))
    late.enable()
    radios[0].advertise_once(b"b")
    # The new attach bumped the version: the second gather cannot reuse
    # the first (it would miss the new radio).
    assert (medium.batch_cache_hits, medium.batch_cache_misses) == (0, 2)
    medium.detach(late)
    radios[0].advertise_once(b"c")
    assert medium.batch_cache_misses == 3
    radios[2].node.move_to(Position(0.2, 0.3))
    radios[0].advertise_once(b"d")
    assert medium.batch_cache_misses == 4
    radios[2].node.set_mobility(Static(Position(0.4, 0.1)))
    radios[0].advertise_once(b"e")
    assert (medium.batch_cache_hits, medium.batch_cache_misses) == (0, 5)


@requires_numpy
def test_batch_shells_recycle_through_the_pool():
    kernel, medium, radios, heard = _population(vectorized=True)
    assert medium._batch_pool == []
    radios[0].advertise_once(b"a")
    kernel.run_until(1.0)
    assert heard  # the broadcast actually delivered
    assert len(medium._batch_pool) == 1
    shell = medium._batch_pool[0]
    assert shell.receivers is None and shell.frame is None
    radios[1].advertise_once(b"b")
    # The scheduled event reused the recycled shell rather than allocating.
    assert medium._batch_pool == []
    kernel.run_until(2.0)
    assert medium._batch_pool == [shell]


def test_scalar_shells_recycle_through_the_pool():
    kernel, medium, radios, heard = _population(vectorized=False)
    radios[0].advertise_once(b"a")
    kernel.run_until(1.0)
    delivered = len([1 for _, payload in heard if payload == b"a"])
    assert delivered == 2  # both neighbors in range
    assert len(medium._delivery_pool) == 2
    shells = set(map(id, medium._delivery_pool))
    radios[1].advertise_once(b"b")
    assert medium._delivery_pool == []  # both shells back in flight
    kernel.run_until(2.0)
    assert set(map(id, medium._delivery_pool)) == shells


def test_counters_survive_on_scalar_medium_untouched():
    kernel, medium, radios, _ = _population(vectorized=False)
    radios[0].advertise_once(b"a")
    kernel.run_until(1.0)
    # The scalar loop never consults the batch cache.
    assert (medium.batch_cache_hits, medium.batch_cache_misses) == (0, 0)
