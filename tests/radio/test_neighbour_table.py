"""The neighbour table is byte-identical to the scalar broadcast loop.

The batch pipeline resolves every sender's receivers from one neighbour
table per (kind, stamp) — or per attach/move version while the kind has
no moving radios.  Each case below runs one seeded script two ways: the
scalar reference (``vectorized=False``) and the table.  The delivery
logs, the frame counters, and the medium's RNG stream position afterwards
must all agree — the last one is the draw-order contract's sharpest
check.  The table is built with numpy, so without it there is nothing
here to test.
"""

from __future__ import annotations

import pytest

pytest.importorskip("numpy")

from repro.phy.geometry import Position
from repro.phy.mobility import Linear, Static
from repro.phy.propagation import LogDistance, SoftDisk, UnitDisk
from repro.phy.world import World
from repro.radio.base import Device
from repro.radio.ble import BleRadio
from repro.radio.frame import RadioKind
from repro.radio.medium import Medium
from repro.sim.kernel import Kernel


class _Harness:
    """One medium plus helpers to place scanning BLE radios."""

    def __init__(self, vectorized: bool, propagation=None) -> None:
        self.kernel = Kernel(seed=5)
        self.world = World(self.kernel)
        self.medium = Medium(self.kernel, self.world, propagation=propagation,
                             vectorized=vectorized)
        self.heard = []
        self.radios = []

    def add(self, mobility, scanning: bool = True,
            radio_cls=BleRadio) -> BleRadio:
        index = len(self.radios)
        node = self.world.add_node(f"n{index}", mobility=mobility)
        device = Device(self.kernel, node)
        radio = device.add_radio(radio_cls(device, self.medium))
        radio.enable()
        if scanning:
            radio.start_scanning(
                lambda payload, mac, distance, me=index: self.heard.append(
                    (self.kernel.now, me, payload, distance)
                )
            )
        self.radios.append(radio)
        return radio

    def add_at(self, x: float, y: float, scanning: bool = True,
               radio_cls=BleRadio) -> BleRadio:
        return self.add(Static(Position(x, y)), scanning, radio_cls)

    def beacon_round(self, tag: int) -> None:
        for index, radio in enumerate(self.radios):
            if radio.enabled:
                radio.advertise_once(bytes([tag, index]))

    def outcome(self):
        self.kernel.run()
        medium = self.medium
        counters = (medium.frames_sent, medium.frames_delivered,
                    medium.frames_dropped)
        tail = [medium.rng.random() for _ in range(4)]
        return self.heard, counters, tail


def _parity(script, propagation=None):
    """Run ``script`` scalar and on the table; both must agree."""
    def run(vectorized):
        harness = _Harness(vectorized, propagation)
        script(harness)
        return harness.outcome()

    scalar = run(False)
    table = run(True)
    assert table == scalar
    assert scalar[1][1] > 0  # the script actually delivered frames
    return scalar


def _grid_population(harness, step=9.0, count=7, offset=(0.0, 0.0)):
    for i in range(count):
        for j in range(count):
            harness.add_at(offset[0] + i * step, offset[1] + j * step)


@pytest.mark.parametrize("model", [
    SoftDisk(inner=8.0, outer=30.0),
    LogDistance(reference_range=20.0),
])
def test_rng_drawing_models_match_scalar(model):
    def script(h):
        _grid_population(h)
        h.beacon_round(0)
        h.kernel.run_until(1.0)
        h.beacon_round(1)

    heard, _, tail = _parity(script, {RadioKind.BLE: model})
    virgin = Kernel(seed=5).rng.child("medium")
    assert tail != [virgin.random() for _ in range(4)]  # draws happened
    assert heard


def test_commuters_drifting_to_negative_coordinates():
    def script(h):
        for i in range(30):
            h.add(Linear(Position(5.0 + 3.0 * i, 4.0 + (i % 5)),
                         (-7.0 - 0.3 * i, -2.5 + 0.2 * (i % 4))))
        for t in range(4):
            h.kernel.run_until(t * 3.0)
            h.beacon_round(t)
        # By the last round every radio sits at negative x and y.
        assert all(r.node.position.x < 0 and r.node.position.y < 0
                   for r in h.radios)

    heard, _, _ = _parity(script, {RadioKind.BLE: SoftDisk(10.0, 30.0)})
    assert any(now > 9.0 for now, *_ in heard)


def test_co_located_radios_hear_each_other_at_distance_zero():
    def script(h):
        for _ in range(3):
            h.add_at(10.0, 10.0)
        h.add_at(10.0, 40.0)  # exactly cutoff away
        h.beacon_round(0)

    heard, _, _ = _parity(script)
    zero = [entry for entry in heard if entry[3] == 0.0]
    assert len(zero) == 6  # every ordered pair of the three, sender excluded


def test_receiver_at_exactly_cutoff_on_a_cell_boundary():
    def script(h):
        # BLE's UnitDisk cutoff and grid cell are both 30 m: these
        # receivers sit at distance exactly 30 and on cell edges.
        h.add_at(0.0, 0.0)
        for x, y in ((30.0, 0.0), (-30.0, 0.0), (0.0, 30.0), (0.0, -30.0),
                     (18.0, 24.0), (-18.0, -24.0), (30.000000000000004, 0.0)):
            h.add_at(x, y)
        h.radios[0].advertise_once(b"edge")

    heard, _, _ = _parity(script)
    receivers = sorted(me for _, me, payload, _ in heard if payload == b"edge")
    assert receivers == [1, 2, 3, 4, 5, 6]  # not the one just past 30 m
    assert all(distance == 30.0 for *_, distance in heard)


@pytest.mark.parametrize("model", [
    UnitDisk(12.0),               # cutoff below the 30 m cell size
    UnitDisk(70.0),               # cutoff spanning several cells
    SoftDisk(inner=20.0, outer=55.0),
])
def test_cell_size_that_differs_from_cutoff(model):
    def script(h):
        # The grid keeps BLE's default 30 m cells; the model is swapped
        # after construction, so the cutoff no longer equals the cell.
        h.medium.propagation[RadioKind.BLE] = model
        _grid_population(h, step=11.0, count=8, offset=(-40.0, -15.0))
        h.beacon_round(0)

    _parity(script)


def test_state_changes_between_two_same_stamp_senders():
    def script(h):
        _grid_population(h, step=6.0, count=4)
        radios = h.radios
        radios[0].advertise_once(b"first")
        radios[5].stop_scanning()
        radios[6].disable()
        radios[1].advertise_once(b"second")
        radios[5].start_scanning(
            lambda payload, mac, distance: h.heard.append(
                ("late", 5, payload, distance)
            )
        )
        radios[2].advertise_once(b"third")

    heard, _, _ = _parity(script)
    second = {me for _, me, payload, _ in heard if payload == b"second"}
    assert second and 5 not in second and 6 not in second
    # Radio 5 was not scanning when "second" went out, so it never gets
    # it; "first" was scheduled before the stop and arrives after the
    # restart, so the new handler hears it along with "third".
    late = {payload for when, _, payload, _ in heard if when == "late"}
    assert late == {b"first", b"third"}


def test_moves_of_static_radios_invalidate_the_table():
    def script(h):
        _grid_population(h, step=12.0, count=4)
        h.beacon_round(0)
        h.kernel.run_until(1.0)
        h.radios[0].node.move_to(Position(200.0, 200.0))
        h.radios[15].node.set_mobility(Static(Position(1.0, 1.0)))
        h.beacon_round(1)
        h.kernel.run_until(2.0)
        h.radios[0].node.move_to(Position(2.0, 0.0))
        h.beacon_round(2)

    heard, _, _ = _parity(script)
    # Radio 0 sat 200 m away in round 1: nobody heard it, it heard nobody.
    round_one = [(me, payload[1]) for _, me, payload, _ in heard
                 if payload[0] == 1]
    assert round_one and not [pair for pair in round_one if 0 in pair]
    assert [e for e in heard if e[2] == bytes([2, 0])]


def test_detached_sender_falls_back_to_the_scalar_loop():
    def script(h):
        _grid_population(h, step=10.0, count=3)
        leaver = h.add_at(5.0, 5.0)
        h.beacon_round(0)
        h.kernel.run_until(1.0)
        h.medium.detach(leaver)
        leaver.advertise_once(b"ghost")

    heard, _, _ = _parity(script)
    assert [e for e in heard if e[2] == b"ghost"]


class _PickyBle(BleRadio):
    """Overrides the scalar acceptance without a batch twin, so the
    medium takes the unversioned per-broadcast acceptance path."""

    def _accepts_frame(self, frame):
        return super()._accepts_frame(frame) and self.node.name != "n3"


def test_unversioned_acceptance_path_with_an_rng_drawing_model():
    def script(h):
        for i in range(12):
            h.add_at(4.0 * i, 0.0, radio_cls=_PickyBle)
        h.beacon_round(0)

    heard, _, _ = _parity(script, {RadioKind.BLE: SoftDisk(6.0, 20.0)})
    assert 3 not in {me for _, me, _, _ in heard}


def test_no_event_when_every_roll_fails_on_the_unversioned_path():
    harness = _Harness(True, {RadioKind.BLE: SoftDisk(1.0, 100.0)})
    for x in (0.0, 99.99):
        harness.add_at(x, 0.0, radio_cls=_PickyBle)
    # p ≈ 1e-4 at 99.99 m: the roll fails, leaving nothing to schedule.
    assert harness.radios[0].advertise_once(b"far") == 0
    harness.kernel.run()
    assert harness.medium._batch_pool == []  # no (empty) batch was scheduled


@pytest.mark.parametrize("vectorized", [True, False])
def test_lone_detached_sender_reaches_nobody(vectorized):
    # The table for a kind with no attached radio left is empty.
    harness = _Harness(vectorized)
    leaver = harness.add_at(0.0, 0.0)
    harness.medium.detach(leaver)
    assert leaver.advertise_once(b"alone") == 0
    assert harness.outcome()[1] == (1, 0, 0)
