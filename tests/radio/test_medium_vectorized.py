"""The vectorized broadcast pipeline is byte-identical to the scalar loop.

Executions of the same seeded scenario — scalar reference
(``vectorized=False``), vectorized with numpy active, and the default
``vectorized=True`` in an interpreter where numpy cannot be imported
(where the medium runs the scalar loop) — must produce the same delivery
records *and* leave the medium's RNG stream in the same state (the
draw-order contract: one uniform per 0<p<1 candidate, ascending attach
order, sender excluded).  SoftDisk propagation makes the stochastic path
load-bearing; UnitDisk exercises the no-draw fast path.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

from repro.phy.geometry import Position
from repro.phy.mobility import Linear, RandomWaypoint, Static
from repro.phy.propagation import SoftDisk, UnitDisk
from repro.phy.world import World
from repro.radio.base import Device
from repro.radio.ble import BleRadio
from repro.radio.frame import RadioKind
from repro.radio.medium import Medium
from repro.sim.kernel import Kernel
from repro.util import array

NODE_COUNT = 60
ARENA_M = 150.0
ROUNDS = 3
STEP_S = 2.0

#: A grey-zone model: every broadcast draws from the medium's RNG.
SOFT_DISK = {RadioKind.BLE: SoftDisk(inner=12.0, outer=30.0)}

#: The repository root: the numpy-blocked subprocess imports this module
#: from there as ``tests.radio.test_medium_vectorized``.
REPO_ROOT = Path(__file__).resolve().parents[2]


def _run_scenario(vectorized: bool, propagation=None):
    """Seeded mixed Static/Linear/RandomWaypoint beacon scenario; returns
    the heard log, the medium counters, a post-run RNG tail, and whether
    the medium ran the batch pipeline."""
    kernel = Kernel(seed=77)
    world = World(kernel)
    medium = Medium(kernel, world, propagation=propagation, vectorized=vectorized)
    heard = []
    radios = []
    for i in range(NODE_COUNT):
        start = Position((i * 37.0) % ARENA_M, (i * 53.0) % ARENA_M)
        if i % 3 == 0:
            mobility = Static(start)
        elif i % 6 == 1:
            mobility = Linear(start, (0.3 * (i % 5) - 0.6, 0.2 * (i % 4)))
        else:
            mobility = RandomWaypoint(
                kernel.rng.child("vec-walk", str(i)),
                width=ARENA_M,
                height=ARENA_M,
                speed=1.0 + 0.1 * (i % 7),
            )
        node = world.add_node(f"v{i}", mobility=mobility)
        device = Device(kernel, node)
        radio = device.add_radio(BleRadio(device, medium))
        radio.enable()
        radio.start_scanning(
            lambda payload, mac, distance, me=i: heard.append(
                (kernel.now, me, payload, distance)
            )
        )
        radios.append(radio)
    for round_index in range(ROUNDS):
        kernel.run_until((round_index + 1) * STEP_S)
        for i, radio in enumerate(radios):
            radio.advertise_once(bytes([round_index, i]))
    kernel.run()
    counters = (
        medium.frames_sent,
        medium.frames_delivered,
        medium.frames_dropped,
    )
    # The draw-order contract's sharpest check: after identical runs the
    # medium RNG must sit at the identical stream position.
    tail = [medium.rng.random() for _ in range(5)]
    return heard, counters, tail, medium.vectorized


def _digest(run) -> str:
    heard, counters, tail, _ = run
    return hashlib.sha256(
        repr((heard, counters, tail)).encode("utf-8")
    ).hexdigest()


def _assert_parity(propagation):
    vec = _run_scenario(True, propagation)
    scalar = _run_scenario(False, propagation)
    assert vec[3] is array.HAVE_NUMPY
    assert scalar[3] is False
    assert vec[:3] == scalar[:3]
    assert vec[1][1] > 0  # the layout actually delivered frames
    return vec


def test_unit_disk_parity_scalar_vectorized_fallback():
    vec = _assert_parity(None)
    # UnitDisk never draws: the RNG tail equals a virgin child stream's.
    virgin = Kernel(seed=77).rng.child("medium")
    assert vec[2] == [virgin.random() for _ in range(5)]


def test_soft_disk_parity_exercises_the_draw_path():
    vec = _assert_parity(SOFT_DISK)
    # SoftDisk's grey zone must actually have drawn: the tail diverges
    # from a virgin stream, proving the stochastic path ran (and matched).
    virgin = Kernel(seed=77).rng.child("medium")
    assert vec[2] != [virgin.random() for _ in range(5)]


def test_blocked_numpy_runs_the_scalar_medium_with_the_same_digest():
    """Without numpy the default ``vectorized=True`` medium is the scalar
    reference loop, with the same delivery bytes as the numpy pipeline.

    A fresh interpreter blocks the numpy import (``sys.modules["numpy"] =
    None`` before anything from ``repro`` loads) and runs the SoftDisk
    scenario; its digest must equal this process's run.
    """
    script = (
        "import json, sys\n"
        "sys.modules['numpy'] = None\n"
        "from repro.util import array\n"
        "from tests.radio.test_medium_vectorized import (\n"
        "    SOFT_DISK, _digest, _run_scenario)\n"
        "run = _run_scenario(True, SOFT_DISK)\n"
        "print(json.dumps({'backend': array.backend_name(),\n"
        "                  'vectorized': run[3], 'digest': _digest(run)}))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(REPO_ROOT / "src"), str(REPO_ROOT)])
    out = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env=env,
    )
    assert out.returncode == 0, out.stderr
    blocked = json.loads(out.stdout)
    assert blocked["backend"] == "python"
    assert blocked["vectorized"] is False  # the medium took the scalar path
    assert blocked["digest"] == _digest(_run_scenario(True, SOFT_DISK))


def test_vectorized_is_the_default_and_scalar_is_reachable(kernel, world):
    assert Medium(kernel, world).vectorized is array.HAVE_NUMPY
    assert Medium(kernel, world, vectorized=False).vectorized is False


def test_no_index_medium_falls_back_to_scalar_broadcast(kernel):
    """Without a spatial index there is no grid to batch over: the
    vectorized medium must quietly use the scalar loop and still deliver."""
    world = World(kernel)
    medium = Medium(kernel, world, use_spatial_index=False, vectorized=True)
    a_node = world.add_node("a", position=Position(0.0, 0.0))
    b_node = world.add_node("b", position=Position(10.0, 0.0))
    heard = []
    for name, node in (("a", a_node), ("b", b_node)):
        device = Device(kernel, node)
        radio = device.add_radio(BleRadio(device, medium))
        radio.enable()
        if name == "b":
            radio.start_scanning(
                lambda payload, mac, distance: heard.append((payload, distance))
            )
        else:
            sender = radio
    sender.advertise_once(b"ping")
    kernel.run_until(1.0)
    assert heard == [(b"ping", 10.0)]


def test_unit_disk_boundary_is_inclusive_both_paths(kernel):
    """A receiver at exactly the UnitDisk radius hears the frame under
    both pipelines (<= comparison, no float drift)."""
    for vectorized in (True, False):
        k = Kernel(seed=3)
        w = World(k)
        m = Medium(k, w, vectorized=vectorized)
        radius = UnitDisk(30.0).radius
        sender_node = w.add_node("s", position=Position(0.0, 0.0))
        edge_node = w.add_node("e", position=Position(radius, 0.0))
        sd = Device(k, sender_node)
        ed = Device(k, edge_node)
        tx = sd.add_radio(BleRadio(sd, m))
        rx = ed.add_radio(BleRadio(ed, m))
        tx.enable()
        rx.enable()
        heard = []
        rx.start_scanning(
            lambda payload, mac, distance: heard.append(distance)
        )
        tx.advertise_once(b"edge")
        k.run_until(1.0)
        assert heard == [radius]
