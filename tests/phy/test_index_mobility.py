"""Indexed vs linear equality under mobility churn, property-style.

Two mirrored media — one with the time-aware spatial index, one on the
exhaustive linear scan — are driven through the same randomized (but
seeded) sequence of mobility swaps, teleports, clock advances, beacons,
and reachability queries.  At every step the indexed answers must equal
the linear ones *exactly*: same reachable sets, same delivered frames.  Clock advances are long enough to
cross many epoch boundaries, so rebucketing (and the fast-mover roaming
fallback) is exercised throughout.
"""

from __future__ import annotations

from repro.phy.geometry import Position
from repro.phy.mobility import Linear, RandomWaypoint, Static, WaypointPath
from repro.phy.world import World
from repro.radio.base import Device
from repro.radio.ble import BleRadio
from repro.radio.medium import Medium
from repro.sim.kernel import Kernel
from repro.util.rng import SeededRng

ARENA_M = 300.0


def _make_spec(rng: SeededRng, fast_allowed: bool = True):
    """A picklable-ish description of a mobility model.

    Specs (not model instances) are shared between the mirrored universes:
    each universe builds its *own* model from the spec, so lazily generated
    trajectories (RandomWaypoint) never leak state across universes.
    """
    kinds = ["static", "linear", "waypoint", "randomwaypoint"]
    if fast_allowed:
        kinds.append("sprinter")  # fast enough to trip the roaming fallback
    kind = rng.choice(kinds)
    if kind == "static":
        return ("static", rng.uniform(0.0, ARENA_M), rng.uniform(0.0, ARENA_M))
    if kind == "linear":
        return (
            "linear",
            rng.uniform(0.0, ARENA_M),
            rng.uniform(0.0, ARENA_M),
            rng.uniform(-2.5, 2.5),
            rng.uniform(-2.5, 2.5),
        )
    if kind == "sprinter":
        return (
            "linear",
            rng.uniform(0.0, ARENA_M),
            rng.uniform(0.0, ARENA_M),
            rng.uniform(150.0, 400.0),
            rng.uniform(-400.0, 400.0),
        )
    if kind == "waypoint":
        waypoints = []
        t = rng.uniform(0.0, 30.0)
        for _ in range(rng.randint(2, 5)):
            waypoints.append(
                (t, (rng.uniform(0.0, ARENA_M), rng.uniform(0.0, ARENA_M)))
            )
            t += rng.uniform(0.0, 40.0)
        return ("waypoint", tuple(waypoints))
    return (
        "randomwaypoint",
        rng.randint(0, 10**9),
        rng.uniform(0.8, 3.0),
        rng.uniform(0.0, 4.0),
    )


def _build_model(spec):
    kind = spec[0]
    if kind == "static":
        return Static(Position(spec[1], spec[2]))
    if kind == "linear":
        return Linear(Position(spec[1], spec[2]), (spec[3], spec[4]))
    if kind == "waypoint":
        return WaypointPath([(t, Position(x, y)) for t, (x, y) in spec[1]])
    _, seed, speed, pause = spec
    return RandomWaypoint(SeededRng(seed), width=ARENA_M, height=ARENA_M,
                          speed=speed, pause=pause)


def _mirrored_stack(use_spatial_index: bool, specs):
    kernel = Kernel(seed=3)
    world = World(kernel)
    medium = Medium(kernel, world, use_spatial_index=use_spatial_index)
    radios = []
    heard = []
    for i, spec in enumerate(specs):
        node = world.add_node(f"d{i}", mobility=_build_model(spec))
        device = Device(kernel, node)
        radio = device.add_radio(BleRadio(device, medium))
        radio.enable()
        radio.start_scanning(
            lambda payload, mac, distance, me=i: heard.append(
                (me, payload, round(distance, 9))
            )
        )
        radios.append(radio)
    return kernel, world, medium, radios, heard


def test_medium_delivery_identical_with_index_on_and_off_under_churn():
    spec_rng = SeededRng(77)
    specs = [_make_spec(spec_rng) for _ in range(40)]
    (kernel_a, world_a, medium_a, radios_a, heard_a) = _mirrored_stack(
        use_spatial_index=False, specs=specs
    )
    (kernel_b, world_b, medium_b, radios_b, heard_b) = _mirrored_stack(
        use_spatial_index=True, specs=specs
    )
    ops = SeededRng(31337)
    for step in range(120):
        op = ops.choice(("advance", "beacon", "beacon", "retarget", "teleport",
                         "reach"))
        if op == "advance":
            dt = ops.uniform(1.0, 15.0)
            kernel_a.run_until(kernel_a.now + dt)
            kernel_b.run_until(kernel_b.now + dt)
        elif op == "beacon":
            sender = ops.randint(0, len(specs) - 1)
            payload = b"s%03d" % step
            radios_a[sender].advertise_once(payload)
            radios_b[sender].advertise_once(payload)
        elif op == "retarget":
            target = ops.randint(0, len(specs) - 1)
            spec = _make_spec(ops)
            world_a.node(f"d{target}").set_mobility(_build_model(spec))
            world_b.node(f"d{target}").set_mobility(_build_model(spec))
        elif op == "teleport":
            target = ops.randint(0, len(specs) - 1)
            x = ops.uniform(0.0, ARENA_M)
            y = ops.uniform(0.0, ARENA_M)
            world_a.node(f"d{target}").move_to(Position(x, y))
            world_b.node(f"d{target}").move_to(Position(x, y))
        else:  # reach: neighbor sets must agree at this instant
            probe = ops.randint(0, len(specs) - 1)
            reach_a = [r.device.name
                       for r in medium_a.reachable_from(radios_a[probe])]
            reach_b = [r.device.name
                       for r in medium_b.reachable_from(radios_b[probe])]
            assert reach_a == reach_b
    # Drain in-flight deliveries, then the full logs must be identical.
    kernel_a.run_until(kernel_a.now + 5.0)
    kernel_b.run_until(kernel_b.now + 5.0)
    assert heard_a == heard_b
    assert heard_a  # the scenario actually delivered frames
    assert (medium_a.frames_sent, medium_a.frames_delivered,
            medium_a.frames_dropped) == (
        medium_b.frames_sent, medium_b.frames_delivered,
        medium_b.frames_dropped)
