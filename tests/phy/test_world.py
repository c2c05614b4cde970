"""World node registry."""

import pytest

from repro.phy.geometry import Position
from repro.phy.mobility import Linear, Static
from repro.phy.world import MirrorNodeError, World


def test_add_and_lookup(world):
    node = world.add_node("a", position=Position(1, 2))
    assert world.node("a") is node
    assert "a" in world
    assert len(world) == 1


def test_duplicate_names_rejected(world):
    world.add_node("a", position=Position(0, 0))
    with pytest.raises(ValueError):
        world.add_node("a", position=Position(1, 1))


def test_position_or_mobility_required(world):
    with pytest.raises(ValueError):
        world.add_node("x")
    with pytest.raises(ValueError):
        world.add_node("y", position=Position(0, 0), mobility=Static(Position(1, 1)))


def test_remove_node(world):
    world.add_node("a", position=Position(0, 0))
    world.remove_node("a")
    assert "a" not in world
    with pytest.raises(KeyError):
        world.remove_node("a")


def test_moving_node_position_follows_clock(kernel, world):
    node = world.add_node("mover", mobility=Linear(Position(0, 0), (1.0, 0.0)))
    assert node.position == Position(0, 0)
    kernel.run_until(5.0)
    assert node.position == Position(5, 0)


def test_distance_between_nodes(kernel, world):
    a = world.add_node("a", position=Position(0, 0))
    b = world.add_node("b", mobility=Linear(Position(3, 4), (1.0, 0.0)))
    assert a.distance_to(b) == 5.0
    kernel.run_until(3.0)
    assert a.distance_to(b) == pytest.approx((36 + 16) ** 0.5)


def test_move_to_teleports_and_pins(kernel, world):
    node = world.add_node("mover", mobility=Linear(Position(0, 0), (1.0, 0.0)))
    kernel.run_until(2.0)
    node.move_to(Position(100, 100))
    kernel.run_until(10.0)
    assert node.position == Position(100, 100)


def test_set_mobility_switches_model(kernel, world):
    node = world.add_node("n", position=Position(0, 0))
    node.set_mobility(Linear(Position(0, 0), (2.0, 0.0), start_time=kernel.now))
    kernel.run_until(3.0)
    assert node.position == Position(6, 0)


def test_iteration(world):
    world.add_node("a", position=Position(0, 0))
    world.add_node("b", position=Position(1, 1))
    assert sorted(node.name for node in world) == ["a", "b"]


def test_mirror_node_rejects_direct_mutation(kernel, world):
    node = world.add_mirror_node("m", Static(Position(1.0, 2.0)), owner_shard=3)
    assert node.is_mirror
    assert node.owner_shard == 3
    with pytest.raises(MirrorNodeError):
        node.move_to(Position(5.0, 5.0))
    with pytest.raises(MirrorNodeError):
        node.set_mobility(Linear(Position(0, 0), (1.0, 0.0)))
    # The node stayed where it was.
    assert node.position == Position(1.0, 2.0)


def test_mirror_node_mutable_inside_boundary_exchange(kernel, world):
    node = world.add_mirror_node("m", Static(Position(0.0, 0.0)), owner_shard=0)
    with world.boundary_exchange():
        node.move_to(Position(3.0, 4.0))
    assert node.position == Position(3.0, 4.0)
    # The window closes again afterwards.
    with pytest.raises(MirrorNodeError):
        node.move_to(Position(9.0, 9.0))


def test_boundary_exchange_restores_state_on_error(kernel, world):
    node = world.add_mirror_node("m", Static(Position(0.0, 0.0)), owner_shard=0)
    with pytest.raises(RuntimeError, match="boom"):
        with world.boundary_exchange():
            raise RuntimeError("boom")
    with pytest.raises(MirrorNodeError):
        node.move_to(Position(1.0, 1.0))


def test_owned_nodes_unaffected_by_mirror_guard(kernel, world):
    node = world.add_node("owned", position=Position(0.0, 0.0))
    node.move_to(Position(2.0, 2.0))
    assert node.position == Position(2.0, 2.0)
    assert not node.is_mirror
    assert node.owner_shard is None
