"""Property suite: ``accepts_mask`` == per-receiver ``_accepts_frame``.

The batch acceptance contract (:meth:`repro.radio.base.Radio.accepts_mask`)
defines the mask as the elementwise application of the scalar reference —
exact equality for every radio class, every frame kind, and every
reachable radio state.  These properties churn seeded populations through
the public state machines (enable/disable, scanning start/stop, mesh
join/leave, monitor windows driven to their exact closing edge) and
compare the two surfaces directly and through the medium's grouping
seam (``Medium._acceptance_mask``) over heterogeneous receiver lists.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.phy.geometry import Position
from repro.phy.world import World
from repro.radio.base import Device, Radio
from repro.radio.ble import BleRadio
from repro.radio.frame import Frame, FrameKind
from repro.radio.medium import Medium
from repro.radio.nfc import NfcRadio
from repro.radio.wifi import WifiRadio
from repro.sim.kernel import Kernel
from repro.sim.sharded.shard import MirrorRadio

DEVICE_COUNT = 6

#: One churn step: (device index, operation).  Operations that are not
#: legal in the current state (e.g. scanning while disabled) are skipped,
#: so any generated sequence is executable.
_OPERATIONS = (
    "ble_toggle", "ble_scan_on", "ble_scan_off",
    "wifi_toggle", "wifi_listen_on", "wifi_listen_off",
    "wifi_join_a", "wifi_join_b", "wifi_leave",
    "wifi_monitor", "wifi_advance_to_edge",
    "nfc_toggle", "nfc_poll_on", "nfc_poll_off",
    "advance",
)


def _build_population():
    kernel = Kernel(seed=4242)
    world = World(kernel)
    medium = Medium(kernel, world, vectorized=True)
    devices = []
    for i in range(DEVICE_COUNT):
        node = world.add_node(f"dev-{i}", position=Position(float(i), 0.0))
        device = Device(kernel, node)
        device.add_radio(BleRadio(device, medium))
        device.add_radio(WifiRadio(device, medium))
        device.add_radio(NfcRadio(device, medium))
        devices.append(device)
    mesh_a = medium.adhoc_mesh()
    from repro.net.mesh import MeshNetwork

    mesh_b = MeshNetwork(kernel, "mesh-b")
    return kernel, medium, devices, (mesh_a, mesh_b)


def _noop_handler(*args) -> None:
    pass


def _apply(kernel, devices, meshes, step) -> None:
    index, op = step
    device = devices[index]
    ble = device.radios[BleRadio.kind]
    wifi = device.radios[WifiRadio.kind]
    nfc = device.radios[NfcRadio.kind]
    if op == "ble_toggle":
        ble.disable() if ble.enabled else ble.enable()
    elif op == "ble_scan_on":
        if ble.enabled and not ble.scanning:
            ble.start_scanning(_noop_handler)
    elif op == "ble_scan_off":
        ble.stop_scanning()
    elif op == "wifi_toggle":
        wifi.disable() if wifi.enabled else wifi.enable()
    elif op == "wifi_listen_on":
        wifi.on_multicast(_noop_handler)
    elif op == "wifi_listen_off":
        wifi.on_multicast(None)
    elif op in ("wifi_join_a", "wifi_join_b"):
        if wifi.enabled:
            mesh = meshes[0] if op == "wifi_join_a" else meshes[1]
            wifi.join(mesh, fast=True)
            kernel.run_for(0.01)  # let the fast peering complete
    elif op == "wifi_leave":
        wifi.leave()
    elif op == "wifi_monitor":
        if wifi.enabled:
            wifi.open_monitor_window(0.5, _noop_handler)
    elif op == "wifi_advance_to_edge":
        # Land the clock exactly on the window bound: `monitoring` is a
        # strict <, so the mask must already read False here.
        if wifi._monitor_until > kernel.now:
            kernel.run_until(wifi._monitor_until)
    elif op == "nfc_toggle":
        nfc.disable() if nfc.enabled else nfc.enable()
    elif op == "nfc_poll_on":
        if nfc.enabled and not nfc.polling:
            nfc.start_polling(_noop_handler)
    elif op == "nfc_poll_off":
        nfc.stop_polling()
    elif op == "advance":
        kernel.run_for(0.125)


def _frames_under_test(devices, now):
    sender_ble = devices[0].radios[BleRadio.kind]
    sender_wifi = devices[0].radios[WifiRadio.kind]
    sender_nfc = devices[0].radios[NfcRadio.kind]
    return [
        Frame(FrameKind.BLE_ADVERTISEMENT, sender_ble, b"adv", now),
        Frame(FrameKind.WIFI_MULTICAST, sender_wifi, b"mc", now,
              meta={"mesh": "adhoc"}),
        Frame(FrameKind.WIFI_MULTICAST, sender_wifi, b"mc", now,
              meta={"mesh": "mesh-b"}),
        Frame(FrameKind.WIFI_MULTICAST, sender_wifi, b"mc", now),
        Frame(FrameKind.WIFI_UNICAST, sender_wifi, b"uc", now),
        Frame(FrameKind.NFC_EXCHANGE, sender_nfc, b"tap", now),
    ]


def _assert_parity(medium, kernel, devices) -> None:
    now = kernel.now
    by_class = {
        BleRadio: [d.radios[BleRadio.kind] for d in devices],
        WifiRadio: [d.radios[WifiRadio.kind] for d in devices],
        NfcRadio: [d.radios[NfcRadio.kind] for d in devices],
    }
    mixed = [radio for group in by_class.values() for radio in group]
    for frame in _frames_under_test(devices, now):
        for cls, group in by_class.items():
            expected = [radio._accepts_frame(frame) for radio in group]
            assert list(cls.accepts_mask(group, frame, now)) == expected
        expected = [radio._accepts_frame(frame) for radio in mixed]
        assert medium._acceptance_mask(mixed, frame, now) == expected


@settings(max_examples=30, deadline=None)
@given(
    steps=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=DEVICE_COUNT - 1),
            st.sampled_from(_OPERATIONS),
        ),
        max_size=30,
    )
)
def test_accepts_mask_matches_scalar_under_churn(steps):
    kernel, medium, devices, meshes = _build_population()
    for device in devices:
        for radio in device.radios.values():
            radio.enable()
    for step in steps:
        _apply(kernel, devices, meshes, step)
    _assert_parity(medium, kernel, devices)


def test_monitor_window_edge_is_strict(make_device, kernel):
    device = make_device("edge", radios=("wifi",))
    wifi = device.radios[WifiRadio.kind]
    wifi.open_monitor_window(1.0, _noop_handler)
    frame = Frame(FrameKind.WIFI_MULTICAST, wifi, b"mc", kernel.now)
    until = wifi._monitor_until
    # One instant before the bound: monitoring accepts the frame.
    assert wifi._accepts_frame(frame) is True
    assert WifiRadio.accepts_mask([wifi], frame, kernel.now) == [True]
    kernel.run_until(until)
    # Exactly at the bound the strict < closes the window — on both
    # surfaces, with the mask taking `now` as its time authority.
    assert wifi._accepts_frame(frame) is False
    assert WifiRadio.accepts_mask([wifi], frame, kernel.now) == [False]


def test_custom_scalar_override_uses_delegating_mask(kernel, world, medium):
    class PickyBle(BleRadio):
        def _accepts_frame(self, frame):
            return (
                super()._accepts_frame(frame) and len(frame.payload) < 4
            )

    node = world.add_node("picky", position=Position(0.0, 0.0))
    device = Device(kernel, node)
    radio = device.add_radio(PickyBle(device, medium))
    radio.enable()
    radio.start_scanning(_noop_handler)
    short = Frame(FrameKind.BLE_ADVERTISEMENT, radio, b"abc", 0.0)
    long = Frame(FrameKind.BLE_ADVERTISEMENT, radio, b"abcdef", 0.0)
    # The subclass overrode the scalar reference without a batch twin:
    # the inherited accepts_mask must delegate elementwise, never apply
    # BleRadio's packed logic.
    assert PickyBle.accepts_mask([radio], short, 0.0) == [True]
    assert PickyBle.accepts_mask([radio], long, 0.0) == [False]
    assert medium._acceptance_mask([radio], long, 0.0) == [False]


def test_duck_typed_receiver_without_mask_uses_scalar_loop(medium):
    class DuckRadio:
        kind = BleRadio.kind
        is_mirror = False

        def __init__(self, accepts):
            self._accepts = accepts

        def _accepts_frame(self, frame):
            return self._accepts

    frame = Frame(FrameKind.BLE_ADVERTISEMENT, None, b"x", 0.0)
    ducks = [DuckRadio(True), DuckRadio(False), DuckRadio(True)]
    assert medium._acceptance_mask(ducks, frame, 0.0) == [True, False, True]


def test_mirror_radio_mask_matches_scalar():
    accepted = Frame(FrameKind.BLE_ADVERTISEMENT, None, b"x", 0.0)
    rejected = Frame(FrameKind.NFC_EXCHANGE, None, b"x", 0.0)
    mirrors = [object.__new__(MirrorRadio) for _ in range(3)]
    for frame in (accepted, rejected):
        expected = [MirrorRadio._accepts_frame(m, frame) for m in mirrors]
        assert MirrorRadio.accepts_mask(mirrors, frame, 0.0) == expected


def test_base_default_mask_delegates_elementwise(kernel, world, medium):
    node = world.add_node("plain", position=Position(0.0, 0.0))
    device = Device(kernel, node)

    class PlainRadio(Radio):
        kind = BleRadio.kind

        def _deliver(self, frame, distance):
            pass

    radios = [PlainRadio(device, medium) for _ in range(3)]
    radios[1].enable()
    frame = Frame(FrameKind.BLE_ADVERTISEMENT, None, b"x", 0.0)
    assert Radio.accepts_mask(radios, frame, 0.0) == [False, True, False]
