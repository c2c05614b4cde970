"""Per-layer tracing from outside the program.

The benchmark times the calls into each layer's public entry points by
swapping the class (or module) attribute for a timing wrapper, running
the workload, and putting the original back.  Nothing under ``src/`` is
edited, and :meth:`Patches.restore` checks that every attribute is the
original object again, so the untraced runs that follow measure the
unmodified program.

A span's *self time* is its duration minus the durations of the spans it
encloses.  Self time is booked to the phase that is current when the
span ends: ``setup`` before the measured window opens, ``run`` inside
it, ``after`` once it closes.  Every span that ends inside the window
also started inside it (the window opens at the workload's root call),
so the ``run`` self times are disjoint pieces of the window and
``window − Σ self`` is the unattributed remainder, never negative.
Call counts and the layer counters are taken inside the window only.
"""

from __future__ import annotations

import functools
import time
import types
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple


class Patches:
    """Attribute swaps that are undone, and checked, in one place."""

    def __init__(self) -> None:
        self._saved: List[Tuple[Any, str, Any]] = []

    def set(self, owner: Any, name: str, value: Any) -> None:
        self._saved.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def restore(self) -> None:
        """Put every original back (newest first) and verify it."""
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        # An attribute swapped twice must end on its first-saved original.
        first: Dict[Tuple[int, str], Tuple[Any, Any]] = {}
        for owner, name, original in self._saved:
            first.setdefault((id(owner), name), (owner, original))
        for (_, name), (owner, original) in first.items():
            if vars(owner)[name] is not original:
                raise RuntimeError(
                    f"{getattr(owner, '__name__', owner)}.{name} was not restored"
                )
        self._saved.clear()


def first_call(patches: Patches, owner: type, name: str,
               on_enter: Callable[[], None],
               on_exit: Callable[[], None]) -> None:
    """Observe the first call of ``owner.name``, then step out of the way.

    The probe puts the current attribute back before it calls through,
    so every later call — and everything the first call does — runs the
    unwrapped code.
    """
    current = vars(owner)[name]

    def probe(*args: Any, **kwargs: Any) -> Any:
        setattr(owner, name, current)
        on_enter()
        try:
            return current(*args, **kwargs)
        finally:
            on_exit()

    patches.set(owner, name, probe)


def record_instances(patches: Patches, cls: type, into: List[Any]) -> None:
    """Keep every instance ``cls`` constructs, for reading its counters."""
    init = vars(cls)["__init__"]

    @functools.wraps(init)
    def observed_init(self: Any, *args: Any, **kwargs: Any) -> None:
        init(self, *args, **kwargs)
        into.append(self)

    patches.set(cls, "__init__", observed_init)


def _family(cls: type) -> Iterator[type]:
    """``cls`` and every subclass defined in ``repro``, each once."""
    seen = set()
    pending = [cls]
    while pending:
        current = pending.pop()
        if current in seen or not current.__module__.startswith("repro"):
            continue
        seen.add(current)
        yield current
        pending.extend(current.__subclasses__())


def _public_methods(cls: type) -> List[str]:
    return sorted(
        name for name, raw in vars(cls).items()
        if not name.startswith("_")
        and isinstance(raw, (types.FunctionType, classmethod, staticmethod))
    )


After = Optional[Callable[[Tuple[Any, ...], Any, float], None]]


class Tracer:
    """Span wrappers, self-time books and counters for one traced run."""

    def __init__(self) -> None:
        self.clock = time.perf_counter
        self.patches = Patches()
        self.phase = "setup"
        self.self_s: Dict[str, Dict[str, float]] = {
            phase: defaultdict(float) for phase in ("setup", "run", "after")
        }
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        #: Inclusive ``Job.run`` time per experiment grid.
        self.cell_s: Dict[str, float] = defaultdict(float)
        #: Inclusive seconds per ``ShardRuntime.run_window`` call; the
        #: inline transport calls every shard once per horizon, in order.
        self.windows: List[float] = []
        self._stack: List[float] = [0.0]
        self.window_s = 0.0
        self._window_start = 0.0

    # -- the measured window ---------------------------------------------

    def open_window(self) -> None:
        self.phase = "run"
        self._window_start = self.clock()

    def close_window(self) -> None:
        self.window_s = self.clock() - self._window_start
        self.phase = "after"

    # -- spans ------------------------------------------------------------

    def span(self, bucket: str, fn: Callable[..., Any], after: After = None):
        tracer = self
        clock = self.clock
        stack = self._stack
        calls = self.calls
        books = self.self_s

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                stack[-1] += elapsed
                phase = tracer.phase
                books[phase][bucket] += elapsed - children
            if phase == "run":
                calls[bucket] += 1
                if after is not None:
                    after(args, result, elapsed)
            return result

        return traced

    def wrap(self, owner: Any, name: str, bucket: str, after: After = None) -> None:
        """Wrap ``owner.name`` (a function, classmethod or staticmethod)."""
        raw = vars(owner)[name]
        if isinstance(raw, classmethod):
            wrapped: Any = classmethod(self.span(bucket, raw.__func__, after))
        elif isinstance(raw, staticmethod):
            wrapped = staticmethod(self.span(bucket, raw.__func__, after))
        elif isinstance(raw, types.FunctionType):
            wrapped = self.span(bucket, raw, after)
        else:
            raise TypeError(f"cannot trace {owner!r}.{name}: {type(raw).__name__}")
        self.patches.set(owner, name, wrapped)

    def wrap_family(self, cls: type, names: Optional[Tuple[str, ...]],
                    bucket: str, after: After = None) -> None:
        """Wrap ``names`` (or every public method) wherever the family defines them."""
        for member in _family(cls):
            own = _public_methods(member) if names is None else [
                name for name in names if name in vars(member)
            ]
            for name in own:
                self.wrap(member, name, bucket, after)

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] += amount

    # -- installing the layers ----------------------------------------------

    def install(self) -> None:
        """Wrap the public entry points of every layer the benchmark reports."""
        import repro.runner as runner_pkg
        import repro.sim.sharded as sharded_pkg
        from repro.core.beacon import BeaconService
        from repro.core.manager import OmniManager
        from repro.core.tech import TechnologyAdapter
        from repro.energy.meter import EnergyMeter
        from repro.net.channel import FluidChannel
        from repro.net.flow_energy import FlowEnergyAccountant
        from repro.phy.index import TimeAwareGridIndex, UniformGridIndex
        from repro.phy.mobility import MobilityModel
        from repro.phy.world import World
        from repro.radio.base import Radio
        from repro.radio.ble import BleRadio
        from repro.radio.medium import Medium
        from repro.runner import engine as runner_engine
        from repro.runner.jobs import Job
        from repro.sim.kernel import Kernel
        from repro.sim.scheduler import EventScheduler
        from repro.sim.sharded import boundary, engine
        from repro.sim.sharded.shard import ShardRuntime
        from repro.util.rng import SeededRng

        count = self.count

        # sim: the event loop.  Its self time also holds every callback
        # into private code that no other span below covers.
        def stepped_batch(args, result, elapsed):
            count("sim.events", result)
            if result:
                count("sim.instants")

        def stepped(args, result, elapsed):
            if result:
                count("sim.events")
                count("sim.instants")

        self.wrap(EventScheduler, "step_batch", "sim", stepped_batch)
        self.wrap(EventScheduler, "step", "sim", stepped)
        for name in ("run_until", "run_before", "run"):
            self.wrap(EventScheduler, name, "sim")
        for name in ("run_until", "run_for", "run_window", "run",
                     "run_until_complete"):
            self.wrap(Kernel, name, "sim")
        self.wrap(Kernel, "spawn", "sim",
                  lambda args, result, elapsed: count("sim.processes"))

        # phy: spatial queries, batch positions, node registration.
        def queried(args, result, elapsed):
            count("phy.queries")
            count("phy.candidates", len(result))

        for index_cls in (UniformGridIndex, TimeAwareGridIndex):
            for name in ("query", "query_arrays"):
                self.wrap(index_cls, name, "phy.query", queried)
        self.wrap_family(MobilityModel, ("positions_at",), "phy.positions",
                         lambda args, result, elapsed: count("phy.position_calls"))
        for name in ("add_node", "add_mirror_node"):
            self.wrap(World, name, "phy.add_node")

        # medium, radio and the scan handler the workload registers.
        self.wrap(Medium, "broadcast", "medium",
                  lambda args, result, elapsed: count("medium.broadcasts"))
        self.wrap(BleRadio, "advertise_once", "radio.tx")

        def delivered(args, result, elapsed):
            count("radio.rx_batches")
            count("radio.rx_frames", len(args[1]))

        self.wrap_family(Radio, ("deliver_batch",), "radio.rx", delivered)
        start_scanning = vars(BleRadio)["start_scanning"]

        @functools.wraps(start_scanning)
        def traced_start_scanning(radio, handler, *args, **kwargs):
            return start_scanning(radio, self.span("app", handler),
                                  *args, **kwargs)

        self.patches.set(BleRadio, "start_scanning", traced_start_scanning)

        # energy, rng, the Omni middleware and the network substrate.
        for name in ("set_draw", "draw", "timed_draw"):
            self.wrap(EnergyMeter, name, "energy")
        self.wrap(SeededRng, "__init__", "rng",
                  lambda args, result, elapsed: count("rng.streams"))
        self.wrap(SeededRng, "child", "rng")
        self.wrap_family(OmniManager, None, "core")
        self.wrap_family(BeaconService, None, "core")
        self.wrap_family(TechnologyAdapter, None, "comm")
        self.wrap(FluidChannel, "start_flow", "net")
        self.wrap(FlowEnergyAccountant, "set_rate", "net")

        # runner: the grid driver and each cell.
        def cell_done(args, result, elapsed):
            self.cell_s[args[0].experiment] += elapsed

        self.wrap(Job, "run", "runner.cell", cell_done)
        for module in (runner_engine, runner_pkg):
            self.wrap(module, "run_experiment", "runner")

        # sharded engine: shard bodies, the horizon exchange and codecs.
        for module in (engine, sharded_pkg):
            for name in ("run_serial", "run_sharded"):
                self.wrap(module, name, "engine")
        for name in ("pack_boundary", "unpack_boundary", "pack_records",
                     "unpack_records"):
            self.wrap(boundary, name, "sharded.exchange")
            self.wrap(engine, name, "sharded.exchange")
        for name in ("horizon_packet", "apply_inbound"):
            self.wrap(ShardRuntime, name, "sharded.exchange")

        def window_done(args, result, elapsed):
            self.windows.append(elapsed)

        self.wrap(ShardRuntime, "run_window", "sharded.shard", window_done)
        for name in ("__init__", "schedule_window", "take_records"):
            self.wrap(ShardRuntime, name, "sharded.shard")

    def uninstall(self) -> None:
        self.patches.restore()

    # -- results ------------------------------------------------------------

    def layer_metrics(self, shards: int, experiments: Tuple[str, ...]) -> Dict[str, float]:
        """Self times, counts and the sharded balance, by metric name.

        ``experiments`` names the paper grids that get a
        ``runner.cell_s.<experiment>`` entry (0 when the grid did not run).
        """
        run = self.self_s["run"]
        metrics: Dict[str, float] = {
            "sim.events": self.counts["sim.events"],
            "sim.instants": self.counts["sim.instants"],
            "sim.processes": self.counts["sim.processes"],
            "sim.self_s": run["sim"],
            "phy.queries": self.counts["phy.queries"],
            "phy.candidates": self.counts["phy.candidates"],
            "phy.query_s": run["phy.query"],
            "phy.position_calls": self.counts["phy.position_calls"],
            "phy.positions_s": run["phy.positions"],
            "phy.add_node_s": run["phy.add_node"],
            "phy.add_node_setup_s": self.self_s["setup"]["phy.add_node"],
            "medium.broadcasts": self.counts["medium.broadcasts"],
            "medium.broadcast_s": run["medium"],
            "radio.tx_s": run["radio.tx"],
            "radio.rx_batches": self.counts["radio.rx_batches"],
            "radio.rx_frames": self.counts["radio.rx_frames"],
            "radio.rx_s": run["radio.rx"],
            "app.handler_calls": self.calls["app"],
            "app.handler_s": run["app"],
            "energy.calls": self.calls["energy"],
            "energy.s": run["energy"],
            "rng.streams": self.counts["rng.streams"],
            "rng.stream_s": run["rng"],
            "core.calls": self.calls["core"],
            "core.s": run["core"],
            "comm.s": run["comm"],
            "net.s": run["net"],
            "runner.cell_self_s": run["runner.cell"],
            "runner.overhead_s": run["runner"],
            "sharded.exchange_s": run["sharded.exchange"],
            "sharded.shard_s": run["sharded.shard"],
            "engine.self_s": run["engine"],
        }
        for experiment in experiments:
            metrics[f"runner.cell_s.{experiment}"] = self.cell_s[experiment]
        # Per horizon, the slowest shard sets the pace: Σ max vs Σ mean of
        # the run_window spans, taken horizon by horizon in call order.
        total_max = total_mean = 0.0
        for start in range(0, len(self.windows), shards):
            horizon = self.windows[start:start + shards]
            total_max += max(horizon)
            total_mean += sum(horizon) / len(horizon)
        metrics["sharded.compute_s.max"] = total_max
        metrics["sharded.compute_s.mean"] = total_mean
        metrics["sharded.imbalance"] = total_max / total_mean if total_mean else 0.0
        self_total = sum(run.values())
        metrics["trace.run_s"] = self.window_s
        metrics["trace.remainder_s"] = self.window_s - self_total
        return metrics
