"""The wireless medium: geometry-aware frame delivery between radios.

One :class:`Medium` instance per simulation carries every technology; each
:class:`~repro.radio.frame.RadioKind` has its own propagation model.  The
medium decides *who can hear* a transmission; receiver radios decide what to
do with it (scan-window gating, mesh membership, etc.) via
``_accepts_frame``.

Frame fan-out is served from a per-technology time-aware grid index: a
broadcast only distance-tests the radios bucketed in grid cells within the
technology's range — inflated by the worst-case intra-epoch displacement
of mobile nodes, which are bucketed at their epoch-start positions — plus
any movers in the coarse sprinter grid whose inflated cells overlap the
query.  The pruning is exact: a pruned radio is one the propagation model
gives delivery probability 0, which neither receives the frame nor
consumes randomness — so indexed and linear scans produce bit-identical
simulations.  Epoch rebucketing is driven lazily off kernel time inside
the query, adding no event-queue traffic.

Vectorized broadcast and the batch delivery pipeline
----------------------------------------------------

With numpy installed, and by default (``vectorized=True``), a broadcast
runs in four batch stages, each a separately overridable seam.  Without
numpy the medium runs the scalar reference loop instead — the one
numpy-free path; ``Medium`` makes that choice once, at construction.

1. **query** — :meth:`Medium._build_table` resolves *every* radio's
   receivers at once: one neighbour table per technology, built from a
   single sorted cell-pair join over all attached radios and stored as
   CSR rows (ascending attach order, sender excluded, distances within
   the model's cutoff).  A table stays valid for one (timestamp,
   attach/move version) stamp — or for the version alone while the
   technology has no moving radios — so a beacon round's senders share
   one build (reuse/build counts in ``batch_cache_hits`` /
   ``batch_cache_misses``).
2. **probability** — :meth:`Medium._delivery_mask` turns one sender's
   row of distances into delivery decisions, drawing the RNG delivery
   rolls in one numpy pass.
3. **acceptance** — :meth:`Medium._acceptance_mask` asks each concrete
   radio class for one ``accepts_mask`` over its receivers instead of N
   virtual ``_accepts_frame`` calls, cached per (timestamp, acceptance
   version, frame kind) for version-covered classes; acceptance draws no
   RNG, so the mask order is free and only the delivery side effects
   below are order-sensitive.
4. **delivery** — all of a transmission's arrivals are scheduled as a
   single pooled :class:`_BatchDelivery` event whose delivery-time
   re-check is the same acceptance mask, with ``_deliver`` side effects
   running in ascending attach order over it.

The RNG draw-order contract (see :mod:`repro.phy.propagation`) is what
keeps all of this byte-identical to the scalar loop: one uniform draw per
candidate with ``0 < p < 1``, consumed in ascending attach order with the
sender excluded — exactly the draws, and the order, of the scalar path.
A row holds every radio within the model's cutoff, and beyond the cutoff
the model gives probability 0 (no frame, no draw), so rows lose nothing
the scalar loop could observe.
"""

from __future__ import annotations

import math
from itertools import compress
from typing import Dict, List, Optional, Sequence, Tuple

from repro.phy.geometry import Position
from repro.phy.index import TimeAwareGridIndex
from repro.phy.propagation import PropagationModel, UnitDisk, frame_delivered
from repro.phy.world import World, WorldNode
from repro.radio.base import Radio
from repro.radio.frame import Frame, RadioKind
from repro.sim.kernel import Kernel
from repro.util import array
from repro.util.rng import SeededRng

#: Default communication ranges per technology, in meters.  BLE and WiFi
#: follow common open-air figures; NFC is contact-range by design.
DEFAULT_RANGES = {
    RadioKind.BLE: 30.0,
    RadioKind.WIFI: 100.0,
    RadioKind.NFC: 0.1,
}

#: Propagation delay is negligible at D2D ranges; modeled as a constant.
PROPAGATION_DELAY_S = 5e-6

#: The batch pipeline's backend, read once: numpy, or None when it is not
#: installed — then every medium runs the scalar reference loop.
np = array.numpy

#: Packs a (cell_x, cell_y) pair into one int64 cell id for the neighbour
#: table's join (see Medium._build_table): ids of one x-column are
#: contiguous, so a column's y-range is a single sorted-array slice.
_CELL_STRIDE = 1 << 32

#: Most candidate pairs one column chunk of the neighbour table's join
#: may hold, so each of the chunk's temporaries is at most 128 KiB.
#: Measured on a dense 2k-node beacon flood: unchunked, the multi-MB
#: temporaries left the allocator's heap fragmented and raised the
#: process's peak memory by about 10 MB; chunked, it matches the
#: per-cell gather this join replaced.
_JOIN_CANDIDATES = 1 << 14


class _MIXED:
    """Sentinel marking a RadioKind with more than one concrete class.

    A class (not an instance) so the ``Medium._mono_class`` values stay
    type-annotated; it can never equal ``type(radio)`` for any radio.
    """


class _Delivery:
    """One scheduled frame arrival: a pooled, preallocated callable.

    Replaces the per-delivery closure ``broadcast`` used to build; a slotted
    instance binds the receiver and frame with less allocation and keeps the
    delivery-time re-check (the receiver may have been disabled, or stopped
    scanning, during the frame's airtime).  Instances are recycled through
    ``Medium._delivery_pool``: on firing, the payload moves to locals, the
    slots are cleared, and the shell returns to the pool *before* the
    delivery side effects run — kernel events are one-shot, so a nested
    broadcast inside ``_deliver`` may safely repopulate the shell.
    """

    __slots__ = ("medium", "receiver", "frame", "distance")

    def __init__(self, medium: "Medium", receiver: Radio, frame: Frame,
                 distance: float) -> None:
        self.medium = medium
        self.receiver = receiver
        self.frame = frame
        self.distance = distance

    def __call__(self) -> None:
        medium = self.medium
        receiver = self.receiver
        frame = self.frame
        distance = self.distance
        self.receiver = None
        self.frame = None
        medium._delivery_pool.append(self)
        medium._execute_delivery(receiver, frame, distance)


class _BatchDelivery:
    """All of one broadcast's arrivals as a single pooled scheduled event.

    The vectorized broadcast schedules one kernel event per transmission
    instead of one per receiver.  Arrival semantics are unchanged: the
    same per-receiver re-check runs at the same instant — as one
    acceptance mask per batch — and ``_deliver`` side effects run in
    ascending attach order, exactly the order the scalar path's
    per-receiver events (scheduled back-to-back, hence contiguous in the
    kernel's same-timestamp FIFO) would run in.  Shells recycle through
    ``Medium._batch_pool`` the same way :class:`_Delivery` does.
    """

    __slots__ = ("medium", "receivers", "frame", "distances", "accept_version")

    def __init__(self, medium: "Medium", receivers: List[Radio], frame: Frame,
                 distances: List[float], accept_version: int) -> None:
        self.medium = medium
        self.receivers = receivers
        self.frame = frame
        self.distances = distances
        #: The medium's acceptance-state version captured at scheduling,
        #: or -1 when the batch is not exempt from the delivery re-check
        #: (see Medium._execute_batch_delivery).
        self.accept_version = accept_version

    def __call__(self) -> None:
        medium = self.medium
        receivers = self.receivers
        frame = self.frame
        distances = self.distances
        accept_version = self.accept_version
        self.receivers = None
        self.frame = None
        self.distances = None
        medium._batch_pool.append(self)
        medium._execute_batch_delivery(receivers, frame, distances,
                                       accept_version)


class _NeighbourTable:
    """Every in-range (sender, receiver) pair of one kind at one stamp.

    The query stage.  ``radios`` is the kind's registry in attach
    order and ``index_of`` maps ``_medium_seq`` to a registry index.  Row
    ``g`` — entries ``indptr[g]:indptr[g + 1]`` — lists the radios within
    cutoff of ``radios[g]`` in ascending attach order, ``g`` itself
    excluded: ``nbrs`` holds their registry indices and ``distances``
    the exact scalar-formula distances (ndarrays; ``robj`` is the
    registry as an object array, so a row's radios are one fancy index).
    Rows stay arrays rather than stamp-wide Python lists: the lists would
    cost a dense beacon flood several MB of peak memory.  ``key`` is the
    validity stamp (see Medium._neighbour_table) and ``accept`` the
    stamp-scoped acceptance pre-filter.
    """

    __slots__ = (
        "key", "radios", "robj", "index_of", "indptr", "nbrs", "distances",
        "accept",
    )

    def __init__(self, key, radios, robj, index_of) -> None:
        self.key = key
        self.radios = radios
        self.robj = robj
        self.index_of = index_of
        self.indptr: List[int] = []
        self.nbrs = None
        self.distances = None
        self.accept = None


class Medium:
    """Routes frames from a transmitting radio to in-range receivers."""

    def __init__(
        self,
        kernel: Kernel,
        world: World,
        propagation: Optional[Dict[RadioKind, PropagationModel]] = None,
        rng: Optional[SeededRng] = None,
        use_spatial_index: bool = True,
        vectorized: bool = True,
    ) -> None:
        self.kernel = kernel
        self.world = world
        self.rng = rng or kernel.rng.child("medium")
        # The batch pipeline is built on numpy; without it every broadcast
        # takes the (byte-identical) scalar reference loop.
        self.vectorized = vectorized and np is not None
        self.propagation: Dict[RadioKind, PropagationModel] = {
            kind: UnitDisk(radius) for kind, radius in DEFAULT_RANGES.items()
        }
        if propagation:
            self.propagation.update(propagation)
        self._radios: Dict[RadioKind, List[Radio]] = {kind: [] for kind in RadioKind}
        self._adhoc_mesh = None
        self.frames_sent = 0
        self.frames_delivered = 0
        self.frames_dropped = 0
        # Deliveries heard by halo mirror receivers (sharded execution):
        # counted within frames_delivered too, broken out for shard stats.
        self.frames_cross_shard = 0
        #: Query-stage cache outcomes, alongside the frame counters: a hit
        #: means a sender reused its kind's neighbour table, a miss that
        #: it built one.
        self.batch_cache_hits = 0
        self.batch_cache_misses = 0
        # Spatial index: one grid per technology with a hard range cutoff.
        # A technology whose model has no cutoff (max_range() is None) keeps
        # the exhaustive scan — pruning there would skip RNG draws the
        # linear scan performs and de-synchronise seed streams.
        self._attach_seq = 0
        self._grids: Dict[RadioKind, Optional[TimeAwareGridIndex]] = {}
        self._node_radios: Dict[WorldNode, List[Radio]] = {}
        # Bumped by every attach/detach/move: part of every neighbour
        # table's key.
        self._batch_version = 0
        # The current neighbour table per kind — see _neighbour_table.
        self._tables: Dict[RadioKind, _NeighbourTable] = {}
        # Recycled delivery-event shells (see _Delivery/_BatchDelivery):
        # bounded by the peak number of in-flight arrivals.
        self._delivery_pool: List[_Delivery] = []
        self._batch_pool: List[_BatchDelivery] = []
        # Whether any attached radio is a halo mirror: lets the batch
        # delivery loop skip the per-receiver is_mirror test entirely in
        # unsharded runs (the overwhelming majority).
        self._has_mirrors = False
        # The single concrete radio class attached per kind, or _MIXED
        # once a second class shows up (never un-mixed; detach keeps it
        # conservative).  A mono-kind batch is provably homogeneous, so
        # the acceptance and delivery stages skip their per-call type
        # scans and dispatch one class-level batch call directly.
        self._mono_class: Dict[RadioKind, type] = {}
        # Bumped by every mutation of acceptance-relevant radio state
        # (enable/disable, scan start/stop).  A scheduled batch whose
        # every receiver's class vouches for this coverage (see
        # Radio._accepts_versioned_ref) skips the delivery-time re-check
        # while the version is unchanged: all receivers accepted at
        # scheduling, and nothing that _accepts_frame reads has moved.
        self._accept_version = 0
        # Actively-scanning radios whose delivery is duty-cycled (rolls a
        # scan-window RNG per frame), maintained by radio classes at scan
        # start/stop.  Zero lets a class's deliver_batch drop the dead
        # duty branch from its per-receiver loop.
        self._duty_cycled_scanners = 0
        if use_spatial_index:
            for kind, model in self.propagation.items():
                cutoff = model.max_range()
                self._grids[kind] = (
                    TimeAwareGridIndex(cutoff) if cutoff else None
                )
            world.add_move_listener(self._node_moved)
        else:
            self._grids = {kind: None for kind in RadioKind}

    def adhoc_mesh(self):
        """The shared ad-hoc mesh that fast peerings converge on.

        802.11s peering among co-located devices forms one MBSS; modeling it
        as a single lazily-created mesh keeps concurrent pairwise peerings
        from creating rival meshes that evict each other.
        """
        if self._adhoc_mesh is None:
            from repro.net.mesh import MeshNetwork

            self._adhoc_mesh = MeshNetwork(self.kernel, "adhoc")
        return self._adhoc_mesh

    def attach(self, radio: Radio) -> None:
        """Register a radio; called by the Radio constructor."""
        radio._medium_seq = self._attach_seq
        self._attach_seq += 1
        self._batch_version += 1
        if radio.is_mirror:
            self._has_mirrors = True
        cls = type(radio)
        known = self._mono_class.get(radio.kind)
        if known is None:
            self._mono_class[radio.kind] = cls
        elif known is not cls:
            self._mono_class[radio.kind] = _MIXED
        self._radios[radio.kind].append(radio)
        grid = self._grids.get(radio.kind)
        if grid is not None:
            grid.insert(radio, radio.node.mobility)
            self._node_radios.setdefault(radio.node, []).append(radio)

    def detach(self, radio: Radio) -> None:
        """Unregister a radio (device leaving the simulation)."""
        self._radios[radio.kind].remove(radio)
        self._batch_version += 1
        grid = self._grids.get(radio.kind)
        if grid is not None and radio in grid:
            grid.remove(radio)
            siblings = self._node_radios[radio.node]
            siblings.remove(radio)
            if not siblings:
                del self._node_radios[radio.node]

    def _node_moved(self, node: WorldNode) -> None:
        """Re-bucket a node's radios after a mobility-model change."""
        mobility = node.mobility
        self._batch_version += 1
        for radio in self._node_radios.get(node, ()):
            self._grids[radio.kind].update(radio, mobility)

    def radios(self, kind: RadioKind) -> Tuple[Radio, ...]:
        """All attached radios of ``kind`` (enabled or not), attach order.

        A tuple: the attach-order registry is the medium's source of truth
        for RNG draw order, so callers get an immutable snapshot rather
        than a list they could corrupt.
        """
        return tuple(self._radios[kind])

    def _candidates(
        self,
        kind: RadioKind,
        origin: Position,
        radius: Optional[float],
        now: Optional[float] = None,
    ) -> List[Radio]:
        """Radios that might be within ``radius`` of ``origin``, attach order.

        SpatialQuery-protocol spelling: ``(origin, radius, now)`` after the
        technology selector; ``now`` defaults to the kernel clock.  Falls
        back to every attached radio of ``kind`` when the technology is
        unindexed (or ``radius`` is None, i.e. the model is unbounded).
        Sorting the (few) grid candidates by attach sequence reproduces the
        exact iteration order of the exhaustive scan, which is what keeps
        RNG draws and delivery callbacks in the same order.
        """
        grid = self._grids.get(kind)
        if grid is None or radius is None:
            return self._radios[kind]
        if now is None:
            now = self.kernel.now
        candidates = grid.query(origin, radius, now)
        candidates.sort(key=_attach_order)
        return candidates

    def _neighbour_table(
        self, kind: RadioKind, grid: TimeAwareGridIndex, cutoff: float
    ) -> _NeighbourTable:
        """Query stage lookup: ``kind``'s neighbour table for this stamp.

        A table is keyed on ``(now, version, cutoff)`` while ``kind`` has
        moving radios and on ``(version, cutoff)`` alone while it has
        none: every position change of a static radio goes through
        ``move_to``/``set_mobility`` → :meth:`_node_moved`, which bumps
        the version, so a mover-free table stays exact across stamps.
        """
        now = self.kernel.now
        key = (now if grid.has_movers else None, self._batch_version, cutoff)
        table = self._tables.get(kind)
        if table is not None and table.key == key:
            self.batch_cache_hits += 1
            return table
        self.batch_cache_misses += 1
        # Drop the stale table before building: only its registry (valid
        # while the version holds) carries over.
        registry = None
        if table is not None:
            del self._tables[kind]
            if table.key[1] == key[1]:
                registry = (table.radios, table.robj, table.index_of)
            table = None
        table = self._build_table(kind, grid.cell_size, cutoff, now, key,
                                  registry)
        self._tables[kind] = table
        return table

    def _build_table(
        self,
        kind: RadioKind,
        size: float,
        cutoff: float,
        now: float,
        key: tuple,
        registry: Optional[tuple],
    ) -> _NeighbourTable:
        """Query stage: every radio's receivers from one sorted cell-pair join.

        Positions come from one ``position_at(now)`` pass — the same pure
        function, hence the same float64s, the scalar path reads through
        ``node.position``.  Radios are binned by packed cell id (stable
        sort, so attach order survives within a cell).  For each column
        offset, one ``searchsorted`` over a block of senders gives each
        sender's candidate span: the cells of that column within ``span``
        rows of its own, where ``span = floor(cutoff/size) + 1`` keeps a
        cell of margin over any pair at distance ``cutoff`` (float
        rounding of ``x/size`` can move a coordinate across a cell edge,
        never by a whole cell).  Each column's candidates are trimmed to
        distance ``<= cutoff``, sender excluded, before anything is
        joined; a block's pairs sorted by (sender, receiver) index are
        its CSR rows, and blocks are in sender order.  Blocks are sized
        from the most crowded cell so no chunk exceeds
        ``_JOIN_CANDIDATES``.
        """
        if registry is None:
            radios = list(self._radios[kind])
            robj = np.empty(len(radios), dtype=object)
            robj[:] = radios
            registry = (
                radios, robj,
                {radio._medium_seq: i for i, radio in enumerate(radios)},
            )
        table = _NeighbourTable(key, *registry)
        radios = table.radios
        count = len(radios)
        xs_list: List[float] = []
        ys_list: List[float] = []
        append_x = xs_list.append
        append_y = ys_list.append
        for radio in radios:
            point = radio.node.mobility.position_at(now)
            append_x(point.x)
            append_y(point.y)
        xs = np.asarray(xs_list, dtype=np.float64)
        ys = np.asarray(ys_list, dtype=np.float64)
        cid = (
            np.floor(xs / size).astype(np.int64) * _CELL_STRIDE
            + np.floor(ys / size).astype(np.int64)
        )
        order = np.argsort(cid, kind="stable")
        sorted_cid = cid[order]
        sorted_xs = xs[order]
        sorted_ys = ys[order]
        index = np.arange(count)
        span = math.floor(cutoff / size) + 1
        # A sender's candidates in one column span 2·span + 1 cells, each
        # holding at most the most crowded cell's population.
        edges = np.flatnonzero(sorted_cid[1:] != sorted_cid[:-1]) + 1
        crowd = max(1, int(np.diff(edges, prepend=0, append=count).max()))
        step = max(1, _JOIN_CANDIDATES // ((2 * span + 1) * crowd))
        senders = []
        nbrs = []
        dists = []
        for first in range(0, count, step):
            block = index[first:first + step]
            block_cid = cid[first:first + step]
            block_xs = xs[first:first + step]
            block_ys = ys[first:first + step]
            pieces = []
            for column in range(-span, span + 1):
                base = block_cid + column * _CELL_STRIDE
                lo = np.searchsorted(sorted_cid, base - span)
                hi = np.searchsorted(sorted_cid, base + span, side="right")
                counts = hi - lo
                src = np.repeat(block, counts)
                if not src.size:
                    continue
                # Slot k of sender i's run is sorted position lo[i] + k -
                # start[i], where start[i] (the run's first slot) is found
                # by binary search in the already-sorted sender column.
                start = np.searchsorted(src, block)
                at = np.arange(src.size) + np.repeat(lo - start, counts)
                dx = sorted_xs[at] - np.repeat(block_xs, counts)
                dy = sorted_ys[at] - np.repeat(block_ys, counts)
                distance = np.sqrt(dx * dx + dy * dy)
                near = distance <= cutoff
                src = src[near]
                rcv = order[at[near]]
                other = rcv != src
                pieces.append((src[other], rcv[other], distance[near][other]))
            if not pieces:
                continue
            src = np.concatenate([piece[0] for piece in pieces])
            rcv = np.concatenate([piece[1] for piece in pieces])
            perm = np.argsort(src * count + rcv, kind="stable")
            senders.append(src[perm])
            nbrs.append(rcv[perm])
            dists.append(np.concatenate([piece[2] for piece in pieces])[perm])
        if senders:
            table.indptr = np.searchsorted(
                np.concatenate(senders), np.arange(count + 1)
            ).tolist()
            table.nbrs = np.concatenate(nbrs)
            table.distances = np.concatenate(dists)
        else:
            table.indptr = [0] * (count + 1)
        return table

    def _row(
        self,
        sender: Radio,
        grid: TimeAwareGridIndex,
        cutoff: float,
    ):
        """``sender``'s receivers within ``cutoff``: the query-stage row.

        Returns ``(receivers, distances, rows, table)`` — the radios in
        ascending attach order with the sender excluded, their distances,
        their indices into ``table.radios`` (the population the
        stamp-scoped acceptance mask covers), and the neighbour table
        itself — or None when ``sender`` is missing from the registry
        (detached).
        """
        table = self._neighbour_table(sender.kind, grid, cutoff)
        g = table.index_of.get(sender._medium_seq)
        if g is None:
            return None
        lo = table.indptr[g]
        hi = table.indptr[g + 1]
        if lo == hi:
            return [], [], (), table
        rows = table.nbrs[lo:hi]
        return (table.robj[rows].tolist(), table.distances[lo:hi].tolist(),
                rows, table)

    def in_range(self, a: Radio, b: Radio) -> bool:
        """True if radios ``a`` and ``b`` are within their technology's range."""
        if a.kind is not b.kind:
            return False
        model = self.propagation[a.kind]
        return model.in_range(a.node.distance_to(b.node))

    def reachable_from(self, sender: Radio) -> List[Radio]:
        """Enabled same-kind radios currently in range of ``sender``."""
        model = self.propagation[sender.kind]
        cutoff = model.max_range()
        grid = self._grids.get(sender.kind)
        if self.vectorized and grid is not None and cutoff is not None:
            row = self._row(sender, grid, cutoff)
            if row is not None:
                receivers, distances = row[0], row[1]
                return [
                    radio
                    for radio, hit in zip(
                        receivers, model.in_range_mask(distances)
                    )
                    if hit and radio.enabled
                ]
        origin = sender.node.position
        return [
            radio
            for radio in self._candidates(sender.kind, origin, cutoff)
            if radio is not sender
            and radio.enabled
            and model.in_range(origin.distance_to(radio.node.position))
        ]

    def broadcast(self, sender: Radio, frame: Frame) -> int:
        """Deliver ``frame`` to every in-range receiver that accepts it.

        Delivery happens after the frame's airtime plus propagation delay.
        Returns the number of receivers the frame was scheduled to.
        """
        self.frames_sent += 1
        model = self.propagation[sender.kind]
        cutoff = model.max_range()
        grid = self._grids.get(sender.kind)
        if self.vectorized and grid is not None and cutoff is not None:
            return self._broadcast_batch(sender, frame, model, grid, cutoff)
        return self._broadcast_scalar(sender, frame, model, cutoff)

    def _broadcast_scalar(
        self,
        sender: Radio,
        frame: Frame,
        model: PropagationModel,
        cutoff: Optional[float],
    ) -> int:
        """The reference one-receiver-at-a-time loop (also the unindexed path)."""
        origin = sender.node.position
        scheduled = 0
        is_unit_disk = type(model) is UnitDisk
        radius = model.radius if is_unit_disk else None
        delay = frame.airtime + PROPAGATION_DELAY_S
        for receiver in self._candidates(sender.kind, origin, cutoff):
            if receiver is sender:
                continue
            distance = origin.distance_to(receiver.node.position)
            if is_unit_disk:
                # In-range under UnitDisk means certain delivery: skip the
                # probability machinery (no RNG draw happens either way).
                if distance > radius:
                    continue
            elif not frame_delivered(model, distance, self.rng):
                continue
            if not receiver._accepts_frame(frame):
                continue
            self._schedule_delivery(receiver, frame, distance, delay)
            scheduled += 1
        return scheduled

    def _broadcast_batch(
        self,
        sender: Radio,
        frame: Frame,
        model: PropagationModel,
        grid: TimeAwareGridIndex,
        cutoff: float,
    ) -> int:
        """Vectorized broadcast: one batch pass per pipeline stage.

        Byte-identical to :meth:`_broadcast_scalar`: the row holds every
        receiver within ``cutoff`` (beyond it p == 0: no frame, no draw),
        distances use the same correctly-rounded formula, and RNG draws
        are spent per the draw-order contract — ascending attach order
        over candidates with 0 < p < 1, sender excluded.
        """
        row = self._row(sender, grid, cutoff)
        if row is None:  # detached sender: not in the registry
            return self._broadcast_scalar(sender, frame, model, cutoff)
        receivers, distances, rows, table = row
        if not receivers:
            return 0
        keep = self._delivery_mask(model, distances)
        mono = self._mono_class.get(sender.kind)
        ref = getattr(mono, "_accepts_versioned_ref", None)
        if ref is not None and ref is getattr(mono, "_accepts_frame", None):
            # Version-covered mono-class kind (the common case): one
            # stamp-scoped pre-filter mask over the table's population is
            # shared by every sender, and the delivery-time re-check is
            # elided while the version holds (see _execute_batch_delivery).
            accepted = self._stamp_acceptance(table, frame, mono)
            if accepted is not None:
                flags = accepted[rows].tolist()
                keep = flags if keep is None else [
                    hit and ok for hit, ok in zip(keep, flags)
                ]
            accept_version = self._accept_version
        else:
            if keep is not None:
                receivers = list(compress(receivers, keep))
                if not receivers:
                    return 0
                distances = list(compress(distances, keep))
            mask = self._acceptance_mask(
                receivers, frame, self.kernel.now, mono
            )
            keep = None if all(mask) else mask
            accept_version = -1
        if keep is not None:
            receivers = list(compress(receivers, keep))
            if not receivers:
                return 0
            distances = list(compress(distances, keep))
        self._schedule_batch(
            receivers, frame, distances,
            frame.airtime + PROPAGATION_DELAY_S, accept_version,
        )
        return len(receivers)

    def _delivery_mask(
        self, model: PropagationModel, distances: Sequence[float]
    ) -> Optional[List[bool]]:
        """Probability stage: delivery decisions over one sender's row.

        ``distances`` is a row (ascending attach order, sender excluded,
        every entry within the model's cutoff).  RNG draws follow the
        contract: one draw per entry with fractional probability, in row
        order.  Returns the per-entry delivered flags, or None when every
        entry is delivered — always so under UnitDisk, whose cutoff is its
        radius.
        """
        if type(model) is UnitDisk:
            return None
        rng = self.rng
        ps = np.asarray(model.delivery_probabilities(distances),
                        dtype=np.float64)
        delivered = ps >= 1.0
        draw_at = np.nonzero((ps > 0.0) & ~delivered)[0]
        if draw_at.size:
            draws = np.fromiter(
                (rng.random() for _ in range(draw_at.size)),
                dtype=np.float64,
                count=draw_at.size,
            )
            # Mirrors SeededRng.bernoulli: delivered iff u < p.
            delivered[draw_at] = draws < ps[draw_at]
        return delivered.tolist()

    def _stamp_acceptance(self, table: _NeighbourTable, frame: Frame,
                          mono: type):
        """The acceptance pre-filter over ``table.radios``, once per stamp.

        Cached on the table per (timestamp, acceptance version, frame
        kind): every sender of the stamp shares one ``accepts_mask``
        call, and any enable/disable or scan start/stop in between bumps
        the version and forces a fresh one.  Returns None when every
        radio accepts, else the mask as a bool ndarray.
        """
        now = self.kernel.now
        key = (now, self._accept_version, frame.kind)
        cache = table.accept
        if cache is None or cache[0] != key:
            mask = self._acceptance_mask(table.radios, frame, now, mono)
            mask = None if all(mask) else np.asarray(mask, dtype=bool)
            cache = (key, mask)
            table.accept = cache
        return cache[1]

    def _acceptance_mask(
        self, radios: Sequence[Radio], frame: Frame, now: float,
        mono: Optional[type] = None,
    ) -> List[bool]:
        """Acceptance stage: one ``accepts_mask`` call per concrete class.

        Groups ``radios`` by type and asks each class for its batch mask
        (``Radio.accepts_mask``), scattering the submasks back into radio
        order.  Duck-typed receivers without an ``accepts_mask`` surface
        fall back to the scalar ``_accepts_frame`` loop — as do Radio
        subclasses that override the scalar reference without a batch
        twin (their ``accepts_mask`` delegates elementwise).  Acceptance
        draws no RNG, so grouping cannot perturb any seed stream; the
        mask is elementwise identical to per-receiver ``_accepts_frame``.

        ``mono`` is a caller-provided homogeneity proof: the mono-class
        registry entry for the one kind every radio in ``radios`` is
        known to belong to (broadcast candidates come from a single
        technology's grid).  When it matches ``type(radios[0])`` the
        per-call type scan is skipped; callers with mixed or unknown
        kinds must leave it None.
        """
        if not radios:
            return []
        # Homogeneous batches (one radio class — the overwhelmingly common
        # shape) take a single mask call with no grouping dict on the hot
        # path.
        cls = type(radios[0])
        homogeneous = mono is cls
        if not homogeneous:
            for radio in radios:
                if type(radio) is not cls:
                    break
            else:
                homogeneous = True
        if homogeneous:
            batch = getattr(cls, "accepts_mask", None)
            if batch is None:
                return [radio._accepts_frame(frame) for radio in radios]
            mask = batch(radios, frame, now)
            return mask if type(mask) is list else [bool(hit) for hit in mask]
        groups: Dict[type, List[int]] = {}
        for pos, radio in enumerate(radios):
            groups.setdefault(type(radio), []).append(pos)
        mask = [False] * len(radios)
        for cls, positions in groups.items():
            group = [radios[pos] for pos in positions]
            batch = getattr(cls, "accepts_mask", None)
            if batch is None:
                submask = [radio._accepts_frame(frame) for radio in group]
            else:
                submask = batch(group, frame, now)
            for pos, hit in zip(positions, submask):
                mask[pos] = bool(hit)
        return mask

    # -- delivery stage (pooled events + their execution seams) ---------------

    def _schedule_delivery(
        self, receiver: Radio, frame: Frame, distance: float, delay: float
    ) -> None:
        """Schedule one arrival, recycling a pooled event shell if available."""
        pool = self._delivery_pool
        if pool:
            event = pool.pop()
            event.receiver = receiver
            event.frame = frame
            event.distance = distance
        else:
            event = _Delivery(self, receiver, frame, distance)
        self.kernel.call_in(delay, event)

    def _schedule_batch(
        self,
        receivers: List[Radio],
        frame: Frame,
        distances: List[float],
        delay: float,
        accept_version: int = -1,
    ) -> None:
        """Schedule one broadcast's arrivals as a single pooled batch event."""
        pool = self._batch_pool
        if pool:
            event = pool.pop()
            event.receivers = receivers
            event.frame = frame
            event.distances = distances
            event.accept_version = accept_version
        else:
            event = _BatchDelivery(self, receivers, frame, distances,
                                   accept_version)
        self.kernel.call_in(delay, event)

    def _execute_delivery(self, receiver: Radio, frame: Frame,
                          distance: float) -> None:
        """Deliver one arrival after its airtime, re-checking acceptance."""
        if receiver._accepts_frame(frame):
            self.frames_delivered += 1
            if receiver.is_mirror:
                # A halo mirror heard it: under sharded execution this
                # delivery belongs to the receiver's owning shard and is
                # routed there at the next horizon.
                self.frames_cross_shard += 1
            receiver._deliver(frame, distance)
        else:
            self.frames_dropped += 1

    def _execute_batch_delivery(
        self, receivers: List[Radio], frame: Frame, distances: List[float],
        accept_version: int = -1,
    ) -> None:
        """Deliver one broadcast's arrivals: batch re-check, ordered effects.

        ``accept_version >= 0`` certifies that every receiver accepted at
        scheduling time and that its class vouches acceptance state is
        version-covered; if the medium's version still matches, the
        re-check is provably all-True and is skipped (``mask=None``).
        Any enable/disable or scan start/stop since scheduling bumps the
        version, forcing the full mask — same bytes as the scalar path's
        per-receiver re-check, minus the redundant reads.
        """
        if accept_version >= 0 and accept_version == self._accept_version:
            self._deliver_masked(receivers, frame, distances, None)
            return
        # One broadcast's receivers share the sender's kind, so the
        # mono-class registry entry for that kind is a homogeneity proof.
        mono = (
            self._mono_class.get(getattr(receivers[0], "kind", None))
            if receivers
            else None
        )
        mask = self._acceptance_mask(receivers, frame, self.kernel.now, mono)
        self._deliver_masked(receivers, frame, distances, mask)

    def _deliver_masked(
        self,
        receivers: List[Radio],
        frame: Frame,
        distances: List[float],
        mask: Optional[List[bool]],
    ) -> None:
        """Run ``_deliver`` side effects over ``mask`` in ascending attach order.

        ``mask=None`` means every receiver is known-accepted (the re-check
        was elided under acceptance-state versioning) — equivalent to an
        all-True mask without materialising one.  ``receivers`` are one
        broadcast's arrivals and therefore share a single kind, which is
        what lets the mono-class registry prove batch homogeneity.
        """
        if not receivers:
            return
        delivered = 0
        if not self._has_mirrors:
            if mask is None or all(mask):
                # Dense beacon rounds: every receiver still accepts at
                # delivery time — no per-item branch, no mirror test, and
                # a mono-class registry dispatches the class's batch
                # delivery loop (one call instead of one per receiver).
                cls = type(receivers[0])
                if self._mono_class.get(getattr(receivers[0], "kind", None)) is cls:
                    cls.deliver_batch(receivers, frame, distances)
                else:
                    for receiver, distance in zip(receivers, distances):
                        receiver._deliver(frame, distance)
                self.frames_delivered += len(receivers)
                return
            for receiver, distance, accepted in zip(receivers, distances, mask):
                if accepted:
                    delivered += 1
                    receiver._deliver(frame, distance)
        else:
            if mask is None:
                mask = [True] * len(receivers)
            cross_shard = 0
            for receiver, distance, accepted in zip(receivers, distances, mask):
                if accepted:
                    delivered += 1
                    if receiver.is_mirror:
                        cross_shard += 1
                    receiver._deliver(frame, distance)
            self.frames_cross_shard += cross_shard
        self.frames_delivered += delivered
        self.frames_dropped += len(receivers) - delivered


def _attach_order(radio: Radio) -> int:
    return radio._medium_seq
