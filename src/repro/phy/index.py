"""Spatial indexes for range queries over placed and moving items.

:class:`UniformGridIndex` answers "which items might be within ``radius``
of ``origin``?" by bucketing *static* items into square grid cells and
scanning only the cells that overlap the query disk's bounding square.
Items whose position varies with time (non-static mobility) are kept in a
*roaming* set and returned from every query; the caller applies the exact
distance test either way, so the index only ever reduces the candidate
set — it never changes which items a query finds.

This is the standard cell-list technique dense-neighborhood simulators use
to break the O(n) per-transmission scan; with cell size on the order of the
query radius a query touches at most 3×3 cells.

:class:`TimeAwareGridIndex` extends the technique to *mobile* items by
exploiting that every :class:`~repro.phy.mobility.MobilityModel` is a pure
function of time with a worst-case displacement bound
(:meth:`~repro.phy.mobility.MobilityModel.max_displacement`).  Movers are
bucketed at their epoch-start position; queries inflate the scan radius by
the largest intra-epoch bound.  Movers too fast to bound within one grid
cell (sprinters) go to a *coarse* second-level grid whose cell size adapts
to their worst bound, and only movers with no finite bound at all fall
back to the legacy roaming scan.  Either way the candidate set remains an
exact superset of the true answer at the queried instant.
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, List, Optional, Protocol, Sequence, Tuple

from repro.phy.geometry import Position
from repro.phy.mobility import MobilityModel, Static, positions_for

_Cell = Tuple[int, int]


class CandidateArrays:
    """Struct-of-arrays result of a batch spatial query.

    ``items[i]`` sits at ``(xs[i], ys[i])`` — exactly the floats the
    scalar path would see (``position_at(now)`` for movers, the stored
    position for statics), so a vectorized distance kernel over ``xs/ys``
    is bit-identical to per-item ``Position.distance_to``.  Items the
    index holds no position for (the roaming list of a plain
    :class:`UniformGridIndex`, which indexes bare positions, not mobility
    models) are returned in ``unpositioned`` instead; callers resolve
    those few themselves.  ``unpositioned + items`` is elementwise equal
    to what :meth:`SpatialQuery.query` returns for the same arguments.
    """

    __slots__ = ("items", "xs", "ys", "unpositioned")

    def __init__(
        self,
        items: List[Hashable],
        xs: List[float],
        ys: List[float],
        unpositioned: List[Hashable],
    ) -> None:
        self.items = items
        self.xs = xs
        self.ys = ys
        self.unpositioned = unpositioned

    def __len__(self) -> int:
        return len(self.items) + len(self.unpositioned)


class SpatialQuery(Protocol):
    """The one spelling of a range query, shared tree-wide.

    Every spatial lookup — index ``query``/``query_arrays``,
    ``Medium._candidates``, ``World.nodes_within`` — takes the same three
    parameters under the same names:

    ``origin``
        The :class:`~repro.phy.geometry.Position` at the center of the
        query disk (facades may also accept a node and resolve it).
    ``radius``
        The disk radius in meters.
    ``now``
        The simulation instant the answer is for.  Purely static indexes
        accept and ignore it (default ``0.0``), so callers never branch
        on index flavor.

    Contract: the result is a deterministic **superset** of the items
    within ``radius`` of ``origin`` at ``now`` — callers apply the exact
    distance test — and its order is a pure function of the index's
    mutation history and the query arguments (bucket scan order here;
    facades re-sort: the medium by radio attach order, the world by node
    name).  The legacy keyword spellings (``center=``, ``cutoff=``) are
    retired and flagged by the API003 lint rule.
    """

    def query(
        self, origin: Position, radius: float, now: float = 0.0
    ) -> List[Hashable]:
        """Candidate items as a list (scalar consumers)."""
        ...

    def query_arrays(
        self, origin: Position, radius: float, now: float = 0.0
    ) -> CandidateArrays:
        """Candidates as struct-packed parallel arrays (batch consumers)."""
        ...

#: Epoch length clamp for :class:`TimeAwareGridIndex` (seconds of sim time).
#: The lower clamp stops pathological rebucketing storms for very fast
#: movers (which the fallback rule routes to the roaming list anyway); the
#: upper clamp keeps the first queries of slow scenarios from committing to
#: an epoch so long that every later speed change waits an hour to retune.
MIN_EPOCH_S = 0.25
MAX_EPOCH_S = 60.0

#: Fraction of a cell a bucketed mover may drift per epoch.  Tuning the
#: epoch to half a cell (rather than a full one) keeps the auto-tuned
#: bound clear of the ``bound > cell_size`` fallback threshold even with
#: float rounding, and halves the query-radius inflation.
_EPOCH_CELL_FRACTION = 0.5

#: Probe window for observing a mover's current speed when retuning the
#: epoch length (seconds).  ``max_displacement(now, now + probe) / probe``
#: is an upper bound on the mover's speed over the near future.
_SPEED_PROBE_S = 1.0


class _Bucket:
    """One grid cell's contents as parallel arrays (items, x, y)."""

    __slots__ = ("items", "xs", "ys")

    def __init__(self) -> None:
        self.items: List[Hashable] = []
        self.xs: List[float] = []
        self.ys: List[float] = []


class UniformGridIndex:
    """Buckets items by position into ``cell_size``-sized square cells.

    Items are arbitrary hashable objects.  An item inserted with a position
    is *static* (bucketed); an item inserted with ``position=None`` is
    *roaming* and is a candidate for every query.
    """

    def __init__(self, cell_size: float) -> None:
        if cell_size <= 0.0:
            raise ValueError(f"cell_size must be > 0, got {cell_size}")
        self.cell_size = cell_size
        # Struct-of-arrays buckets: items plus their exact coordinates in
        # parallel lists, so query_arrays hands batch consumers positions
        # without touching the item objects.
        self._cells: Dict[_Cell, _Bucket] = {}
        self._where: Dict[Hashable, Optional[_Cell]] = {}
        # The roaming set as a list (query order) plus an item → slot map, so
        # removal is O(1) swap-pop instead of an O(n) list.remove scan —
        # mobility-heavy scenarios churn this on every reindex.  Order is
        # a deterministic function of the insert/remove sequence (a removed
        # item's slot is refilled by the then-last item).
        self._roaming: List[Hashable] = []
        self._roaming_slot: Dict[Hashable, int] = {}

    def _cell_of(self, position: Position) -> _Cell:
        size = self.cell_size
        return (math.floor(position.x / size), math.floor(position.y / size))

    def __len__(self) -> int:
        return len(self._where)

    def __contains__(self, item: Hashable) -> bool:
        return item in self._where

    @property
    def roaming_count(self) -> int:
        """How many items are unbucketed (mobile) and scanned every query."""
        return len(self._roaming)

    def insert(self, item: Hashable, position: Optional[Position]) -> None:
        """Add ``item`` at ``position``, or as roaming when position is None."""
        if item in self._where:
            raise ValueError(f"item {item!r} already indexed")
        if position is None:
            self._where[item] = None
            self._roaming_slot[item] = len(self._roaming)
            self._roaming.append(item)
            return
        cell = self._cell_of(position)
        self._where[item] = cell
        bucket = self._cells.get(cell)
        if bucket is None:
            bucket = self._cells[cell] = _Bucket()
        bucket.items.append(item)
        bucket.xs.append(position.x)
        bucket.ys.append(position.y)

    def insert_batch(
        self,
        items: Sequence[Hashable],
        xs: Sequence[float],
        ys: Sequence[float],
    ) -> None:
        """Bulk-insert positioned items; equals sequential :meth:`insert`.

        Items land in their buckets in input order, each in the cell
        :meth:`_cell_of` would pick — so bucket contents, and therefore
        every later query's candidate order, match ``len(items)`` scalar
        inserts exactly.
        """
        if len(xs) != len(ys) or len(xs) != len(items):
            raise ValueError(
                "insert_batch: items, xs and ys must have equal length "
                f"(got {len(items)}, {len(xs)} and {len(ys)})"
            )
        floor = math.floor
        size = self.cell_size
        where = self._where
        cells = self._cells
        for index, item in enumerate(items):
            if item in where:
                raise ValueError(f"item {item!r} already indexed")
            cell = (floor(xs[index] / size), floor(ys[index] / size))
            where[item] = cell
            bucket = cells.get(cell)
            if bucket is None:
                bucket = cells[cell] = _Bucket()
            bucket.items.append(item)
            bucket.xs.append(xs[index])
            bucket.ys.append(ys[index])

    def remove(self, item: Hashable) -> None:
        """Remove ``item``; raises ``KeyError`` if absent."""
        cell = self._where.pop(item)
        if cell is None:
            slot = self._roaming_slot.pop(item)
            last = self._roaming.pop()
            if slot < len(self._roaming):  # not the tail: refill its slot
                self._roaming[slot] = last
                self._roaming_slot[last] = slot
            return
        bucket = self._cells[cell]
        index = bucket.items.index(item)
        # Order-preserving removal (matching the old list.remove) keeps
        # query candidate order a pure function of the mutation sequence.
        del bucket.items[index]
        del bucket.xs[index]
        del bucket.ys[index]
        if not bucket.items:
            del self._cells[cell]

    def update(self, item: Hashable, position: Optional[Position]) -> None:
        """Move ``item`` to ``position`` (or to roaming when None)."""
        old_cell = self._where[item]
        new_cell = None if position is None else self._cell_of(position)
        if old_cell == new_cell and old_cell is not None:
            # Same bucket: no rewiring, but the stored coordinates must
            # track the exact new position for query_arrays.
            bucket = self._cells[old_cell]
            index = bucket.items.index(item)
            bucket.xs[index] = position.x
            bucket.ys[index] = position.y
            return
        self.remove(item)
        self.insert(item, position)

    def position_of(self, item: Hashable) -> Optional[Position]:
        """The stored position of a bucketed ``item`` (None when roaming)."""
        cell = self._where[item]
        if cell is None:
            return None
        bucket = self._cells[cell]
        index = bucket.items.index(item)
        return Position(bucket.xs[index], bucket.ys[index])

    def query(
        self, origin: Position, radius: float, now: float = 0.0
    ) -> List[Hashable]:
        """Candidate items for "within ``radius`` of ``origin``".

        Returns every static item in the grid cells overlapping the query's
        bounding square, plus every roaming item.  A superset of the exact
        answer: callers must still apply their own distance test.  ``now``
        is accepted per the :class:`SpatialQuery` protocol and ignored —
        this index holds time-invariant positions.
        """
        x_lo, x_hi, y_lo, y_hi = self._cell_span(origin, radius)
        cells = self._cells
        candidates: List[Hashable] = list(self._roaming)
        for cx in range(x_lo, x_hi + 1):
            for cy in range(y_lo, y_hi + 1):
                bucket = cells.get((cx, cy))
                if bucket is not None:
                    candidates.extend(bucket.items)
        return candidates

    def query_arrays(
        self, origin: Position, radius: float, now: float = 0.0
    ) -> CandidateArrays:
        """Batch twin of :meth:`query`: struct-packed parallel arrays.

        Bucketed candidates arrive in ``items/xs/ys`` (the same bucket
        scan order as :meth:`query`); roaming items — whose position this
        index does not know — in ``unpositioned``.  The concatenation
        ``unpositioned + items`` equals :meth:`query`'s list exactly.
        """
        x_lo, x_hi, y_lo, y_hi = self._cell_span(origin, radius)
        cells = self._cells
        items: List[Hashable] = []
        xs: List[float] = []
        ys: List[float] = []
        for cx in range(x_lo, x_hi + 1):
            for cy in range(y_lo, y_hi + 1):
                bucket = cells.get((cx, cy))
                if bucket is not None:
                    items.extend(bucket.items)
                    xs.extend(bucket.xs)
                    ys.extend(bucket.ys)
        return CandidateArrays(items, xs, ys, list(self._roaming))

    def _cell_span(
        self, origin: Position, radius: float
    ) -> Tuple[int, int, int, int]:
        size = self.cell_size
        return (
            math.floor((origin.x - radius) / size),
            math.floor((origin.x + radius) / size),
            math.floor((origin.y - radius) / size),
            math.floor((origin.y + radius) / size),
        )


class TimeAwareGridIndex:
    """An epoch-bucketed grid that indexes *moving* items too.

    Items are inserted with their :class:`~repro.phy.mobility.MobilityModel`
    instead of a bare position.  ``Static`` items live in an ordinary
    uniform grid.  Every other item (a *mover*) is bucketed at its position
    at the start of the current *epoch* — a deterministic window of
    simulation time — together with its worst-case intra-epoch displacement
    bound.  :meth:`query` then inflates the mover scan radius by the
    largest bound, which keeps the candidate set an exact superset of the
    true in-radius set at any instant inside the epoch.

    Movers whose bound exceeds one grid cell — *sprinters* — are bucketed
    in a coarse second-level grid sized to their largest bound, so a query
    far from any sprinter's epoch-start position skips them entirely
    instead of scanning an O(n) roaming list.  Only models that cannot
    bound their displacement at all (``max_displacement`` of ``inf``) still
    roam and are returned from every query — correctness never depends on
    the tuning.  Sprinters are likewise excluded from epoch-length tuning:
    one rocket no longer collapses the epoch (and with it the rebucketing
    cadence) for a population of pedestrians.

    Epochs are integer-indexed (``epoch * epoch_length`` start times, no
    float accumulation) and everything — epoch length, bucket contents,
    fallback decisions — is a pure function of the operation sequence and
    the query times, so indexed runs are bit-for-bit reproducible.
    Rebucketing happens lazily inside :meth:`query` when the queried time
    leaves the current epoch: no event-queue traffic, no timers.
    """

    def __init__(
        self,
        cell_size: float,
        *,
        min_epoch_s: float = MIN_EPOCH_S,
        max_epoch_s: float = MAX_EPOCH_S,
    ) -> None:
        if cell_size <= 0.0:
            raise ValueError(f"cell_size must be > 0, got {cell_size}")
        if not 0.0 < min_epoch_s <= max_epoch_s:
            raise ValueError(
                f"need 0 < min_epoch_s <= max_epoch_s, got "
                f"{min_epoch_s}..{max_epoch_s}"
            )
        self.cell_size = cell_size
        self.min_epoch_s = min_epoch_s
        self.max_epoch_s = max_epoch_s
        self._static = UniformGridIndex(cell_size)
        # Every non-static item, in insertion order (the order mover
        # structures are rebuilt in, hence deterministic).
        self._mobility: Dict[Hashable, MobilityModel] = {}
        # Movers as bucketed at the current epoch start; fast/unbounded
        # movers sit in this inner index's roaming list.
        self._movers = UniformGridIndex(cell_size)
        self._max_bound = 0.0
        # Sprinters: finite-bound movers too fast for the fine grid, in a
        # second-level grid with cells sized to their worst intra-epoch
        # bound.  None while the current epoch has no sprinters.
        self._coarse: Optional[UniformGridIndex] = None
        self._coarse_bound = 0.0
        self._epoch = 0
        self._epoch_length = max_epoch_s
        self._valid_from = 0.0
        self._valid_to = -1.0  # nothing bucketed yet: first query rebuckets
        self._tune_pending = False

    def __len__(self) -> int:
        return len(self._static) + len(self._mobility)

    def __contains__(self, item: Hashable) -> bool:
        return item in self._static or item in self._mobility

    # -- introspection (tests, stats) -------------------------------------

    @property
    def epoch(self) -> int:
        """The current integer epoch index (start = epoch × epoch_length)."""
        return self._epoch

    @property
    def epoch_length(self) -> float:
        """Current auto-tuned epoch length in seconds of sim time."""
        return self._epoch_length

    @property
    def mover_count(self) -> int:
        """How many items have non-static mobility (bucketed or roaming)."""
        return len(self._mobility)

    @property
    def has_movers(self) -> bool:
        """True when any indexed item has a non-static mobility model.

        While False, every item's position is constant between mutations
        (:meth:`insert`/:meth:`remove`/:meth:`update`), so caches derived
        from positions may be keyed on the mutation sequence alone rather
        than on the query time.
        """
        return bool(self._mobility)

    @property
    def roaming_count(self) -> int:
        """Movers on the legacy every-query scan (no finite bound at all).

        Meaningful for the epoch the index last rebucketed for; movers
        inserted since then are counted once the next query rebuckets.
        """
        return self._movers.roaming_count

    @property
    def coarse_count(self) -> int:
        """Sprinters bucketed in the coarse second-level grid this epoch."""
        return 0 if self._coarse is None else len(self._coarse)

    # -- mutation ----------------------------------------------------------

    def insert(self, item: Hashable, mobility: MobilityModel) -> None:
        """Add ``item`` with its mobility model."""
        if item in self:
            raise ValueError(f"item {item!r} already indexed")
        if type(mobility) is Static:
            self._static.insert(item, mobility.position)
            return
        self._mobility[item] = mobility
        # Defer placement to the next query: it knows the current time and
        # can retune the epoch for the (possibly faster) new population.
        self._tune_pending = True

    def remove(self, item: Hashable) -> None:
        """Remove ``item``; raises ``KeyError`` if absent."""
        if item in self._static:
            self._static.remove(item)
            return
        del self._mobility[item]
        if item in self._movers:
            self._movers.remove(item)
        elif self._coarse is not None and item in self._coarse:
            self._coarse.remove(item)

    def update(self, item: Hashable, mobility: MobilityModel) -> None:
        """Replace ``item``'s mobility model (it may change kind)."""
        self.remove(item)
        self.insert(item, mobility)

    # -- epoch management --------------------------------------------------

    def _rebucket(self, now: float) -> None:
        """Retune the epoch for ``now`` and rebucket every mover.

        Pure function of (mobility registry, ``now``): no randomness, no
        wall clock, integer epoch arithmetic only.
        """
        mobilities = self._mobility
        # Epoch tuning considers only movers slow enough to be fine-bucketed
        # at *some* legal epoch length ("fine-capable"); sprinters get the
        # coarse grid regardless, so letting them shrink the epoch would
        # only inflate everyone's rebucketing cadence.  When no mover is
        # fine-capable, fall back to the overall top finite speed so the
        # clamps still engage deterministically.
        fine_cap = _EPOCH_CELL_FRACTION * self.cell_size / self.min_epoch_s
        fine_top = 0.0
        top_speed = 0.0
        for mobility in mobilities.values():
            probe = mobility.max_displacement(now, now + _SPEED_PROBE_S)
            if not math.isfinite(probe):
                continue
            speed = probe / _SPEED_PROBE_S
            if speed > top_speed:
                top_speed = speed
            if speed <= fine_cap and speed > fine_top:
                fine_top = speed
        tuning_speed = fine_top if fine_top > 0.0 else top_speed
        if tuning_speed > 0.0:
            tuned = _EPOCH_CELL_FRACTION * self.cell_size / tuning_speed
            length = min(max(tuned, self.min_epoch_s), self.max_epoch_s)
        else:
            length = self.max_epoch_s
        epoch = math.floor(now / length)
        # Float guards: make sure the epoch window actually covers `now`.
        if (epoch + 1) * length < now:
            epoch += 1
        elif epoch * length > now:
            epoch -= 1
        start = epoch * length
        end = (epoch + 1) * length
        # Classify first, position later: all epoch-start positions for a
        # class of movers are computed in one batch (positions_for →
        # positions_at → one repro.util.array pass for closed-form models)
        # and bulk-inserted.  Order parity with the old one-at-a-time
        # loop: fine movers bulk-insert in registry order (bucket order
        # preserved), roaming inserts never touch buckets, and the
        # roaming items keep their relative registry order — so every
        # later query's candidate order is unchanged.
        movers = UniformGridIndex(self.cell_size)
        max_bound = 0.0
        fine_items: List[Hashable] = []
        fine_models: List[MobilityModel] = []
        roaming_items: List[Hashable] = []
        sprinter_items: List[Hashable] = []
        sprinter_models: List[MobilityModel] = []
        coarse_bound = 0.0
        for item, mobility in mobilities.items():
            bound = mobility.max_displacement(start, end)
            if bound <= self.cell_size:
                fine_items.append(item)
                fine_models.append(mobility)
                if bound > max_bound:
                    max_bound = bound
            elif math.isfinite(bound):  # sprinter: coarse second-level grid
                sprinter_items.append(item)
                sprinter_models.append(mobility)
                if bound > coarse_bound:
                    coarse_bound = bound
            else:  # unbounded model: legacy roaming scan
                roaming_items.append(item)
        if fine_items:
            xs, ys = positions_for(fine_models, start)
            movers.insert_batch(fine_items, xs, ys)
        for item in roaming_items:
            movers.insert(item, None)
        if sprinter_items:
            coarse = UniformGridIndex(max(coarse_bound, self.cell_size))
            xs, ys = positions_for(sprinter_models, start)
            coarse.insert_batch(sprinter_items, xs, ys)
        else:
            coarse = None
        self._movers = movers
        self._max_bound = max_bound
        self._coarse = coarse
        self._coarse_bound = coarse_bound
        self._epoch = epoch
        self._epoch_length = length
        self._valid_from = start
        self._valid_to = end
        self._tune_pending = False

    # -- queries -----------------------------------------------------------

    def query(self, origin: Position, radius: float, now: float) -> List[Hashable]:
        """Candidate items for "within ``radius`` of ``origin`` at ``now``".

        An exact superset of the true answer: callers must still apply
        their own distance test at ``now``.
        """
        candidates = self._static.query(origin, radius)
        if not self._mobility:
            return candidates
        candidates.extend(self._mover_candidates(origin, radius, now))
        return candidates

    def query_arrays(
        self, origin: Position, radius: float, now: float = 0.0
    ) -> CandidateArrays:
        """Batch twin of :meth:`query`: every candidate with its position.

        Items arrive in exactly :meth:`query`'s order.  Statics carry
        their stored (time-invariant) coordinates; movers — including
        roaming unbounded ones — are resolved to ``position_at(now)``,
        the same floats the scalar path reads per item.  ``unpositioned``
        is always empty here: this index knows every item's mobility
        model.
        """
        arrays = self._static.query_arrays(origin, radius)
        if not self._mobility:
            return arrays
        items = arrays.items
        xs = arrays.xs
        ys = arrays.ys
        mobilities = self._mobility
        for item in self._mover_candidates(origin, radius, now):
            point = mobilities[item].position_at(now)
            items.append(item)
            xs.append(point.x)
            ys.append(point.y)
        return arrays

    def _mover_candidates(
        self, origin: Position, radius: float, now: float
    ) -> List[Hashable]:
        """Mover candidates (fine grid + roaming, then coarse sprinters)."""
        if self._tune_pending or not (self._valid_from <= now <= self._valid_to):
            self._rebucket(now)
        candidates = self._movers.query(origin, radius + self._max_bound)
        if self._coarse is not None:
            candidates.extend(
                self._coarse.query(origin, radius + self._coarse_bound)
            )
        return candidates
