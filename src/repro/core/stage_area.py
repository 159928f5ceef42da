"""The stage area: Baryon's staging region and its on-chip tag array.

Mechanics only — the *policies* (what to fetch, when to commit) live in
:mod:`repro.core.commit` and the controller; this class owns:

* the set-associative organization (default 8192 sets x 4 ways = 64 MB);
* tag lookups at super-block granularity, including the one-to-one
  guarantee between tag entries and stage blocks (a tag hit *is* a data
  hit, Sec. III-D);
* exact 3-bit LRU ranks for block-level replacement and the 3-bit FIFO
  pointer for sub-block-level replacement (Fig. 5a / Fig. 8);
* the per-entry MissCnt and per-set MRUMissCnt counters with their
  right-shift aging every ``aging_period_accesses`` set accesses
  (Sec. III-E), which feed the Eq. 1 commit benefit.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.common.address import AddressMapper
from repro.common.config import Geometry, StageConfig
from repro.common.errors import CorruptionError, LayoutError
from repro.common.stats import CounterGroup
from repro.metadata.stage_tag import RangeSlot, StageTagArray, StageTagEntry
from repro.obs.tracer import NULL_TRACER


class StageArea:
    """Stage area state machine (no timing, no data movement)."""

    def __init__(self, config: StageConfig, geometry: Geometry) -> None:
        self.config = config
        self.geometry = geometry
        self.num_sets = config.num_sets(geometry)
        self.ways = config.ways
        self.mapper = AddressMapper(geometry, self.num_sets)
        self.tags = StageTagArray(
            self.num_sets, self.ways, slots_per_entry=geometry.sub_blocks_per_block
        )
        self.mru_miss_cnt: List[int] = [0] * self.num_sets
        self._set_accesses: List[int] = [0] * self.num_sets
        #: Exact per-set count of valid entries, maintained at the two
        #: validity flips (:meth:`allocate` / :meth:`invalidate`) so the
        #: deferred serve closure can promote to MRU without rescanning
        #: the set.
        self.valid_counts: List[int] = [0] * self.num_sets
        self._aging_period = config.aging_period_accesses
        self.stats = CounterGroup("stage_area")
        #: Observability hook point; see :mod:`repro.obs`.
        self.obs = NULL_TRACER
        #: Optional :class:`~repro.resilience.faults.FaultInjector`. Stage
        #: tag corruption surfaces on block lookups; the controller flushes
        #: and quarantines the affected entry.
        self.faults = None
        #: Optional :class:`~repro.core.columnar.ColumnarState`. The slot
        #: mutation sites (insert, remove, invalidate) notify it so its
        #: O(1) probe indices stay exact.
        self.columnar = None

    # -- lookup ------------------------------------------------------------
    def lookup_super(self, super_id: int) -> List[Tuple[int, StageTagEntry]]:
        """All (way, entry) pairs currently staging ``super_id``."""
        set_index = self.mapper.set_index_of_super(super_id)
        tag = self.mapper.tag_of_super(super_id)
        return self.tags.lookup(set_index, tag)

    def lookup_block(self, super_id: int, blk_off: int) -> Optional[Tuple[int, StageTagEntry]]:
        """The (single) way staging ranges of logical block ``blk_off``.

        Rule 3 keeps all of one block's staged ranges in one physical
        block, so at most one way can match.
        """
        num_sets = self.num_sets
        set_index = super_id % num_sets
        tag = super_id // num_sets
        match = None
        for way, entry in enumerate(self.tags.entries[set_index]):
            if entry.valid and entry.tag == tag:
                for slot in entry.slots:
                    if slot is not None and slot.blk_off == blk_off:
                        match = (way, entry)
                        break
                if match is not None:
                    break
        if match is None:
            return None
        if (
            self.faults is not None
            and self.faults.active
            and self.faults.stage_corruption()
        ):
            raise CorruptionError(
                f"stage tag entry for super-block {super_id} corrupted",
                site="stage_tag",
                set_index=set_index,
                way=match[0],
                block_id=super_id,
            )
        return match

    def lookup_sub_block(
        self, super_id: int, blk_off: int, sub_index: int
    ) -> Optional[Tuple[int, StageTagEntry, int]]:
        """(way, entry, slot) holding the sub-block, when staged."""
        num_sets = self.num_sets
        set_index = super_id % num_sets
        tag = super_id // num_sets
        for way, entry in enumerate(self.tags.entries[set_index]):
            if entry.valid and entry.tag == tag:
                slot = entry.find_sub_block(blk_off, sub_index)
                if slot is not None:
                    return way, entry, slot
        return None

    def set_index_of(self, super_id: int) -> int:
        return super_id % self.num_sets

    def entry(self, set_index: int, way: int) -> StageTagEntry:
        return self.tags.entry(set_index, way)

    # -- LRU rank maintenance (3-bit exact ranks: 0 = LRU) -------------------
    def touch(self, set_index: int, way: int) -> None:
        """Promote ``way`` to MRU, demoting intermediates by one rank."""
        entries = self.tags.entries[set_index]
        target = entries[way]
        if not target.valid:
            raise LayoutError("touched an invalid stage entry")
        old_rank = target.lru
        valid = 0
        for entry in entries:
            if entry.valid:
                valid += 1
                if entry.lru > old_rank:
                    entry.lru -= 1
        target.lru = valid - 1

    def lru_way(self, set_index: int) -> Optional[int]:
        """Way with rank 0 (the block-level replacement victim)."""
        best_way, best_rank = None, None
        for way, entry in enumerate(self.tags.entries[set_index]):
            if entry.valid and (best_rank is None or entry.lru < best_rank):
                best_way, best_rank = way, entry.lru
        return best_way

    def mru_way(self, set_index: int) -> Optional[int]:
        best_way, best_rank = None, None
        for way, entry in enumerate(self.tags.entries[set_index]):
            if entry.valid and (best_rank is None or entry.lru > best_rank):
                best_way, best_rank = way, entry.lru
        return best_way

    def is_lru(self, set_index: int, way: int) -> bool:
        """Is ``way`` the set's LRU? Ranks are dense 0..valid-1, so the
        LRU is the valid way at rank 0 (:meth:`lru_way`'s answer)."""
        entry = self.tags.entries[set_index][way]
        return entry.valid and entry.lru == 0

    # -- allocation / invalidation ------------------------------------------
    def allocate(self, super_id: int) -> Optional[Tuple[int, int]]:
        """Claim an invalid way for ``super_id``; None when the set is full.

        Returns ``(set_index, way)``; the entry is initialized empty and
        made MRU.
        """
        set_index = self.mapper.set_index_of_super(super_id)
        way = self.tags.invalid_way(set_index)
        if way is None:
            return None
        entry = self.tags.entry(set_index, way)
        entry.tag = self.mapper.tag_of_super(super_id)
        entry.valid = True
        self.valid_counts[set_index] += 1
        entry.slots = [None] * self.geometry.sub_blocks_per_block
        entry.used = 0
        entry.fifo = 0
        entry.miss_count = 0
        # A fresh entry enters at MRU; existing dense ranks 0..n-2 stand.
        entry.lru = self.valid_counts[set_index] - 1
        self.stats.inc("allocations")
        return set_index, way

    def invalidate(self, set_index: int, way: int) -> StageTagEntry:
        """Drop an entry (after commit or eviction); returns its final state."""
        entry = self.tags.entry(set_index, way)
        if not entry.valid:
            raise LayoutError("invalidating an already-invalid stage entry")
        if self.obs.enabled:
            self.obs.emit(
                "stage_evict", set=set_index, way=way, tag=entry.tag,
                occupied=entry.used,
            )
        # The entry gets a fresh slot list below, so the snapshot can
        # take the old one over without copying it.
        snapshot = StageTagEntry(
            tag=entry.tag,
            valid=True,
            slots=entry.slots,
            lru=entry.lru,
            fifo=entry.fifo,
            miss_count=entry.miss_count,
        )
        old_rank = entry.lru
        for other in self.tags.entries[set_index]:
            if other.valid and other.lru > old_rank:
                other.lru -= 1
        entry.valid = False
        self.valid_counts[set_index] -= 1
        entry.slots = [None] * self.geometry.sub_blocks_per_block
        entry.used = 0
        entry.lru = 0
        entry.fifo = 0
        entry.miss_count = 0
        if self.columnar is not None:
            self.columnar.stage_invalidate(set_index, way, snapshot)
        self.stats.inc("invalidations")
        return snapshot

    # -- slot operations ------------------------------------------------------
    def insert_range(self, set_index: int, way: int, slot: RangeSlot) -> int:
        """Place a range into the lowest free slot; caller ensured room."""
        entry = self.tags.entry(set_index, way)
        free = entry.free_slot()
        if free is None:
            raise LayoutError("insert_range into a full stage block")
        entry.slots[free] = slot
        entry.used += 1
        if self.columnar is not None:
            self.columnar.stage_insert(set_index, way, free, slot, entry.tag)
        if self.obs.enabled:
            self.obs.emit(
                "stage_insert", set=set_index, way=way, blk_off=slot.blk_off,
                sub_start=slot.sub_start, cf=slot.cf, dirty=slot.dirty,
                zero=slot.zero,
            )
        return free

    def fifo_victim_slot(self, set_index: int, way: int) -> int:
        """Advance the FIFO pointer to the next occupied slot and return it."""
        entry = self.tags.entry(set_index, way)
        slots = entry.slots
        n = len(slots)
        for step in range(n):
            index = (entry.fifo + step) % n
            if slots[index] is not None:
                entry.fifo = (index + 1) % n
                return index
        raise LayoutError("FIFO victim requested from an empty stage block")

    def remove_slot(self, set_index: int, way: int, slot_index: int) -> RangeSlot:
        entry = self.tags.entry(set_index, way)
        slot = entry.slots[slot_index]
        if slot is None:
            raise LayoutError("removing an empty slot")
        entry.slots[slot_index] = None
        entry.used -= 1
        if self.columnar is not None:
            self.columnar.stage_remove(set_index, way, slot_index, slot, entry.tag)
        return slot

    def mark_dirty(self, set_index: int, way: int, slot_index: int) -> None:
        """Mark one staged range dirty in place (stage-hit write path)."""
        slot = self.tags.entries[set_index][way].slots[slot_index]
        if slot is None:
            raise LayoutError("dirtying an empty slot")
        slot.dirty = True

    # -- miss statistics for the commit model ---------------------------------
    def record_set_access(self, set_index: int) -> None:
        """Count a set access; age all counters every aging period."""
        counts = self._set_accesses
        n = counts[set_index] + 1
        if n < self._aging_period:
            counts[set_index] = n
            return
        counts[set_index] = 0
        self.age_set(set_index)

    def age_set(self, set_index: int) -> None:
        """Halve one set's miss counters (the aging-period rollover).

        Split out of :meth:`record_set_access` so the controller's
        deferred fast path can inline the dominant count-and-store branch
        and fall into this exact slow path on period boundaries.
        """
        self.mru_miss_cnt[set_index] >>= 1
        for entry in self.tags.entries[set_index]:
            entry.miss_count >>= 1
        self.stats.inc("agings")

    def record_block_miss(self, set_index: int, way: Optional[int]) -> None:
        """Count a stage miss (case 3) or block miss (case 5).

        Per Sec. III-E: the entry's own MissCnt increments for sub-block
        misses to it, and the set's MRUMissCnt increments for block-level
        misses and for sub-block misses to the current MRU block.
        """
        cap = self.config.miss_counter_max()
        if way is not None:
            entry = self.tags.entry(set_index, way)
            entry.miss_count = min(cap, entry.miss_count + 1)
            if self.mru_way(set_index) == way:
                self.mru_miss_cnt[set_index] = min(cap, self.mru_miss_cnt[set_index] + 1)
        else:
            self.mru_miss_cnt[set_index] = min(cap, self.mru_miss_cnt[set_index] + 1)

    # -- accounting -------------------------------------------------------------
    def occupancy(self) -> float:
        """Fraction of stage blocks currently valid."""
        valid = sum(
            1 for entries in self.tags.entries for e in entries if e.valid
        )
        return valid / (self.num_sets * self.ways)

    def storage_bytes(self) -> int:
        return self.tags.storage_bytes()
