"""The stage area: Baryon's staging region and its on-chip tag array.

Mechanics only — the *policies* (what to fetch, when to commit) live in
:mod:`repro.core.commit` and the controller; this class owns:

* the set-associative organization (default 8192 sets x 4 ways = 64 MB);
* tag lookups at super-block granularity, including the one-to-one
  guarantee between tag entries and stage blocks (a tag hit *is* a data
  hit, Sec. III-D);
* exact 3-bit LRU ranks for block-level replacement and the 3-bit FIFO
  pointer for sub-block-level replacement (Fig. 5a / Fig. 8);
* an O(1) index of what is staged, kept exact at the slot mutation sites
  (:meth:`insert_range`, :meth:`remove_slot`, :meth:`invalidate`):
  ``stage_block`` maps a staged ``block_id`` to ``[way, slots, subs]``,
  the way holding its ranges, how many slots they take, and per
  sub-block the index of the slot covering it (None when unstaged).
  Rule 3 (one block's ranges live in one way) and non-overlapping ranges,
  which :meth:`insert_range` enforces, make the index answer what a
  way x slot scan would; :meth:`verify` checks that;
* the per-entry MissCnt and per-set MRUMissCnt counters with their
  right-shift aging every ``aging_period_accesses`` set accesses
  (Sec. III-E), which feed the Eq. 1 commit benefit.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

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
        self._spb = geometry.sub_blocks_per_block
        self._bps = geometry.super_block_blocks
        self.tags = StageTagArray(self.num_sets, self.ways, slots_per_entry=self._spb)
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
        #: The staged-data index (see the module docstring).
        self.stage_block: Dict[int, list] = {}

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
        ref = self.stage_block.get(super_id * self._bps + blk_off)
        if ref is None:
            return None
        set_index = super_id % self.num_sets
        way = ref[0]
        if (
            self.faults is not None
            and self.faults.active
            and self.faults.stage_corruption()
        ):
            raise CorruptionError(
                f"stage tag entry for super-block {super_id} corrupted",
                site="stage_tag",
                set_index=set_index,
                way=way,
                block_id=super_id,
            )
        return way, self.tags.entries[set_index][way]

    def lookup_sub_block(
        self, super_id: int, blk_off: int, sub_index: int
    ) -> Optional[Tuple[int, StageTagEntry, int]]:
        """(way, entry, slot) holding the sub-block, when staged."""
        ref = self.stage_block.get(super_id * self._bps + blk_off)
        if ref is None:
            return None
        slot = ref[2][sub_index]
        if slot is None:
            return None
        way = ref[0]
        return way, self.tags.entries[super_id % self.num_sets][way], slot

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
        set_index = super_id % self.num_sets
        if self.valid_counts[set_index] == self.ways:
            return None
        way = self.tags.invalid_way(set_index)
        entry = self.tags.entries[set_index][way]
        entry.tag = super_id // self.num_sets
        entry.valid = True
        self.valid_counts[set_index] += 1
        # An invalid entry is already empty: :meth:`invalidate` (or the
        # tag array's construction) left it no slots, FIFO or MissCnt.
        # A fresh entry enters at MRU; existing dense ranks 0..n-2 stand.
        entry.lru = self.valid_counts[set_index] - 1
        self.stats.inc("allocations")
        return set_index, way

    def invalidate(self, set_index: int, way: int) -> List[Optional[RangeSlot]]:
        """Drop an entry (after commit or eviction); returns its retired
        slot list (the entry gets a fresh one, so callers may keep it)."""
        entries = self.tags.entries[set_index]
        entry = entries[way]
        if not entry.valid:
            raise LayoutError("invalidating an already-invalid stage entry")
        if self.obs.enabled:
            self.obs.emit(
                "stage_evict", set=set_index, way=way, tag=entry.tag,
                occupied=entry.used,
            )
        old_rank = entry.lru
        for other in entries:
            if other.valid and other.lru > old_rank:
                other.lru -= 1
        slots = entry.slots
        if entry.used:
            # Rule 3: every range of a block staged here lives in this way.
            super_base = (entry.tag * self.num_sets + set_index) * self._bps
            drop = self.stage_block.pop
            dropped = None
            for slot in slots:
                if slot is not None and slot.blk_off != dropped:
                    dropped = slot.blk_off
                    drop(super_base + dropped, None)
        entry.valid = False
        self.valid_counts[set_index] -= 1
        entry.slots = [None] * self._spb
        entry.used = 0
        entry.lru = 0
        entry.fifo = 0
        entry.miss_count = 0
        self.stats.inc("invalidations")
        return slots

    # -- slot operations ------------------------------------------------------
    def _index_of(self, set_index: int, entry: StageTagEntry, slot: RangeSlot):
        """``(block_id, sub-blocks)`` one of ``entry``'s slots covers."""
        block_id = (entry.tag * self.num_sets + set_index) * self._bps + slot.blk_off
        if slot.zero:
            return block_id, range(self._spb)
        return block_id, range(slot.sub_start, slot.sub_start + slot.cf)

    def insert_range(self, set_index: int, way: int, slot: RangeSlot) -> int:
        """Place a range into the lowest free slot.

        Raises :class:`LayoutError`, changing nothing, when the way is
        full, when the block has ranges in another way (Rule 3), or when
        the range covers a sub-block that is already staged.
        """
        entry = self.tags.entries[set_index][way]
        free = entry.free_slot()
        if free is None:
            raise LayoutError("insert_range into a full stage block")
        block_id, covered = self._index_of(set_index, entry, slot)
        ref = self.stage_block.get(block_id)
        if ref is None:
            ref = self.stage_block[block_id] = [way, 0, [None] * self._spb]
        elif ref[0] != way:
            raise LayoutError(
                f"block {block_id} is staged in way {ref[0]}, not {way} (Rule 3)"
            )
        subs = ref[2]
        for sub in covered:
            if subs[sub] is not None:
                raise LayoutError(f"sub-block {sub} of block {block_id} is staged")
        entry.slots[free] = slot
        entry.used += 1
        ref[1] += 1
        for sub in covered:
            subs[sub] = free
        if self.obs.enabled:
            self.obs.emit(
                "stage_insert", set=set_index, way=way, blk_off=slot.blk_off,
                sub_start=slot.sub_start, cf=slot.cf, dirty=slot.dirty,
                zero=slot.zero,
            )
        return free

    def fifo_victim_slot(self, set_index: int, way: int) -> int:
        """Advance the FIFO pointer to the next occupied slot and return it."""
        entry = self.tags.entries[set_index][way]
        slots = entry.slots
        n = len(slots)
        for step in range(n):
            index = (entry.fifo + step) % n
            if slots[index] is not None:
                entry.fifo = (index + 1) % n
                return index
        raise LayoutError("FIFO victim requested from an empty stage block")

    def remove_slot(self, set_index: int, way: int, slot_index: int) -> RangeSlot:
        entry = self.tags.entries[set_index][way]
        slot = entry.slots[slot_index]
        if slot is None:
            raise LayoutError("removing an empty slot")
        entry.slots[slot_index] = None
        entry.used -= 1
        block_id, covered = self._index_of(set_index, entry, slot)
        ref = self.stage_block[block_id]
        ref[1] -= 1
        if ref[1]:
            subs = ref[2]
            for sub in covered:
                subs[sub] = None
        else:
            del self.stage_block[block_id]
        return slot

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

    # -- verification -------------------------------------------------------------
    def verify(self) -> None:
        """Assert the index matches a rebuild from the tag array.

        Test-only (O(state) scan). Raises ``AssertionError`` on a stale
        key, a Rule-3 violation or overlapping ranges. It also checks the
        other O(1) answers: each entry's ``used`` count against its
        non-empty slots, ``valid_counts``, and ``is_lru`` against the
        ``lru_way`` rank scan.
        """
        expected: Dict[int, list] = {}
        for set_index, row in enumerate(self.tags.entries):
            lru_way = self.lru_way(set_index)
            assert self.valid_counts[set_index] == sum(e.valid for e in row), (
                "valid count stale", set_index,
            )
            for way, entry in enumerate(row):
                occupied = sum(1 for slot in entry.slots if slot is not None)
                assert entry.used == occupied, ("used count stale", set_index, way)
                assert self.is_lru(set_index, way) == (way == lru_way), (
                    "is_lru disagrees with lru_way", set_index, way,
                )
                for slot_index, slot in enumerate(entry.slots):
                    if slot is None:
                        continue
                    assert entry.valid, (set_index, way, slot_index)
                    block_id, covered = self._index_of(set_index, entry, slot)
                    ref = expected.setdefault(
                        block_id, [way, 0, [None] * self._spb]
                    )
                    # Rule 3: one block's staged ranges live in one way.
                    assert ref[0] == way, ("rule-3 violation", block_id)
                    ref[1] += 1
                    for sub in covered:
                        # Ranges never overlap: each sub has one cover.
                        assert ref[2][sub] is None, ("overlap", block_id, sub)
                        ref[2][sub] = slot_index
        assert self.stage_block == expected, "stage_block index stale"
