"""Columnar controller state: structured-array mirrors + probe indices.

The controller's per-super-block metadata lives in small Python objects
(:class:`~repro.metadata.stage_tag.StageTagEntry` slots,
:class:`~repro.metadata.remap.RemapEntry`, remap-cache lines). Those
objects stay the API — every existing mutation path still goes through
them — but the state they hold is naturally flat and array-addressable
(Trimma makes the same observation about hybrid-memory metadata), so this
module maintains the *columnar* representation alongside them:

* preallocated numpy structured arrays (``stage_tags``, ``stage_slots``,
  ``stage_credit``, ``remap_rows``, ``rc_occupancy``) holding the same
  fields column-wise;
* derived O(1) probe indices (``stage_sub``, ``stage_block``) that answer
  the stage tag array's associative lookups with one dict probe instead
  of a set scan — the classification step of the controller's deferred
  batch fast path (:meth:`~repro.core.controller.BaryonController.access_deferred`);
* per-set remap-cache occupancy, so cache repair
  (:meth:`~repro.metadata.remap_cache.RemapCache.repair`) reuses the set
  index instead of re-probing.

Mirroring strategy — the same idiom as the deferred integer counters:

* **Eager columns** are updated by hooks at every mutation site (stage
  allocate/invalidate/insert/remove/fifo/miss, remap-table set/clear,
  remap-cache fill/invalidate). These sites are rare relative to the
  access rate, so the mirror costs nothing on the hot path.
* **Write-behind columns** (``stage_tags["lru"]``, ``stage_credit``) back
  hot per-access counters (LRU rank promotion, per-set access credits)
  that the fast path never reads; they are folded in bulk by
  :meth:`ColumnarState.sync_deferred_columns` — exact at any observation
  point, off the per-access path.

:meth:`ColumnarState.verify` asserts bit-exact agreement between the
columnar state and the authoritative objects; the equivalence tests call
it after every controller mutation site.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

#: One stage tag array entry (per-entry metadata columns).
STAGE_TAG_DTYPE = np.dtype(
    [
        ("tag", np.int64),
        ("valid", np.bool_),
        ("lru", np.int64),
        ("fifo", np.int64),
        ("miss_count", np.int64),
    ]
)

#: One stage range slot (the 8-bit prefix-coded slot, field-expanded).
STAGE_SLOT_DTYPE = np.dtype(
    [
        ("valid", np.bool_),
        ("cf", np.int64),
        ("dirty", np.bool_),
        ("zero", np.bool_),
        ("blk_off", np.int64),
        ("sub_start", np.int64),
    ]
)

#: Per-set commit-model credit state (MRUMissCnt + aging credit).
STAGE_CREDIT_DTYPE = np.dtype(
    [
        ("mru_miss_cnt", np.int64),
        ("set_accesses", np.int64),
    ]
)

#: One remap-table entry row in the arena (compact format, field-expanded).
REMAP_DTYPE = np.dtype(
    [
        ("block_id", np.int64),
        ("valid", np.bool_),
        ("remap", np.int64),
        ("pointer", np.int64),
        ("cf2", np.int64),
        ("cf4", np.int64),
        ("zero", np.bool_),
    ]
)

_INITIAL_REMAP_ROWS = 1024


class ColumnarState:
    """Columnar mirror of one controller's metadata state.

    Constructed by :class:`~repro.core.controller.BaryonController` after
    the resilience layer, so the remap-table ``shadow`` observer chain is
    preserved: this object becomes the shadow and forwards every update to
    the previous shadow (e.g. the
    :class:`~repro.resilience.checker.ShadowChecker`).
    """

    def __init__(self, controller) -> None:
        stage = controller.stage
        geometry = controller.geometry
        self._stage = stage
        self._remap_table = controller.remap_table
        self._remap_cache = controller.remap_cache
        self._stage_sets = stage.num_sets
        self._spb = geometry.sub_blocks_per_block
        self._bps = geometry.super_block_blocks

        slots = stage.tags.slots_per_entry
        self.stage_tags = np.zeros((stage.num_sets, stage.ways), STAGE_TAG_DTYPE)
        self.stage_slots = np.zeros(
            (stage.num_sets, stage.ways, slots), STAGE_SLOT_DTYPE
        )
        self.stage_credit = np.zeros(stage.num_sets, STAGE_CREDIT_DTYPE)
        self.rc_occupancy = np.zeros(controller.remap_cache.num_sets, np.int64)

        # Remap arena: a growable row store + block_id -> row index. Rows
        # are recycled through a free list so the arena stays dense-ish
        # without ever moving live rows.
        self.remap_rows = np.zeros(_INITIAL_REMAP_ROWS, REMAP_DTYPE)
        self._remap_index: Dict[int, int] = {}
        self._remap_free: List[int] = []
        self._remap_used = 0

        # Run-classifier support: ``remap_row_of`` is a dense
        # ``block_id -> arena row`` gather index built lazily by
        # :func:`build_run_classifier`; ``dirty_blocks`` collects blocks
        # whose membership state (staged ranges, remap entry) changed
        # since the last bulk classification, so stale chunk verdicts
        # fall back to the per-op classifier. Both are inert (``watching``
        # False) outside classifier-driven runs.
        self.remap_row_of = None
        self.dirty_blocks: set = set()
        self.watching = False

        # Derived probe indices for the deferred fast path. ``stage_sub``
        # maps ``block_id * sub_blocks_per_block + sub_index`` to the
        # (way, slot) holding it — exactly the answer of
        # ``StageArea.lookup_sub_block`` (Rule 3 guarantees one way per
        # block; ranges never overlap, so the covering slot is unique).
        # ``stage_block`` maps ``block_id`` to ``[way, slot_refcount]`` —
        # presence is ``StageArea.lookup_block``'s verdict.
        self.stage_sub: Dict[int, Tuple[int, int]] = {}
        self.stage_block: Dict[int, List[int]] = {}

        # Zero templates for structured row resets.
        self._zero_tag = np.zeros(1, STAGE_TAG_DTYPE)[0]
        self._zero_slot = np.zeros(1, STAGE_SLOT_DTYPE)[0]
        self._zero_remap = np.zeros(1, REMAP_DTYPE)[0]

        # Wire into the observed structures. The remap shadow chains; the
        # stage area and remap cache get a direct back-reference.
        self._shadow_next = controller.remap_table.shadow
        controller.remap_table.shadow = self
        stage.columnar = self
        controller.remap_cache.columnar = self

    # ------------------------------------------------------- stage hooks
    def stage_allocate(self, set_index: int, way: int, entry) -> None:
        """Mirror ``StageArea.allocate``: a fresh valid entry, no slots."""
        self.stage_tags[set_index, way] = (
            entry.tag, True, entry.lru, entry.fifo, entry.miss_count
        )

    def stage_invalidate(self, set_index: int, way: int, snapshot) -> None:
        """Mirror ``StageArea.invalidate`` from the pre-reset snapshot."""
        super_id = snapshot.tag * self._stage_sets + set_index
        base = super_id * self._bps
        for slot in snapshot.slots:
            if slot is not None:
                self._drop_slot_keys(base + slot.blk_off, slot)
        self.stage_tags[set_index, way] = self._zero_tag
        self.stage_slots[set_index, way] = self._zero_slot

    def stage_insert(
        self, set_index: int, way: int, slot_index: int, slot, tag: int
    ) -> None:
        """Mirror ``StageArea.insert_range`` into columns + probe dicts."""
        self.stage_slots[set_index, way, slot_index] = (
            True, slot.cf, slot.dirty, slot.zero, slot.blk_off, slot.sub_start
        )
        super_id = tag * self._stage_sets + set_index
        block_id = super_id * self._bps + slot.blk_off
        base = block_id * self._spb
        location = (way, slot_index)
        sub_map = self.stage_sub
        if slot.zero:
            for sub in range(self._spb):
                sub_map[base + sub] = location
        else:
            for sub in range(slot.sub_start, slot.sub_start + slot.cf):
                sub_map[base + sub] = location
        ref = self.stage_block.get(block_id)
        if ref is None:
            self.stage_block[block_id] = [way, 1]
        else:
            # Latest insert wins the way field: a block-level regroup
            # interleaves remove/insert while moving a block's slots to a
            # freshly allocated way, so the way changes mid-sequence and
            # settles on the destination (Rule 3 holds again at the end).
            ref[0] = way
            ref[1] += 1
        if self.watching:
            self.dirty_blocks.add(block_id)

    def stage_remove(
        self, set_index: int, way: int, slot_index: int, slot, tag: int
    ) -> None:
        """Mirror ``StageArea.remove_slot``."""
        self.stage_slots[set_index, way, slot_index] = self._zero_slot
        super_id = tag * self._stage_sets + set_index
        self._drop_slot_keys(super_id * self._bps + slot.blk_off, slot)

    def _drop_slot_keys(self, block_id: int, slot) -> None:
        base = block_id * self._spb
        pop = self.stage_sub.pop
        if slot.zero:
            for sub in range(self._spb):
                pop(base + sub, None)
        else:
            for sub in range(slot.sub_start, slot.sub_start + slot.cf):
                pop(base + sub, None)
        ref = self.stage_block.get(block_id)
        if ref is not None:
            ref[1] -= 1
            if ref[1] <= 0:
                del self.stage_block[block_id]
        if self.watching:
            self.dirty_blocks.add(block_id)

    def stage_fifo(self, set_index: int, way: int, fifo: int) -> None:
        """Mirror the FIFO pointer advance of ``fifo_victim_slot``."""
        self.stage_tags["fifo"][set_index, way] = fifo

    def stage_block_miss(self, set_index: int, way: int, miss_count: int) -> None:
        """Mirror the MissCnt bump of ``record_block_miss``."""
        self.stage_tags["miss_count"][set_index, way] = miss_count

    def stage_aging(self, set_index: int) -> None:
        """Mirror the right-shift aging of one set's MissCnt column (the
        MRUMissCnt/credit columns are write-behind; see
        :meth:`sync_deferred_columns`)."""
        self.stage_tags["miss_count"][set_index] >>= 1

    def stage_mark_dirty(self, set_index: int, way: int, slot_index: int) -> None:
        """Mirror ``StageArea.mark_dirty`` (stage-hit write path)."""
        self.stage_slots["dirty"][set_index, way, slot_index] = True

    # ------------------------------------------------- remap table shadow
    def on_set(self, block_id: int, entry) -> None:
        """Remap-table shadow observer: upsert the arena row, then forward
        along the shadow chain."""
        if entry.is_remapped:
            row = self._remap_index.get(block_id)
            if row is None:
                row = self._alloc_remap_row()
                self._remap_index[block_id] = row
                row_of = self.remap_row_of
                if row_of is not None and block_id < len(row_of):
                    row_of[block_id] = row
            self.remap_rows[row] = (
                block_id, True, entry.remap, entry.pointer,
                entry.cf2, entry.cf4, entry.zero,
            )
        else:
            self._drop_remap(block_id)
        if self.watching:
            self.dirty_blocks.add(block_id)
        if self._shadow_next is not None:
            self._shadow_next.on_set(block_id, entry)

    def on_clear(self, block_id: int) -> None:
        self._drop_remap(block_id)
        if self.watching:
            self.dirty_blocks.add(block_id)
        if self._shadow_next is not None:
            self._shadow_next.on_clear(block_id)

    def _alloc_remap_row(self) -> int:
        free = self._remap_free
        if free:
            return free.pop()
        row = self._remap_used
        rows = self.remap_rows
        if row >= len(rows):
            grown = np.zeros(len(rows) * 2, REMAP_DTYPE)
            grown[: len(rows)] = rows
            self.remap_rows = grown
        self._remap_used += 1
        return row

    def _drop_remap(self, block_id: int) -> None:
        row = self._remap_index.pop(block_id, None)
        if row is not None:
            self.remap_rows[row] = self._zero_remap
            self._remap_free.append(row)
            row_of = self.remap_row_of
            if row_of is not None and block_id < len(row_of):
                row_of[block_id] = -1

    # --------------------------------------------------- deferred columns
    def sync_deferred_columns(self) -> None:
        """Fold the write-behind columns from the object state.

        The stage LRU ranks and the per-set credit counters mutate on
        every access (``touch``/``record_set_access``); mirroring them
        eagerly would put numpy scalar writes on the hot path for columns
        nothing reads between observation points. This folds them in bulk
        — the same contract as the deferred integer counters.
        """
        stage = self._stage
        self.stage_tags["lru"][:] = [
            [entry.lru for entry in row] for row in stage.tags.entries
        ]
        self.stage_credit["mru_miss_cnt"][:] = stage.mru_miss_cnt
        self.stage_credit["set_accesses"][:] = stage._set_accesses

    # ------------------------------------------------------- verification
    def verify(self) -> None:
        """Assert bit-exact agreement with the authoritative objects.

        Test-only (O(state) scans): called by the equivalence tests after
        every mutation site. Raises ``AssertionError`` on any divergence,
        including probe-index staleness and Rule-3 violations.
        """
        self.sync_deferred_columns()
        stage = self._stage
        tags = self.stage_tags
        slots_col = self.stage_slots
        expected_sub: Dict[int, Tuple[int, int]] = {}
        expected_block: Dict[int, List[int]] = {}
        for set_index, row in enumerate(stage.tags.entries):
            for way, entry in enumerate(row):
                t = tags[set_index, way]
                assert bool(t["valid"]) == entry.valid, (set_index, way)
                if entry.valid:
                    assert int(t["tag"]) == entry.tag, (set_index, way)
                    assert int(t["lru"]) == entry.lru, (set_index, way)
                    assert int(t["fifo"]) == entry.fifo, (set_index, way)
                    assert int(t["miss_count"]) == entry.miss_count, (
                        set_index, way
                    )
                else:
                    assert t == self._zero_tag, (set_index, way)
                super_id = entry.tag * self._stage_sets + set_index
                for slot_index, slot in enumerate(entry.slots):
                    c = slots_col[set_index, way, slot_index]
                    if slot is None:
                        assert c == self._zero_slot, (set_index, way, slot_index)
                        continue
                    assert entry.valid, (set_index, way, slot_index)
                    assert (
                        bool(c["valid"]),
                        int(c["cf"]),
                        bool(c["dirty"]),
                        bool(c["zero"]),
                        int(c["blk_off"]),
                        int(c["sub_start"]),
                    ) == (
                        True, slot.cf, slot.dirty, slot.zero,
                        slot.blk_off, slot.sub_start,
                    ), (set_index, way, slot_index)
                    block_id = super_id * self._bps + slot.blk_off
                    ref = expected_block.setdefault(block_id, [way, 0])
                    # Rule 3: one block's staged ranges live in one way.
                    assert ref[0] == way, ("rule-3 violation", block_id)
                    ref[1] += 1
                    subs = (
                        range(self._spb)
                        if slot.zero
                        else range(slot.sub_start, slot.sub_start + slot.cf)
                    )
                    base = block_id * self._spb
                    for sub in subs:
                        key = base + sub
                        # Ranges never overlap: each sub has one cover.
                        assert key not in expected_sub, ("overlap", key)
                        expected_sub[key] = (way, slot_index)
        assert self.stage_sub == expected_sub, "stage_sub probe index stale"
        assert self.stage_block == expected_block, "stage_block probe index stale"

        entries = self._remap_table._entries
        assert set(self._remap_index) == set(entries), "remap arena index stale"
        for block_id, entry in entries.items():
            r = self.remap_rows[self._remap_index[block_id]]
            assert (
                int(r["block_id"]), bool(r["valid"]), int(r["remap"]),
                int(r["pointer"]), int(r["cf2"]), int(r["cf4"]), bool(r["zero"]),
            ) == (
                block_id, True, entry.remap, entry.pointer,
                entry.cf2, entry.cf4, entry.zero,
            ), ("remap row stale", block_id)
        live = set(self._remap_index.values())
        for row in range(self._remap_used):
            if row not in live:
                assert self.remap_rows[row] == self._zero_remap, (
                    "freed remap row not cleared", row
                )

        for index, cache_set in enumerate(self._remap_cache._sets):
            assert int(self.rc_occupancy[index]) == len(cache_set.lines), (
                "remap-cache occupancy stale", index
            )

        credit = self.stage_credit
        for set_index in range(self._stage_sets):
            assert int(credit["mru_miss_cnt"][set_index]) == stage.mru_miss_cnt[set_index]
            assert int(credit["set_accesses"][set_index]) == stage._set_accesses[set_index]

    # -------------------------------------------------------- accounting
    def storage_bytes(self) -> int:
        """Bytes held by the columnar arrays (reporting convenience)."""
        return int(
            self.stage_tags.nbytes
            + self.stage_slots.nbytes
            + self.stage_credit.nbytes
            + self.remap_rows.nbytes
            + self.rc_occupancy.nbytes
        )


# --------------------------------------------------------------------------
# Vectorized run classification for the deferred batch fast path.
#
# Verdict codes shared between :class:`DeferredRunClassifier`, the
# ``serve`` closure of
# :meth:`~repro.core.controller.BaryonController.make_deferred_server` and
# the simulator's fast loop. Positive codes are pre-resolved accepts that
# ``serve`` trusts without re-probing membership (unless the block is in
# the dirty set); ``CLS_PER_OP`` makes ``serve`` classify inline
# (flat-home candidates, compressed writes needing the oracle's mutable
# probes). Negative codes are pre-resolved declines: a staging fetch is
# still served inline by ``serve`` (its transfers captured for replay),
# every other decline goes straight to the scalar ``access`` call and
# charges the per-reason decline counter.
CLS_PER_OP = 0
CLS_STAGE_READ = 1
CLS_STAGE_ZERO = 2
CLS_STAGE_WRITE = 3
CLS_COMMIT_READ = 4
CLS_COMMIT_ZERO = 5
CLS_COMMIT_WRITE = 6
CLS_MISS_READ = 7
CLS_MISS_WRITE = 8
CLS_DECLINE_Z_BREAK = -1
CLS_DECLINE_WRITE_OVERFLOW = -2
CLS_DECLINE_STAGING_FETCH = -3
CLS_DECLINE_NO_STAGE = -4
CLS_DECLINE_INVARIANT = -5

#: Decline verdict code -> reason key in ``deferred_declines``.
DECLINE_REASONS = {
    CLS_DECLINE_Z_BREAK: "z_break",
    CLS_DECLINE_WRITE_OVERFLOW: "write_overflow",
    CLS_DECLINE_STAGING_FETCH: "staging_fetch",
    CLS_DECLINE_NO_STAGE: "no_stage",
    CLS_DECLINE_INVARIANT: "invariant",
}

#: Dense gather index above this block-id span is not worth its memory.
_MAX_DENSE_BLOCKS = 1 << 23


class DeferredRunClassifier:
    """Bulk membership classification of a trace's LLC-miss stream.

    The per-op :meth:`~repro.core.controller.BaryonController.access_deferred`
    resolves each access with Python dict probes and object attribute
    walks. This classifier instead resolves the *membership* part of that
    decision — stage-sub coverage, remap-entry occupancy, zero/cf flags —
    for a whole chunk of future trace indices in one numpy gather pass
    over the columnar arrays, ahead of the simulator loop reaching them.

    Verdicts are membership-only, so they can be computed early: every
    order-sensitive effect (remap-cache LRU and fills, stage LRU/credit
    touches, row-buffer state, oracle write draws) still happens per op,
    in exact trace order, inside the deferred server's ``serve``. Between
    the gather and the serve the state may move (flush-driven stages,
    commits, evictions); those mutation sites mark their block in
    ``ColumnarState.dirty_blocks`` and any verdict for a dirtied block is
    demoted to ``serve``'s inline classification. A stale *decline* is
    harmless by construction — the scalar path serves every access
    bit-identically — so the verdict is purely a fast-path routing hint
    and bit-identity never depends on invalidation completeness.

    Accept verdicts carry a packed aux word resolving the membership
    lookup the serve step would otherwise repeat:

    * stage hits: ``way | slot_idx << 3 | cf << 8 | sub_start << 12``
    * commit hits: ``cf | sub_start << 3`` (``entry.range_of`` result)
    """

    #: Trace indices classified per gather pass. Verdict staleness scales
    #: with chunk size, but a stale verdict only reroutes to the serve
    #: closure's inline classification (never to the scalar path), so the
    #: chunk is sized for gather throughput, not freshness.
    chunk = 16384

    def __init__(self, controller, addrs, writes) -> None:
        col = controller.columnar
        geometry = controller.geometry
        self._col = col
        self._addrs = np.asarray(addrs, np.int64)
        self._writes = np.asarray(writes, np.bool_)
        # Field views of the fixed-size stage mirrors (gathering one field
        # moves 1-8 bytes per element where a record gather moves the
        # whole ~40-byte row). ``remap_rows`` grows, so its field views
        # are re-taken per classify call.
        self._t_valid = col.stage_tags["valid"]
        self._t_tag = col.stage_tags["tag"]
        self._s_valid = col.stage_slots["valid"]
        self._s_cf = col.stage_slots["cf"]
        self._s_zero = col.stage_slots["zero"]
        self._s_blk_off = col.stage_slots["blk_off"]
        self._s_sub_start = col.stage_slots["sub_start"]
        self.block_size = geometry.block_size
        self._sub_size = geometry.sub_block_size
        self._bps = geometry.super_block_blocks
        self._nsets = controller.stage.num_sets
        self._stage_on = controller._stage_on
        self._flat_blocks = controller._flat_blocks
        self._home_period = controller._home_period
        self.dirty_blocks = col.dirty_blocks

        max_block = int(addrs.max()) // self.block_size + 1 if len(addrs) else 1
        row_of = np.full(max_block, -1, np.int32)
        for blk, row in col._remap_index.items():
            if blk < max_block:
                row_of[blk] = row
        col.remap_row_of = row_of
        self._row_of = row_of
        col.watching = True

    def classify(self, start: int, stop: int):
        """Gather-classify trace indices ``[start, stop)``.

        Returns ``(codes, aux)`` as plain Python lists (list indexing
        beats numpy scalar reads in the serve loop). Clears the dirty set:
        verdicts reflect the columnar state at this call, and any later
        mutation re-dirties its block before the verdict is used.
        """
        col = self._col
        col.dirty_blocks.clear()
        addr = self._addrs[start:stop]
        wr = self._writes[start:stop]
        rd = ~wr
        block = addr // self.block_size
        sub = (addr % self.block_size) // self._sub_size
        sup = block // self._bps
        blk_off = block - sup * self._bps
        set_idx = sup % self._nsets
        n = len(addr)

        # Stage-tag gather: the matching way per access, then that way's
        # slot row; Rule 3 makes the tag-matching way unique per set.
        tmatch = self._t_valid[set_idx] & (
            self._t_tag[set_idx] == (sup // self._nsets)[:, None]
        )
        has_way = tmatch.any(axis=1)
        way = tmatch.argmax(axis=1)
        cand = self._s_valid[set_idx, way] & (
            self._s_blk_off[set_idx, way] == blk_off[:, None]
        )
        cand &= has_way[:, None]
        s_start_col = self._s_sub_start[set_idx, way]
        cf_col = self._s_cf[set_idx, way]
        in_range = (s_start_col <= sub[:, None]) & (
            sub[:, None] < s_start_col + cf_col
        )
        slot_zero = self._s_zero[set_idx, way]
        cover = cand & (slot_zero | in_range)
        staged = cover.any(axis=1)
        slot_idx = cover.argmax(axis=1)
        block_staged = cand.any(axis=1)
        pick = np.arange(n)
        s_zero = slot_zero[pick, slot_idx] & staged
        s_cf = cf_col[pick, slot_idx]
        s_start = s_start_col[pick, slot_idx]

        # Remap-entry gather through the dense row index; absent entries
        # read row 0 masked out by ``has_entry``.
        row = self._row_of[block]
        has_entry = row >= 0
        rowsel = np.maximum(row, 0)
        rows = col.remap_rows
        rz = rows["zero"][rowsel] & has_entry
        sub_remapped = has_entry & (rz | (((rows["remap"][rowsel] >> sub) & 1) != 0))
        quad = sub >> 2
        pair = sub >> 1
        cf4_hit = ((rows["cf4"][rowsel] >> quad) & 1) != 0
        cf2_hit = ((rows["cf2"][rowsel] >> pair) & 1) != 0
        e_cf = np.where(rz, 1, np.where(cf4_hit, 4, np.where(cf2_hit, 2, 1)))
        e_start = np.where(
            rz, 0, np.where(cf4_hit, quad << 2, np.where(cf2_hit, pair << 1, sub))
        )

        commit = ~staged & sub_remapped
        rest = ~staged & ~sub_remapped
        codes = np.zeros(n, np.int64)

        # Case 1 (stage hit): reads always accept; writes accept only for
        # uncompressed non-zero slots — zero slots are Z breaks, cf > 1
        # writes need the oracle's per-op overflow probe.
        codes[staged & rd & ~s_zero] = CLS_STAGE_READ
        codes[staged & rd & s_zero] = CLS_STAGE_ZERO
        codes[staged & wr & s_zero] = CLS_DECLINE_Z_BREAK
        codes[staged & wr & ~s_zero & (s_cf <= 1)] = CLS_STAGE_WRITE
        # (staged & wr & ~s_zero & cf>1 stays CLS_PER_OP.)

        # Case 2 (commit hit), same accept/decline split; the fast-area
        # ``find_block`` invariant check stays per-op in the serve step.
        codes[commit & rd & ~rz] = CLS_COMMIT_READ
        codes[commit & rd & rz] = CLS_COMMIT_ZERO
        codes[commit & wr & rz] = CLS_DECLINE_Z_BREAK
        codes[commit & wr & ~rz & (e_cf <= 1)] = CLS_COMMIT_WRITE

        # Cases 3/4/5 and the ablation/flat ladder, in access_deferred's
        # check order.
        if self._stage_on:
            codes[rest & block_staged] = CLS_DECLINE_STAGING_FETCH
            rest &= ~block_staged
            codes[rest & has_entry & rd] = CLS_MISS_READ
            codes[rest & has_entry & wr] = CLS_MISS_WRITE
        else:
            codes[rest & has_entry] = CLS_DECLINE_NO_STAGE
        rest &= ~has_entry
        if self._flat_blocks:
            home = (block % self._home_period == 0) & (
                (block // self._home_period) < self._flat_blocks
            )
            rest &= ~home  # flat-home candidates stay CLS_PER_OP
        codes[rest] = CLS_DECLINE_STAGING_FETCH  # case 5: block miss

        aux = np.where(
            staged,
            way | (slot_idx << 3) | (s_cf << 8) | (s_start << 12),
            e_cf | (e_start << 3),
        )
        return codes.tolist(), aux.tolist()


def build_run_classifier(controller, addrs, writes):
    """Build a :class:`DeferredRunClassifier` when the trace supports it.

    Returns ``None`` (per-op classification only) when the trace arrays
    are not numpy, or the address footprint is too sparse for the dense
    remap gather index.
    """
    if not isinstance(addrs, np.ndarray) or not isinstance(writes, np.ndarray):
        return None
    if len(addrs) == 0:
        return None
    if int(addrs.max()) // controller.geometry.block_size >= _MAX_DENSE_BLOCKS:
        return None
    return DeferredRunClassifier(controller, addrs, writes)


__all__ = [
    "STAGE_TAG_DTYPE",
    "STAGE_SLOT_DTYPE",
    "STAGE_CREDIT_DTYPE",
    "REMAP_DTYPE",
    "DECLINE_REASONS",
    "ColumnarState",
    "DeferredRunClassifier",
    "build_run_classifier",
]
