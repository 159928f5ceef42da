"""O(1) probe indices over the stage tag array.

The stage area answers "which way stages this block?" and "which slot
covers this sub-block?" by scanning a set's ways and their slots
(:meth:`~repro.core.stage_area.StageArea.lookup_block` /
:meth:`~repro.core.stage_area.StageArea.lookup_sub_block`). The
controller's access flow asks both on every memory access, so this
module keeps the answers as two dicts, maintained by hooks at the stage
area's slot mutation sites (insert, remove, invalidate):

* ``stage_sub`` maps ``block_id * sub_blocks_per_block + sub_index`` to
  the ``(way, slot)`` covering that sub-block;
* ``stage_block`` maps ``block_id`` to ``[way, slot_refcount]``;
  presence is ``lookup_block``'s verdict.

Two stage invariants make the dict answers identical to the scans:
Rule 3 (one block's staged ranges live in one way) and non-overlapping
ranges (each staged sub-block has exactly one covering slot).
:meth:`ColumnarState.verify` rebuilds both dicts from the tag array and
asserts those invariants; the equivalence tests call it after every
controller mutation site.
"""

from __future__ import annotations

from typing import Dict, List, Tuple


class ColumnarState:
    """Probe indices over one controller's stage tag array.

    Constructed by :class:`~repro.core.controller.BaryonController`,
    which reads the dicts in its access flow (``serve``) and in
    ``_staged_block_of``.
    """

    def __init__(self, controller) -> None:
        stage = controller.stage
        geometry = controller.geometry
        self._stage = stage
        self._stage_sets = stage.num_sets
        self._spb = geometry.sub_blocks_per_block
        self._bps = geometry.super_block_blocks
        self.stage_sub: Dict[int, Tuple[int, int]] = {}
        self.stage_block: Dict[int, List[int]] = {}
        stage.columnar = self

    # ------------------------------------------------------- stage hooks
    def stage_invalidate(self, set_index: int, way: int, snapshot) -> None:
        """Mirror ``StageArea.invalidate`` from the pre-reset snapshot."""
        base = (snapshot.tag * self._stage_sets + set_index) * self._bps
        for slot in snapshot.slots:
            if slot is not None:
                self._drop_slot_keys(base + slot.blk_off, slot)

    def stage_insert(
        self, set_index: int, way: int, slot_index: int, slot, tag: int
    ) -> None:
        """Mirror ``StageArea.insert_range`` into the probe dicts."""
        block_id = (tag * self._stage_sets + set_index) * self._bps + slot.blk_off
        base = block_id * self._spb
        location = (way, slot_index)
        sub_map = self.stage_sub
        for sub in self._subs_of(slot):
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

    def stage_remove(
        self, set_index: int, way: int, slot_index: int, slot, tag: int
    ) -> None:
        """Mirror ``StageArea.remove_slot``."""
        super_id = tag * self._stage_sets + set_index
        self._drop_slot_keys(super_id * self._bps + slot.blk_off, slot)

    def _subs_of(self, slot) -> range:
        """The sub-block indices one slot covers (a zero slot: all)."""
        if slot.zero:
            return range(self._spb)
        return range(slot.sub_start, slot.sub_start + slot.cf)

    def _drop_slot_keys(self, block_id: int, slot) -> None:
        base = block_id * self._spb
        pop = self.stage_sub.pop
        for sub in self._subs_of(slot):
            pop(base + sub, None)
        ref = self.stage_block.get(block_id)
        if ref is not None:
            ref[1] -= 1
            if ref[1] <= 0:
                del self.stage_block[block_id]

    # ------------------------------------------------------- verification
    def verify(self) -> None:
        """Assert the probe dicts match a rebuild from the tag array.

        Test-only (O(state) scan): called by the equivalence tests after
        every mutation site. Raises ``AssertionError`` on any stale key,
        a Rule-3 violation or overlapping ranges.
        """
        expected_sub: Dict[int, Tuple[int, int]] = {}
        expected_block: Dict[int, List[int]] = {}
        for set_index, row in enumerate(self._stage.tags.entries):
            for way, entry in enumerate(row):
                super_id = entry.tag * self._stage_sets + set_index
                for slot_index, slot in enumerate(entry.slots):
                    if slot is None:
                        continue
                    assert entry.valid, (set_index, way, slot_index)
                    block_id = super_id * self._bps + slot.blk_off
                    ref = expected_block.setdefault(block_id, [way, 0])
                    # Rule 3: one block's staged ranges live in one way.
                    assert ref[0] == way, ("rule-3 violation", block_id)
                    ref[1] += 1
                    base = block_id * self._spb
                    for sub in self._subs_of(slot):
                        key = base + sub
                        # Ranges never overlap: each sub has one cover.
                        assert key not in expected_sub, ("overlap", key)
                        expected_sub[key] = (way, slot_index)
        assert self.stage_sub == expected_sub, "stage_sub probe index stale"
        assert self.stage_block == expected_block, "stage_block probe index stale"


__all__ = ["ColumnarState"]
