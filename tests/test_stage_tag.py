"""Stage tag metadata (Fig. 5a): slot prefix code and entry round-trips."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import MetadataError
from repro.metadata.stage_tag import (
    EMPTY_SLOT,
    ENTRY_BITS,
    RangeSlot,
    StageTagArray,
    StageTagEntry,
)


def slot_strategy():
    def build(cf, dirty, blk, idx):
        start = (idx % (8 // cf)) * cf
        return RangeSlot(cf=cf, dirty=dirty, blk_off=blk, sub_start=start)

    return st.builds(
        build,
        st.sampled_from([1, 2, 4]),
        st.booleans(),
        st.integers(min_value=0, max_value=7),
        st.integers(min_value=0, max_value=7),
    )


class TestRangeSlot:
    def test_paper_example_h2_h3(self):
        """'01 (CF=2), 0 (clean), 111 (8th block H), 01 (2nd pair)'."""
        slot = RangeSlot(cf=2, dirty=False, blk_off=7, sub_start=2)
        assert slot.encode() == 0b01_0_111_01

    def test_eight_bits_always(self):
        for slot in (
            RangeSlot(1, True, 7, 7),
            RangeSlot(2, True, 7, 6),
            RangeSlot(4, True, 7, 4),
            RangeSlot(zero=True, blk_off=7, dirty=True),
        ):
            assert 0 <= slot.encode() <= 0xFF

    def test_alignment_enforced(self):
        with pytest.raises(MetadataError):
            RangeSlot(cf=2, sub_start=1)
        with pytest.raises(MetadataError):
            RangeSlot(cf=4, sub_start=2)

    def test_invalid_cf(self):
        with pytest.raises(MetadataError):
            RangeSlot(cf=3)

    def test_covers(self):
        slot = RangeSlot(cf=4, blk_off=2, sub_start=4)
        assert slot.covers(2, 5)
        assert not slot.covers(2, 3)
        assert not slot.covers(1, 5)

    def test_zero_covers_whole_block(self):
        slot = RangeSlot(zero=True, blk_off=3)
        for sub in range(8):
            assert slot.covers(3, sub)
        assert slot.sub_blocks == ()

    def test_decode_empty(self):
        assert RangeSlot.decode(EMPTY_SLOT) is None

    def test_decode_rejects_garbage_empty(self):
        with pytest.raises(MetadataError):
            RangeSlot.decode(0b000_00001)

    @given(slot_strategy())
    @settings(max_examples=200, deadline=None)
    def test_roundtrip_property(self, slot):
        decoded = RangeSlot.decode(slot.encode())
        assert decoded == slot

    def test_zero_roundtrip(self):
        slot = RangeSlot(zero=True, blk_off=5, dirty=True)
        decoded = RangeSlot.decode(slot.encode())
        assert decoded.zero and decoded.blk_off == 5 and decoded.dirty

    def test_wide_geometry_simulation_only(self):
        slot = RangeSlot(cf=2, blk_off=0, sub_start=10)  # 64 B sub-blocking
        with pytest.raises(MetadataError):
            slot.encode()


class TestStageTagEntry:
    def make_entry(self):
        slots = [None] * 8
        slots[0] = RangeSlot(cf=4, dirty=True, blk_off=0, sub_start=4)
        slots[3] = RangeSlot(cf=1, dirty=False, blk_off=2, sub_start=7)
        slots[5] = RangeSlot(zero=True, blk_off=6)
        return StageTagEntry(tag=0x1ABCD, valid=True, slots=slots, lru=2, fifo=4, miss_count=321)

    def test_entry_is_108_bits(self):
        assert ENTRY_BITS == 108
        value = self.make_entry().encode()
        assert value.bit_length() <= 108

    def test_roundtrip(self):
        entry = self.make_entry()
        decoded = StageTagEntry.decode(entry.encode())
        assert decoded.tag == entry.tag
        assert decoded.valid == entry.valid
        assert decoded.lru == 2 and decoded.fifo == 4
        assert decoded.miss_count == 321
        assert decoded.slots[0] == entry.slots[0]
        assert decoded.slots[3] == entry.slots[3]
        assert decoded.slots[5].zero
        assert decoded.slots[1] is None

    def test_find_sub_block(self):
        entry = self.make_entry()
        assert entry.find_sub_block(0, 6) == 0
        assert entry.find_sub_block(2, 7) == 3
        assert entry.find_sub_block(6, 1) == 5  # zero slot covers all
        assert entry.find_sub_block(0, 0) is None

    def test_slots_of_block_and_occupancy(self):
        entry = self.make_entry()
        assert entry.slots_of_block(0) == [0]
        assert entry.used == 3
        assert entry.blocks_present() == [0, 2, 6]
        assert entry.free_slot() == 1

    def test_used_count_is_derived_not_encoded(self):
        """``used`` is simulator bookkeeping: construction and ``decode``
        derive it from the slots, and the 108 encoded bits ignore it."""
        entry = self.make_entry()
        assert entry.used == 3
        assert StageTagEntry(slots=[None] * 32).used == 0
        decoded = StageTagEntry.decode(entry.encode())
        assert decoded.used == 3
        encoded = entry.encode()
        entry.used = 0
        assert entry.encode() == encoded
        assert entry == decoded  # not compared either

    def test_dirty_sub_block_count(self):
        entry = self.make_entry()
        # CF4 dirty range = 4 dirty sub-blocks; zero slot contributes 0.
        assert entry.dirty_sub_block_count() == 4

    def test_tag_overflow_rejected(self):
        entry = StageTagEntry(tag=1 << 21, valid=True)
        with pytest.raises(MetadataError):
            entry.encode()

    def test_misscnt_overflow_rejected(self):
        entry = StageTagEntry(tag=0, miss_count=1 << 16)
        with pytest.raises(MetadataError):
            entry.encode()


class TestStageTagArray:
    def test_paper_storage_budget(self):
        """8192 sets x 4 ways x 14 B = 448 kB (Sec. III-B)."""
        array = StageTagArray(8192, 4)
        assert array.storage_bytes() == 448 * 1024

    def test_lookup_matches_valid_tags_only(self):
        array = StageTagArray(4, 2)
        entry = array.entry(1, 0)
        entry.tag = 42
        entry.valid = True
        assert array.lookup(1, 42) == [(0, entry)]
        assert array.lookup(1, 41) == []
        entry.valid = False
        assert array.lookup(1, 42) == []

    def test_multiple_ways_same_tag(self):
        array = StageTagArray(2, 4)
        for way in (0, 2):
            e = array.entry(0, way)
            e.tag, e.valid = 7, True
        assert [w for w, _ in array.lookup(0, 7)] == [0, 2]

    def test_invalid_way(self):
        array = StageTagArray(1, 2)
        assert array.invalid_way(0) == 0
        array.entry(0, 0).valid = True
        assert array.invalid_way(0) == 1
        array.entry(0, 1).valid = True
        assert array.invalid_way(0) is None

    def test_wide_geometry_entries(self):
        array = StageTagArray(4, 2, slots_per_entry=32)
        assert len(array.entry(0, 0).slots) == 32
