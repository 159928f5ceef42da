"""Stage area mechanics: LRU ranks, FIFO slots, miss counters, aging."""

import pytest

from repro.common.config import Geometry, StageConfig
from repro.common.errors import LayoutError
from repro.core.stage_area import StageArea
from repro.metadata.stage_tag import RangeSlot

KB = 1024


@pytest.fixture
def stage():
    # 64 kB stage = 32 blocks = 8 sets x 4 ways.
    return StageArea(
        StageConfig(size_bytes=64 * KB, ways=4, aging_period_accesses=16),
        Geometry(),
    )


def alloc(stage, super_id):
    result = stage.allocate(super_id)
    assert result is not None
    return result


class TestAllocation:
    def test_allocate_until_full(self, stage):
        set_index = stage.set_index_of(0)
        n = stage.num_sets
        for i in range(4):
            s, way = alloc(stage, i * n)  # same set, different supers
            assert s == set_index
        assert stage.allocate(4 * n) is None

    def test_allocated_entry_is_mru(self, stage):
        _, w0 = alloc(stage, 0)
        s, w1 = alloc(stage, stage.num_sets)
        assert stage.mru_way(s) == w1
        assert stage.lru_way(s) == w0

    def test_invalidate_returns_snapshot_and_frees(self, stage):
        s, w = alloc(stage, 0)
        stage.insert_range(s, w, RangeSlot(cf=1, blk_off=2, sub_start=3))
        snap = stage.invalidate(s, w)
        assert snap.used == 1
        assert stage.tags.invalid_way(s) is not None
        with pytest.raises(LayoutError):
            stage.invalidate(s, w)

    def test_lookup_block_and_sub(self, stage):
        s, w = alloc(stage, 5)
        stage.insert_range(s, w, RangeSlot(cf=2, blk_off=1, sub_start=4))
        assert stage.lookup_block(5, 1) == (w, stage.entry(s, w))
        assert stage.lookup_block(5, 2) is None
        hit = stage.lookup_sub_block(5, 1, 5)
        assert hit is not None and hit[0] == w
        assert stage.lookup_sub_block(5, 1, 6) is None


class TestUsedCount:
    def test_mutation_sites_keep_used_exact(self, stage):
        s, w = alloc(stage, 0)
        entry = stage.entry(s, w)
        assert entry.used == 0
        for sub in range(8):
            stage.insert_range(s, w, RangeSlot(cf=1, blk_off=0, sub_start=sub))
        assert entry.used == 8
        with pytest.raises(LayoutError):
            stage.insert_range(s, w, RangeSlot(cf=1, blk_off=1, sub_start=0))
        assert entry.used == 8
        stage.remove_slot(s, w, 3)
        assert entry.used == 7
        snap = stage.invalidate(s, w)
        assert snap.used == 7 and entry.used == 0
        _, w2 = alloc(stage, 0)
        assert stage.entry(s, w2).used == 0


class TestLruRanks:
    def test_ranks_stay_dense_and_bounded(self, stage):
        s = stage.set_index_of(0)
        ways = [alloc(stage, i * stage.num_sets)[1] for i in range(4)]
        for way in (ways[0], ways[2], ways[0]):
            stage.touch(s, way)
        ranks = sorted(stage.entry(s, w).lru for w in ways)
        assert ranks == [0, 1, 2, 3]  # exact 3-bit-expressible ranks

    def test_touch_promotes_to_mru(self, stage):
        s = stage.set_index_of(0)
        ways = [alloc(stage, i * stage.num_sets)[1] for i in range(3)]
        stage.touch(s, ways[0])
        assert stage.mru_way(s) == ways[0]
        assert stage.is_lru(s, ways[1])

    def test_invalidate_compacts_ranks(self, stage):
        s = stage.set_index_of(0)
        ways = [alloc(stage, i * stage.num_sets)[1] for i in range(4)]
        stage.invalidate(s, ways[1])
        ranks = sorted(
            stage.entry(s, w).lru for w in ways if stage.entry(s, w).valid
        )
        assert ranks == [0, 1, 2]


class TestFifoSlots:
    def test_fifo_wraps_in_insertion_order(self, stage):
        s, w = alloc(stage, 0)
        for i in range(8):
            stage.insert_range(s, w, RangeSlot(cf=1, blk_off=0, sub_start=i))
        victims = [stage.fifo_victim_slot(s, w) for _ in range(3)]
        assert victims == [0, 1, 2]

    def test_fifo_skips_empty_slots(self, stage):
        s, w = alloc(stage, 0)
        for i in range(3):
            stage.insert_range(s, w, RangeSlot(cf=1, blk_off=0, sub_start=i))
        stage.remove_slot(s, w, 0)
        assert stage.fifo_victim_slot(s, w) == 1

    def test_fifo_empty_block_raises(self, stage):
        s, w = alloc(stage, 0)
        with pytest.raises(LayoutError):
            stage.fifo_victim_slot(s, w)

    def test_insert_into_full_raises(self, stage):
        s, w = alloc(stage, 0)
        for i in range(8):
            stage.insert_range(s, w, RangeSlot(cf=1, blk_off=0, sub_start=i))
        with pytest.raises(LayoutError):
            stage.insert_range(s, w, RangeSlot(cf=1, blk_off=1, sub_start=0))


class TestMissCounters:
    def test_entry_miss_count(self, stage):
        s, w = alloc(stage, 0)
        stage.record_block_miss(s, w)
        assert stage.entry(s, w).miss_count == 1

    def test_mru_miss_counted_for_mru_way(self, stage):
        s, w0 = alloc(stage, 0)
        _, w1 = alloc(stage, stage.num_sets)
        stage.record_block_miss(s, w1)  # w1 is MRU
        assert stage.mru_miss_cnt[s] == 1
        stage.record_block_miss(s, w0)  # w0 is LRU: set counter unchanged
        assert stage.mru_miss_cnt[s] == 1

    def test_block_level_miss_counts_to_set(self, stage):
        s = stage.set_index_of(0)
        stage.record_block_miss(s, None)
        assert stage.mru_miss_cnt[s] == 1

    def test_aging_halves_counters(self, stage):
        s, w = alloc(stage, 0)
        for _ in range(8):
            stage.record_block_miss(s, w)
        assert stage.entry(s, w).miss_count == 8
        for _ in range(16):  # one aging period
            stage.record_set_access(s)
        assert stage.entry(s, w).miss_count == 4
        assert stage.mru_miss_cnt[s] == 4

    def test_counters_saturate(self, stage):
        s, w = alloc(stage, 0)
        stage.entry(s, w).miss_count = stage.config.miss_counter_max()
        stage.record_block_miss(s, w)
        assert stage.entry(s, w).miss_count == stage.config.miss_counter_max()


class TestAccounting:
    def test_occupancy(self, stage):
        assert stage.occupancy() == 0.0
        alloc(stage, 0)
        assert stage.occupancy() == pytest.approx(1 / 32)

    def test_storage_matches_entry_size(self, stage):
        assert stage.storage_bytes() == 32 * 14
