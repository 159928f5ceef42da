"""Hypothesis stateful testing of the stage area's replacement metadata.

Random interleavings of allocate / touch / insert / remove / FIFO-evict /
invalidate must preserve the invariants the controller relies on:

* LRU ranks are a permutation of 0..valid-1 (exactly representable in the
  entry's 3 bits);
* slot occupancy never exceeds the physical block;
* Rule 2 alignment of every resident range;
* FIFO victims are always occupied slots.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.common.config import Geometry, StageConfig
from repro.core.stage_area import StageArea
from repro.metadata.stage_tag import RangeSlot

KB = 1024


class StageAreaMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        # 4 sets x 4 ways; operations target set 0 to maximize contention.
        self.stage = StageArea(
            StageConfig(size_bytes=32 * KB, ways=4, aging_period_accesses=32),
            Geometry(),
        )
        self.set_index = 0
        self.next_super = 0

    def _valid_ways(self):
        return [
            w
            for w in range(self.stage.ways)
            if self.stage.entry(self.set_index, w).valid
        ]

    @rule()
    def allocate(self):
        super_id = self.next_super * self.stage.num_sets + self.set_index
        self.next_super += 1
        result = self.stage.allocate(super_id)
        if result is not None:
            assert result[0] == self.set_index

    @precondition(lambda self: self._valid_ways())
    @rule(data=st.data())
    def touch(self, data):
        way = data.draw(st.sampled_from(self._valid_ways()))
        self.stage.touch(self.set_index, way)
        assert self.stage.mru_way(self.set_index) == way

    @precondition(lambda self: self._valid_ways())
    @rule(data=st.data(), cf=st.sampled_from([1, 2, 4]), blk=st.integers(0, 7), pos=st.integers(0, 7))
    def insert(self, data, cf, blk, pos):
        way = data.draw(st.sampled_from(self._valid_ways()))
        entry = self.stage.entry(self.set_index, way)
        if entry.free_slot() is None:
            return
        start = (pos // cf) * cf % 8
        start = (start // cf) * cf
        slot = RangeSlot(cf=cf, blk_off=blk, sub_start=start)
        self.stage.insert_range(self.set_index, way, slot)

    @precondition(lambda self: any(
        self.stage.entry(0, w).valid and self.stage.entry(0, w).used
        for w in range(4)
    ))
    @rule(data=st.data())
    def fifo_evict(self, data):
        candidates = [
            w
            for w in self._valid_ways()
            if self.stage.entry(self.set_index, w).used
        ]
        way = data.draw(st.sampled_from(candidates))
        slot_index = self.stage.fifo_victim_slot(self.set_index, way)
        assert self.stage.entry(self.set_index, way).slots[slot_index] is not None
        self.stage.remove_slot(self.set_index, way, slot_index)

    @precondition(lambda self: self._valid_ways())
    @rule(data=st.data())
    def record_miss(self, data):
        way = data.draw(st.sampled_from(self._valid_ways()))
        self.stage.record_block_miss(self.set_index, way)
        self.stage.record_set_access(self.set_index)

    @precondition(lambda self: self._valid_ways())
    @rule(data=st.data())
    def invalidate(self, data):
        way = data.draw(st.sampled_from(self._valid_ways()))
        self.stage.invalidate(self.set_index, way)

    @invariant()
    def lru_ranks_dense(self):
        ranks = sorted(
            self.stage.entry(self.set_index, w).lru for w in self._valid_ways()
        )
        assert ranks == list(range(len(ranks)))
        assert all(0 <= r < 8 for r in ranks)  # 3-bit representable

    @invariant()
    def slots_well_formed(self):
        for way in range(self.stage.ways):
            entry = self.stage.entry(self.set_index, way)
            occupied = 0
            for slot in entry.slots:
                if slot is None:
                    continue
                occupied += 1
                if not slot.zero:
                    assert slot.sub_start % slot.cf == 0
            assert occupied <= len(entry.slots)
            assert 0 <= entry.fifo < len(entry.slots)

    @invariant()
    def counters_bounded(self):
        cap = self.stage.config.miss_counter_max()
        assert 0 <= self.stage.mru_miss_cnt[self.set_index] <= cap
        for way in range(self.stage.ways):
            assert 0 <= self.stage.entry(self.set_index, way).miss_count <= cap


TestStageAreaStateMachine = StageAreaMachine.TestCase
TestStageAreaStateMachine.settings = settings(
    max_examples=40, stateful_step_count=60, deadline=None
)
