"""The Eq. 1 commit policy and the committed-area bookkeeping."""

import random

import pytest

from repro.common.config import CommitConfig, Geometry
from repro.common.errors import LayoutError
from repro.core.commit import CommitPolicy
from repro.core.fast_area import FastArea, FastBlockState


class TestCommitPolicy:
    def decide(self, k=4.0, mru=40, assoc=4, victim=0, ds=0, da=0, **cfg):
        policy = CommitPolicy(CommitConfig(k=k, **cfg))
        return policy.decide(mru, assoc, victim, ds, da)

    def test_stable_block_commits(self):
        """Low own-MissCnt vs high just-staged estimate: commit."""
        d = self.decide(mru=40, victim=1)
        assert d.commit
        assert d.stability_term == pytest.approx(9.0)

    def test_unstable_block_evicts(self):
        d = self.decide(mru=8, victim=20, ds=0, da=0)
        assert not d.commit

    def test_k_zero_is_write_cost_only(self):
        """k=0 degenerates to Hybrid2's dirty-count comparison."""
        d = self.decide(k=0.0, mru=1000, victim=0, ds=2, da=5)
        assert not d.commit
        d = self.decide(k=0.0, mru=0, victim=100, ds=5, da=2)
        assert d.commit

    def test_k_infinity_is_stability_only(self):
        d = self.decide(stability_only=True, mru=0, victim=1, ds=100, da=0)
        assert not d.commit
        d = self.decide(stability_only=True, mru=8, victim=1, ds=0, da=100)
        assert d.commit

    def test_commit_all(self):
        d = self.decide(commit_all=True, mru=0, victim=10_000, ds=0, da=8)
        assert d.commit

    def test_boundary_is_commit(self):
        """B == 0 commits (the paper: 'if B >= 0')."""
        d = self.decide(k=1.0, mru=4, assoc=4, victim=1, ds=0, da=0)
        assert d.benefit == pytest.approx(0.0)
        assert d.commit

    def test_dirty_term_tradeoff(self):
        base = self.decide(k=1.0, mru=4, victim=2, ds=0, da=0)
        assert not base.commit
        flipped = self.decide(k=1.0, mru=4, victim=2, ds=4, da=0)
        assert flipped.commit

    def test_stats_counted(self):
        policy = CommitPolicy(CommitConfig(k=1.0))
        policy.decide(100, 4, 0, 0, 0)
        policy.decide(0, 4, 100, 0, 0)
        assert policy.stats.get("commits") == 1
        assert policy.stats.get("evictions") == 1


class TestFastArea:
    def make(self, num_sets=4, ways=2, replacement="lru"):
        return FastArea(num_sets, ways, Geometry(), replacement)

    def test_install_lookup_remove(self):
        area = self.make()
        state = FastBlockState(super_id=9, committed={0: 2}, slots_used=2)
        set_index = area.set_of_super(9)
        area.install(set_index, 0, state)
        assert area.lookup_super(9) == [(0, state)]
        assert area.find_block(9, 0) == (0, state)
        assert area.find_block(9, 1) is None
        removed = area.remove(set_index, 0)
        assert removed is state
        assert area.lookup_super(9) == []

    def test_double_install_rejected(self):
        area = self.make()
        area.install(0, 0, FastBlockState(super_id=0))
        with pytest.raises(LayoutError):
            area.install(0, 0, FastBlockState(super_id=4))

    def test_remove_empty_rejected(self):
        with pytest.raises(LayoutError):
            self.make().remove(0, 0)

    def test_lru_victim_respects_touch(self):
        area = self.make()
        a = FastBlockState(super_id=0)
        b = FastBlockState(super_id=4)
        area.install(0, 0, a)
        area.install(0, 1, b)
        area.touch(0, 0)
        assert area.victim_way(0) == 1

    def test_fifo_victim_ignores_touch(self):
        area = self.make(replacement="fifo")
        area.install(0, 0, FastBlockState(super_id=0))
        area.install(0, 1, FastBlockState(super_id=4))
        area.touch(0, 0)
        assert area.victim_way(0) == 0

    def test_free_way_preferred_as_victim(self):
        area = self.make()
        area.install(0, 0, FastBlockState(super_id=0))
        assert area.victim_way(0) == 1
        assert area.peek_victim(0) is None

    def test_peek_victim_full_set(self):
        area = self.make()
        a = FastBlockState(super_id=0, dirty_subs={(0, 1)})
        area.install(0, 0, a)
        area.install(0, 1, FastBlockState(super_id=4))
        area.touch(0, 1)
        assert area.peek_victim(0) is a

    def test_same_super_multiple_ways(self):
        """A super-block's data can occupy more than one physical block."""
        area = self.make()
        area.install(0, 0, FastBlockState(super_id=0, committed={1: 1}))
        area.install(0, 1, FastBlockState(super_id=0, committed={2: 1}))
        assert len(area.lookup_super(0)) == 2
        assert area.find_block(0, 2)[0] == 1

    def test_occupancy(self):
        area = self.make()
        assert area.occupancy() == 0.0
        area.install(0, 0, FastBlockState(super_id=0))
        assert area.occupancy() == pytest.approx(1 / 8)

    def test_dirty_count(self):
        state = FastBlockState(super_id=0, dirty_subs={(0, 1), (2, 3)})
        assert state.dirty_count() == 2

    def test_validation(self):
        with pytest.raises(LayoutError):
            FastArea(0, 1, Geometry())
        with pytest.raises(LayoutError):
            FastArea(1, 1, Geometry(), replacement="belady")

    def test_misplaced_install_rejected(self):
        """A state outside set ``super_id % num_sets`` would be invisible
        to every lookup."""
        area = self.make()
        with pytest.raises(LayoutError):
            area.install(1, 0, FastBlockState(super_id=4))
        assert area.lookup_super(4) == []


def scan_lookup(area, super_id):
    """Brute-force oracle: scan the whole set, as lookups once did."""
    return [
        (way, state)
        for way, state in enumerate(area.blocks[super_id % area.num_sets])
        if state is not None and state.super_id == super_id
    ]


def scan_find(area, super_id, blk_off):
    for way, state in scan_lookup(area, super_id):
        if blk_off in state.committed:
            return way, state
    return None


class _NoIterRow(list):
    """A fast-area set that fails the test if anything iterates it."""

    def __iter__(self):
        raise AssertionError("lookup iterated a whole fast-area set")


SUPER_BLOCKS = Geometry().super_block_blocks


class TestSuperBlockIndex:
    """``lookup_super``/``find_block`` read a super-block index that
    ``install``/``remove`` maintain; they must answer exactly like a scan."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize(
        "num_sets,ways,replacement", [(1, 64, "fifo"), (4, 2, "lru")]
    )
    def test_random_sequences_match_scan(self, num_sets, ways, replacement, seed):
        rng = random.Random(seed)
        area = FastArea(num_sets, ways, Geometry(), replacement)
        # Few distinct super-blocks per set, so several ways share one.
        supers = range(3 * num_sets)
        for _ in range(400):
            occupied = [
                (s, w)
                for s in range(num_sets)
                for w in range(ways)
                if area.blocks[s][w] is not None
            ]
            op = rng.random()
            if op < 0.45:
                super_id = rng.choice(supers)
                set_index = super_id % num_sets
                free = [w for w in range(ways) if area.blocks[set_index][w] is None]
                if free:
                    committed = {
                        off: 1
                        for off in rng.sample(range(SUPER_BLOCKS), rng.randint(0, 3))
                    }
                    area.install(
                        set_index,
                        rng.choice(free),
                        FastBlockState(super_id=super_id, committed=committed),
                    )
            elif op < 0.75 and occupied:
                area.remove(*rng.choice(occupied))
            elif occupied:
                state = area.state(*rng.choice(occupied))
                off = rng.randrange(SUPER_BLOCKS)
                if off in state.committed:
                    del state.committed[off]
                else:
                    state.committed[off] = 1
                area.touch(*rng.choice(occupied))
            for super_id in supers:
                assert area.lookup_super(super_id) == scan_lookup(area, super_id)
                for blk_off in range(SUPER_BLOCKS):
                    assert area.find_block(super_id, blk_off) == scan_find(
                        area, super_id, blk_off
                    )

    def test_lookups_never_iterate_a_set(self):
        area = FastArea(1, 64, Geometry(), "fifo")
        area.install(0, 40, FastBlockState(super_id=7, committed={2: 1}))
        area.install(0, 3, FastBlockState(super_id=7, committed={5: 1}))
        area.install(0, 9, FastBlockState(super_id=8, committed={2: 1}))
        area.blocks[0] = _NoIterRow(area.blocks[0])
        assert [way for way, _ in area.lookup_super(7)] == [3, 40]
        assert area.find_block(7, 2)[0] == 40
        assert area.find_block(7, 5)[0] == 3
        assert area.find_block(7, 1) is None
        assert area.lookup_super(6) == []
