"""The fast area's one commit-victim chooser, against a brute-force oracle.

``FastArea.commit_victim`` picks the way a commit takes: on a
set-associative layout a free cache-area way, else the coldest way by
committed-block stamp or resident-home last-access stamp; on the
fully-associative layout the way under a FIFO pointer that cycles over
the cache-area ways and that only ``FastArea.take`` advances.
"""

import dataclasses
import random

import pytest

from repro.common.config import Geometry
from repro.common.errors import LayoutError
from repro.core import BaryonController
from repro.core.fast_area import FastArea, FastBlockState

from tests.conftest import make_small_config
from tests.test_controller_invariants import check_invariants, drive

HOME_PERIOD = 5


class VictimOracle:
    """Recency kept apart from the area's stamps, and victims found by
    scanning every way."""

    def __init__(self, num_sets, ways, flat_ways, replacement, fully_associative):
        self.num_sets = num_sets
        self.ways = ways
        self.replacement = replacement
        self.fully_associative = fully_associative
        self.time = 0
        self.last_use = {}  # (set, way) of an occupied space -> time
        self.home_use = {}  # home block -> time of its last access
        self.takes = 0
        # Invert the home striping: block b is homed at flat space
        # index b // HOME_PERIOD, i.e. set index % num_sets, way
        # index // num_sets.
        self.home_at = {}
        for block in range(0, HOME_PERIOD * num_sets * flat_ways, HOME_PERIOD):
            index = block // HOME_PERIOD
            self.home_at[(index % num_sets, index // num_sets)] = block
        if flat_ways < ways:
            self.cycle = list(range(flat_ways, ways))
        else:
            self.cycle = list(range(ways))

    def tick(self):
        self.time += 1
        return self.time

    def installed(self, set_index, way):
        self.last_use[(set_index, way)] = self.tick()

    def removed(self, set_index, way):
        del self.last_use[(set_index, way)]

    def touched(self, set_index, way):
        if self.replacement == "lru":
            self.last_use[(set_index, way)] = self.tick()

    def home_touched(self, block):
        self.home_use[block] = self.tick()

    def victim(self, set_index):
        if self.fully_associative:
            return self.cycle[self.takes % len(self.cycle)]
        empty = [
            way for way in range(self.ways)
            if (set_index, way) not in self.last_use
        ]
        free = [way for way in empty if (set_index, way) not in self.home_at]
        if free:
            return free[0]

        def coldness(way):
            if way in empty:
                home = self.home_at[(set_index, way)]
                return self.home_use.get(home, 0), way
            return self.last_use[(set_index, way)], way

        return min(range(self.ways), key=coldness)


LAYOUTS = [
    # num_sets, ways, flat_ways, replacement, fully_associative
    (4, 4, 0, "lru", False),
    (4, 4, 0, "fifo", False),
    (4, 4, 3, "lru", False),
    (2, 4, 3, "fifo", False),
    (1, 16, 12, "fifo", True),
    (1, 8, 8, "fifo", True),
]


class TestCommitVictim:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize(
        "num_sets,ways,flat_ways,replacement,fully_associative", LAYOUTS
    )
    def test_random_sequences_match_oracle(
        self, num_sets, ways, flat_ways, replacement, fully_associative, seed
    ):
        rng = random.Random(seed)
        area = FastArea(
            num_sets, ways, Geometry(), replacement,
            flat_ways, HOME_PERIOD, fully_associative,
        )
        oracle = VictimOracle(
            num_sets, ways, flat_ways, replacement, fully_associative
        )
        supers = range(3 * num_sets)
        for _ in range(500):
            occupied = sorted(oracle.last_use)
            op = rng.random()
            if op < 0.25:
                # A commit: peek twice (no side effects), evict the
                # occupant, install and take.
                super_id = rng.choice(supers)
                set_index = super_id % num_sets
                way, occupant = area.commit_victim(set_index)
                assert way == oracle.victim(set_index)
                assert occupant is area.state(set_index, way)
                assert area.commit_victim(set_index) == (way, occupant)
                if occupant is not None:
                    area.remove(set_index, way)
                    oracle.removed(set_index, way)
                area.install(set_index, way, FastBlockState(super_id=super_id))
                oracle.installed(set_index, way)
                area.take(way)
                oracle.takes += 1
            elif op < 0.4:
                # An install into a free way, as a no-stage miss might.
                super_id = rng.choice(supers)
                set_index = super_id % num_sets
                free = [w for w in range(ways) if area.state(set_index, w) is None]
                if free:
                    way = rng.choice(free)
                    area.install(set_index, way, FastBlockState(super_id=super_id))
                    oracle.installed(set_index, way)
            elif op < 0.55 and occupied:
                set_index, way = rng.choice(occupied)
                area.remove(set_index, way)
                oracle.removed(set_index, way)
            elif op < 0.8 and occupied:
                set_index, way = rng.choice(occupied)
                area.touch(set_index, way)
                oracle.touched(set_index, way)
            elif oracle.home_at:
                # A resident-home hit, as the server stamps it.
                block = rng.choice(sorted(oracle.home_at.values()))
                area._clock += 1
                area.home_stamps[block] = area._clock
                oracle.home_touched(block)
            for set_index in range(num_sets):
                way, _ = area.commit_victim(set_index)
                assert way == oracle.victim(set_index)

    def test_home_block_of_inverts_the_striping(self):
        area = FastArea(4, 4, Geometry(), "lru", 3, HOME_PERIOD)
        oracle = VictimOracle(4, 4, 3, "lru", False)
        for set_index in range(4):
            for way in range(4):
                want = oracle.home_at.get((set_index, way))
                assert area.home_block_of(set_index, way) == want

    def test_fully_associative_pointer_skips_flat_ways(self):
        area = FastArea(1, 6, Geometry(), "fifo", 4, HOME_PERIOD, True)
        ways = []
        for _ in range(5):
            way, _ = area.commit_victim(0)
            ways.append(way)
            area.take(way)
        assert ways == [4, 5, 4, 5, 4]

    @pytest.mark.parametrize("policy", ["lfu", "clock", "random", "belady"])
    def test_unmodelled_policy_rejected(self, policy):
        with pytest.raises(LayoutError):
            FastArea(1, 2, Geometry(), policy)


class TestControllerWithPolicies:
    def test_invariants_hold_under_fifo(self):
        config = dataclasses.replace(make_small_config(), fast_replacement="fifo")
        ctrl = BaryonController(config, seed=7)
        assert ctrl.fast_area.replacement == "fifo"
        drive(ctrl, 3000, seed=19, footprint_bytes=4 * config.layout.fast_capacity)
        check_invariants(ctrl)

    def test_auto_picks_paper_defaults(self):
        cache = BaryonController(make_small_config(), seed=1)
        assert cache.fast_area.replacement == "lru"
        assert not cache.fast_area.fully_associative
        fa = BaryonController(
            make_small_config(flat=1.0, fully_associative=True), seed=1
        )
        assert fa.fast_area.replacement == "fifo"
        assert fa.fast_area.fully_associative
