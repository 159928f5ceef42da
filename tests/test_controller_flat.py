"""Flat-scheme behaviour: homes, displacement, swaps, FA organization."""

import pytest

from repro.common.config import CommitConfig
from repro.core import AccessCase, BaryonController

from tests.conftest import make_small_config
from tests.test_controller_cases import ScriptedOracle


def make_flat(oracle=None, fa=False, **kwargs):
    config = make_small_config(flat=1.0, fully_associative=fa, **kwargs)
    ctrl = BaryonController(config, seed=1)
    if oracle is not None:
        ctrl.oracle = oracle
    return ctrl


def slow_home_addr(ctrl, index=0):
    """An address whose block is homed in slow memory.

    Homes are striped every ``_home_period`` blocks, so any non-multiple
    of the period is slow-homed.
    """
    block = ctrl._home_period * (index + 1) + 1
    assert not ctrl._is_home_block(block)
    return block * ctrl.geometry.block_size


class TestHomes:
    def test_low_addresses_are_fast_homes(self):
        ctrl = make_flat(ScriptedOracle(cf=1))
        result = ctrl.access(0, False)
        assert result.case is AccessCase.FAST_HOME
        assert result.served_fast

    def test_high_addresses_hit_slow_path(self):
        ctrl = make_flat(ScriptedOracle(cf=1))
        result = ctrl.access(slow_home_addr(ctrl), False)
        assert result.case is AccessCase.BLOCK_MISS

    def test_home_location_roundtrip(self):
        """Each flat space homes its own home block."""
        ctrl = make_flat(ScriptedOracle(cf=1))
        fa = ctrl.fast_area
        homes = [
            fa.home_block_of(s, w)
            for s in range(fa.num_sets)
            for w in range(fa.ways)
        ]
        homes = [block for block in homes if block is not None]
        assert len(set(homes)) == len(homes) == ctrl._flat_blocks
        assert all(ctrl._is_home_block(block) for block in homes)

    def test_homes_striped_across_space(self):
        """Hotness-neutral placement: fast homes are spread, not clustered
        at low addresses."""
        ctrl = make_flat(ScriptedOracle(cf=1))
        assert ctrl._home_period > 1
        assert ctrl._is_home_block(0)
        assert not ctrl._is_home_block(1)
        total = (
            ctrl.config.layout.fast_capacity + ctrl.config.layout.slow_capacity
        ) // ctrl.geometry.block_size
        homes = sum(ctrl._is_home_block(b) for b in range(total))
        assert homes == pytest.approx(ctrl._flat_blocks, rel=0.01)

    def test_home_never_staged(self):
        ctrl = make_flat(ScriptedOracle(cf=1))
        ctrl.access(0, False)
        assert ctrl.stage.occupancy() == 0.0


class TestDisplacement:
    def commit_into_flat(self, ctrl):
        """Stage slow-homed blocks until one commits into a flat way."""
        n = ctrl.stage.num_sets
        sbs = ctrl.geometry.super_block_size
        base = (ctrl._flat_blocks + 8) * ctrl.geometry.block_size
        base -= base % sbs
        for i in range(ctrl.stage.ways + 2):
            ctrl.access(base + i * n * sbs, False)
        assert ctrl.stats.get("commits") >= 1

    def test_commit_displaces_home(self):
        ctrl = make_flat(ScriptedOracle(cf=1), commit=CommitConfig(commit_all=True))
        self.commit_into_flat(ctrl)
        assert ctrl.stats.get("home_displacements") >= 1
        assert ctrl._displaced

    def test_displaced_home_served_slow(self):
        ctrl = make_flat(ScriptedOracle(cf=1), commit=CommitConfig(commit_all=True))
        self.commit_into_flat(ctrl)
        home = next(iter(ctrl._displaced))
        result = ctrl.access(home * ctrl.geometry.block_size, False)
        assert result.case is AccessCase.SLOW_DIRECT
        assert not result.served_fast

    def test_displacement_moves_data_to_slow(self):
        ctrl = make_flat(ScriptedOracle(cf=1), commit=CommitConfig(commit_all=True))
        before = ctrl.devices.slow.stats.get("write_bytes")
        self.commit_into_flat(ctrl)
        # The spread-swap writes the displaced 2 kB home block to slow.
        assert ctrl.devices.slow.stats.get("write_bytes") - before >= 2048

    def test_flat_eviction_restores_home(self):
        ctrl = make_flat(ScriptedOracle(cf=1), commit=CommitConfig(commit_all=True))
        self.commit_into_flat(ctrl)
        home = next(iter(ctrl._displaced))
        set_index, way = ctrl._displaced[home]
        ctrl._evict_fast_block(1e9, set_index, way, for_commit=False)
        assert home not in ctrl._displaced
        assert ctrl.stats.get("home_restores") == 1
        # Home block serves fast again.
        result = ctrl.access(home * ctrl.geometry.block_size, False)
        assert result.case is AccessCase.FAST_HOME

    def test_slow_swap_keeps_home_displaced_for_commit(self):
        ctrl = make_flat(ScriptedOracle(cf=1), commit=CommitConfig(commit_all=True))
        self.commit_into_flat(ctrl)
        home = next(iter(ctrl._displaced))
        set_index, way = ctrl._displaced[home]
        ctrl._evict_fast_block(1e9, set_index, way, for_commit=True)
        assert home in ctrl._displaced
        assert ctrl.stats.get("slow_swaps") == 1


class TestFullyAssociative:
    def test_single_set(self):
        ctrl = make_flat(ScriptedOracle(cf=1), fa=True)
        assert ctrl.fast_area.num_sets == 1
        assert ctrl.fast_area.replacement == "fifo"

    def test_fa_flat_runs(self):
        ctrl = make_flat(ScriptedOracle(cf=2), fa=True, commit=CommitConfig(commit_all=True))
        import random

        rng = random.Random(3)
        total = ctrl.config.layout.fast_capacity + ctrl.config.layout.slow_capacity
        for _ in range(3000):
            addr = (rng.randrange(total // 2) // 64) * 64
            ctrl.access(addr, rng.random() < 0.3)
        assert ctrl.stats.get("accesses") == 3000
        assert 0.0 <= ctrl.serve_rate() <= 1.0

    def test_fifo_victim_pointer_cycles(self):
        ctrl = make_flat(ScriptedOracle(cf=1), fa=True)
        fa = ctrl.fast_area
        first, _ = fa.commit_victim(0)
        assert fa.commit_victim(0)[0] == first  # peeking does not advance
        fa.take(first)
        second, _ = fa.commit_victim(0)
        assert second == (first + 1) % fa.ways


class TestNoStageAblation:
    def test_inserts_directly_into_fast_area(self):
        ctrl = BaryonController(
            make_small_config(stage_enabled=False), seed=1
        )
        ctrl.oracle = ScriptedOracle(cf=1)
        ctrl.access(0, False)
        assert ctrl.remap_table.get(0).is_remapped
        result = ctrl.access(0, False)
        assert result.case is AccessCase.COMMIT_HIT

    def test_resort_penalty_charged(self):
        ctrl = BaryonController(make_small_config(stage_enabled=False), seed=1)
        ctrl.oracle = ScriptedOracle(cf=1)
        ctrl.access(0, False)
        ctrl.access(4 * 256, False)  # second range into the same block
        assert ctrl.stats.get("layout_resorts") >= 1

    def test_rule3_pointer_stable_across_insertions(self):
        ctrl = BaryonController(make_small_config(stage_enabled=False), seed=1)
        ctrl.oracle = ScriptedOracle(cf=1)
        ctrl.access(0, False)
        pointer = ctrl.remap_table.get(0).pointer
        ctrl.access(4 * 256, False)
        assert ctrl.remap_table.get(0).pointer == pointer
        assert ctrl.remap_table.get(0).sub_block_remapped(0)
        assert ctrl.remap_table.get(0).sub_block_remapped(4)
