"""Configuration: Table I defaults, derived sizes, and validation."""

import dataclasses
import math

import pytest

from repro.common.config import (
    GB,
    KB,
    MB,
    BaryonConfig,
    CacheGeometry,
    CommitConfig,
    CompressionConfig,
    Geometry,
    HierarchyConfig,
    HybridLayout,
    MemoryTimings,
    SimulationConfig,
    StageConfig,
)
from repro.common.errors import ConfigurationError


class TestGeometry:
    def test_paper_defaults(self):
        g = Geometry()
        assert g.cacheline_size == 64
        assert g.sub_block_size == 256
        assert g.block_size == 2 * KB
        assert g.super_block_size == 16 * KB
        assert g.sub_blocks_per_block == 8
        assert g.cachelines_per_sub_block == 4

    def test_address_decomposition(self):
        g = Geometry()
        addr = 5 * g.super_block_size + 3 * g.block_size + 2 * g.sub_block_size + 65
        assert g.super_block_id(addr) == 5
        assert g.block_offset_in_super(addr) == 3
        assert g.sub_block_index(addr) == 2
        assert g.cacheline_index_in_sub_block(addr) == 1
        assert g.block_base(addr) % g.block_size == 0

    def test_aligned_range(self):
        g = Geometry()
        assert g.aligned_range(5, 1) == (5, 1)
        assert g.aligned_range(5, 2) == (4, 2)
        assert g.aligned_range(5, 4) == (4, 4)
        assert g.aligned_range(7, 4) == (4, 4)

    def test_aligned_range_rejects_bad_cf(self):
        with pytest.raises(ConfigurationError):
            Geometry().aligned_range(0, 3)

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ConfigurationError):
            Geometry(cacheline_size=48)
        with pytest.raises(ConfigurationError):
            Geometry(sub_block_size=32)  # below cacheline

    def test_64b_sub_blocking_variant(self):
        g = Geometry(sub_block_size=64)
        assert g.sub_blocks_per_block == 32
        assert g.cachelines_per_sub_block == 1


class TestHybridLayout:
    def test_paper_capacity_ratio(self):
        layout = HybridLayout()
        assert layout.fast_capacity == 4 * GB
        assert layout.slow_capacity == 32 * GB
        assert layout.capacity_ratio == 8

    def test_set_arithmetic(self):
        layout = HybridLayout(fast_capacity=8 * MB, slow_capacity=64 * MB)
        sets, ways = layout.num_sets_assoc(Geometry())
        assert ways == 4
        assert sets * ways == 8 * MB // (2 * KB)

    def test_fully_associative(self):
        layout = HybridLayout(
            fast_capacity=8 * MB, slow_capacity=64 * MB, fully_associative=True
        )
        sets, ways = layout.num_sets_assoc(Geometry())
        assert sets == 1
        assert ways == 8 * MB // (2 * KB)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            HybridLayout(fast_capacity=3 * MB, slow_capacity=10 * MB)
        with pytest.raises(ConfigurationError):
            HybridLayout(flat_fraction=1.5)


class TestStageConfig:
    def test_paper_geometry(self):
        stage = StageConfig()
        assert stage.size_bytes == 64 * MB
        assert stage.num_sets(Geometry()) == 8192
        assert stage.ways == 4

    def test_miss_counter_is_16_bit(self):
        assert StageConfig().miss_counter_max() == 0xFFFF


class TestMemoryTimings:
    def test_latency_gap(self):
        t = MemoryTimings()
        assert t.slow_read_latency_cycles > 5 * t.fast_read_latency_cycles
        assert t.slow_write_latency_cycles > t.slow_read_latency_cycles

    def test_bandwidth_gap(self):
        t = MemoryTimings()
        assert t.slow_cycles_per_byte() > t.fast_cycles_per_byte()

    def test_fast_must_be_faster(self):
        with pytest.raises(ConfigurationError):
            MemoryTimings(fast_read_latency_cycles=300)


class TestBaryonConfig:
    def test_stage_tag_entry_is_108_bits(self):
        """The paper's Fig. 5a arithmetic: 14 B per entry."""
        assert BaryonConfig().stage_tag_entry_bits() == 108

    def test_stage_tag_array_is_448_kb(self):
        """64 MB stage area x 14 B per 2 kB block = 448 kB on-chip."""
        assert BaryonConfig().stage_tag_array_bytes() == 448 * KB

    def test_remap_table_is_0_1_percent(self):
        """2 B per 2 kB block ~ 0.1% of total capacity (Sec. III-B)."""
        cfg = BaryonConfig()
        total = cfg.layout.fast_capacity + cfg.layout.slow_capacity
        assert cfg.remap_table_bytes() / total == pytest.approx(0.001, rel=0.05)

    def test_mode_constructors(self):
        assert BaryonConfig.cache_mode().layout.flat_fraction == 0.0
        flat = BaryonConfig.flat_mode()
        assert flat.layout.flat_fraction == 1.0
        fa = BaryonConfig.fully_associative()
        assert fa.layout.fully_associative

    def test_sub_block_variant(self):
        cfg = BaryonConfig().with_sub_block_size(64)
        assert cfg.geometry.sub_block_size == 64
        assert cfg.geometry.block_size == 2 * KB


class TestFastReplacement:
    @pytest.mark.parametrize("policy", ["lfu", "clock", "random", "LRU", None])
    def test_rejects_unmodelled_policies(self, policy):
        with pytest.raises(ConfigurationError, match="fast_replacement"):
            dataclasses.replace(BaryonConfig(), fast_replacement=policy)

    def test_rejects_lru_on_a_fully_associative_layout(self):
        """The fully-associative area evicts through its FIFO pointer,
        so an explicit lru would silently run FIFO."""
        with pytest.raises(ConfigurationError, match="fast_replacement 'lru'"):
            BaryonConfig.fully_associative(fast_replacement="lru")
        lru = BaryonConfig(fast_replacement="lru")
        layout = dataclasses.replace(lru.layout, fully_associative=True)
        with pytest.raises(ConfigurationError, match="fast_replacement 'lru'"):
            dataclasses.replace(lru, layout=layout)

    @pytest.mark.parametrize("policy", ["auto", "lru", "fifo"])
    def test_set_associative_layouts_accept_every_policy(self, policy):
        assert BaryonConfig.cache_mode(fast_replacement=policy).fast_replacement == policy
        assert BaryonConfig.flat_mode(fast_replacement=policy).fast_replacement == policy

    @pytest.mark.parametrize("policy", ["auto", "fifo"])
    def test_fully_associative_layout_accepts_auto_and_fifo(self, policy):
        config = BaryonConfig.fully_associative(fast_replacement=policy)
        assert config.fast_replacement == policy


class TestCommitAndCompressionConfig:
    @pytest.mark.parametrize("k", [None, math.nan, -1.0, "4"])
    def test_k_rejects_non_numbers_and_negatives(self, k):
        with pytest.raises(ConfigurationError, match="commit k"):
            CommitConfig(k=k)

    @pytest.mark.parametrize("k", [0, 4, math.inf])
    def test_k_accepts_zero_integers_and_infinity(self, k):
        assert CommitConfig(k=k).k == k

    def test_compression_validation(self):
        with pytest.raises(ConfigurationError):
            CompressionConfig(algorithms=())


class TestHierarchyAndSim:
    def test_table1_hierarchy(self):
        h = HierarchyConfig()
        assert h.cores == 16
        assert h.llc.size_bytes == 16 * MB
        assert h.llc.latency_cycles == 38
        assert h.l2.latency_cycles == 9

    def test_cache_geometry_sets(self):
        c = CacheGeometry("L", 64 * KB, 8)
        assert c.num_sets == 64 * KB // (8 * 64)

    def test_sim_validation(self):
        with pytest.raises(ConfigurationError):
            SimulationConfig(base_cpi=0)
        with pytest.raises(ConfigurationError):
            SimulationConfig(warmup_fraction=1.0)
