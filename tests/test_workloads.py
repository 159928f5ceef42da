"""Workload generators: structure, determinism, and behavioural knobs."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.common.config import Geometry
from repro.common.errors import ConfigurationError
from repro.compression.synthetic import SyntheticCompressibility
from repro.workloads import (
    DnnInferenceWorkload,
    GraphWorkload,
    PointerChaseWorkload,
    RandomWorkload,
    SpecProxyWorkload,
    StencilWorkload,
    StreamWorkload,
    WORKLOADS,
    YcsbWorkload,
    ZipfWorkload,
    build_workload,
)
from repro.workloads.spec import SPEC_PARAMS
from repro.workloads.synthetic import EPISODE_BATCH, _zipf_ranks, block_footprint

MB = 1 << 20
FOOT = 8 * MB


def basic_checks(trace, n, footprint):
    assert abs(len(trace) - n) <= n // 4
    assert int(trace.addrs.max()) < footprint
    assert (trace.addrs % 64 == 0).all()
    assert len(trace.writes) == len(trace) == len(trace.igaps) == len(trace.cores)


class TestMicroKernels:
    def test_stream_is_sequential(self):
        trace = StreamWorkload("s", FOOT, seed=1).generate(1000)
        basic_checks(trace, 1000, FOOT)
        deltas = np.diff(trace.addrs[:100].astype(np.int64))
        assert (deltas == 64).all()

    def test_random_spreads(self):
        trace = RandomWorkload("r", FOOT, seed=1).generate(2000)
        basic_checks(trace, 2000, FOOT)
        blocks = np.unique(trace.addrs // 2048)
        assert len(blocks) > 1000

    def test_zipf_popularity_skew(self):
        trace = ZipfWorkload("z", FOOT, seed=1, theta=1.1).generate(6000)
        basic_checks(trace, 6000, FOOT)
        # Popularity is drawn per super-block; skew shows at that grain.
        supers, counts = np.unique(trace.addrs // (16 * 2048), return_counts=True)
        top = np.sort(counts)[::-1]
        assert top[: max(1, len(top) // 10)].sum() > 0.3 * counts.sum()

    def test_pointer_chase_visits_widely(self):
        trace = PointerChaseWorkload("p", FOOT, seed=1).generate(3000)
        basic_checks(trace, 3000, FOOT)
        assert len(np.unique(trace.addrs)) > 2000

    def test_stencil_bounded(self):
        trace = StencilWorkload("st", FOOT, seed=1).generate(3000)
        assert int(trace.addrs.max()) < FOOT

    def test_write_fraction_controllable(self):
        trace = StreamWorkload("s", FOOT, seed=1, write_fraction=0.5).generate(4000)
        assert abs(trace.write_fraction - 0.5) < 0.05

    def test_determinism_by_seed(self):
        a = ZipfWorkload("z", FOOT, seed=9).generate(500)
        b = ZipfWorkload("z", FOOT, seed=9).generate(500)
        assert (a.addrs == b.addrs).all()
        c = ZipfWorkload("z", FOOT, seed=10).generate(500)
        assert not (a.addrs == c.addrs).all()


class TestBlockFootprint:
    def test_persistent(self):
        a = block_footprint(42, 32, 0.5, seed=1)
        b = block_footprint(42, 32, 0.5, seed=1)
        assert (a == b).all()

    def test_coverage_controls_size(self):
        small = block_footprint(7, 32, 0.25, seed=1)
        large = block_footprint(7, 32, 0.75, seed=1)
        assert len(small) < len(large)
        assert len(large) <= 32

    def test_lines_in_range(self):
        fp = block_footprint(3, 8, 0.5, seed=2)
        assert ((fp >= 0) & (fp < 8)).all()


def reference_episode_addrs(
    gen, n_accesses, blocks, theta, coverage, active=24, revisit=1.75, log=None
):
    """The per-access episode walk that ``_episode_addrs`` batches.

    One scalar ``rng.integers(0, active)`` per access, numpy footprints
    and a fresh walk per episode. ``log`` (a dict) collects the access
    indices at which episodes ended and the number of pool refills.
    """
    rng = gen.rng
    g = gen.geometry
    lines_per_block = g.block_size // 64
    blocks_per_super = g.super_block_blocks
    supers = max(1, blocks // blocks_per_super)
    perm_stride = 2654435761 % supers or 1
    pool = _zipf_ranks(rng, supers, max(1024, n_accesses // 8), theta)
    pool_pos = 0
    log = {} if log is None else log
    log.update(ends=[], refills=0)

    def new_episode():
        nonlocal pool_pos, pool
        if pool_pos >= len(pool):
            pool = _zipf_ranks(rng, supers, len(pool), theta)
            pool_pos = 0
            log["refills"] += 1
        super_id = (int(pool[pool_pos]) * perm_stride) % supers
        pool_pos += 1
        h = (super_id * 0x9E3779B97F4A7C15 + gen.seed) & ((1 << 64) - 1)
        n_blocks = 2 + (h >> 17) % 4
        base = super_id * blocks_per_super
        hot_blocks = sorted(
            {base + ((h >> (5 * i)) % blocks_per_super) for i in range(n_blocks)}
        )
        walk = []
        for block in hot_blocks:
            footprint = block_footprint(block, lines_per_block, coverage, gen.seed)
            walk.extend(block * lines_per_block + line for line in footprint)
        walk = np.asarray(walk, dtype=np.int64)
        length = max(2, int(rng.integers(1, int(len(walk) * revisit * 2))))
        return [walk, int(rng.integers(0, len(walk))), length]

    episodes = [new_episode() for _ in range(active)]
    addrs = np.empty(n_accesses, dtype=np.uint64)
    for i in range(n_accesses):
        slot = int(rng.integers(0, active))
        walk, pos, remaining = episodes[slot]
        addrs[i] = int(walk[pos % len(walk)]) * 64
        episodes[slot][1:] = [pos + 1, remaining - 1]
        if remaining - 1 <= 0:
            log["ends"].append(i)
            episodes[slot] = new_episode()
    return addrs


def unrewound_batch_ends(ends, n_accesses):
    """Episode ends that fall on a full batch's last draw (no rewind).

    Batches start at 0, after every episode end and after every full
    batch of ``EPISODE_BATCH`` draws.
    """
    hits, start = [], 0
    for end in ends:
        while end - start >= EPISODE_BATCH:
            start += EPISODE_BATCH
        if end - start == EPISODE_BATCH - 1:
            hits.append(end)
        start = end + 1
    return [end for end in hits if end < n_accesses - 1]


def walk_pair(seed, n, blocks, theta, coverage, active):
    batched = ZipfWorkload("z", FOOT, seed=seed)
    reference = ZipfWorkload("z", FOOT, seed=seed)
    log = {}
    got = batched._episode_addrs(n, blocks, theta, coverage, active)
    want = reference_episode_addrs(
        reference, n, blocks, theta, coverage, active, log=log
    )
    return batched, reference, got, want, log


class TestBatchedEpisodeWalk:
    """``_episode_addrs`` draws its choices in batches and rewinds at
    episode ends; it must match the per-access loop draw for draw."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(0, 1500),
        blocks=st.integers(1, 4096),
        theta=st.floats(0.0, 1.5),
        coverage=st.floats(0.02, 1.0),
        active=st.integers(1, 40),
    )
    @example(seed=1, n=256, blocks=512, theta=0.9, coverage=0.45, active=24)
    @example(seed=3, n=600, blocks=8, theta=0.5, coverage=1.0, active=1)
    def test_matches_per_access_loop(self, seed, n, blocks, theta, coverage, active):
        batched, reference, got, want, _ = walk_pair(
            seed, n, blocks, theta, coverage, active
        )
        assert want.dtype == np.uint64
        assert got == want.tolist()
        assert batched.rng.bit_generator.state == reference.rng.bit_generator.state
        # Later draws on the same generator stay in step too.
        assert batched.rng.random(4).tolist() == reference.rng.random(4).tolist()

    def test_episode_ending_on_a_batch_last_draw(self):
        """An episode that ends on a full batch's last draw takes no
        rewind: the next batch starts from the replacement's draws."""
        _, _, got, want, log = walk_pair(15, 3000, 512, 0.9, 0.45, 2)
        assert unrewound_batch_ends(log["ends"], 3000) == [1152]
        assert got == want.tolist()

    def test_pool_refill_inside_a_rewound_batch(self):
        """Short episodes exhaust the Zipf pool; the refill's draws must
        land where the per-access loop makes them."""
        batched, reference, got, want, log = walk_pair(5, 12_000, 4096, 0.9, 0.02, 24)
        assert log["refills"] >= 1
        assert got == want.tolist()
        assert batched.rng.bit_generator.state == reference.rng.bit_generator.state


class TestSpecProxies:
    @pytest.mark.parametrize("bench_name", sorted(SPEC_PARAMS))
    def test_each_generates(self, bench_name):
        trace = SpecProxyWorkload(bench_name, FOOT, seed=3).generate(3000)
        basic_checks(trace, 3000, FOOT)
        expected = SPEC_PARAMS[bench_name]["write_fraction"]
        assert abs(trace.write_fraction - expected) < 0.07
        assert trace.default_profile == SPEC_PARAMS[bench_name]["profile"]

    def test_unknown_benchmark(self):
        with pytest.raises(ConfigurationError):
            SpecProxyWorkload("999.nope", FOOT)

    def test_lbm_write_heavy(self):
        trace = SpecProxyWorkload("519.lbm_r", FOOT, seed=1).generate(2000)
        assert trace.write_fraction > 0.4


class TestGraphWorkload:
    def test_generates_and_names(self):
        trace = GraphWorkload("pr", "twitter", FOOT, seed=1).generate(3000)
        basic_checks(trace, 3000, FOOT)
        assert trace.name == "pr.twi"

    def test_cc_writes_more_than_pr(self):
        pr = GraphWorkload("pr", "twitter", FOOT, seed=1).generate(4000)
        cc = GraphWorkload("cc", "twitter", FOOT, seed=1).generate(4000)
        assert cc.write_fraction > pr.write_fraction

    def test_web_graph_more_local_than_twitter(self):
        """web-sk edges stay near the source; twitter gathers hubs."""
        def rank_spread(graph):
            trace = GraphWorkload("pr", graph, FOOT, seed=2).generate(6000)
            rank_limit = FOOT // 4
            ranks = trace.addrs[trace.addrs < rank_limit]
            return len(np.unique(ranks // 2048))

        assert rank_spread("web") != 0
        assert rank_spread("twitter") >= rank_spread("web") * 0.5

    def test_regions_attached(self):
        trace = GraphWorkload("pr", "twitter", FOOT, seed=1).generate(1000)
        assert len(trace.regions) == 2
        oracle = SyntheticCompressibility()
        trace.apply_compressibility(oracle)
        assert oracle.profile_of(0).name == "high"

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            GraphWorkload("bfs", "twitter", FOOT)
        with pytest.raises(ConfigurationError):
            GraphWorkload("pr", "roadnet", FOOT)


class TestDnnWorkload:
    @pytest.mark.parametrize("model", ["resnet50", "resnext50"])
    def test_generates(self, model):
        trace = DnnInferenceWorkload(model, FOOT, seed=1).generate(3000)
        basic_checks(trace, 3000, FOOT)

    def test_weights_reread_across_layers(self):
        gen = DnnInferenceWorkload("resnet50", FOOT, seed=1)
        trace = gen.generate(8000)
        weight_accesses = trace.addrs[trace.addrs < gen.weight_bytes]
        assert len(weight_accesses) > len(trace) // 3

    def test_activation_region_zero_heavy(self):
        trace = DnnInferenceWorkload("resnet50", FOOT, seed=1).generate(500)
        profiles = {name for _, _, name in trace.regions}
        assert "zero_heavy" in profiles

    def test_unknown_model(self):
        with pytest.raises(ConfigurationError):
            DnnInferenceWorkload("vgg", FOOT)


class TestYcsb:
    def test_write_mix_a_vs_b(self):
        a = YcsbWorkload("A", FOOT, seed=1).generate(5000)
        b = YcsbWorkload("B", FOOT, seed=1).generate(5000)
        assert a.write_fraction > 0.3
        assert b.write_fraction < 0.1

    def test_records_read_sequentially(self):
        trace = YcsbWorkload("B", FOOT, seed=1).generate(2000)
        gen = YcsbWorkload("B", FOOT, seed=1)
        in_values = trace.addrs[trace.addrs >= gen.index_bytes]
        deltas = np.diff(in_values[:17].astype(np.int64))
        assert (deltas[deltas > 0] == 64).any()

    def test_zipf_hot_records(self):
        gen = YcsbWorkload("B", FOOT, seed=1)
        trace = gen.generate(8000)
        values = trace.addrs[trace.addrs >= gen.index_bytes]
        recs, counts = np.unique((values - gen.index_bytes) // 1024, return_counts=True)
        top = np.sort(counts)[::-1]
        assert top[: max(1, len(top) // 20)].sum() > 0.2 * counts.sum()

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            YcsbWorkload("D", FOOT)

    def test_ycsb_c_is_read_only(self):
        trace = YcsbWorkload("C", FOOT, seed=1).generate(2000)
        assert trace.write_fraction == 0.0


class TestRegistry:
    def test_all_registered_workloads_build(self):
        for name in WORKLOADS:
            trace = build_workload(name, 4 * MB, n_accesses=800, seed=2)
            assert len(trace) > 0
            assert trace.footprint_bytes >= 4 * MB

    def test_footprint_scales_with_fast_capacity(self):
        small = build_workload("YCSB-A", 4 * MB, n_accesses=100)
        large = build_workload("YCSB-A", 8 * MB, n_accesses=100)
        assert large.footprint_bytes == 2 * small.footprint_bytes

    def test_unknown_workload(self):
        with pytest.raises(ConfigurationError):
            build_workload("nonexistent", 4 * MB)

    def test_trace_slice(self):
        trace = build_workload("YCSB-B", 4 * MB, n_accesses=1000)
        part = trace.slice(10, 20)
        assert len(part) == 10
        assert part.addrs[0] == trace.addrs[10]
