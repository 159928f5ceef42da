"""Micro-kernel workloads: the controlled building blocks.

These five generators isolate single memory behaviours (streaming, uniform
random, Zipfian hot sets, pointer chasing, stencils) and are used by unit
tests, examples and as components of the SPEC/GAP/DNN/YCSB proxies.
"""

from __future__ import annotations

import numpy as np

from repro.workloads.base import Trace, TraceGenerator


def _zipf_ranks(rng: np.random.Generator, n: int, count: int, theta: float) -> np.ndarray:
    """Draw ``count`` ranks in [0, n) with a Zipf(theta) popularity skew.

    Uses the standard inverse-CDF approximation over a precomputed
    normalization, the same method YCSB's ScrambledZipfian uses.
    """
    ranks = np.arange(1, n + 1, dtype=np.float64)
    weights = 1.0 / np.power(ranks, theta)
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    draws = rng.random(count)
    return np.searchsorted(cdf, draws).astype(np.int64)


class StreamWorkload(TraceGenerator):
    """Sequential sweep over the footprint (STREAM-like, lbm-like)."""

    def __init__(self, *args, write_fraction: float = 0.3, stride: int = 64, **kwargs):
        super().__init__(*args, **kwargs)
        self.write_fraction = write_fraction
        self.stride = stride

    def generate(self, n_accesses: int) -> Trace:
        lines = self.footprint_bytes // self.stride
        idx = (np.arange(n_accesses, dtype=np.int64) % lines) * self.stride
        writes = self.rng.random(n_accesses) < self.write_fraction
        return Trace(
            name=self.name,
            addrs=idx.astype(np.uint64),
            writes=writes,
            igaps=self.rng.integers(2, 12, n_accesses, dtype=np.uint32),
            cores=(np.arange(n_accesses) % self.cores).astype(np.uint16),
            footprint_bytes=self.footprint_bytes,
            default_profile="medium",
        )


class RandomWorkload(TraceGenerator):
    """Uniform random 64 B accesses: the locality worst case."""

    def __init__(self, *args, write_fraction: float = 0.2, **kwargs):
        super().__init__(*args, **kwargs)
        self.write_fraction = write_fraction

    def generate(self, n_accesses: int) -> Trace:
        lines = self.footprint_bytes // 64
        idx = self.rng.integers(0, lines, n_accesses, dtype=np.int64) * 64
        writes = self.rng.random(n_accesses) < self.write_fraction
        return Trace(
            name=self.name,
            addrs=idx.astype(np.uint64),
            writes=writes,
            igaps=self.rng.integers(5, 30, n_accesses, dtype=np.uint32),
            cores=self.rng.integers(0, self.cores, n_accesses).astype(np.uint16),
            footprint_bytes=self.footprint_bytes,
            default_profile="medium",
        )


def block_footprint(
    block: int, lines_per_block: int, coverage: float, seed: int
) -> np.ndarray:
    """The *persistent* hot-line footprint of a block.

    Real programs touch a stable subset of each page across its residency
    generations — the premise of footprint caches and of Baryon's layout-
    stabilization insight. We derive a contiguous (wrapping) run of
    ``coverage * lines_per_block`` lines from a per-block hash, so the
    same block always exposes the same footprint.
    """
    h = (block * 0x9E3779B97F4A7C15 + seed * 0xBF58476D1CE4E5B9) & ((1 << 64) - 1)
    h ^= h >> 31
    start = h % lines_per_block
    length = max(1, int(round(lines_per_block * coverage)))
    # Mild per-block size variation (+/- 25%).
    length = max(1, min(lines_per_block, length + (h >> 8) % 3 - 1))
    return (start + np.arange(length)) % lines_per_block


#: Episode choices ``_episode_addrs`` draws per ``rng.integers`` call.
EPISODE_BATCH = 256


class EpisodeMixin:
    """Shared episode-interleaving machinery for hot-block generators.

    Maintains ``active`` concurrent episodes (mimicking the interleaved
    streams of 16 cores); each step advances a random episode one access.
    Episode length exceeds the footprint size so lines repeat — the
    within-residency reuse that makes caching worthwhile.

    Popularity is drawn at *super-block* (16 kB) granularity and each
    episode touches the persistent footprints of several blocks of that
    super-block: real hot regions (heap arenas, array tiles) are larger
    than one 2 kB block, which is exactly the spatial structure that lets
    sub-blocked designs share one physical block across neighbours
    (Baryon's Rule 1, Unison's page footprints).
    """

    def _episode_addrs(
        self,
        n_accesses: int,
        blocks: int,
        theta: float,
        coverage: float,
        active: int = 24,
        revisit: float = 1.75,
    ) -> list:
        """``n_accesses`` byte addresses of ``active`` interleaved episodes.

        The stream is defined by one ``rng.integers(0, active)`` draw per
        access (which episode steps) with each ended episode's
        ``new_episode`` draws right after the draw that ended it. The
        choices are drawn ``EPISODE_BATCH`` at a time: on a ``Generator``
        k bounded draws in one call consume the bit generator exactly as
        k scalar calls do. When an episode ends before a batch's last
        choice, the bit generator is rewound to the batch start and only
        the choices up to the ending one are redrawn, so the replacement
        episode's draws land where the per-access order puts them.
        """
        rng = self.rng
        bit_generator = rng.bit_generator
        g = self.geometry
        seed = self.seed
        lines_per_block = g.block_size // 64
        blocks_per_super = g.super_block_blocks
        supers = max(1, blocks // blocks_per_super)
        perm_stride = 2654435761 % supers or 1
        pool = _zipf_ranks(rng, supers, max(1024, n_accesses // 8), theta).tolist()
        pool_pos = 0
        walks = {}

        def super_walk(super_id: int) -> list:
            """The byte addresses of a super-block's episode walk."""
            walk = walks.get(super_id)
            if walk is None:
                # A stable hot subset of the super-block's blocks (2-5 of
                # 8), derived from the super id so residency generations
                # repeat; the walk concatenates their line footprints.
                h = (super_id * 0x9E3779B97F4A7C15 + seed) & ((1 << 64) - 1)
                n_blocks = 2 + (h >> 17) % 4
                base = super_id * blocks_per_super
                hot_blocks = sorted(
                    {base + ((h >> (5 * i)) % blocks_per_super) for i in range(n_blocks)}
                )
                walk = walks[super_id] = [
                    (block * lines_per_block + line) * 64
                    for block in hot_blocks
                    for line in block_footprint(
                        block, lines_per_block, coverage, seed
                    ).tolist()
                ]
            return walk

        # Per-slot episode state: walk, next walk position, accesses left.
        ep_walk = [None] * active
        ep_pos = [0] * active
        ep_left = [0] * active

        def new_episode(slot: int) -> None:
            nonlocal pool_pos, pool
            if pool_pos >= len(pool):
                pool = _zipf_ranks(rng, supers, len(pool), theta).tolist()
                pool_pos = 0
            walk = super_walk((pool[pool_pos] * perm_stride) % supers)
            pool_pos += 1
            ep_walk[slot] = walk
            ep_left[slot] = max(2, int(rng.integers(1, int(len(walk) * revisit * 2))))
            ep_pos[slot] = int(rng.integers(0, len(walk)))

        for slot in range(active):
            new_episode(slot)
        addrs = []
        emit = addrs.append
        done = 0
        while done < n_accesses:
            count = min(EPISODE_BATCH, n_accesses - done)
            saved = bit_generator.state
            for j, slot in enumerate(rng.integers(0, active, size=count).tolist()):
                walk = ep_walk[slot]
                pos = ep_pos[slot]
                emit(walk[pos % len(walk)])
                ep_pos[slot] = pos + 1
                left = ep_left[slot] - 1
                ep_left[slot] = left
                if left <= 0:
                    if j < count - 1:
                        bit_generator.state = saved
                        rng.integers(0, active, size=j + 1)
                        count = j + 1
                    new_episode(slot)
                    break
            done += count
        return addrs


class ZipfWorkload(EpisodeMixin, TraceGenerator):
    """Zipf-skewed block popularity with episodic footprint locality."""

    def __init__(
        self,
        *args,
        write_fraction: float = 0.25,
        theta: float = 0.9,
        coverage: float = 0.45,
        active: int = 24,
        **kwargs,
    ):
        super().__init__(*args, **kwargs)
        self.write_fraction = write_fraction
        self.theta = theta
        self.coverage = coverage
        self.active = active

    def generate(self, n_accesses: int) -> Trace:
        blocks = max(1, self.footprint_bytes // self.geometry.block_size)
        addrs = np.asarray(
            self._episode_addrs(
                n_accesses, blocks, self.theta, self.coverage, self.active
            ),
            dtype=np.uint64,
        )
        writes = self.rng.random(n_accesses) < self.write_fraction
        return Trace(
            name=self.name,
            addrs=addrs,
            writes=writes,
            igaps=self.rng.integers(3, 20, n_accesses, dtype=np.uint32),
            cores=self.rng.integers(0, self.cores, n_accesses).astype(np.uint16),
            footprint_bytes=self.footprint_bytes,
            default_profile="medium",
        )


class PointerChaseWorkload(TraceGenerator):
    """Linked-list traversal: dependent random reads (mcf-like)."""

    def __init__(self, *args, node_bytes: int = 64, locality: float = 0.0, **kwargs):
        super().__init__(*args, **kwargs)
        self.node_bytes = node_bytes
        self.locality = locality

    def generate(self, n_accesses: int) -> Trace:
        nodes = max(2, self.footprint_bytes // self.node_bytes)
        # A random permutation cycle visits every node before repeating.
        order = self.rng.permutation(nodes)
        addrs = np.empty(n_accesses, dtype=np.uint64)
        pos = 0
        for i in range(n_accesses):
            node = int(order[pos % nodes])
            if self.locality and self.rng.random() < self.locality:
                # A short local detour: neighbouring node access.
                node = min(nodes - 1, node + int(self.rng.integers(1, 4)))
            addrs[i] = self._line(node * self.node_bytes)
            pos += 1
        writes = self.rng.random(n_accesses) < 0.1
        return Trace(
            name=self.name,
            addrs=addrs,
            writes=writes,
            igaps=self.rng.integers(8, 40, n_accesses, dtype=np.uint32),
            cores=self.rng.integers(0, self.cores, n_accesses).astype(np.uint16),
            footprint_bytes=self.footprint_bytes,
            default_profile="medium",
        )


class StencilWorkload(TraceGenerator):
    """2D 5-point stencil sweep: streaming with near reuse (lbm/fotonik)."""

    def __init__(self, *args, row_bytes: int = 1 << 16, write_fraction: float = 0.5, **kwargs):
        super().__init__(*args, **kwargs)
        self.row_bytes = row_bytes
        self.write_fraction = write_fraction

    def generate(self, n_accesses: int) -> Trace:
        rows = max(3, self.footprint_bytes // self.row_bytes)
        cols = self.row_bytes // 64
        addrs = []
        writes = []
        i = 0
        r, c = 1, 0
        while i < n_accesses:
            center = (r * cols + c) * 64
            for off in (0, -cols * 64, cols * 64, -64, 64):
                addr = center + off
                if 0 <= addr < self.footprint_bytes:
                    addrs.append(addr)
                    writes.append(False)
                    i += 1
            addrs.append(center)
            writes.append(True)
            i += 1
            c += 1
            if c >= cols:
                c = 0
                r = r + 1 if r + 1 < rows - 1 else 1
        n = len(addrs)
        return Trace(
            name=self.name,
            addrs=np.asarray(addrs, dtype=np.uint64),
            writes=np.asarray(writes, dtype=bool),
            igaps=self.rng.integers(1, 8, n, dtype=np.uint32),
            cores=(np.arange(n) % self.cores).astype(np.uint16),
            footprint_bytes=self.footprint_bytes,
            default_profile="medium",
        )
