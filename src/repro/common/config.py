"""Configuration dataclasses mirroring the paper's Table I.

The defaults reproduce the exact system the paper simulates:

* 16 x86 cores at 3.2 GHz with a 32 kB L1I / 64 kB L1D / 1 MB L2 per core
  and a shared 16 MB LLC;
* 4 GB DDR4-3200 fast memory and 32 GB NVM slow memory (1:8 ratio);
* 2 kB blocks, 256 B sub-blocks, 16 kB (8-block) super-blocks;
* a 64 MB stage area organized as 8192 sets x 4 ways;
* a 32 kB remap cache (256 sets x 8 ways, 8 entries per line);
* FPC/BDI compression with CF in {1, 2, 4} and 5-cycle decompression.

Everything is a frozen dataclass: configurations are values, shared freely
between the controller, the devices and the benchmark harness without risk
of aliasing bugs.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Tuple

from repro.common.errors import ConfigurationError

KB = 1024
MB = 1024 * KB
GB = 1024 * MB

#: Compression factors supported by Baryon's metadata encoding (Sec. III-B).
SUPPORTED_CFS: Tuple[int, ...] = (1, 2, 4)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigurationError(message)


def _is_pow2(value: int) -> bool:
    return value > 0 and (value & (value - 1)) == 0


@dataclass(frozen=True)
class Geometry:
    """Data-unit sizes and the derived address arithmetic.

    The four granularities form a strict power-of-two hierarchy:
    ``cacheline_size <= sub_block_size <= block_size <= super_block_size``.
    All address helpers are pure integer math on byte addresses.
    """

    cacheline_size: int = 64
    sub_block_size: int = 256
    block_size: int = 2 * KB
    super_block_blocks: int = 8

    def __post_init__(self) -> None:
        for name in ("cacheline_size", "sub_block_size", "block_size"):
            _require(_is_pow2(getattr(self, name)), f"{name} must be a power of two")
        _require(_is_pow2(self.super_block_blocks), "super_block_blocks must be a power of two")
        _require(
            self.cacheline_size <= self.sub_block_size <= self.block_size,
            "sizes must satisfy cacheline <= sub-block <= block",
        )
        _require(
            self.block_size % self.sub_block_size == 0,
            "block_size must be a multiple of sub_block_size",
        )

    # -- derived sizes -------------------------------------------------
    @property
    def super_block_size(self) -> int:
        """Bytes in one super-block (16 kB by default)."""
        return self.block_size * self.super_block_blocks

    @property
    def sub_blocks_per_block(self) -> int:
        """Sub-blocks per block (eight by default)."""
        return self.block_size // self.sub_block_size

    @property
    def cachelines_per_sub_block(self) -> int:
        return self.sub_block_size // self.cacheline_size

    @property
    def cachelines_per_block(self) -> int:
        return self.block_size // self.cacheline_size

    # -- address decomposition -----------------------------------------
    def block_id(self, addr: int) -> int:
        """Global block number of a byte address."""
        return addr // self.block_size

    def super_block_id(self, addr: int) -> int:
        """Global super-block number of a byte address."""
        return addr // self.super_block_size

    def block_offset_in_super(self, addr: int) -> int:
        """BlkOff: index of the block within its super-block (0..7)."""
        return (addr // self.block_size) % self.super_block_blocks

    def sub_block_index(self, addr: int) -> int:
        """SubOff: index of the sub-block within its block (0..7)."""
        return (addr % self.block_size) // self.sub_block_size

    def cacheline_index_in_sub_block(self, addr: int) -> int:
        return (addr % self.sub_block_size) // self.cacheline_size

    def block_base(self, addr: int) -> int:
        """Byte address of the start of the enclosing block."""
        return addr - (addr % self.block_size)

    def sub_block_base(self, addr: int) -> int:
        return addr - (addr % self.sub_block_size)

    def cacheline_base(self, addr: int) -> int:
        return addr - (addr % self.cacheline_size)

    def super_block_base(self, addr: int) -> int:
        return addr - (addr % self.super_block_size)

    def sub_block_addr(self, block_id: int, sub_index: int) -> int:
        """Byte address of sub-block ``sub_index`` of global ``block_id``."""
        return block_id * self.block_size + sub_index * self.sub_block_size

    def aligned_range(self, sub_index: int, cf: int) -> Tuple[int, int]:
        """Return ``(start, length)`` of the CF-aligned sub-block range.

        Rule 2 of the paper: a range compressed with factor ``cf`` spans
        ``cf`` contiguous sub-blocks aligned to a multiple of ``cf``.
        """
        if cf not in SUPPORTED_CFS:
            raise ConfigurationError(f"unsupported compression factor {cf}")
        start = (sub_index // cf) * cf
        return start, cf


def default_geometry() -> Geometry:
    """The paper's default geometry: 64 B / 256 B / 2 kB / 16 kB."""
    return Geometry()


@dataclass(frozen=True)
class CacheGeometry:
    """One level of the SRAM cache hierarchy (Table I rows L1I..LLC);
    every level is LRU."""

    name: str
    size_bytes: int
    ways: int
    line_size: int = 64
    latency_cycles: int = 1

    def __post_init__(self) -> None:
        _require(self.size_bytes > 0 and self.ways > 0, "cache size/ways must be positive")
        _require(
            self.size_bytes % (self.ways * self.line_size) == 0,
            f"{self.name}: size must be a multiple of ways*line_size",
        )

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.ways * self.line_size)


@dataclass(frozen=True)
class HierarchyConfig:
    """Table I processor-side configuration."""

    cores: int = 16
    l1d: CacheGeometry = field(
        default_factory=lambda: CacheGeometry("L1D", 64 * KB, 8, latency_cycles=4)
    )
    l2: CacheGeometry = field(
        default_factory=lambda: CacheGeometry("L2", 1 * MB, 8, latency_cycles=9)
    )
    llc: CacheGeometry = field(
        default_factory=lambda: CacheGeometry("LLC", 16 * MB, 16, latency_cycles=38)
    )

    def __post_init__(self) -> None:
        _require(self.cores > 0, "cores must be positive")


@dataclass(frozen=True)
class MemoryTimings:
    """Device latency/bandwidth/energy, from Table I.

    Latencies are in controller clock cycles at ``frequency_ghz``; energy in
    picojoules. The NVM numbers (76.92 ns read, 230.77 ns write) and DDR4
    RCD-CAS-RP 22-22-22 timings translate to the defaults below at 3.2 GHz.
    """

    frequency_ghz: float = 3.2
    # Fast memory: DDR4-3200, 4 channels x 2 ranks x 16 banks.
    fast_channels: int = 4
    fast_read_latency_cycles: int = 44  # ~tRCD+tCAS at 3.2 GHz core clock
    fast_write_latency_cycles: int = 44
    fast_channel_bw_gbps: float = 25.6  # DDR4-3200 per channel
    fast_read_pj_per_bit: float = 5.0
    fast_write_pj_per_bit: float = 5.0
    fast_act_pre_pj: float = 535.8
    # Slow memory: NVM, 1333 MHz, 4 channels x 1 rank x 8 banks.
    slow_channels: int = 4
    slow_read_latency_cycles: int = 246  # 76.92 ns at 3.2 GHz
    slow_write_latency_cycles: int = 738  # 230.77 ns at 3.2 GHz
    slow_channel_bw_gbps: float = 10.66
    slow_read_pj_per_bit: float = 14.0
    slow_write_pj_per_bit: float = 21.0

    def __post_init__(self) -> None:
        _require(self.fast_channels > 0 and self.slow_channels > 0, "channels must be positive")
        _require(
            self.fast_read_latency_cycles < self.slow_read_latency_cycles,
            "fast memory must be faster than slow memory",
        )

    def fast_cycles_per_byte(self) -> float:
        """Channel occupancy per transferred byte, in core cycles."""
        bytes_per_ns = self.fast_channel_bw_gbps / 8.0
        return self.frequency_ghz / bytes_per_ns / 1.0

    def slow_cycles_per_byte(self) -> float:
        bytes_per_ns = self.slow_channel_bw_gbps / 8.0
        return self.frequency_ghz / bytes_per_ns / 1.0


@dataclass(frozen=True)
class HybridLayout:
    """Capacities and associativity of the hybrid memory (Sec. III-A).

    The hybrid memory is set-associative: each set has ``associativity``
    fast blocks and ``slow_blocks_per_set`` slow blocks (fast:slow capacity
    ratio 1:8 by default). ``flat_fraction`` statically partitions the fast
    memory between the OS-invisible cache area and the OS-visible flat area.
    ``fully_associative`` models Baryon-FA / Hybrid2-style organizations.
    """

    fast_capacity: int = 4 * GB
    slow_capacity: int = 32 * GB
    associativity: int = 4
    flat_fraction: float = 0.0
    fully_associative: bool = False

    def __post_init__(self) -> None:
        _require(self.fast_capacity > 0 and self.slow_capacity > 0, "capacities must be positive")
        _require(
            self.slow_capacity % self.fast_capacity == 0,
            "slow capacity must be a multiple of fast capacity",
        )
        _require(self.associativity >= 1, "associativity must be >= 1")
        _require(0.0 <= self.flat_fraction <= 1.0, "flat_fraction must be in [0, 1]")

    @property
    def capacity_ratio(self) -> int:
        """Slow blocks per fast block (8 by default)."""
        return self.slow_capacity // self.fast_capacity

    def num_sets(self, geometry: Geometry) -> int:
        """Number of hybrid sets given the block size."""
        fast_blocks = self.fast_capacity // geometry.block_size
        if self.fully_associative:
            return 1
        return fast_blocks // self.associativity

    def slow_blocks_per_set(self, geometry: Geometry) -> int:
        return self.num_sets_assoc(geometry)[1] * self.capacity_ratio

    def num_sets_assoc(self, geometry: Geometry) -> Tuple[int, int]:
        """Return ``(num_sets, fast_ways)`` handling the FA case."""
        fast_blocks = self.fast_capacity // geometry.block_size
        if self.fully_associative:
            return 1, fast_blocks
        return fast_blocks // self.associativity, self.associativity


@dataclass(frozen=True)
class StageConfig:
    """Stage area + stage tag array configuration (Sec. III-B).

    Default 64 MB = 8192 sets x 4 ways x 2 kB blocks, matching the paper.
    ``enabled=False`` models the no-stage ablation of Fig. 13(c), where
    every insertion pays the layout re-sort penalty.
    """

    size_bytes: int = 64 * MB
    ways: int = 4
    enabled: bool = True
    tag_latency_cycles: int = 5
    miss_counter_bits: int = 16
    aging_period_accesses: int = 10_000

    def __post_init__(self) -> None:
        _require(self.size_bytes > 0, "stage size must be positive")
        _require(self.ways >= 1, "stage ways must be >= 1")

    def num_sets(self, geometry: Geometry) -> int:
        blocks = self.size_bytes // geometry.block_size
        _require(blocks % self.ways == 0, "stage blocks must divide evenly into ways")
        return blocks // self.ways

    def miss_counter_max(self) -> int:
        return (1 << self.miss_counter_bits) - 1


@dataclass(frozen=True)
class RemapCacheConfig:
    """On-chip remap cache: 32 kB, 256 sets x 8 ways, 8 entries/line."""

    num_sets: int = 256
    ways: int = 8
    entries_per_line: int = 8
    latency_cycles: int = 3

    def size_bytes(self, entry_bytes: int = 2, tag_bytes: int = 4) -> int:
        """Total SRAM bytes (data + tags)."""
        line = self.entries_per_line * entry_bytes + tag_bytes
        return self.num_sets * self.ways * line


@dataclass(frozen=True)
class CompressionConfig:
    """Compression engine configuration (Sec. III-B / III-E)."""

    algorithms: Tuple[str, ...] = ("fpc", "bdi")
    decompression_latency_cycles: int = 5
    cacheline_aligned: bool = True
    zero_block_support: bool = True

    def __post_init__(self) -> None:
        _require(len(self.algorithms) > 0, "at least one compression algorithm required")
        _require(self.decompression_latency_cycles >= 0, "latency must be non-negative")


@dataclass(frozen=True)
class CommitConfig:
    """Selective commit policy (Eq. 1). ``k = math.inf`` drops the
    write-cost term: the stability-only policy of Fig. 13d."""

    k: float = 4.0
    commit_all: bool = False

    def __post_init__(self) -> None:
        # NaN fails ``k >= 0`` as well.
        _require(
            isinstance(self.k, (int, float)) and self.k >= 0,
            f"commit k must be a non-negative number or math.inf, got {self.k!r}",
        )


@dataclass(frozen=True)
class ResilienceConfig:
    """Fault-injection and recovery knobs (see docs/resilience.md).

    ``enabled`` turns the deterministic fault injector on; every ``p_*``
    is a per-draw probability evaluated from a counter-based hash of
    ``fault_seed``, so a given configuration injects the exact same fault
    sequence on every run. ``check_invariants`` runs the shadow-memory
    invariant checker (R1-R4 + metadata round-trip on every commit) even
    when injection is off; it is mandatory when remap-table corruption is
    injected because the checker is the only component that can detect
    and repair it — without it the corruption would be a silent wrong
    result, which the resilience layer exists to rule out.
    """

    enabled: bool = False
    fault_seed: int = 0xBA51C
    #: Transient device faults: a read attempt fails (retryable) or a
    #: writeback is dropped before reaching the medium (retryable).
    p_read_transient: float = 0.0
    p_write_drop: float = 0.0
    #: Metadata bit corruption: a remap-cache line, a stage tag entry, or
    #: an off-chip remap-table entry reads back corrupted.
    p_remap_corruption: float = 0.0
    p_stage_tag_corruption: float = 0.0
    p_table_corruption: float = 0.0
    #: Slow-memory latency spikes (media maintenance, wear leveling):
    #: adds ``latency_spike_cycles`` to an affected read's array latency.
    p_latency_spike: float = 0.0
    latency_spike_cycles: int = 500
    #: Bounded retry with exponential backoff for transient faults:
    #: attempt ``i`` adds ``backoff_base_cycles * 2**i`` latency; after
    #: ``max_retries`` retries the block is quarantined.
    max_retries: int = 3
    backoff_base_cycles: int = 16
    #: Run the shadow-memory invariant checker continuously.
    check_invariants: bool = False

    def __post_init__(self) -> None:
        for name in (
            "p_read_transient", "p_write_drop", "p_remap_corruption",
            "p_stage_tag_corruption", "p_table_corruption",
            "p_latency_spike",
        ):
            value = getattr(self, name)
            _require(0.0 <= value <= 1.0, f"{name} must be in [0, 1]")
        _require(self.max_retries >= 0, "max_retries must be non-negative")
        _require(self.backoff_base_cycles >= 0, "backoff_base_cycles must be non-negative")
        _require(self.latency_spike_cycles >= 0, "latency_spike_cycles must be non-negative")
        _require(
            not (self.p_table_corruption > 0.0 and not self.check_invariants),
            "p_table_corruption requires check_invariants=True: only the "
            "shadow checker can detect and repair remap-table corruption",
        )

    def any_faults(self) -> bool:
        """True when at least one fault kind has a non-zero probability."""
        return any(
            getattr(self, name) > 0.0
            for name in (
                "p_read_transient", "p_write_drop", "p_remap_corruption",
                "p_stage_tag_corruption", "p_table_corruption",
                "p_latency_spike",
            )
        )


@dataclass(frozen=True)
class BaryonConfig:
    """Top-level Baryon configuration bundling every subsystem.

    Use :meth:`cache_mode` / :meth:`flat_mode` / :meth:`fully_associative`
    for the paper's three headline variants, and ``dataclasses.replace``
    for ablations.
    """

    geometry: Geometry = field(default_factory=Geometry)
    layout: HybridLayout = field(default_factory=HybridLayout)
    stage: StageConfig = field(default_factory=StageConfig)
    remap_cache: RemapCacheConfig = field(default_factory=RemapCacheConfig)
    compression: CompressionConfig = field(default_factory=CompressionConfig)
    commit: CommitConfig = field(default_factory=CommitConfig)
    timings: MemoryTimings = field(default_factory=MemoryTimings)
    #: Keep evicted data compressed in slow memory (Sec. III-F optimization).
    compressed_writeback: bool = True
    #: Allow block-level replacements in the stage area (Fig. 13a ablation).
    two_level_replacement: bool = True
    #: Disable to model compression-free designs (Hybrid2) on the same
    #: machinery: every range has CF 1 and the Z bit never fires.
    compression_enabled: bool = True
    #: Disable to forbid sub-blocks of different blocks sharing a physical
    #: block (traditional sub-blocking, e.g. Hybrid2/SILC-FM/Footprint).
    share_physical_blocks: bool = True
    #: Fast-to-slow eviction policy for the committed area: "auto" picks
    #: the paper's choices (LRU for low-associative, FIFO for fully-
    #: associative); "lru" or "fifo" overrides it on a set-associative
    #: layout. Sec. III-E's LFU, CLOCK and random are not modelled, and
    #: the fully-associative area always evicts through its FIFO pointer.
    fast_replacement: str = "auto"
    #: Fault-injection / recovery / invariant-checking configuration
    #: (None keeps the resilience layer completely out of the hot path).
    resilience: "ResilienceConfig | None" = None

    def __post_init__(self) -> None:
        _require(
            self.fast_replacement in ("auto", "lru", "fifo"),
            "fast_replacement must be 'auto', 'lru' or 'fifo', not "
            f"{self.fast_replacement!r}",
        )
        _require(
            not (self.layout.fully_associative and self.fast_replacement == "lru"),
            "fast_replacement 'lru' needs a set-associative layout: the "
            "fully-associative fast area evicts through a FIFO pointer",
        )

    @staticmethod
    def cache_mode(**overrides) -> "BaryonConfig":
        """Low-associative cache scheme: all fast memory is a cache."""
        cfg = BaryonConfig()
        layout = dataclasses.replace(cfg.layout, flat_fraction=0.0, fully_associative=False)
        return dataclasses.replace(cfg, layout=layout, **overrides)

    @staticmethod
    def flat_mode(flat_fraction: float = 1.0, **overrides) -> "BaryonConfig":
        """Flat scheme: fast memory is OS-visible; data migrate by swapping."""
        cfg = BaryonConfig()
        layout = dataclasses.replace(cfg.layout, flat_fraction=flat_fraction)
        return dataclasses.replace(cfg, layout=layout, **overrides)

    @staticmethod
    def fully_associative(flat_fraction: float = 1.0, **overrides) -> "BaryonConfig":
        """Baryon-FA: fully-associative flat organization (Fig. 10)."""
        cfg = BaryonConfig.flat_mode(flat_fraction)
        layout = dataclasses.replace(cfg.layout, fully_associative=True)
        return dataclasses.replace(cfg, layout=layout, **overrides)

    def with_sub_block_size(self, sub_block_size: int) -> "BaryonConfig":
        """Baryon-64B and other sub-block granularity variants (Fig. 9)."""
        geometry = dataclasses.replace(self.geometry, sub_block_size=sub_block_size)
        return dataclasses.replace(self, geometry=geometry)

    def stage_tag_entry_bits(self) -> int:
        """Bits per stage tag entry (paper: 108 bits, 14 B; Fig. 5a)."""
        tag_bits = 21
        valid = 1
        slot_bits = 8 * self.geometry.sub_blocks_per_block
        lru = 3
        fifo = 3
        miss_cnt = self.stage.miss_counter_bits
        return tag_bits + valid + slot_bits + lru + fifo + miss_cnt

    def stage_tag_array_bytes(self) -> int:
        """Total on-chip stage tag array size (paper: 448 kB)."""
        blocks = self.stage.size_bytes // self.geometry.block_size
        return blocks * ((self.stage_tag_entry_bits() + 7) // 8)

    def remap_table_bytes(self) -> int:
        """Off-chip remap table size: 2 B per block over the full space."""
        total = self.layout.fast_capacity + self.layout.slow_capacity
        return (total // self.geometry.block_size) * 2


@dataclass(frozen=True)
class SimulationConfig:
    """Knobs of the trace-driven system simulator (`repro.sim`).

    The trace interleaves the accesses of all cores (rate-mode SPEC runs
    16 copies), so wall-clock time advances by each access's instruction
    gap divided by the core count, and a demand read's latency is charged
    divided by ``memory_level_parallelism`` — the aggregate overlap from
    out-of-order execution plus cross-thread concurrency. Queueing delays
    inside the device models are *not* diluted: when offered load exceeds
    channel bandwidth the queue grows without bound, which is exactly how
    bandwidth bloat turns into lost IPC on the real system.
    """

    hierarchy: HierarchyConfig = field(default_factory=HierarchyConfig)
    base_cpi: float = 0.45
    memory_level_parallelism: float = 8.0
    warmup_fraction: float = 0.1
    seed: int = 1

    def __post_init__(self) -> None:
        _require(self.base_cpi > 0, "base_cpi must be positive")
        _require(self.memory_level_parallelism >= 1.0, "MLP must be >= 1")
        _require(0.0 <= self.warmup_fraction < 1.0, "warmup fraction must be in [0, 1)")
