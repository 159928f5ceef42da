"""The Baryon memory controller: access flow, staging, commit, swapping.

This is the paper's Section III end to end. One instance owns the hybrid
memory devices, the stage area with its tag array, the committed cache/flat
area, the dual-format metadata (remap table + remap cache) and the
compression oracle, and exposes a single entry point:

    result = controller.access(addr, is_write, now)

for every memory-level access (LLC demand miss or dirty writeback). The
five cases of Fig. 6 are implemented faithfully, including:

* slow-to-stage prefetching of the maximal compressible aligned range,
  with CF2/CF4 hints reused after compressed fast-to-slow writebacks;
* cacheline-aligned transfers: a demand access moves one 64 B chunk that
  decompresses into up to CF cachelines, installed into the LLC for free;
* two-level stage replacement (block LRU + sub-block FIFO) with the
  Fig. 8 heuristic and data-block regrouping on block-level moves;
* selective commits driven by the Eq. 1 cost model, with sorted-frozen
  committed layouts (Rule 4) and whole-block eviction on write overflow
  (unless the overflowing range is the last slot);
* the flat scheme's spread-swap of displaced home blocks and the
  three-way *slow swap* on eviction of committed data (Sec. III-F);
* the no-stage ablation (Fig. 13c), where every insertion pays the
  layout re-sort penalty directly in the committed area.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from repro.cache.replacement import CacheLine
from repro.common.config import BaryonConfig
from repro.common.errors import CorruptionError, SimulationError, TransientDeviceError
from repro.common.stats import CounterGroup
from repro.compression.synthetic import SyntheticCompressibility
from repro.core.commit import CommitPolicy
from repro.core.events import (
    CASE_COUNTER_KEYS,
    AccessCase,
    AccessResult,
)
from repro.core.fast_area import FastArea, FastBlockState
from repro.core.stage_area import StageArea
from repro.core.tracking import StagePhaseTracker
from repro.devices.memory import HybridMemoryDevices
from repro.metadata.remap import RemapEntry, RemapTable
from repro.metadata.remap_cache import RemapCache
from repro.metadata.stage_tag import RangeSlot, StageTagEntry
from repro.obs.tracer import NULL_TRACER

#: Sentinel for "caller did not resolve the staged-block binding" — distinct
#: from None, which means "resolved: the block is not staged".
_UNRESOLVED: Tuple[int, StageTagEntry] = object()  # type: ignore[assignment]


class _RecordingPool:
    """Channel-pool stand-in that logs transfer requests instead of
    scheduling them.

    The deferred serve closure swaps this in for the real pools while it
    runs :meth:`BaryonController._fetch_and_stage` eagerly (cases 3/5):
    every state decision in that tree is clock-free, so the captured
    ``(pool, nbytes, priority)`` sequence replays bit-identically at the
    op's exact clock inside :meth:`BaryonController.access_batch`. The
    zero return keeps callers' latency arithmetic inert — the real
    latency is recomputed from the replayed transfers.
    """

    __slots__ = ("pool_id", "log")

    def __init__(self, pool_id: int, log: list) -> None:
        self.pool_id = pool_id  # 1 = fast, 0 = slow
        self.log = log

    def transfer(self, now, nbytes, priority=False):
        if nbytes:
            self.log.append((self.pool_id, nbytes, priority))
        return (0.0, 0.0)


class BaryonController:
    """Hardware-transparent hybrid memory controller with compression and
    sub-blocking (the paper's primary contribution)."""

    def __init__(
        self,
        config: Optional[BaryonConfig] = None,
        devices: Optional[HybridMemoryDevices] = None,
        compressibility: Optional[SyntheticCompressibility] = None,
        tracker: Optional[StagePhaseTracker] = None,
        seed: int = 1,
        tracer=None,
        metrics=None,
    ) -> None:
        self.config = config or BaryonConfig()
        self.geometry = self.config.geometry
        self.devices = devices or HybridMemoryDevices(self.config.timings)
        if not self.config.compression_enabled:
            from repro.compression.synthetic import NullCompressibility

            self.oracle = NullCompressibility()
        else:
            self.oracle = compressibility or SyntheticCompressibility(seed=seed)
        self.tracker = tracker
        self.policy = CommitPolicy(self.config.commit)
        self.remap_table = RemapTable()
        self.remap_cache = RemapCache(
            num_sets=self.config.remap_cache.num_sets,
            ways=self.config.remap_cache.ways,
            entries_per_line=self.config.remap_cache.entries_per_line,
            latency_cycles=self.config.remap_cache.latency_cycles,
        )
        self.stage = StageArea(self.config.stage, self.geometry)
        self._rng = random.Random(seed)
        self._stats = CounterGroup("baryon")
        # Deferred per-access counters, folded into ``stats`` on read.
        self._n_accesses = 0
        self._n_reads = 0
        self._n_writes = 0
        self._n_served_fast = 0
        self._n_cases = [0] * len(AccessCase)
        # Cached geometry constants for the per-access address split.
        g = self.geometry
        self._g_block_size = g.block_size
        self._g_super_blocks = g.super_block_blocks
        self._g_sub_size = g.sub_block_size
        self._g_line_size = g.cacheline_size
        #: Observability hook point; see :mod:`repro.obs`. Attached here
        #: and on every instrumented sub-component by
        #: :func:`repro.obs.attach_observability`.
        self.obs = NULL_TRACER
        self._h_fetch_subs = None
        self._h_fetch_bytes = None
        self._now = 0.0

        # Committed area sizing: fast capacity net of the stage area and
        # the in-fast-memory remap table.
        overhead = self.config.remap_table_bytes()
        if self.config.stage.enabled:
            overhead += self.config.stage.size_bytes
        usable = self.config.layout.fast_capacity - overhead
        fast_blocks = max(1, usable // self.geometry.block_size)
        if self.config.layout.fully_associative:
            num_sets, ways = 1, fast_blocks
            replacement = "fifo"
        else:
            ways = self.config.layout.associativity
            num_sets = max(1, fast_blocks // ways)
            replacement = "lru"
        if self.config.fast_replacement != "auto":
            replacement = self.config.fast_replacement
        self.fast_area = FastArea(
            num_sets, ways, self.geometry, replacement, seed=seed
        )

        # Flat scheme: the first `flat_ways` of each set are OS-visible
        # fast block spaces, each the home of one block. Homes are
        # *striped* across the whole OS-visible space (every
        # `_home_period`-th block lives in fast memory), modelling
        # hotness-neutral OS placement — first-touch allocation does not
        # systematically put the hottest data in either tier. `_displaced`
        # maps a home block to the (set, way) whose space its data vacated.
        self._flat_ways = round(ways * self.config.layout.flat_fraction)
        self._flat_blocks = num_sets * self._flat_ways
        total_blocks = (
            self.config.layout.fast_capacity + self.config.layout.slow_capacity
        ) // self.geometry.block_size
        self._home_period = max(1, total_blocks // max(1, self._flat_blocks))
        self._displaced: Dict[int, Tuple[int, int]] = {}

        # CF2/CF4 hints kept after compressed fast-to-slow writebacks.
        self._cf_hints: Dict[int, Tuple[int, int, bool]] = {}
        # Flat scheme: last-access stamps of home blocks, on the fast
        # area's replacement clock, so commits displace cold homes.
        self._home_stamps: Dict[int, int] = {}
        # Fully-associative victim selection is FIFO (Sec. III-E): a
        # cycling pointer instead of an O(ways) recency scan.
        self._fa_victim_ptr = 0

        # Resilience layer: fault injection, bounded-retry recovery, and
        # the shadow invariant checker. All None when resilience is off,
        # keeping the hot path free of any extra work.
        self.faults = None
        self.recovery = None
        self.checker = None
        self._quarantined: set = set()
        res = self.config.resilience
        if res is not None and res.enabled:
            from repro.resilience.checker import ShadowChecker
            from repro.resilience.faults import FaultInjector, FaultPlan
            from repro.resilience.recovery import RecoveryManager

            self.recovery = RecoveryManager(res)
            if res.any_faults():
                self.faults = FaultInjector(FaultPlan.from_config(res))
                self.devices.fast.faults = self.faults
                self.devices.slow.faults = self.faults
                if self.devices.fast.row_buffer is not None:
                    self.devices.fast.row_buffer.faults = self.faults
                self.remap_cache.faults = self.faults
                self.stage.faults = self.faults
            if res.check_invariants:
                pointer_bits = max(2, max(self.fast_area.ways - 1, 1).bit_length())
                self.checker = ShadowChecker(pointer_bits=pointer_bits)
                self.remap_table.shadow = self.checker

        # Columnar mirror of the metadata state (numpy structured arrays
        # plus the O(1) probe indices the deferred batch fast path
        # classifies with). Created after the resilience layer so it
        # chains in front of any existing remap-table shadow observer.
        from repro.core.columnar import ColumnarState

        self.columnar = ColumnarState(self)

        # Cached constants for the deferred fast path (access_deferred /
        # access_batch); all are invariant after construction.
        self._stage_on = self.config.stage.enabled
        self._g_sub_per_block = g.sub_blocks_per_block
        self._cl_size = g.cacheline_size
        self._sb_size = g.sub_block_size
        self._ca = self.config.compression.cacheline_aligned
        self._tag_lat_f = float(self.config.stage.tag_latency_cycles)
        self._rc_lat_f = float(self.remap_cache.latency_cycles)
        self._meta_hit_f = max(self._tag_lat_f, self._rc_lat_f)
        self._decomp_f = float(self.config.compression.decompression_latency_cycles)
        self._decomp_i = self.config.compression.decompression_latency_cycles
        self._zero_support = self.config.compression.zero_block_support
        self._cwb = self.config.compressed_writeback
        self._two_level = self.config.two_level_replacement
        self._share_phys = self.config.share_physical_blocks
        self._idx_stage_hit = AccessCase.STAGE_HIT.index
        self._idx_commit_hit = AccessCase.COMMIT_HIT.index
        self._idx_commit_miss = AccessCase.COMMIT_MISS.index
        self._idx_fast_home = AccessCase.FAST_HOME.index
        self._idx_slow_direct = AccessCase.SLOW_DIRECT.index

        # Per-reason deferred-classification decline counters. Kept out of
        # ``stats`` deliberately: the scalar and batched paths must agree
        # on every stats counter bit-for-bit, and only the batched path
        # classifies, so these live beside the stats rather than in them.
        self.deferred_declines: Dict[str, int] = {
            "z_break": 0,
            "write_overflow": 0,
            "staging_fetch": 0,
            "no_stage": 0,
            "invariant": 0,
        }

        if tracer is not None or metrics is not None:
            from repro.obs import attach_observability

            attach_observability(self, tracer, metrics)

    def bind_metrics(self, registry) -> None:
        """Register this controller's histograms in a metrics registry."""
        subs = self.geometry.sub_blocks_per_block
        self._h_fetch_subs = registry.histogram(
            "repro_fetch_sub_blocks",
            help="sub-blocks covered per slow-memory fetch range",
            buckets=[2 ** i for i in range(subs.bit_length())],
        )
        self._h_fetch_bytes = registry.histogram(
            "repro_fetch_bytes",
            help="bytes moved from slow memory per fetch (compressed size)",
            buckets=[self.geometry.cacheline_size * 2 ** i for i in range(8)],
        )

    @property
    def stats(self) -> CounterGroup:
        """Counter group with all pending per-access counts folded in."""
        stats = self._stats
        if self._n_accesses:
            stats.inc("accesses", self._n_accesses)
            self._n_accesses = 0
        if self._n_reads:
            stats.inc("reads", self._n_reads)
            self._n_reads = 0
        if self._n_writes:
            stats.inc("writes", self._n_writes)
            self._n_writes = 0
        if self._n_served_fast:
            stats.inc("served_fast", self._n_served_fast)
            self._n_served_fast = 0
        cases = self._n_cases
        for case in AccessCase:
            count = cases[case.index]
            if count:
                stats.inc(CASE_COUNTER_KEYS[case], count)
                cases[case.index] = 0
        return stats

    # ------------------------------------------------------------------ API
    def access(self, addr: int, is_write: bool, now: Optional[float] = None) -> AccessResult:
        """Serve one 64 B memory access; the single external entry point."""
        if now is not None:
            self._now = now
        else:
            self._now += 1.0
        now = self._now
        # Inline address split on cached power-of-two geometry constants
        # (identical to the Geometry methods for non-negative addresses).
        block_size = self._g_block_size
        block_id = addr // block_size
        super_id = block_id // self._g_super_blocks
        blk_off = block_id % self._g_super_blocks
        rem = addr % block_size
        sub_idx = rem // self._g_sub_size
        line_idx = (rem % self._g_sub_size) // self._g_line_size

        self._n_accesses += 1
        if is_write:
            self._n_writes += 1
        else:
            self._n_reads += 1
        if self.tracker is not None:
            self.tracker.tick()

        entry = None
        staged_block = None
        if super_id in self._quarantined:
            # Poisoned super-block: degraded service straight from slow
            # memory, no staging or metadata side effects (counted).
            result = self._quarantined_serve(now, is_write)
        else:
            try:
                result, entry, staged_block = self._dispatch(
                    now, super_id, block_id, blk_off, sub_idx, line_idx, is_write
                )
            except (TransientDeviceError, CorruptionError) as err:
                if self.recovery is None:
                    raise
                result = self._degraded(now, super_id, err, is_write)

        case = result.case
        self._n_cases[case.index] += 1
        fast = case.fast
        if fast:
            self._n_served_fast += 1
        if self.obs.enabled:
            self.obs.emit(
                "access", t=now, addr=addr, block=block_id,
                case=result.case.value, write=is_write,
                latency=result.latency_cycles, fast=fast,
                overflow=result.write_overflow,
            )
        if self.tracker is not None and result.case is not AccessCase.FAST_HOME:
            self.tracker.record(
                block_id,
                staged=staged_block is not None,
                committed=entry.is_remapped if entry is not None else False,
                is_write=is_write,
                miss=result.case
                in (AccessCase.STAGE_MISS, AccessCase.COMMIT_MISS, AccessCase.BLOCK_MISS),
                overflow=result.write_overflow,
            )
        return result

    # ------------------------------------------------ deferred batch path
    @property
    def supports_batching(self) -> bool:
        """May the simulator drive this controller through the deferred
        batch fast path (:meth:`access_deferred` + :meth:`access_batch`)?

        Requires every optional per-access observer to be absent: fault
        injection, recovery, the shadow checker, the phase tracker, event
        tracing, and quarantined super-blocks all hook the scalar flow.
        Subclasses that intercept ``access`` (the content-backed oracle)
        shadow this property with a class attribute ``False``.
        """
        return (
            self.faults is None
            and self.recovery is None
            and self.checker is None
            and self.tracker is None
            and not self.obs.enabled
            and not self._quarantined
        )

    def _staged_block_of(self, super_id: int, block_id: int, blk_off: int):
        """Columnar-index form of :meth:`StageArea.lookup_block`.

        One dict probe instead of the way x slot scan; identical answers
        by the Rule-3 invariant. Falls back to the scanning lookup when
        fault injection is armed (the scan draws the per-match corruption
        sample).
        """
        if self.faults is not None:
            return self.stage.lookup_block(super_id, blk_off)
        ref = self.columnar.stage_block.get(block_id)
        if ref is None:
            return None
        way = ref[0]
        return way, self.stage.tags.entries[super_id % self.stage.num_sets][way]

    def _count_table_probe(self) -> None:
        """Traffic accounting of the 16 B off-chip remap-table probe; its
        queue/transfer timing replays later from the op record."""
        dev = self.devices.fast
        dev._n_read_bytes += 16
        dev._n_reads += 1
        dev._n_demand_read_bytes += 16
        self._stats.inc("remap_table_reads")

    def access_deferred(self, addr: int, is_write: bool = False):
        """Serve one 64 B access with state applied now and timing deferred.

        The batch-safe cases — stage hit, commit hit, commit miss,
        resident/displaced flat home — mutate no state whose transitions
        depend on the clock, so their state effects (LRU touches,
        remap-cache fills, credit/aging counters, dirty marks, oracle
        write notes, traffic and case counters, prefetched-line
        computation) are applied eagerly in trace order here, while the
        clock-dependent part (channel queueing) is captured as one op
        tuple for :meth:`access_batch` to replay:

            (rc_miss, stage_meta, dev, nbytes, array_latency, decomp, lines)

        ``dev`` is 0 (no data device: zero-encoded data), 1 (fast read),
        2 (slow read), 3 (fast write) or 4 (slow write); ``stage_meta``
        selects the stage-hit metadata latency rule (tag latency only)
        over ``max(tag, remap)``; ``lines`` are the prefetched cacheline
        addresses for the caller to install.

        Write hits qualify only when they provably do not overflow: the
        oracle's pure ``peek_write``/``fits_at`` probes test the
        post-write verdict before anything mutates. Returns ``None`` —
        with **no state applied** (classification uses only pure probes)
        — whenever the access needs the scalar path: staging fetches
        (cases 3/5), zero-encoding breaks, write overflows, the no-stage
        ablation, or a broken fast-area invariant. The scalar
        :meth:`access` then serves it bit-identically.
        """
        block_size = self._g_block_size
        block_id = addr // block_size
        super_id = block_id // self._g_super_blocks
        rem = addr % block_size
        sub_size = self._g_sub_size
        sub_idx = rem // sub_size
        col = self.columnar
        staged = col.stage_sub.get(block_id * self._g_sub_per_block + sub_idx)
        if staged is not None:
            # Case 1: stage hit.
            way, slot_idx = staged
            stage = self.stage
            set_index = super_id % stage.num_sets
            slot = stage.tags.entries[set_index][way].slots[slot_idx]
            if is_write:
                if slot.zero:
                    # Z break: the scalar path re-stages.
                    self.deferred_declines["z_break"] += 1
                    return None
                cf = slot.cf
                if (
                    cf > 1
                    and self.oracle.peek_write(block_id, sub_idx)
                    and not self.oracle.fits_at(
                        block_id, slot.sub_start, cf, self._ca,
                        self.oracle.version_of(block_id) + 1,
                    )
                ):
                    # Write overflow: the scalar path splits the range.
                    self.deferred_declines["write_overflow"] += 1
                    return None
                stage.record_set_access(set_index)
                rc_miss = not self.remap_cache.access(super_id)
                if rc_miss:
                    self._count_table_probe()
                stage.touch(set_index, way)
                dev = self.devices.fast
                nbytes = self._cl_size
                dev._n_write_bytes += nbytes
                dev._n_writes += 1
                dev._array_latency(
                    block_id * block_size + sub_idx * sub_size,
                    dev.write_latency,
                )
                stage.mark_dirty(set_index, way, slot_idx)
                self.oracle.note_write(block_id, sub_idx)
                self._n_accesses += 1
                self._n_writes += 1
                self._n_cases[self._idx_stage_hit] += 1
                self._n_served_fast += 1
                return (rc_miss, True, 3, nbytes, 0.0, 0.0, None)
            stage.record_set_access(set_index)
            rc_miss = not self.remap_cache.access(super_id)
            if rc_miss:
                self._count_table_probe()
            stage.touch(set_index, way)
            self._n_accesses += 1
            self._n_reads += 1
            self._n_cases[self._idx_stage_hit] += 1
            self._n_served_fast += 1
            if slot.zero:
                return (rc_miss, True, 0, 0, 0.0, 0.0, None)
            cf = slot.cf
            nbytes = self._cl_size if (cf <= 1 or self._ca) else self._sb_size
            dev = self.devices.fast
            dev._n_read_bytes += nbytes
            dev._n_reads += 1
            dev._n_demand_read_bytes += nbytes
            arr = dev._array_latency(
                block_id * block_size + sub_idx * sub_size, dev.read_latency
            ) + 0.0
            if cf > 1:
                line_idx = (rem % sub_size) // self._g_line_size
                lines = self._chunk_lines(
                    block_id, slot.sub_start, cf, sub_idx, line_idx
                )
                return (rc_miss, True, 1, nbytes, arr, self._decomp_f, lines)
            return (rc_miss, True, 1, nbytes, arr, 0.0, None)

        entry = self.remap_table._entries.get(block_id)
        blk_off = block_id % self._g_super_blocks
        if entry is not None and entry.sub_block_remapped(sub_idx):
            # Case 2: commit hit.
            located = self.fast_area.find_block(super_id, blk_off)
            if located is None:
                # Broken invariant: the scalar path raises.
                self.deferred_declines["invariant"] += 1
                return None
            way, state = located
            if is_write:
                if entry.zero:
                    # Z break: the scalar path evicts the logical block.
                    self.deferred_declines["z_break"] += 1
                    return None
                start, cf = entry.range_of(sub_idx)
                if (
                    self.oracle.peek_write(block_id, sub_idx)
                    and cf > 1
                    and not self.oracle.fits_at(
                        block_id, start, cf, self._ca,
                        self.oracle.version_of(block_id) + 1,
                    )
                ):
                    # Rule-4 overflow: the scalar path evicts.
                    self.deferred_declines["write_overflow"] += 1
                    return None
                self.stage.record_set_access(super_id % self.stage.num_sets)
                rc_miss = not self.remap_cache.access(super_id)
                if rc_miss:
                    self._count_table_probe()
                self.fast_area.touch(self.fast_area.set_of_super(super_id), way)
                dev = self.devices.fast
                nbytes = self._cl_size
                dev._n_write_bytes += nbytes
                dev._n_writes += 1
                dev._array_latency(
                    block_id * block_size + sub_idx * sub_size,
                    dev.write_latency,
                )
                state.dirty_subs.add((blk_off, sub_idx))
                self.oracle.note_write(block_id, sub_idx)
                self._n_accesses += 1
                self._n_writes += 1
                self._n_cases[self._idx_commit_hit] += 1
                self._n_served_fast += 1
                return (rc_miss, False, 3, nbytes, 0.0, 0.0, None)
            self.stage.record_set_access(super_id % self.stage.num_sets)
            rc_miss = not self.remap_cache.access(super_id)
            if rc_miss:
                self._count_table_probe()
            self.fast_area.touch(self.fast_area.set_of_super(super_id), way)
            self._n_accesses += 1
            self._n_reads += 1
            self._n_cases[self._idx_commit_hit] += 1
            self._n_served_fast += 1
            if entry.zero:
                return (rc_miss, False, 0, 0, 0.0, 0.0, None)
            start, cf = entry.range_of(sub_idx)
            nbytes = self._cl_size if (cf <= 1 or self._ca) else self._sb_size
            dev = self.devices.fast
            dev._n_read_bytes += nbytes
            dev._n_reads += 1
            dev._n_demand_read_bytes += nbytes
            arr = dev._array_latency(
                block_id * block_size + sub_idx * sub_size, dev.read_latency
            ) + 0.0
            if cf > 1:
                line_idx = (rem % sub_size) // self._g_line_size
                lines = self._chunk_lines(block_id, start, cf, sub_idx, line_idx)
                return (rc_miss, False, 1, nbytes, arr, self._decomp_f, lines)
            return (rc_miss, False, 1, nbytes, arr, 0.0, None)
        if self._stage_on and block_id in col.stage_block:
            # Case 3: the staged fetch mutates, scalar path.
            self.deferred_declines["staging_fetch"] += 1
            return None
        if entry is not None:
            # entry.is_remapped but the demanded sub-block is not staged
            # or committed.
            if not self._stage_on:
                # The no-stage ablation inserts directly.
                self.deferred_declines["no_stage"] += 1
                return None
            # Case 4: commit miss — a pure slow-memory bypass.
            self.stage.record_set_access(super_id % self.stage.num_sets)
            rc_miss = not self.remap_cache.access(super_id)
            if rc_miss:
                self._count_table_probe()
            self._n_accesses += 1
            self._n_cases[self._idx_commit_miss] += 1
            dev = self.devices.slow
            nbytes = self._cl_size
            if is_write:
                self._n_writes += 1
                dev._n_write_bytes += nbytes
                dev._n_writes += 1
                return (rc_miss, False, 4, nbytes, 0.0, 0.0, None)
            self._n_reads += 1
            dev._n_read_bytes += nbytes
            dev._n_reads += 1
            dev._n_demand_read_bytes += nbytes
            return (rc_miss, False, 2, nbytes, dev.read_latency + 0.0, 0.0, None)
        if (
            self._flat_blocks
            and block_id % self._home_period == 0
            and block_id // self._home_period < self._flat_blocks
        ):
            if block_id not in self._displaced:
                # Flat scheme: resident home block, served in place.
                self.stage.record_set_access(super_id % self.stage.num_sets)
                rc_miss = not self.remap_cache.access(super_id)
                if rc_miss:
                    self._count_table_probe()
                self._n_accesses += 1
                self._n_cases[self._idx_fast_home] += 1
                self._n_served_fast += 1
                dev = self.devices.fast
                nbytes = self._cl_size
                if is_write:
                    self._n_writes += 1
                    dev._n_write_bytes += nbytes
                    dev._n_writes += 1
                    dev._array_latency(
                        block_id * block_size, dev.write_latency
                    )
                    self._home_stamps[block_id] = self.fast_area.next_stamp()
                    return (rc_miss, False, 3, nbytes, 0.0, 0.0, None)
                self._n_reads += 1
                dev._n_read_bytes += nbytes
                dev._n_reads += 1
                dev._n_demand_read_bytes += nbytes
                arr = dev._array_latency(
                    block_id * block_size, dev.read_latency
                ) + 0.0
                self._home_stamps[block_id] = self.fast_area.next_stamp()
                return (rc_miss, False, 1, nbytes, arr, 0.0, None)
            # Displaced home: served from its spread slow copy.
            self.stage.record_set_access(super_id % self.stage.num_sets)
            rc_miss = not self.remap_cache.access(super_id)
            if rc_miss:
                self._count_table_probe()
            self._n_accesses += 1
            self._n_cases[self._idx_slow_direct] += 1
            dev = self.devices.slow
            nbytes = self._cl_size
            if is_write:
                self._n_writes += 1
                dev._n_write_bytes += nbytes
                dev._n_writes += 1
                return (rc_miss, False, 4, nbytes, 0.0, 0.0, None)
            self._n_reads += 1
            dev._n_read_bytes += nbytes
            dev._n_reads += 1
            dev._n_demand_read_bytes += nbytes
            return (rc_miss, False, 2, nbytes, dev.read_latency + 0.0, 0.0, None)
        # Case 5: the block miss stages a fetch, scalar path.
        self.deferred_declines["staging_fetch"] += 1
        return None

    def make_run_classifier(self, addrs, writes):
        """Bulk verdict source for a whole trace's deferred path.

        Returns a :class:`~repro.core.columnar.DeferredRunClassifier`
        classifying chunks of future trace indices with numpy gathers
        over the columnar arrays, or ``None`` when the trace or this
        controller cannot support it (the simulator then classifies every
        op with :meth:`access_deferred` exactly as before).
        """
        if not self.supports_batching:
            return None
        from repro.core.columnar import build_run_classifier

        return build_run_classifier(self, addrs, writes)

    def make_deferred_server(self):
        """Build the inlined serve/flush closure pair for the hot loop.

        Returns ``(serve, flush, replay)`` or ``None``; ``replay`` is
        :meth:`access_batch` itself. ``serve(addr, is_write, code, aux)``
        is a drop-in for :meth:`access_deferred` (``code == 0``: classify
        inline; ``code > 0``: trust the run classifier's gathered verdict
        — revalidated against the columnar arena's ``dirty_blocks``, the
        classifier's post-gather mutation set, falling back to the inline
        classification when the block went stale) with every per-op
        helper call inlined:
        the remap-cache LRU probe, the row-buffer bank transition, the
        stage rank / fast-area stamp touches, and the set-access aging
        count. Traffic, case, and hit-ratio counters accumulate in closure
        locals and ``flush()`` scatters them into the real counter
        attributes in one bulk update — integer sums, so the folded totals
        are bit-identical to per-op increments and no intermediate value
        is ever observable (the simulator flushes before any scalar
        ``access`` call and before every stats snapshot).

        Construction declines (returns ``None``) when any per-op observer
        the inlined bodies skip could fire: controller-level hooks (via
        :attr:`supports_batching`), remap-cache tracing or faults, device
        faults, or row-buffer tracing, faults, or a non-LRU fast area.
        """
        if not self.supports_batching:
            return None
        rc = self.remap_cache
        devices = self.devices
        fast = devices.fast
        slow = devices.slow
        rb = fast.row_buffer
        fa = self.fast_area
        if (
            rc.obs.enabled
            or rc.faults is not None
            or fast.faults is not None
            or slow.faults is not None
            or (rb is not None and (rb.obs.enabled or rb.faults is not None))
            or fa.replacement != "lru"
        ):
            return None

        # ---- bound hot state (locals inside the closures) ----
        block_size = self._g_block_size
        super_blocks = self._g_super_blocks
        sub_size = self._g_sub_size
        sub_per_block = self._g_sub_per_block
        line_size = self._g_line_size
        cl_size = self._cl_size
        sb_size = self._sb_size
        ca = self._ca
        decomp_f = self._decomp_f
        stage_on = self._stage_on
        flat_blocks = self._flat_blocks
        home_period = self._home_period
        displaced = self._displaced
        home_stamps = self._home_stamps
        col = self.columnar
        stage_sub = col.stage_sub
        stage_sub_get = stage_sub.get
        stage_block = col.stage_block
        stage = self.stage
        stage_entries = stage.tags.entries
        stage_num_sets = stage.num_sets
        set_counts = stage._set_accesses
        valid_counts = stage.valid_counts
        aging_period = stage._aging_period
        age_set = stage.age_set
        lines_per_sub = self.geometry.cachelines_per_sub_block
        col_mark_dirty = None if col is None else col.stage_mark_dirty
        # Remap-cache inline-probe contract: see RemapCache.probe_state
        # for the transitions the probe below must preserve.
        rc_sets, rc_num_sets, _, rc_col = rc.probe_state()
        rc_credit = rc.credit_probes
        fa_blocks = fa.blocks
        fa_num_sets = fa.num_sets
        entries_tbl = self.remap_table._entries
        entries_get = entries_tbl.get
        oracle = self.oracle
        peek_write = oracle.peek_write
        fits_at = oracle.fits_at
        version_of = oracle.version_of
        note_write = oracle.note_write
        chunk_lines = self._chunk_lines
        declines = self.deferred_declines
        f_read_lat = fast.read_latency
        f_write_lat = fast.write_latency
        s_read_lat = slow.read_latency
        if rb is not None:
            rb_open = rb._open_rows
            rb_row_bytes = rb.row_bytes
            rb_banks = rb.channels * rb.banks_per_channel
            rb_cas = rb.t_cas
            rb_pre_lat = rb.t_rp + rb.t_rcd + rb.t_cas
            rb_act_lat = rb.t_rcd + rb.t_cas
        else:
            rb_open = None
        n_cases = self._n_cases
        idx_stage = self._idx_stage_hit
        idx_commit = self._idx_commit_hit
        idx_cmiss = self._idx_commit_miss
        idx_home = self._idx_fast_home
        idx_slowd = self._idx_slow_direct
        idx_smiss = AccessCase.STAGE_MISS.index
        idx_bmiss = AccessCase.BLOCK_MISS.index
        dirty = col.dirty_blocks
        # Staging-fetch capture: the real fetch-and-stage runs eagerly
        # against these recording pools (see :class:`_RecordingPool`).
        miss_cap = stage.config.miss_counter_max()
        mru_miss_cnt = stage.mru_miss_cnt
        col_block_miss = col.stage_block_miss
        fetch_and_stage = self._fetch_and_stage
        real_fast_pool = fast.pool
        real_slow_pool = slow.pool
        rec_log: list = []
        rec_fast = _RecordingPool(1, rec_log)
        rec_slow = _RecordingPool(0, rec_log)
        # Staging-fetch fast path: the common fetch/insert shapes are
        # inlined below; these bindings mirror the scalar helpers.
        cf_hints_get = self._cf_hints.get
        cwb = self._cwb
        selective = self.config.compression.selective
        zero_support = self._zero_support
        is_zero = oracle.is_zero
        max_cf = oracle.max_cf
        h_fetch_subs = self._h_fetch_subs
        h_fetch_bytes = self._h_fetch_bytes
        share_phys = self._share_phys
        rng_choice = self._rng.choice
        stage_allocate = stage.allocate
        stage_insert_range = stage.insert_range
        stage_tag_lookup = stage.tags.lookup
        stage_insert_m = self._stage_insert
        stats_inc = self._stats.inc

        # ---- tallies, scattered by flush() ----
        t_acc = t_reads = t_writes = t_served = 0
        c_stage = c_commit = c_cmiss = c_home = c_slowd = 0
        c_smiss = c_bmiss = 0
        tbl_reads = 0
        rc_total = rc_hit_t = rc_nm = rc_ne = 0
        f_rb = f_nr = f_db = f_wb = f_nw = 0
        s_rb = s_nr = s_db = s_fb = s_wb = s_nw = 0
        rb_h = rb_m = rb_p = rb_a = 0

        def serve(addr, is_write, code, aux):
            nonlocal t_acc, t_reads, t_writes, t_served
            nonlocal c_stage, c_commit, c_cmiss, c_home, c_slowd, tbl_reads
            nonlocal c_smiss, c_bmiss
            nonlocal rc_total, rc_hit_t, rc_nm, rc_ne
            nonlocal f_rb, f_nr, f_db, f_wb, f_nw
            nonlocal s_rb, s_nr, s_db, s_fb, s_wb, s_nw
            nonlocal rb_h, rb_m, rb_p, rb_a

            block_id = addr // block_size
            super_id = block_id // super_blocks
            rem = addr % block_size
            sub_idx = rem // sub_size

            # ---- resolve the case: gathered verdict or inline classify ----
            slot = None
            entry = None
            state = None
            if code and block_id in dirty:
                code = 0
            if code:
                if code <= 3:
                    case = 1
                    way = aux & 7
                    if code == 1:
                        zero = False
                        cf = (aux >> 8) & 7
                        sub_start = aux >> 12
                    elif code == 2:
                        zero = True
                    else:
                        zero = False
                        slot_idx = (aux >> 3) & 31
                elif code <= 6:
                    case = 2
                    blk_off = block_id % super_blocks
                    # The fast-area residency invariant stays a live check.
                    found = None
                    for w, st in enumerate(fa_blocks[super_id % fa_num_sets]):
                        if st is not None and st.super_id == super_id:
                            if blk_off in st.committed:
                                found = w
                                state = st
                                break
                    if found is None:
                        declines["invariant"] += 1
                        return None
                    way = found
                    zero = code == 5
                    if code == 4:
                        cf = aux & 7
                        sub_start = aux >> 3
                else:
                    case = 4
            else:
                staged = stage_sub_get(block_id * sub_per_block + sub_idx)
                if staged is not None:
                    case = 1
                    way, slot_idx = staged
                    slot = stage_entries[super_id % stage_num_sets][way].slots[
                        slot_idx
                    ]
                    zero = slot.zero
                    if is_write:
                        if zero:
                            declines["z_break"] += 1
                            return None
                        cf = slot.cf
                        if (
                            cf > 1
                            and peek_write(block_id, sub_idx)
                            and not fits_at(
                                block_id, slot.sub_start, cf, ca,
                                version_of(block_id) + 1,
                            )
                        ):
                            declines["write_overflow"] += 1
                            return None
                    elif not zero:
                        cf = slot.cf
                        sub_start = slot.sub_start
                else:
                    entry = entries_get(block_id)
                    blk_off = block_id % super_blocks
                    if entry is not None and (
                        entry.zero or (entry.remap >> sub_idx) & 1
                    ):
                        case = 2
                        found = None
                        for w, st in enumerate(
                            fa_blocks[super_id % fa_num_sets]
                        ):
                            if st is not None and st.super_id == super_id:
                                if blk_off in st.committed:
                                    found = w
                                    state = st
                                    break
                        if found is None:
                            declines["invariant"] += 1
                            return None
                        way = found
                        zero = entry.zero
                        if is_write:
                            if zero:
                                declines["z_break"] += 1
                                return None
                            # entry.range_of, inlined (zero is False and
                            # membership already established above).
                            quad = sub_idx >> 2
                            if (entry.cf4 >> quad) & 1:
                                sub_start = quad << 2
                                cf = 4
                            else:
                                pair = sub_idx >> 1
                                if (entry.cf2 >> pair) & 1:
                                    sub_start = pair << 1
                                    cf = 2
                                else:
                                    sub_start = sub_idx
                                    cf = 1
                            if (
                                peek_write(block_id, sub_idx)
                                and cf > 1
                                and not fits_at(
                                    block_id, sub_start, cf, ca,
                                    version_of(block_id) + 1,
                                )
                            ):
                                declines["write_overflow"] += 1
                                return None
                        elif not zero:
                            quad = sub_idx >> 2
                            if (entry.cf4 >> quad) & 1:
                                sub_start = quad << 2
                                cf = 4
                            else:
                                pair = sub_idx >> 1
                                if (entry.cf2 >> pair) & 1:
                                    sub_start = pair << 1
                                    cf = 2
                                else:
                                    sub_start = sub_idx
                                    cf = 1
                    elif stage_on and block_id in stage_block:
                        # Case 3: sub-block miss on a staged block.
                        case = 7
                        miss_way = stage_block[block_id][0]
                    elif entry is not None:
                        if not stage_on:
                            declines["no_stage"] += 1
                            return None
                        case = 4
                    elif (
                        flat_blocks
                        and block_id % home_period == 0
                        and block_id // home_period < flat_blocks
                    ):
                        case = 5 if block_id not in displaced else 6
                    elif not stage_on:
                        # No-stage ablation miss: the scalar path inserts
                        # directly (access_deferred's decline reason).
                        declines["staging_fetch"] += 1
                        return None
                    else:
                        # Case 5: block miss, fetch-and-stage.
                        case = 7
                        miss_way = None

            # ---- shared eager effects, in access_deferred's exact order ----
            set_index = super_id % stage_num_sets
            n = set_counts[set_index] + 1
            if n < aging_period:
                set_counts[set_index] = n
            else:
                set_counts[set_index] = 0
                age_set(set_index)
            rci = super_id % rc_num_sets
            rc_tag = super_id // rc_num_sets
            rc_set = rc_sets[rci]
            rc_lines = rc_set.lines
            rc_line = rc_lines.get(rc_tag)
            rc_total += 1
            if rc_line is not None:
                rc_hit_t += 1
                rc_set._clock += 1
                rc_line.counter = rc_set._clock
                rc_lines[rc_tag] = rc_lines.pop(rc_tag)
                rc_miss = False
            else:
                rc_nm += 1
                if len(rc_lines) >= rc_set.ways:
                    del rc_lines[next(iter(rc_lines))]
                    rc_ne += 1
                elif rc_col is not None:
                    rc_col.rc_occupancy[rci] += 1
                rc_line = CacheLine(rc_tag)
                rc_set._clock += 1
                rc_line.counter = rc_set._clock
                rc_lines[rc_tag] = rc_line
                rc_miss = True
                f_rb += 16
                f_nr += 1
                f_db += 16
                tbl_reads += 1

            if case == 1:
                # Stage hit: exact-rank LRU promote, then serve. Ranks are
                # dense 0..valid-1, so a target already at MRU rank leaves
                # every rank (including its own) unchanged.
                entries_si = stage_entries[set_index]
                target = entries_si[way]
                old_rank = target.lru
                mru = valid_counts[set_index] - 1
                if old_rank != mru:
                    for e in entries_si:
                        if e.valid and e.lru > old_rank:
                            e.lru -= 1
                    target.lru = mru
                t_acc += 1
                c_stage += 1
                t_served += 1
                if is_write:
                    t_writes += 1
                    f_wb += cl_size
                    f_nw += 1
                    a_addr = block_id * block_size + sub_idx * sub_size
                    if rb_open is not None:
                        row = a_addr // rb_row_bytes
                        bank = row % rb_banks
                        row //= rb_banks
                        prev = rb_open.get(bank)
                        if prev == row:
                            rb_h += 1
                        else:
                            rb_open[bank] = row
                            rb_m += 1
                            if prev is not None:
                                rb_p += 1
                            else:
                                rb_a += 1
                    if slot is None:
                        slot = stage_entries[set_index][way].slots[slot_idx]
                    slot.dirty = True
                    if col_mark_dirty is not None:
                        col_mark_dirty(set_index, way, slot_idx)
                    note_write(block_id, sub_idx)
                    return (rc_miss, True, 3, cl_size, 0.0, 0.0, None)
                t_reads += 1
                if zero:
                    return (rc_miss, True, 0, 0, 0.0, 0.0, None)
            elif case == 2:
                # Commit hit: fast-area LRU stamp, then serve.
                fa._clock += 1
                state.stamp = fa._clock
                t_acc += 1
                c_commit += 1
                t_served += 1
                if is_write:
                    t_writes += 1
                    f_wb += cl_size
                    f_nw += 1
                    a_addr = block_id * block_size + sub_idx * sub_size
                    if rb_open is not None:
                        row = a_addr // rb_row_bytes
                        bank = row % rb_banks
                        row //= rb_banks
                        prev = rb_open.get(bank)
                        if prev == row:
                            rb_h += 1
                        else:
                            rb_open[bank] = row
                            rb_m += 1
                            if prev is not None:
                                rb_p += 1
                            else:
                                rb_a += 1
                    state.dirty_subs.add((blk_off, sub_idx))
                    note_write(block_id, sub_idx)
                    return (rc_miss, False, 3, cl_size, 0.0, 0.0, None)
                t_reads += 1
                if zero:
                    return (rc_miss, False, 0, 0, 0.0, 0.0, None)
            elif case == 4:
                # Commit miss: a pure slow-memory bypass.
                t_acc += 1
                c_cmiss += 1
                if is_write:
                    t_writes += 1
                    s_wb += cl_size
                    s_nw += 1
                    return (rc_miss, False, 4, cl_size, 0.0, 0.0, None)
                t_reads += 1
                s_rb += cl_size
                s_nr += 1
                s_db += cl_size
                return (rc_miss, False, 2, cl_size, s_read_lat + 0.0, 0.0, None)
            elif case == 7:
                # Cases 3/5 (staging fetch): every state decision in the
                # fetch-and-stage tree is clock-free, so it runs eagerly
                # here. The dominant shapes (non-zero fetch into a free
                # slot or a fresh way) are inlined outright; the rare ones
                # (zero blocks, selective compression, replacements) fall
                # back to the real helpers with the channel pools swapped
                # for recorders. Either way the op carries the transfer
                # sequence, replayed in order at the op's exact clock
                # (dev codes 5/6).
                t_acc += 1
                if is_write:
                    t_writes += 1
                else:
                    t_reads += 1
                # stage.record_block_miss, inlined; the MRU check uses the
                # dense-rank invariant (MRU way has rank valid-1).
                if miss_way is None:
                    c_bmiss += 1
                    bound_entry = None
                    n = mru_miss_cnt[set_index] + 1
                    mru_miss_cnt[set_index] = n if n < miss_cap else miss_cap
                else:
                    c_smiss += 1
                    bound_entry = stage_entries[set_index][miss_way]
                    n = bound_entry.miss_count + 1
                    if n > miss_cap:
                        n = miss_cap
                    bound_entry.miss_count = n
                    col_block_miss(set_index, miss_way, n)
                    if bound_entry.lru == valid_counts[set_index] - 1:
                        n = mru_miss_cnt[set_index] + 1
                        mru_miss_cnt[set_index] = (
                            n if n < miss_cap else miss_cap
                        )
                if selective or (
                    bound_entry is None
                    and zero_support
                    and is_zero(block_id, 0, sub_per_block)
                ):
                    fast.pool = rec_fast
                    slow.pool = rec_slow
                    try:
                        latency, prefetched = fetch_and_stage(
                            0.0, 0.0, super_id, block_id, blk_off, sub_idx,
                            (rem % sub_size) // line_size, is_write,
                        )
                    finally:
                        fast.pool = real_fast_pool
                        slow.pool = real_slow_pool
                    if rec_log and rec_log[0][2]:
                        # The demand read is the only priority transfer
                        # the capture can see (the table probe replays
                        # from rc_miss); the rest is posted traffic.
                        demand_nb = rec_log[0][1]
                        extras = tuple(rec_log[1:])
                    else:
                        demand_nb = 0  # zero block: meta-only latency
                        extras = tuple(rec_log)
                    del rec_log[:]
                    return (
                        rc_miss,
                        False,
                        6 if is_write else 5,
                        (demand_nb, extras),
                        s_read_lat + 0.0,
                        decomp_f if prefetched else 0.0,
                        prefetched if prefetched else None,
                    )
                # _choose_fetch_range, inlined (selective is off here).
                compressed = False
                hint = cf_hints_get(block_id)
                if hint is not None and cwb:
                    cf2h, cf4h, _z = hint
                    if (cf4h >> (sub_idx >> 2)) & 1:
                        sub_start = (sub_idx >> 2) << 2
                        cf = 4
                        compressed = True
                    elif (cf2h >> (sub_idx >> 1)) & 1:
                        sub_start = (sub_idx >> 1) << 1
                        cf = 2
                        compressed = True
                if not compressed:
                    cf = max_cf(block_id, sub_idx, ca)
                    sub_start = (sub_idx // cf) * cf
                if bound_entry is not None and cf > 1:
                    # Avoid refetching sub-blocks already staged.
                    staged_subs = {
                        s
                        for bslot in bound_entry.slots
                        if bslot is not None and bslot.blk_off == blk_off
                        for s in bslot.sub_blocks
                    }
                    while cf > 1 and any(
                        s in staged_subs
                        for s in range(sub_start, sub_start + cf)
                    ):
                        cf //= 2
                        sub_start = (sub_idx // cf) * cf
                        compressed = False
                lines = None
                if compressed:
                    demand_nb = cl_size if ca else sb_size
                    fetch_bytes = sb_size
                    # _chunk_lines, inlined.
                    line_idx = (rem % sub_size) // line_size
                    base = block_id * block_size + sub_start * sub_size
                    demanded = (
                        (sub_idx - sub_start) * lines_per_sub + line_idx
                    )
                    if ca:
                        first = (demanded // cf) * cf
                        rng = range(first, first + cf)
                    else:
                        rng = range(cf * lines_per_sub)
                    lines = [
                        base + i * line_size for i in rng if i != demanded
                    ]
                else:
                    demand_nb = cl_size
                    fetch_bytes = cf * sb_size
                s_rb += demand_nb
                s_nr += 1
                s_db += demand_nb
                rest = fetch_bytes - demand_nb
                if rest > 0:
                    s_rb += rest
                    s_nr += 1
                    s_fb += rest
                    extras = [(0, rest, False), (1, sb_size, False)]
                else:
                    extras = [(1, sb_size, False)]
                f_wb += sb_size
                f_nw += 1
                if h_fetch_subs is not None:
                    h_fetch_subs.observe(cf)
                    h_fetch_bytes.observe(fetch_bytes)
                new_slot = RangeSlot(
                    cf=cf, dirty=is_write, blk_off=blk_off,
                    sub_start=sub_start,
                )
                # _stage_insert: free-slot / fresh-way shapes inline, the
                # replacement shapes via the captured real helper.
                ins_way = None
                if bound_entry is not None:
                    if bound_entry.free_slot() is not None:
                        ins_way = miss_way
                elif share_phys:
                    candidates = stage_tag_lookup(
                        set_index, super_id // stage_num_sets
                    )
                    if candidates:
                        with_room = [
                            (w, e)
                            for w, e in candidates
                            if e.free_slot() is not None
                        ]
                        if with_room:
                            ins_way = rng_choice(with_room)[0]
                            if len(candidates) > 1:
                                stats_inc("multi_block_super_stages")
                    else:
                        allocated = stage_allocate(super_id)
                        if allocated is not None:
                            ins_way = allocated[1]
                else:
                    allocated = stage_allocate(super_id)
                    if allocated is not None:
                        ins_way = allocated[1]
                if ins_way is not None:
                    stage_insert_range(set_index, ins_way, new_slot)
                    # stage.touch with the exact-rank MRU shortcut.
                    entries_si = stage_entries[set_index]
                    target = entries_si[ins_way]
                    old_rank = target.lru
                    mru = valid_counts[set_index] - 1
                    if old_rank != mru:
                        for e in entries_si:
                            if e.valid and e.lru > old_rank:
                                e.lru -= 1
                        target.lru = mru
                else:
                    fast.pool = rec_fast
                    slow.pool = rec_slow
                    try:
                        stage_insert_m(
                            0.0, super_id, block_id, blk_off, new_slot,
                            None if bound_entry is None
                            else (miss_way, bound_entry),
                        )
                    finally:
                        fast.pool = real_fast_pool
                        slow.pool = real_slow_pool
                    if rec_log:
                        extras.extend(rec_log)
                        del rec_log[:]
                if is_write:
                    note_write(block_id, sub_idx)
                return (
                    rc_miss,
                    False,
                    6 if is_write else 5,
                    (demand_nb, extras),
                    s_read_lat + 0.0,
                    decomp_f if compressed else 0.0,
                    lines,
                )
            elif case == 5:
                # Flat scheme: resident home block, served in place.
                t_acc += 1
                c_home += 1
                t_served += 1
                a_addr = block_id * block_size
                if rb_open is not None:
                    row = a_addr // rb_row_bytes
                    bank = row % rb_banks
                    row //= rb_banks
                    prev = rb_open.get(bank)
                    if prev == row:
                        rb_h += 1
                        arr = rb_cas
                    else:
                        rb_open[bank] = row
                        rb_m += 1
                        if prev is not None:
                            rb_p += 1
                            arr = rb_pre_lat
                        else:
                            rb_a += 1
                            arr = rb_act_lat
                else:
                    arr = f_write_lat if is_write else f_read_lat
                fa._clock += 1
                home_stamps[block_id] = fa._clock
                if is_write:
                    t_writes += 1
                    f_wb += cl_size
                    f_nw += 1
                    return (rc_miss, False, 3, cl_size, 0.0, 0.0, None)
                t_reads += 1
                f_rb += cl_size
                f_nr += 1
                f_db += cl_size
                return (rc_miss, False, 1, cl_size, arr + 0.0, 0.0, None)
            else:
                # Displaced home: served from its spread slow copy.
                t_acc += 1
                c_slowd += 1
                if is_write:
                    t_writes += 1
                    s_wb += cl_size
                    s_nw += 1
                    return (rc_miss, False, 4, cl_size, 0.0, 0.0, None)
                t_reads += 1
                s_rb += cl_size
                s_nr += 1
                s_db += cl_size
                return (rc_miss, False, 2, cl_size, s_read_lat + 0.0, 0.0, None)

            # ---- non-zero read data transfer (cases 1 and 2) ----
            nbytes = cl_size if (cf <= 1 or ca) else sb_size
            f_rb += nbytes
            f_nr += 1
            f_db += nbytes
            a_addr = block_id * block_size + sub_idx * sub_size
            if rb_open is not None:
                row = a_addr // rb_row_bytes
                bank = row % rb_banks
                row //= rb_banks
                prev = rb_open.get(bank)
                if prev == row:
                    rb_h += 1
                    arr = rb_cas
                else:
                    rb_open[bank] = row
                    rb_m += 1
                    if prev is not None:
                        rb_p += 1
                        arr = rb_pre_lat
                    else:
                        rb_a += 1
                        arr = rb_act_lat
            else:
                arr = f_read_lat
            stage_meta = case == 1
            if cf > 1:
                # _chunk_lines, inlined: sibling cachelines of the
                # compressed chunk the demand read decompresses.
                line_idx = (rem % sub_size) // line_size
                base = block_id * block_size + sub_start * sub_size
                demanded = (sub_idx - sub_start) * lines_per_sub + line_idx
                if ca:
                    first = (demanded // cf) * cf
                    rng = range(first, first + cf)
                else:
                    rng = range(cf * lines_per_sub)
                lines = [base + i * line_size for i in rng if i != demanded]
                return (rc_miss, stage_meta, 1, nbytes, arr + 0.0, decomp_f, lines)
            return (rc_miss, stage_meta, 1, nbytes, arr + 0.0, 0.0, None)

        def flush():
            nonlocal t_acc, t_reads, t_writes, t_served
            nonlocal c_stage, c_commit, c_cmiss, c_home, c_slowd, tbl_reads
            nonlocal c_smiss, c_bmiss
            nonlocal rc_total, rc_hit_t, rc_nm, rc_ne
            nonlocal f_rb, f_nr, f_db, f_wb, f_nw
            nonlocal s_rb, s_nr, s_db, s_fb, s_wb, s_nw
            nonlocal rb_h, rb_m, rb_p, rb_a
            if t_acc:
                self._n_accesses += t_acc
                self._n_reads += t_reads
                self._n_writes += t_writes
                self._n_served_fast += t_served
                t_acc = t_reads = t_writes = t_served = 0
            if c_stage:
                n_cases[idx_stage] += c_stage
                c_stage = 0
            if c_commit:
                n_cases[idx_commit] += c_commit
                c_commit = 0
            if c_cmiss:
                n_cases[idx_cmiss] += c_cmiss
                c_cmiss = 0
            if c_smiss:
                n_cases[idx_smiss] += c_smiss
                c_smiss = 0
            if c_bmiss:
                n_cases[idx_bmiss] += c_bmiss
                c_bmiss = 0
            if c_home:
                n_cases[idx_home] += c_home
                c_home = 0
            if c_slowd:
                n_cases[idx_slowd] += c_slowd
                c_slowd = 0
            if tbl_reads:
                self._stats.inc("remap_table_reads", tbl_reads)
                tbl_reads = 0
            if rc_total:
                rc_credit(rc_total, rc_hit_t, rc_nm, rc_ne)
                rc_total = rc_hit_t = rc_nm = rc_ne = 0
            if f_nr or f_nw:
                fast._n_read_bytes += f_rb
                fast._n_reads += f_nr
                fast._n_demand_read_bytes += f_db
                fast._n_write_bytes += f_wb
                fast._n_writes += f_nw
                f_rb = f_nr = f_db = f_wb = f_nw = 0
            if s_nr or s_nw:
                slow._n_read_bytes += s_rb
                slow._n_reads += s_nr
                slow._n_demand_read_bytes += s_db
                slow._n_fill_read_bytes += s_fb
                slow._n_write_bytes += s_wb
                slow._n_writes += s_nw
                s_rb = s_nr = s_db = s_fb = s_wb = s_nw = 0
            if rb_h:
                rb.stats.inc("row_hits", rb_h)
                rb_h = 0
            if rb_m:
                rb.stats.inc("row_misses", rb_m)
                rb_m = 0
                if rb_p:
                    rb.stats.inc("precharges", rb_p)
                    rb_p = 0
                if rb_a:
                    rb.stats.inc("activations", rb_a)
                    rb_a = 0
            return None

        return serve, flush, self.access_batch

    def access_batch(self, ops, cycles: float, mlp: float) -> float:
        """Replay a span of deferred ops against the channel pools.

        ``ops`` interleaves plain floats (core-side cycle increments the
        caller deferred to keep the accumulation order) with op tuples
        from :meth:`access_deferred`, in trace order. Each op is served at
        the clock value the accumulator has reached — exactly the ``now``
        the scalar loop would have passed to :meth:`access` — so the
        channel busy-state evolution, the queueing delays and the float
        accumulation order of ``cycles`` are bit-identical to the scalar
        path. Returns the advanced ``cycles``.
        """
        fast_transfer = self.devices.fast.pool.transfer
        slow_transfer = self.devices.slow.pool.transfer
        tag_lat = self._tag_lat_f
        meta_hit = self._meta_hit_f
        rc_lat = self._rc_lat_f
        probe_lat = self.devices.fast.read_latency + 0.0
        now = self._now
        for op in ops:
            if op.__class__ is float:
                cycles += op
                continue
            rc_miss, stage_meta, dev, nbytes, arr, decomp, _lines = op
            now = cycles
            if dev >= 3:
                if dev >= 5:
                    # Staging fetch (cases 3/5): ``nbytes`` carries
                    # ``(demand_bytes, extras)`` — the demand read plus
                    # the captured posted transfers, replayed in capture
                    # order. Only reads (dev 5) stall the core.
                    demand_nb, extras = nbytes
                    if rc_miss:
                        queue, transfer = fast_transfer(now, 16, True)
                        remap_lat = rc_lat + ((probe_lat + queue) + transfer)
                        latency = remap_lat if remap_lat > tag_lat else tag_lat
                    else:
                        latency = meta_hit
                    if demand_nb:
                        queue, transfer = slow_transfer(now, demand_nb, True)
                        latency += (arr + queue) + transfer
                        if decomp:
                            latency += decomp
                    for pid, nb, pri in extras:
                        if pid:
                            fast_transfer(now, nb, pri)
                        else:
                            slow_transfer(now, nb, pri)
                    if dev == 5:
                        cycles += latency / mlp
                    continue
                # Posted write: evolves the channel busy state (and the
                # remap-table probe) but adds no core-visible latency —
                # the simulator never accumulates write latencies.
                if rc_miss:
                    fast_transfer(now, 16, True)
                if dev == 3:
                    fast_transfer(now, nbytes)
                else:
                    slow_transfer(now, nbytes)
                continue
            if rc_miss:
                queue, transfer = fast_transfer(now, 16, True)
                if stage_meta:
                    latency = tag_lat
                else:
                    remap_lat = rc_lat + ((probe_lat + queue) + transfer)
                    latency = remap_lat if remap_lat > tag_lat else tag_lat
            else:
                latency = tag_lat if stage_meta else meta_hit
            if dev:
                queue, transfer = (
                    fast_transfer(now, nbytes, True)
                    if dev == 1
                    else slow_transfer(now, nbytes, True)
                )
                latency += (arr + queue) + transfer
                if decomp:
                    latency += decomp
            cycles += latency / mlp
        self._now = now
        return cycles

    def _dispatch(
        self,
        now: float,
        super_id: int,
        block_id: int,
        blk_off: int,
        sub_idx: int,
        line_idx: int,
        is_write: bool,
    ) -> Tuple[AccessResult, Optional[RemapEntry], Optional[Tuple[int, StageTagEntry]]]:
        """The Fig. 6 case dispatch (the body of :meth:`access`)."""
        stage_set = self.stage.set_index_of(super_id)
        self.stage.record_set_access(stage_set)

        # Metadata lookup: stage tag array and remap cache in parallel.
        meta_latency = float(self.config.stage.tag_latency_cycles)
        try:
            remap_hit = self.remap_cache.access(super_id)
        except CorruptionError:
            # Injected remap-cache corruption: the line is dropped and
            # rebuilt from the authoritative table. The refill runs with
            # injection paused so the repair always terminates.
            remap_hit = self._repair_remap_cache_line(super_id)
        remap_latency = float(self.remap_cache.latency_cycles)
        if not remap_hit:
            # Off-chip remap table probe: one super-block line (16 B).
            table = self._dev_read(self.devices.fast, now, 16, demand=True)
            remap_latency += table.total_cycles
            self._stats.inc("remap_table_reads")
        # Fast path: with no fault injection armed, `_table_get` is a pure
        # read, so the entry materialization can be deferred until a
        # consumer needs it. The dominant stage-hit/remap-cache-hit case
        # then skips it entirely unless a tracker is recording (the
        # existing zero-cost guards stay in place).
        defer_entry = self.faults is None
        entry = None if defer_entry else self._table_get(now, block_id)

        staged_block = None
        staged_sub = None
        if self.config.stage.enabled:
            if self.faults is None:
                # O(1) columnar probes replace the way x slot scans. The
                # Rule-3 and no-overlap invariants (ColumnarState.verify)
                # make the dict answers identical to the first-match
                # scans; with fault injection armed the scans stay, since
                # lookup_block draws the corruption sample per match.
                ref = self.columnar.stage_block.get(block_id)
                if ref is not None:
                    way = ref[0]
                    entry_obj = self.stage.tags.entries[stage_set][way]
                    staged_block = (way, entry_obj)
                    hit = self.columnar.stage_sub.get(
                        block_id * self._g_sub_per_block + sub_idx
                    )
                    if hit is not None:
                        staged_sub = (way, entry_obj, hit[1])
            else:
                staged_block = self.stage.lookup_block(super_id, blk_off)
                if staged_block is not None:
                    staged_sub = self.stage.lookup_sub_block(
                        super_id, blk_off, sub_idx
                    )

        if staged_sub is not None:
            meta = meta_latency
            result = self._case1_stage_hit(
                now, meta, super_id, block_id, blk_off, sub_idx, line_idx,
                staged_sub, is_write,
            )
            if defer_entry and self.tracker is not None:
                entry = self._table_get(now, block_id)
            return result, entry, staged_block
        else:
            if defer_entry:
                entry = self._table_get(now, block_id)
            meta = max(meta_latency, remap_latency)
            if entry.is_remapped and entry.sub_block_remapped(sub_idx):
                result = self._case2_commit_hit(
                    now, meta, super_id, block_id, blk_off, sub_idx, line_idx,
                    entry, is_write,
                )
            elif staged_block is not None:
                result = self._case3_stage_miss(
                    now, meta, super_id, block_id, blk_off, sub_idx, line_idx,
                    staged_block, is_write,
                )
            elif entry.is_remapped:
                if self.config.stage.enabled:
                    result = self._case4_commit_miss(now, meta, is_write)
                else:
                    # No-stage ablation: insert directly (with re-sort cost).
                    result = self._no_stage_miss(
                        now, meta, super_id, block_id, blk_off, sub_idx,
                        line_idx, is_write,
                    )
            elif self._is_fast_home(block_id):
                result = self._fast_home_access(now, meta, block_id, is_write)
            elif self._is_home_block(block_id):
                # Displaced home block: served from its spread slow copy
                # until its space frees (never staged; Sec. III-F).
                result = self._slow_direct(now, meta, is_write)
            else:
                result = self._case5_block_miss(
                    now, meta, super_id, block_id, blk_off, sub_idx, line_idx,
                    is_write,
                )

        return result, entry, staged_block

    # --------------------------------------------------- recovery paths
    def _dev_read(self, device, now: float, nbytes: int, *, demand: bool = True,
                  addr: Optional[int] = None):
        """Device read, through bounded retry when recovery is armed."""
        if self.recovery is not None and self.faults is not None:
            return self.recovery.retry_read(device, now, nbytes, demand=demand, addr=addr)
        return device.read(now, nbytes, demand=demand, addr=addr)

    def _dev_write(self, device, now: float, nbytes: int, addr: Optional[int] = None):
        """Device write, through bounded retry when recovery is armed."""
        if self.recovery is not None and self.faults is not None:
            return self.recovery.retry_write(device, now, nbytes, addr=addr)
        return device.write(now, nbytes, addr=addr)

    def _bg_read(self, device, now: float, nbytes: int) -> None:
        """Fill-side read whose timing outcome is discarded.

        Same channel occupancy and traffic counters as
        ``_dev_read(..., demand=False)`` without materializing the
        :class:`DeviceAccess` nobody reads; falls back to the retry
        wrapper whenever fault injection is armed.
        """
        if self.faults is not None or device.faults is not None:
            self._dev_read(device, now, nbytes, demand=False)
            return
        device.pool.transfer(now, nbytes, False)
        device._n_read_bytes += nbytes
        device._n_reads += 1
        device._n_fill_read_bytes += nbytes

    def _bg_write(self, device, now: float, nbytes: int) -> None:
        """Posted write whose timing outcome is discarded (see _bg_read)."""
        if self.faults is not None or device.faults is not None:
            self._dev_write(device, now, nbytes)
            return
        device.pool.transfer(now, nbytes)
        device._n_write_bytes += nbytes
        device._n_writes += 1

    def _pause_faults(self) -> bool:
        """Suspend injection for a recovery path; returns a resume token."""
        if self.faults is not None and not self.faults.paused:
            self.faults.paused = True
            return True
        return False

    def _resume_faults(self, token: bool) -> None:
        if token:
            self.faults.paused = False

    def _table_get(self, now: float, block_id: int) -> RemapEntry:
        """Access-path remap table read, with corruption detection.

        When the injector corrupts the read and the shadow checker is
        armed, the checker returns the shadow-true entry and the repaired
        entry is written back (one 2-byte metadata write, injection
        paused). Without a checker this configuration is rejected at
        config time — corruption would be a silent wrong result.
        """
        entry = self.remap_table.get(block_id)
        if (
            self.faults is not None
            and self.faults.active
            and self.faults.table_corruption()
        ):
            entry = self.checker.verified_get(block_id, entry, corrupted=True)
            token = self._pause_faults()
            try:
                self._bg_write(self.devices.fast, now, 2)
            finally:
                self._resume_faults(token)
            self.recovery.record("table_repairs", site="remap_table")
        return entry

    def _repair_remap_cache_line(self, super_id: int) -> bool:
        """Drop and refill a corrupted remap-cache line. Returns False:
        the access now pays the off-chip table probe, as any miss would.

        Delegates to :meth:`RemapCache.repair`, which fuses the old
        invalidate + fault-paused refill into one pass over the set (the
        columnar occupancy column replaces the re-probe); a paused access
        never consulted the injector, so no pause/resume is needed here.
        """
        self.remap_cache.repair(super_id)
        self.recovery.record("remap_cache_repairs", site="remap_cache")
        return False

    def _quarantined_serve(self, now: float, is_write: bool) -> AccessResult:
        """Degraded service for a poisoned super-block (always succeeds)."""
        self.recovery.record("quarantined_serves")
        token = self._pause_faults()
        try:
            return self._slow_direct(
                now, float(self.config.stage.tag_latency_cycles), is_write
            )
        finally:
            self._resume_faults(token)

    def _degraded(
        self, now: float, super_id: int, err: Exception, is_write: bool
    ) -> AccessResult:
        """Recovery exhausted (retries spent or corruption with no clean
        repair): quarantine the super-block and serve from slow memory.

        The cleanup — flushing staged data, evicting committed data back
        to slow memory, dropping cached metadata — runs with injection
        paused, so degradation itself cannot fault.
        """
        token = self._pause_faults()
        try:
            self._quarantine_super(now, super_id)
            kind = "corruption" if isinstance(err, CorruptionError) else "transient"
            self.recovery.record(
                f"degraded_{kind}", site=getattr(err, "site", None)
            )
            return self._slow_direct(
                now, float(self.config.stage.tag_latency_cycles), is_write
            )
        finally:
            self._resume_faults(token)

    def _quarantine_super(self, now: float, super_id: int) -> None:
        """Poison one super-block: flush its staged and committed data to
        slow memory and serve it slow-direct from now on."""
        if super_id in self._quarantined:
            return
        self._quarantined.add(super_id)
        self.recovery.record("quarantined_supers")
        set_index = self.stage.set_index_of(super_id)
        for way, _entry in list(self.stage.lookup_super(super_id)):
            self._evict_stage_block(now, set_index, way, super_id)
            self.recovery.record("stage_flushes")
        base = super_id * self.geometry.super_block_blocks
        for off in range(self.geometry.super_block_blocks):
            block_id = base + off
            if self.remap_table.get(block_id).is_remapped:
                self._evict_committed_logical_block(now, super_id, block_id, off)
            self._cf_hints.pop(block_id, None)
        self.remap_cache.invalidate(super_id)

    # ----------------------------------------------------------- case 1
    def _case1_stage_hit(
        self,
        now: float,
        meta: float,
        super_id: int,
        block_id: int,
        blk_off: int,
        sub_idx: int,
        line_idx: int,
        staged_sub: Tuple[int, StageTagEntry, int],
        is_write: bool,
    ) -> AccessResult:
        way, entry, slot_idx = staged_sub
        slot = entry.slots[slot_idx]
        assert slot is not None
        set_index = self.stage.set_index_of(super_id)
        self.stage.touch(set_index, way)
        prefetched: List[int] = []
        latency = meta
        overflow = False

        if slot.zero:
            # Zero data: nothing to read from the device.
            if is_write:
                overflow = self._stage_zero_write(
                    now, set_index, way, slot_idx, block_id, blk_off, sub_idx
                )
                access = self._dev_write(self.devices.fast,
                    now, self.geometry.cacheline_size, addr=block_id * self.geometry.block_size
                )
                latency += access.total_cycles
        elif is_write:
            access = self._dev_write(self.devices.fast,
                now, self.geometry.cacheline_size,
                addr=block_id * self.geometry.block_size + sub_idx * self.geometry.sub_block_size,
            )
            latency += access.total_cycles
            self.stage.mark_dirty(set_index, way, slot_idx)
            overflow = self._maybe_stage_overflow(
                now, set_index, way, slot_idx, block_id, blk_off, sub_idx
            )
        else:
            access = self._dev_read(self.devices.fast,
                now, self._demand_bytes(slot.cf),
                addr=block_id * self.geometry.block_size + sub_idx * self.geometry.sub_block_size,
            )
            latency += access.total_cycles
            if slot.cf > 1:
                latency += self._decomp_i
                prefetched = self._chunk_lines(
                    block_id, slot.sub_start, slot.cf, sub_idx, line_idx
                )
        return AccessResult(
            AccessCase.STAGE_HIT, latency, is_write, overflow, prefetched
        )

    def _maybe_stage_overflow(
        self,
        now: float,
        set_index: int,
        way: int,
        slot_idx: int,
        block_id: int,
        blk_off: int,
        sub_idx: int,
    ) -> bool:
        """Recompress after a stage write; reinsert split ranges on overflow."""
        entry = self.stage.entry(set_index, way)
        slot = entry.slots[slot_idx]
        assert slot is not None
        changed = self.oracle.note_write(block_id, sub_idx)
        if not changed or slot.cf == 1:
            return False
        if self.oracle.fits(
            block_id, slot.sub_start, slot.cf, self.config.compression.cacheline_aligned
        ):
            return False
        # Overflow: remove the range and reinsert it as freshly fetched
        # pieces (case 3 semantics) — data are already in fast memory.
        self._stats.inc("stage_write_overflows")
        removed = self.stage.remove_slot(set_index, way, slot_idx)
        super_id = self.stage.mapper.super_block_of(set_index, entry.tag)
        for piece in self._split_range(block_id, removed.sub_start, removed.cf):
            piece_slot = RangeSlot(
                cf=piece[1], dirty=True, blk_off=blk_off, sub_start=piece[0]
            )
            self._stage_insert(now, super_id, block_id, blk_off, piece_slot)
            self._bg_write(self.devices.fast, now, self.geometry.sub_block_size)
        return True

    def _stage_zero_write(
        self,
        now: float,
        set_index: int,
        way: int,
        slot_idx: int,
        block_id: int,
        blk_off: int,
        sub_idx: int,
    ) -> bool:
        """A write to a staged all-zero block breaks the Z encoding."""
        self._stats.inc("stage_zero_breaks")
        self.oracle.note_write(block_id, sub_idx)
        entry = self.stage.entry(set_index, way)
        self.stage.remove_slot(set_index, way, slot_idx)
        super_id = self.stage.mapper.super_block_of(set_index, entry.tag)
        cf = self.oracle.max_cf(
            block_id, sub_idx, self.config.compression.cacheline_aligned
        )
        start, _ = self.geometry.aligned_range(sub_idx, cf)
        slot = RangeSlot(cf=cf, dirty=True, blk_off=blk_off, sub_start=start)
        self._stage_insert(now, super_id, block_id, blk_off, slot)
        return True

    def _split_range(
        self, block_id: int, start: int, cf: int
    ) -> List[Tuple[int, int]]:
        """Split an overflowed range into pieces at their new maximal CFs."""
        pieces: List[Tuple[int, int]] = []
        ca = self.config.compression.cacheline_aligned
        sub = start
        while sub < start + cf:
            new_cf = self.oracle.max_cf(block_id, sub, ca)
            piece_start, length = self.geometry.aligned_range(sub, new_cf)
            # The piece must stay inside the data we actually hold, and
            # must really compress at its CF under the current contents.
            while new_cf > 1 and (
                piece_start < start
                or piece_start + length > start + cf
                or not self.oracle.fits(block_id, piece_start, new_cf, ca)
            ):
                new_cf //= 2
                piece_start, length = self.geometry.aligned_range(sub, new_cf)
            pieces.append((piece_start, new_cf))
            sub = piece_start + length
        return pieces

    # ----------------------------------------------------------- case 2
    def _case2_commit_hit(
        self,
        now: float,
        meta: float,
        super_id: int,
        block_id: int,
        blk_off: int,
        sub_idx: int,
        line_idx: int,
        entry: RemapEntry,
        is_write: bool,
    ) -> AccessResult:
        located = self.fast_area.find_block(super_id, blk_off)
        if located is None:
            raise SimulationError(
                f"remap entry points to fast memory but block {block_id} "
                "is not tracked in the fast area"
            )
        way, state = located
        set_index = self.fast_area.set_of_super(super_id)
        self.fast_area.touch(set_index, way)
        target_range = entry.range_of(sub_idx)
        assert target_range is not None
        start, cf = target_range
        prefetched: List[int] = []
        latency = meta
        overflow = False

        if entry.zero:
            if is_write:
                # Writing a committed all-zero block invalidates the Z
                # encoding: evict the whole logical block, write to slow.
                self._stats.inc("commit_zero_breaks")
                self.oracle.note_write(block_id, sub_idx)
                self._evict_committed_logical_block(now, super_id, block_id, blk_off)
                access = self._dev_write(self.devices.slow, now, self.geometry.cacheline_size)
                latency += access.total_cycles
                overflow = True
            return AccessResult(
                AccessCase.COMMIT_HIT, latency, is_write, overflow, prefetched
            )

        if is_write:
            access = self._dev_write(self.devices.fast,
                now, self.geometry.cacheline_size,
                addr=block_id * self.geometry.block_size + sub_idx * self.geometry.sub_block_size,
            )
            latency += access.total_cycles
            state.dirty_subs.add((blk_off, sub_idx))
            changed = self.oracle.note_write(block_id, sub_idx)
            if changed and cf > 1 and not self.oracle.fits(
                block_id, start, cf, self.config.compression.cacheline_aligned
            ):
                overflow = True
                self._stats.inc("commit_write_overflows")
                self._handle_commit_overflow(
                    now, super_id, block_id, blk_off, start, cf, set_index, way
                )
        else:
            access = self._dev_read(self.devices.fast,
                now, self._demand_bytes(cf),
                addr=block_id * self.geometry.block_size + sub_idx * self.geometry.sub_block_size,
            )
            latency += access.total_cycles
            if cf > 1:
                latency += self.config.compression.decompression_latency_cycles
                prefetched = self._chunk_lines(block_id, start, cf, sub_idx, line_idx)
        return AccessResult(
            AccessCase.COMMIT_HIT, latency, is_write, overflow, prefetched
        )

    def _handle_commit_overflow(
        self,
        now: float,
        super_id: int,
        block_id: int,
        blk_off: int,
        start: int,
        cf: int,
        set_index: int,
        way: int,
    ) -> None:
        """Rule 4 fallout: a committed range no longer fits its slot.

        If the range is the last slot of the physical block, only it is
        evicted; otherwise the sorted layout is invalidated and the whole
        physical block is evicted (Sec. III-D case 2).
        """
        state = self.fast_area.state(set_index, way)
        assert state is not None
        if self._range_is_last_slot(super_id, block_id, blk_off, start, way):
            self._evict_committed_range(now, super_id, block_id, blk_off, start, cf)
        else:
            self._evict_fast_block(now, set_index, way)

    def _range_is_last_slot(
        self, super_id: int, block_id: int, blk_off: int, start: int, way: int
    ) -> bool:
        """Is (blk_off, start) the last occupied slot of its physical block?"""
        base = super_id * self.geometry.super_block_blocks
        last_block: Optional[int] = None
        for off in range(self.geometry.super_block_blocks):
            e = self.remap_table.get(base + off)
            if e.is_remapped and not e.zero and e.pointer == way and e.occupied_slots():
                last_block = off
        if last_block != blk_off:
            return False
        entry = self.remap_table.get(block_id)
        ranges = entry.ranges()
        return bool(ranges) and ranges[-1][0] == start

    # ----------------------------------------------------------- case 3
    def _case3_stage_miss(
        self,
        now: float,
        meta: float,
        super_id: int,
        block_id: int,
        blk_off: int,
        sub_idx: int,
        line_idx: int,
        staged_block: Tuple[int, StageTagEntry],
        is_write: bool,
    ) -> AccessResult:
        set_index = self.stage.set_index_of(super_id)
        way, _entry = staged_block
        self.stage.record_block_miss(set_index, way)
        latency, prefetched = self._fetch_and_stage(
            now, meta, super_id, block_id, blk_off, sub_idx, line_idx, is_write
        )
        return AccessResult(AccessCase.STAGE_MISS, latency, is_write, False, prefetched)

    # ----------------------------------------------------------- case 4
    def _case4_commit_miss(self, now: float, meta: float, is_write: bool) -> AccessResult:
        size = self.geometry.cacheline_size
        if is_write:
            access = self._dev_write(self.devices.slow, now, size)
        else:
            access = self._dev_read(self.devices.slow, now, size, demand=True)
        return AccessResult(AccessCase.COMMIT_MISS, meta + access.total_cycles, is_write)

    def _slow_direct(self, now: float, meta: float, is_write: bool) -> AccessResult:
        """Serve from slow memory with no staging side effects."""
        size = self.geometry.cacheline_size
        if is_write:
            access = self._dev_write(self.devices.slow, now, size)
        else:
            access = self._dev_read(self.devices.slow, now, size, demand=True)
        return AccessResult(AccessCase.SLOW_DIRECT, meta + access.total_cycles, is_write)

    # ----------------------------------------------------------- case 5
    def _case5_block_miss(
        self,
        now: float,
        meta: float,
        super_id: int,
        block_id: int,
        blk_off: int,
        sub_idx: int,
        line_idx: int,
        is_write: bool,
    ) -> AccessResult:
        if not self.config.stage.enabled:
            return self._no_stage_miss(
                now, meta, super_id, block_id, blk_off, sub_idx, line_idx, is_write
            )
        set_index = self.stage.set_index_of(super_id)
        self.stage.record_block_miss(set_index, None)
        latency, prefetched = self._fetch_and_stage(
            now, meta, super_id, block_id, blk_off, sub_idx, line_idx, is_write
        )
        if self.tracker is not None:
            self.tracker.block_staged(block_id)
        return AccessResult(AccessCase.BLOCK_MISS, latency, is_write, False, prefetched)

    # --------------------------------------------------- flat-scheme homes
    def _is_home_block(self, block_id: int) -> bool:
        """Flat scheme: is this block's OS home a fast block space?"""
        if self._flat_blocks == 0 or block_id % self._home_period != 0:
            return False
        return block_id // self._home_period < self._flat_blocks

    def _is_fast_home(self, block_id: int) -> bool:
        """Home-fast *and* currently resident (not displaced by a commit)."""
        return self._is_home_block(block_id) and block_id not in self._displaced

    def _home_location(self, block_id: int) -> Tuple[int, int]:
        """(set, way) of a home-fast block's space."""
        index = block_id // self._home_period
        return index % self.fast_area.num_sets, index // self.fast_area.num_sets

    def _home_block_of(self, set_index: int, way: int) -> Optional[int]:
        """Inverse of :meth:`_home_location` for flat ways."""
        if way >= self._flat_ways:
            return None
        index = way * self.fast_area.num_sets + set_index
        if index >= self._flat_blocks:
            return None
        return index * self._home_period

    def _fast_home_access(
        self, now: float, meta: float, block_id: int, is_write: bool
    ) -> AccessResult:
        size = self.geometry.cacheline_size
        if is_write:
            access = self._dev_write(self.devices.fast, now, size, addr=block_id * self.geometry.block_size)
        else:
            access = self._dev_read(self.devices.fast, now, size, addr=block_id * self.geometry.block_size)
        self._home_stamps[block_id] = self.fast_area.next_stamp()
        return AccessResult(AccessCase.FAST_HOME, meta + access.total_cycles, is_write)

    def _commit_victim_way(self, fa_set: int) -> Tuple[int, Optional[FastBlockState]]:
        """Pick the fast block space a commit should take.

        Low-associative sets scan their few ways for the coldest candidate
        across committed blocks (replacement stamp) and resident home
        blocks (last-access stamp), so a hot OS-resident block is not
        displaced in favour of lukewarm migrated data. Fully-associative
        organizations use the paper's FIFO policy (Sec. III-E) via a
        cycling pointer.
        """
        if self.config.layout.fully_associative:
            way = self._fa_next_victim()
            self._fa_victim_ptr = way + 1
            return way, self.fast_area.state(fa_set, way)
        return self._coldest_way(fa_set)

    def _fa_next_victim(self) -> int:
        """FIFO victim for the fully-associative organization.

        The pointer cycles over the cache-area ways; OS-resident home
        blocks are only displaced when the configuration provisions no
        cache section at all (flat_fraction = 1).
        """
        ways = self.fast_area.ways
        first = self._flat_ways if self._flat_ways < ways else 0
        span = ways - first
        return first + (max(0, self._fa_victim_ptr - first)) % span

    def _peek_commit_victim(self, fa_set: int) -> Tuple[int, Optional[FastBlockState]]:
        """Like :meth:`_commit_victim_way` but with no side effects (the
        FA FIFO pointer must not advance for a mere cost-model peek)."""
        if self.config.layout.fully_associative:
            way = self._fa_next_victim()
            return way, self.fast_area.state(fa_set, way)
        return self._coldest_way(fa_set)

    def _coldest_way(self, fa_set: int) -> Tuple[int, Optional[FastBlockState]]:
        best_way, best_stamp, best_state = None, None, None
        for way in range(self.fast_area.ways):
            state = self.fast_area.state(fa_set, way)
            if state is None:
                home = self._home_block_of(fa_set, way)
                if home is None:
                    return way, None  # free cache-area way
                stamp = self._home_stamps.get(home, 0)
            else:
                stamp = state.stamp
            if best_stamp is None or stamp < best_stamp:
                best_way, best_stamp, best_state = way, stamp, state
        if best_way is None:
            raise SimulationError("fast area has no ways")
        return best_way, best_state

    # ------------------------------------------------------- fetch + stage
    def _fetch_and_stage(
        self,
        now: float,
        meta: float,
        super_id: int,
        block_id: int,
        blk_off: int,
        sub_idx: int,
        line_idx: int,
        is_write: bool,
    ) -> Tuple[float, List[int]]:
        """Cases 3/5: fetch from slow memory, respond, stage in background."""
        g = self.geometry
        existing = self._staged_block_of(super_id, block_id, blk_off)

        # All-zero block: the Z encoding stages the whole block for free
        # (only on the first fetch of the block, which covers it entirely).
        if (
            existing is None
            and self._zero_support
            and self.oracle.is_zero(block_id, 0, g.sub_blocks_per_block)
        ):
            slot = RangeSlot(cf=1, dirty=is_write, blk_off=blk_off, zero=True)
            self._stage_insert(now, super_id, block_id, blk_off, slot, existing)
            self._stats.inc("zero_block_stages")
            return meta, []

        start, cf, compressed = self._choose_fetch_range(block_id, blk_off, sub_idx)
        # Avoid refetching sub-blocks this block already has staged.
        if existing is not None:
            _, entry = existing
            staged_subs = {
                s
                for slot in entry.slots
                if slot is not None and slot.blk_off == blk_off
                for s in slot.sub_blocks
            }
            while cf > 1 and any(
                s in staged_subs for s in range(start, start + cf)
            ):
                cf //= 2
                start, _ = g.aligned_range(sub_idx, cf)
                compressed = False

        # Demand chunk first (one 64 B transfer; the whole compressed slot
        # when cacheline-aligned compression is disabled).
        demand_bytes = self._demand_bytes(cf) if compressed else g.cacheline_size
        demand = self._dev_read(self.devices.slow, now, demand_bytes, demand=True)
        latency = meta + demand.total_cycles
        prefetched: List[int] = []
        if compressed:
            latency += self.config.compression.decompression_latency_cycles
            prefetched = self._chunk_lines(block_id, start, cf, sub_idx, line_idx)
            fetch_bytes = g.sub_block_size
        else:
            fetch_bytes = cf * g.sub_block_size
        # Background: the rest of the range, plus the stage-area fill.
        rest = max(0, fetch_bytes - demand_bytes)
        if rest:
            self._bg_read(self.devices.slow, now, rest)
        self._bg_write(self.devices.fast, now, g.sub_block_size)
        if self._h_fetch_subs is not None:
            self._h_fetch_subs.observe(cf)
            self._h_fetch_bytes.observe(fetch_bytes)

        slot = RangeSlot(cf=cf, dirty=is_write, blk_off=blk_off, sub_start=start)
        self._stage_insert(now, super_id, block_id, blk_off, slot, existing)
        if is_write:
            self.oracle.note_write(block_id, sub_idx)
        return latency, prefetched

    def _choose_fetch_range(
        self, block_id: int, blk_off: int, sub_idx: int
    ) -> Tuple[int, int, bool]:
        """Pick the maximal compressible aligned range around ``sub_idx``.

        Returns ``(start, cf, compressed)``; ``compressed`` means the data
        are already stored compressed in slow memory (CF hint present after
        a compressed writeback), so the fetch itself moves fewer bytes.
        """
        g = self.geometry
        ca = self._ca
        hint = self._cf_hints.get(block_id)
        if hint is not None and self._cwb:
            cf2, cf4, _zero = hint
            quad = sub_idx // 4
            if (cf4 >> quad) & 1:
                return quad * 4, 4, True
            pair = sub_idx // 2
            if (cf2 >> pair) & 1:
                return pair * 2, 2, True
        if self._compression_skipped(block_id):
            return sub_idx, 1, False
        cf = self.oracle.max_cf(block_id, sub_idx, ca)
        start, _ = g.aligned_range(sub_idx, cf)
        return start, cf, False

    def _compression_skipped(self, block_id: int) -> bool:
        """Selective compression (future-work extension): skip regions
        whose expected CF is too low to pay for the decompression latency
        and overflow risk."""
        comp = self.config.compression
        if not comp.selective:
            return False
        profile_of = getattr(self.oracle, "profile_of", None)
        if profile_of is None:
            return False
        expected = profile_of(block_id).expected_cf(comp.cacheline_aligned)
        if expected >= comp.selective_threshold:
            return False
        self._stats.inc("compression_skips")
        return True

    def _chunk_lines(
        self, block_id: int, range_start: int, cf: int, sub_idx: int, line_idx: int
    ) -> List[int]:
        """Cachelines sharing the demanded 64 B compressed chunk (Fig. 7).

        With cacheline-aligned compression the chunk holds ``cf``
        consecutive cachelines; without it the whole range must be fetched
        and decompressed, so every line of the range arrives (bandwidth
        waste + LLC pollution, the Fig. 12 w/o-CA penalty).
        """
        g = self.geometry
        if cf <= 1:
            return []
        base = block_id * g.block_size + range_start * g.sub_block_size
        lines_per_sub = g.cachelines_per_sub_block
        demanded = (sub_idx - range_start) * lines_per_sub + line_idx
        if self.config.compression.cacheline_aligned:
            chunk = demanded // cf
            indices = range(chunk * cf, chunk * cf + cf)
        else:
            indices = range(cf * lines_per_sub)
        return [
            base + i * g.cacheline_size for i in indices if i != demanded
        ]

    def _demand_bytes(self, cf: int) -> int:
        """Bytes the critical-path transfer must move for one demand read.

        Cacheline-aligned compression keeps this at 64 B regardless of CF;
        without it a compressed slot has unknown internal boundaries and
        the whole slot must be fetched before decompression (Fig. 7 left).
        """
        if cf <= 1 or self.config.compression.cacheline_aligned:
            return self.geometry.cacheline_size
        return self.geometry.sub_block_size

    # ------------------------------------------------------- stage insertion
    def _stage_insert(
        self,
        now: float,
        super_id: int,
        block_id: int,
        blk_off: int,
        new_slot: RangeSlot,
        bound: Optional[Tuple[int, StageTagEntry]] = _UNRESOLVED,
    ) -> None:
        """Insert one range into the stage area (two-level replacement).

        Implements the Fig. 8 heuristic: Rule 3 binds a block's ranges to
        one physical block; when that block is full we FIFO-replace inside
        it if it is the set's LRU (or the two-level policy is disabled),
        and otherwise allocate a fresh physical block via a block-level
        replacement, regrouping the data block's existing ranges into it.
        """
        set_index = self.stage.set_index_of(super_id)
        if bound is _UNRESOLVED:
            bound = self._staged_block_of(super_id, block_id, blk_off)
        if bound is not None:
            way, entry = bound
            if entry.free_slot() is not None:
                self.stage.insert_range(set_index, way, new_slot)
                self.stage.touch(set_index, way)
                return
            owns_whole_block = len(entry.slots_of_block(blk_off)) >= len(entry.slots)
            if (
                not self._two_level
                or self.stage.is_lru(set_index, way)
                or owns_whole_block
            ):
                self._sub_block_replace(now, set_index, way, super_id)
                self.stage.insert_range(set_index, way, new_slot)
                self.stage.touch(set_index, way)
                return
            # Block-level move: free a way, regroup this data block there.
            self._block_level_replace(now, set_index, protect_way=way)
            allocated = self.stage.allocate(super_id)
            if allocated is None:
                raise SimulationError("block-level replacement freed no way")
            _, new_way = allocated
            moved = 0
            for slot_idx in list(
                self.stage.entry(set_index, way).slots_of_block(blk_off)
            ):
                slot = self.stage.remove_slot(set_index, way, slot_idx)
                self.stage.insert_range(set_index, new_way, slot)
                moved += 1
            if not self.stage.entry(set_index, way).occupancy():
                self.stage.invalidate(set_index, way)
            # Fast-to-fast regrouping traffic.
            move_bytes = moved * self.geometry.sub_block_size
            self._bg_read(self.devices.fast, now, move_bytes)
            self._bg_write(self.devices.fast, now, move_bytes)
            self._stats.inc("stage_regroup_moves")
            self.stage.insert_range(set_index, new_way, new_slot)
            self.stage.touch(set_index, new_way)
            return

        candidates = self.stage.lookup_super(super_id)
        if not self._share_phys:
            # Traditional sub-blocking: a physical block serves one logical
            # block only, so other blocks' stage ways are not candidates.
            candidates = []
        with_room = [(w, e) for w, e in candidates if e.free_slot() is not None]
        if with_room:
            way, _ = self._rng.choice(with_room)
            if len(candidates) > 1:
                self._stats.inc("multi_block_super_stages")
            self.stage.insert_range(set_index, way, new_slot)
            self.stage.touch(set_index, way)
            return
        if candidates:
            lru_full = [
                w for w, _ in candidates if self.stage.is_lru(set_index, w)
            ]
            if lru_full or not self._two_level:
                way = lru_full[0] if lru_full else self._rng.choice(candidates)[0]
                self._sub_block_replace(now, set_index, way, super_id)
                self.stage.insert_range(set_index, way, new_slot)
                self.stage.touch(set_index, way)
                return
            self._block_level_replace(now, set_index)
            allocated = self.stage.allocate(super_id)
            if allocated is None:
                raise SimulationError("block-level replacement freed no way")
            _, way = allocated
            self.stage.insert_range(set_index, way, new_slot)
            self.stage.touch(set_index, way)
            return

        allocated = self.stage.allocate(super_id)
        if allocated is None:
            self._block_level_replace(now, set_index)
            allocated = self.stage.allocate(super_id)
            if allocated is None:
                raise SimulationError("stage allocation failed after replacement")
        _, way = allocated
        self.stage.insert_range(set_index, way, new_slot)
        self.stage.touch(set_index, way)

    def _sub_block_replace(
        self, now: float, set_index: int, way: int, super_id: int
    ) -> None:
        """FIFO-evict one range from a full stage block to slow memory."""
        slot_idx = self.stage.fifo_victim_slot(set_index, way)
        slot = self.stage.remove_slot(set_index, way, slot_idx)
        self._writeback_stage_slot(now, set_index, super_id, slot)
        self._stats.inc("sub_block_replacements")

    def _writeback_stage_slot(
        self, now: float, set_index: int, super_id: int, slot: RangeSlot
    ) -> None:
        """Evict one staged range back to slow memory.

        Clean data are dropped (the slow copy is intact in both schemes —
        staged data are copies until committed); dirty data are written,
        compressed when the optimization is on, and leave CF hints.
        """
        if slot.zero:
            return
        block_id = (
            super_id * self.geometry.super_block_blocks + slot.blk_off
        )
        if slot.dirty:
            if self.config.compressed_writeback:
                nbytes = self.geometry.sub_block_size
                self._record_hint(block_id, slot)
            else:
                nbytes = slot.cf * self.geometry.sub_block_size
            self._bg_read(self.devices.fast, now, nbytes)
            self._bg_write(self.devices.slow, now, nbytes)
            self._stats.inc("stage_dirty_writebacks")
            if self.obs.enabled:
                self.obs.emit(
                    "writeback", block=block_id, bytes=nbytes, kind="stage_dirty"
                )

    def _record_hint(self, block_id: int, slot: RangeSlot) -> None:
        cf2, cf4, zero = self._cf_hints.get(block_id, (0, 0, False))
        if slot.cf == 2:
            cf2 |= 1 << (slot.sub_start // 2)
        elif slot.cf == 4:
            cf4 |= 1 << (slot.sub_start // 4)
        self._cf_hints[block_id] = (cf2, cf4, zero)

    # ------------------------------------------------- block-level replacement
    def _block_level_replace(
        self, now: float, set_index: int, protect_way: Optional[int] = None
    ) -> None:
        """Evict or commit the stage set's LRU block (selective commit)."""
        victim_way = self.stage.lru_way(set_index)
        if victim_way is None:
            raise SimulationError("block-level replacement on an empty set")
        if victim_way == protect_way:
            # The LRU way is the one we must keep: take the next-LRU.
            ranked = sorted(
                (
                    (self.stage.entry(set_index, w).lru, w)
                    for w in range(self.stage.ways)
                    if self.stage.entry(set_index, w).valid and w != protect_way
                ),
            )
            if not ranked:
                raise SimulationError("no replaceable stage way")
            victim_way = ranked[0][1]
        entry = self.stage.entry(set_index, victim_way)
        super_id = self.stage.mapper.super_block_of(set_index, entry.tag)
        fa_set = self.fast_area.set_of_super(super_id)
        target_way, prospective = self._peek_commit_victim(fa_set)
        if prospective is None:
            # Displacing a resident home block swaps all of its sub-blocks.
            is_home = self._home_block_of(fa_set, target_way) is not None
            dirty_area = self.geometry.sub_blocks_per_block if is_home else 0
        elif target_way < self._flat_ways:
            # Flat area: every sub-block is swapped regardless of dirtiness.
            dirty_area = sum(
                self.remap_table.get(
                    prospective.super_id * self.geometry.super_block_blocks + off
                ).dirty_like_count()
                for off in prospective.committed
            )
        else:
            dirty_area = prospective.dirty_count()
        decision = self.policy.decide(
            mru_miss_cnt=self.stage.mru_miss_cnt[set_index],
            associativity=self.stage.ways,
            victim_miss_cnt=entry.miss_count,
            dirty_stage=entry.dirty_sub_block_count(),
            dirty_area=dirty_area,
            quarantined=super_id in self._quarantined,
        )
        if decision.commit:
            self._commit_stage_block(now, set_index, victim_way, super_id)
        else:
            self._evict_stage_block(now, set_index, victim_way, super_id)
        self._stats.inc("block_level_replacements")

    def _evict_stage_block(
        self, now: float, set_index: int, way: int, super_id: int
    ) -> None:
        """Put a stage victim back to slow memory (not committed)."""
        entry = self.stage.entry(set_index, way)
        blocks = entry.blocks_present()
        for slot in entry.slots:
            if slot is not None:
                self._writeback_stage_slot(now, set_index, super_id, slot)
        self.stage.invalidate(set_index, way)
        self._stats.inc("stage_evictions")
        if self.tracker is not None:
            base = super_id * self.geometry.super_block_blocks
            for blk_off in blocks:
                self.tracker.block_unstaged(base + blk_off, committed=False)

    # --------------------------------------------------------------- commit
    def _commit_stage_block(
        self, now: float, set_index: int, way: int, super_id: int
    ) -> None:
        """Promote a stage block into the cache/flat area (Rule 4 freeze)."""
        entry = self.stage.entry(set_index, way)
        fa_set = self.fast_area.set_of_super(super_id)
        target_way, occupant = self._commit_victim_way(fa_set)
        if occupant is not None:
            self._evict_fast_block(now, fa_set, target_way, for_commit=True)
        displaced = self._displace_home(now, fa_set, target_way)

        base = super_id * self.geometry.super_block_blocks
        state = FastBlockState(super_id=super_id, displaced_home=displaced)
        for blk_off in entry.blocks_present():
            block_id = base + blk_off
            remap, cf2, cf4, zero, dirties = self._slots_to_remap(entry, blk_off)
            new_entry = RemapEntry(
                remap=remap, pointer=target_way, cf2=cf2, cf4=cf4, zero=zero,
                num_subs=self.geometry.sub_blocks_per_block,
            )
            self.remap_table.set(block_id, new_entry)
            self._cf_hints.pop(block_id, None)
            occupied = new_entry.occupied_slots()
            state.committed[blk_off] = occupied
            state.slots_used += occupied
            for sub in dirties:
                state.dirty_subs.add((blk_off, sub))
            if self.tracker is not None:
                self.tracker.block_unstaged(block_id, committed=True)
        self.fast_area.install(fa_set, target_way, state)
        # Commit data movement: stage block -> cache/flat area block.
        move = state.slots_used * self.geometry.sub_block_size
        if move:
            self._bg_read(self.devices.fast, now, move)
            self._bg_write(self.devices.fast, now, move)
        snapshot = self.stage.invalidate(set_index, way)
        self._stats.inc("commits")
        if self.checker is not None:
            self.checker.check_commit(
                super_id,
                table=self.remap_table,
                stage=self.stage,
                fa_state=state,
                snapshot=snapshot,
                blocks_per_super=self.geometry.super_block_blocks,
                slots_per_block=self.geometry.sub_blocks_per_block,
            )

    def _slots_to_remap(
        self, entry: StageTagEntry, blk_off: int
    ) -> Tuple[int, int, int, bool, List[int]]:
        """Translate a block's stage slots into remap-entry fields."""
        n = self.geometry.sub_blocks_per_block
        remap, cf2, cf4 = 0, 0, 0
        zero = False
        dirties: List[int] = []
        for slot in entry.slots:
            if slot is None or slot.blk_off != blk_off:
                continue
            if slot.zero:
                zero = True
                remap = (1 << n) - 1
                if slot.dirty:
                    dirties.extend(range(n))
                continue
            for sub in slot.sub_blocks:
                remap |= 1 << sub
                if slot.dirty:
                    dirties.append(sub)
            if slot.cf == 2:
                cf2 |= 1 << (slot.sub_start // 2)
            elif slot.cf == 4:
                cf4 |= 1 << (slot.sub_start // 4)
        if zero:
            cf2, cf4 = 0, 0
        return remap, cf2, cf4, zero, dirties

    def _displace_home(self, now: float, fa_set: int, way: int) -> Optional[int]:
        """Flat scheme: spread-swap the home block out of a flat way.

        When the home is already displaced (the previous occupant was just
        slow-swapped away for this commit), only the bookkeeping carries
        over — the data already sit in slow memory.
        """
        home = self._home_block_of(fa_set, way)
        if home is None:
            return None
        if home in self._displaced:
            return home
        # Spread the original 2 kB into the freed slow sub-block spaces.
        size = self.geometry.block_size
        self._bg_read(self.devices.fast, now, size)
        self._bg_write(self.devices.slow, now, size)
        self._displaced[home] = (fa_set, way)
        self._stats.inc("home_displacements")
        return home

    def _home_displaced_at(self, fa_set: int, way: int) -> Optional[int]:
        home = self._home_block_of(fa_set, way)
        if home is not None and self._displaced.get(home) == (fa_set, way):
            return home
        return None

    def _restore_home(self, now: float, fa_set: int, way: int) -> None:
        """Flat scheme: bring a displaced home block back to its space."""
        home = self._home_displaced_at(fa_set, way)
        if home is None:
            return
        size = self.geometry.block_size
        self._bg_read(self.devices.slow, now, size)
        self._bg_write(self.devices.fast, now, size)
        del self._displaced[home]
        self._stats.inc("home_restores")

    # -------------------------------------------------------------- eviction
    def _evict_fast_block(
        self, now: float, set_index: int, way: int, for_commit: bool = False
    ) -> None:
        """Evict one committed physical block entirely.

        Cache scheme: write back dirty data, drop the clean copies.
        Flat scheme: all committed data return to their original slow
        locations (migration undo). When the eviction makes room for a new
        commit (``for_commit``), the displaced home block *stays* in slow
        memory — its spread content is only shuffled into the just-vacated
        sub-block spaces (the three-way slow swap, Sec. III-F). Otherwise
        the home block is restored to its space.
        """
        state = self.fast_area.state(set_index, way)
        if state is None:
            return
        base = state.super_id * self.geometry.super_block_blocks
        is_flat_way = way < self._flat_ways
        g = self.geometry
        for blk_off, slots in state.committed.items():
            block_id = base + blk_off
            entry = self.remap_table.get(block_id)
            if is_flat_way:
                # Migrated data must all go back (slow swap step 2).
                nbytes = (
                    slots * g.sub_block_size
                    if self.config.compressed_writeback
                    else entry.dirty_like_count() * g.sub_block_size
                )
                if nbytes:
                    self._bg_read(self.devices.fast, now, nbytes)
                    self._bg_write(self.devices.slow, now, nbytes)
                    if self.obs.enabled:
                        self.obs.emit(
                            "writeback", block=block_id, bytes=nbytes,
                            kind="flat_undo",
                        )
            else:
                dirty_subs = {
                    s for b, s in state.dirty_subs if b == blk_off
                }
                if dirty_subs:
                    if self.config.compressed_writeback:
                        dirty_ranges = {
                            entry.range_of(s) for s in dirty_subs
                        } - {None}
                        nbytes = len(dirty_ranges) * g.sub_block_size
                    else:
                        nbytes = len(dirty_subs) * g.sub_block_size
                    self._bg_read(self.devices.fast, now, nbytes)
                    self._bg_write(self.devices.slow, now, nbytes)
                    self._stats.inc("commit_dirty_writebacks")
                    if self.obs.enabled:
                        self.obs.emit(
                            "writeback", block=block_id, bytes=nbytes,
                            kind="commit_dirty",
                        )
            if self.config.compressed_writeback and not entry.zero:
                self._cf_hints[block_id] = (entry.cf2, entry.cf4, False)
            self.remap_table.clear(block_id)
        if is_flat_way and self._home_displaced_at(set_index, way) is not None:
            if for_commit:
                # Slow swap step 1: shuffle the spread original content
                # into the spaces just vacated; the home stays displaced
                # because a new block commits into its space right away.
                self._bg_read(self.devices.slow, now, g.block_size)
                self._bg_write(self.devices.slow, now, g.block_size)
                self._stats.inc("slow_swaps")
            else:
                self._restore_home(now, set_index, way)
        self.fast_area.remove(set_index, way)
        self._stats.inc("fast_block_evictions")

    def _evict_committed_range(
        self, now: float, super_id: int, block_id: int, blk_off: int, start: int, cf: int
    ) -> None:
        """Evict only the last range of a committed block (overflow case)."""
        located = self.fast_area.find_block(super_id, blk_off)
        if located is None:
            return
        way, state = located
        entry = self.remap_table.get(block_id)
        remap = entry.remap
        cf2, cf4 = entry.cf2, entry.cf4
        for sub in range(start, start + cf):
            remap &= ~(1 << sub)
            state.dirty_subs.discard((blk_off, sub))
        if cf == 2:
            cf2 &= ~(1 << (start // 2))
        elif cf == 4:
            cf4 &= ~(1 << (start // 4))
        nbytes = self.geometry.sub_block_size * (
            1 if self.config.compressed_writeback else cf
        )
        self._bg_read(self.devices.fast, now, nbytes)
        self._bg_write(self.devices.slow, now, nbytes)
        new_entry = RemapEntry(
            remap=remap, pointer=way, cf2=cf2, cf4=cf4,
            num_subs=self.geometry.sub_blocks_per_block,
        )
        self.remap_table.set(block_id, new_entry)
        state.committed[blk_off] = new_entry.occupied_slots()
        state.slots_used -= 1
        if new_entry.remap == 0:
            state.committed.pop(blk_off, None)
            if not state.committed:
                set_index = self.fast_area.set_of_super(super_id)
                self._restore_home(now, set_index, way)
                self.fast_area.remove(set_index, way)
        self._stats.inc("committed_range_evictions")

    def _evict_committed_logical_block(
        self, now: float, super_id: int, block_id: int, blk_off: int
    ) -> None:
        """Evict one whole logical block's committed data (zero-break)."""
        located = self.fast_area.find_block(super_id, blk_off)
        if located is None:
            return
        way, state = located
        entry = self.remap_table.get(block_id)
        if not entry.zero:
            nbytes = entry.occupied_slots() * self.geometry.sub_block_size
            if nbytes:
                self._bg_read(self.devices.fast, now, nbytes)
                self._bg_write(self.devices.slow, now, nbytes)
        self.remap_table.clear(block_id)
        state.slots_used -= state.committed.pop(blk_off, 0)
        state.dirty_subs = {
            (b, s) for (b, s) in state.dirty_subs if b != blk_off
        }
        if not state.committed:
            set_index = self.fast_area.set_of_super(super_id)
            self._restore_home(now, set_index, way)
            self.fast_area.remove(set_index, way)

    # ------------------------------------------------------- no-stage path
    def _no_stage_miss(
        self,
        now: float,
        meta: float,
        super_id: int,
        block_id: int,
        blk_off: int,
        sub_idx: int,
        line_idx: int,
        is_write: bool,
    ) -> AccessResult:
        """Fig. 13(c) ablation: no stage area.

        Every fetched range goes straight into the committed area. Because
        the compact remap format is sorted and dense, each insertion into
        an existing physical block re-sorts the whole block layout: a full
        fast-memory read + write of the block, on top of the slow fetch.
        """
        g = self.geometry
        entry = self.remap_table.get(block_id)
        start, cf, compressed = self._choose_fetch_range(block_id, blk_off, sub_idx)
        # Never refetch sub-blocks the block already holds in fast memory.
        while cf > 1 and any(
            entry.sub_block_remapped(s) for s in range(start, start + cf)
        ):
            cf //= 2
            start, _ = g.aligned_range(sub_idx, cf)
            compressed = False
        demand_bytes = self._demand_bytes(cf) if compressed else g.cacheline_size
        demand = self._dev_read(self.devices.slow, now, demand_bytes, demand=True)
        latency = meta + demand.total_cycles
        prefetched: List[int] = []
        if compressed:
            latency += self.config.compression.decompression_latency_cycles
            prefetched = self._chunk_lines(block_id, start, cf, sub_idx, line_idx)
            fetch_bytes = g.sub_block_size
        else:
            fetch_bytes = cf * g.sub_block_size
        rest = max(0, fetch_bytes - demand_bytes)
        if rest:
            self._bg_read(self.devices.slow, now, rest)

        fa_set = self.fast_area.set_of_super(super_id)
        if entry.is_remapped:
            # Rule 3: the block's data already live at entry.pointer.
            located = self.fast_area.find_block(super_id, blk_off)
            if located is None:
                raise SimulationError("remapped block missing from fast area")
            way, state = located
            if state.slots_used >= g.sub_blocks_per_block:
                # No room in the frozen layout: evict the physical block
                # and start this logical block over in a fresh space.
                self._evict_fast_block(now, fa_set, way)
                entry = self.remap_table.get(block_id)
                located = None
        else:
            located = None
        if entry.is_remapped and located is not None:
            way, state = located
        else:
            way, occupant = self._commit_victim_way(fa_set)
            if occupant is not None:
                self._evict_fast_block(now, fa_set, way, for_commit=True)
            displaced = self._displace_home(now, fa_set, way)
            state = FastBlockState(super_id=super_id, displaced_home=displaced)
            self.fast_area.install(fa_set, way, state)
        # Re-sort penalty: rewrite the whole physical block layout.
        resort = state.slots_used * g.sub_block_size
        if resort:
            self._bg_read(self.devices.fast, now, resort)
            self._bg_write(self.devices.fast, now, resort)
            self._stats.inc("layout_resorts")
        self._bg_write(self.devices.fast, now, g.sub_block_size)

        remap, cf2, cf4 = entry.remap, entry.cf2, entry.cf4
        if entry.remap == 0:
            cf2, cf4 = 0, 0  # drop hint state when materializing
        for sub in range(start, start + cf):
            remap |= 1 << sub
        if cf == 2:
            cf2 |= 1 << (start // 2)
        elif cf == 4:
            cf4 |= 1 << (start // 4)
        self.remap_table.set(
            block_id,
            RemapEntry(
                remap=remap, pointer=way, cf2=cf2, cf4=cf4,
                num_subs=self.geometry.sub_blocks_per_block,
            ),
        )
        state.committed[blk_off] = state.committed.get(blk_off, 0) + 1
        state.slots_used += 1
        if is_write:
            state.dirty_subs.add((blk_off, sub_idx))
            self.oracle.note_write(block_id, sub_idx)
        self.fast_area.touch(fa_set, way)
        return AccessResult(AccessCase.BLOCK_MISS, latency, is_write, False, prefetched)

    # ------------------------------------------------------------ reporting
    def serve_rate(self) -> float:
        accesses = self.stats.get("accesses")
        return self.stats.get("served_fast") / accesses if accesses else 0.0

    def storage_report(self) -> Dict[str, int]:
        """On-chip/off-chip metadata budgets (Table I / Sec. III-B claims)."""
        return {
            "stage_tag_array_bytes": self.stage.storage_bytes(),
            "remap_cache_bytes": self.remap_cache.storage_bytes(),
            "remap_table_bytes": self.config.remap_table_bytes(),
        }
