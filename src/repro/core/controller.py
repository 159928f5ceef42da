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
import weakref
from typing import Dict, List, Optional, Tuple

from repro.cache.replacement import CacheLine
from repro.common.config import BaryonConfig
from repro.common.errors import CorruptionError, SimulationError, TransientDeviceError
from repro.common.stats import CounterGroup
from repro.compression.synthetic import SyntheticCompressibility
from repro.core.columnar import ColumnarState
from repro.core.commit import CommitPolicy
from repro.core.events import CASE_COUNTER_KEYS, FAST_CASES, AccessCase, AccessResult
from repro.core.fast_area import FastArea, FastBlockState
from repro.core.seam import ServedSeam
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

    The access server swaps this in for the real pools while movement
    helpers (and, in exact mode, every device call) run at clock 0.0:
    every state decision is clock-free, so the captured ``(pool, nbytes,
    priority, start offset)`` sequence replays bit-identically at the
    op's clock (the offset is a retry's backoff). The zero return keeps
    callers' latency arithmetic inert — the real latency is recomputed
    from the replayed transfers.
    """

    __slots__ = ("pool_id", "log")

    def __init__(self, pool_id: int, log: list) -> None:
        self.pool_id = pool_id  # 1 = fast, 0 = slow
        self.log = log

    def transfer(self, now, nbytes, priority=False):
        if nbytes:
            self.log.append((self.pool_id, nbytes, priority, now))
        return (0.0, 0.0)


class BaryonController(ServedSeam):
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
        # Deferred per-access counters, folded into ``stats`` on read:
        # reads and writes, and accesses per case index.
        self._n_rw = [0, 0]
        self._n_cases = [0] * len(AccessCase)
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

        # O(1) stage probe indices, read by the access server in place of
        # the way x slot scans.
        self.columnar = ColumnarState(self)

        # Cached config flags of the fetch and stage-insert helpers.
        self._ca = self.config.compression.cacheline_aligned
        self._cwb = self.config.compressed_writeback
        self._two_level = self.config.two_level_replacement
        self._share_phys = self.config.share_physical_blocks
        #: Per-reason deferred-seam decline counters, as on every design
        #: with a seam; always empty, since ``serve`` never declines.
        self.deferred_declines: Dict[str, int] = {}

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
        self._closures = None

    @property
    def obs(self):
        """Observability hook point; see :mod:`repro.obs`. Attached here
        and on every instrumented sub-component by
        :func:`repro.obs.attach_observability`."""
        return self._obs

    @obs.setter
    def obs(self, tracer) -> None:
        self._obs = tracer
        self._closures = None

    @property
    def oracle(self):
        """The compressibility oracle (synthetic, content-backed or null)."""
        return self._oracle

    @oracle.setter
    def oracle(self, oracle) -> None:
        self._oracle = oracle
        self._closures = None

    @property
    def stats(self) -> CounterGroup:
        """Counter group with all pending per-access counts folded in."""
        stats = self._stats
        reads, writes = self._n_rw
        if reads or writes:
            stats.inc("accesses", reads + writes)
            if reads:
                stats.inc("reads", reads)
            if writes:
                stats.inc("writes", writes)
            self._n_rw[:] = (0, 0)
        cases = self._n_cases
        served = sum(cases[case.index] for case in FAST_CASES)
        if served:
            stats.inc("served_fast", served)
        for case in AccessCase:
            count = cases[case.index]
            if count:
                stats.inc(CASE_COUNTER_KEYS[case], count)
                cases[case.index] = 0
        return stats

    # ------------------------------------------------------------------ API
    def access(self, addr: int, is_write: bool, now: Optional[float] = None) -> AccessResult:
        """Serve one 64 B memory access; the single external entry point.

        One op of the access flow (:meth:`_build_server`): ``serve``
        applies its state, ``flush`` folds its tallies and ``replay`` runs
        its channel transfers at ``now`` and returns its latency.
        """
        if now is not None:
            self._now = now
        else:
            self._now += 1.0
        now = self._now
        serve, flush, replay = self._closures or self._bind()
        op = serve(addr, is_write)
        flush()
        case = op[0]
        result = AccessResult(case, replay(op, now), is_write, op[9], op[6] or [])
        if self._obs.enabled:
            self._obs.emit(
                "access", t=now, addr=addr, block=self.geometry.block_id(addr),
                case=case.value, write=is_write, latency=result.latency_cycles,
                fast=case.fast, overflow=result.write_overflow,
            )
        return result

    # ------------------------------------------------ deferred batch path
    @property
    def supports_batching(self) -> bool:
        """May the simulator drive this controller through the deferred
        batch fast path (``make_deferred_server`` + ``access_batch``, see
        :class:`~repro.core.seam.ServedSeam`)?

        Requires every optional per-access observer to be absent: fault
        injection, recovery, the shadow checker, the phase tracker, event
        tracing, and quarantined super-blocks. Subclasses that intercept
        ``access`` (the content-backed oracle) shadow this property with
        a class attribute ``False``.
        """
        return (
            self.faults is None
            and self.recovery is None
            and self.checker is None
            and self.tracker is None
            and not self._obs.enabled
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

    def _build_server(self):
        """``(serve, flush)``: the Fig. 6 access flow.

        ``serve(addr, is_write)`` resolves the access case and applies
        every state effect now, in trace order: LRU and replacement
        touches, remap-cache fills, aging and miss counters, dirty marks,
        oracle write notes, stage inserts, Z-encoding breaks, overflow
        splits, commits and evictions. Only its channel transfers are
        deferred: it returns one op,

            (case, is_write, rc, stage_meta, dev, nbytes, lines, arr, decomp, overflow)

        which ``replay`` (:meth:`_build_replay`) runs at the access's
        clock. ``rc`` is ``None`` or the remap-table probe's ``(start
        offset, array latency)``; ``stage_meta`` selects the stage-hit
        metadata latency (tag only) over ``max(tag, remap)``; ``lines``
        are the prefetched cacheline addresses. ``dev`` is 0 (no data
        transfer), 1-4 (one fast read, slow read, fast write or slow
        write of ``nbytes`` bytes with array latency ``arr``), or 5/6 (a
        read or write op with recorded transfers: ``nbytes`` is ``(log,
        di)``, ``log`` the ``(pool, bytes, priority, start offset)``
        transfers in order, pool 1 fast and 0 slow, and ``log[di]`` the
        demand transfer, of array latency ``arr``).

        Movement helpers run against recording pools
        (:class:`_RecordingPool`), so their transfers join the op's log.
        The hit, bypass and staging-fetch shapes are inlined; their
        traffic, row-buffer and remap-cache outcomes are tallied in
        closure locals that ``flush()`` folds into the real counters.

        Observers are guarded branches, bound once per server:

        * *exact* mode, when faults are armed or the remap cache or row
          buffer is traced: the remap cache is probed through
          :meth:`RemapCache.access` (repairing corruption), the lookups
          that draw faults run (``_table_get``, ``lookup_block``), and
          every transfer goes through ``_dev_read``/``_dev_write`` against
          the recorders. Each site's fault draws, retries and row-buffer
          outcomes then happen in the scalar order, and a transfer whose
          retries run out raises before any later state change;
        * quarantined super-blocks and ``_degraded`` service;
        * the stage-phase tracker;
        * a subclass's own ``_stage_insert`` (the content oracle) in
          place of the inlined insert shapes.

        Neither closure references the controller: helpers are called
        through a weak proxy, and counts land in lists it owns.
        """
        ctrl = weakref.proxy(self)
        rc = self.remap_cache
        fast = self.devices.fast
        slow = self.devices.slow
        rb = fast.row_buffer
        fa = self.fast_area
        stage = self.stage
        tracker = self.tracker
        recovery = self.recovery
        exact = self.faults is not None or rc.obs.enabled or (
            rb is not None and rb.obs.enabled
        )
        own_insert = type(self)._stage_insert is not BaryonController._stage_insert

        g = self.geometry
        block_size = g.block_size
        super_blocks = g.super_block_blocks
        sub_size = g.sub_block_size
        sub_per_block = g.sub_blocks_per_block
        cl_size = g.cacheline_size
        lines_per_sub = g.cachelines_per_sub_block
        ca = self._ca
        decomp_f = float(self.config.compression.decompression_latency_cycles)
        stage_on = self.config.stage.enabled
        zero_support = self.config.compression.zero_block_support
        cwb = self._cwb
        share_phys = self._share_phys
        flat_blocks = self._flat_blocks
        home_period = self._home_period
        displaced = self._displaced
        home_stamps = self._home_stamps
        quarantined = self._quarantined
        cf_hints_get = self._cf_hints.get
        rng_choice = self._rng.choice
        stats_inc = self._stats.inc
        h_fetch_subs = self._h_fetch_subs
        h_fetch_bytes = self._h_fetch_bytes
        n_rw = self._n_rw
        n_cases = self._n_cases
        col = self.columnar
        stage_sub = col.stage_sub
        stage_sub_get = stage_sub.get
        stage_block = col.stage_block
        stage_entries = stage.tags.entries
        stage_num_sets = stage.num_sets
        set_counts = stage._set_accesses
        valid_counts = stage.valid_counts
        aging_period = stage._aging_period
        age_set = stage.age_set
        mru_miss_cnt = stage.mru_miss_cnt
        miss_cap = stage.config.miss_counter_max()
        stage_allocate = stage.allocate
        stage_insert_range = stage.insert_range
        stage_tag_lookup = stage.tags.lookup
        stage_lookup_block = stage.lookup_block
        # Remap-cache inline-probe contract: see RemapCache.probe_state
        # for the transitions the probe below must preserve.
        rc_sets, rc_num_sets, _ = rc.probe_state()
        rc_credit = rc.credit_probes
        rc_access = rc.access
        fa_find = fa.find_block
        fa_lru = fa.replacement == "lru"
        fa_touch = fa.touch
        fa_num_sets = fa.num_sets
        entries_tbl = self.remap_table._entries
        entries_get = entries_tbl.get
        oracle = self.oracle
        note_write = oracle.note_write
        fits = oracle.fits
        is_zero = oracle.is_zero
        max_cf = oracle.max_cf
        f_read_lat = fast.read_latency + 0.0
        f_write_lat = fast.write_latency
        s_read_lat = slow.read_latency + 0.0
        s_write_lat = slow.write_latency
        #: A fault-free remap-table probe: at the op's clock, plain latency.
        rc_miss_op = (0.0, f_read_lat)
        if rb is not None:
            rb_open = rb._open_rows
            rb_row_bytes = rb.row_bytes
            rb_banks = rb.channels * rb.banks_per_channel
            rb_cas = rb.t_cas
            rb_pre_lat = rb.t_rp + rb.t_rcd + rb.t_cas
            rb_act_lat = rb.t_rcd + rb.t_cas
        else:
            rb_open = None
        STAGE_HIT = AccessCase.STAGE_HIT
        COMMIT_HIT = AccessCase.COMMIT_HIT
        STAGE_MISS = AccessCase.STAGE_MISS
        COMMIT_MISS = AccessCase.COMMIT_MISS
        BLOCK_MISS = AccessCase.BLOCK_MISS
        FAST_HOME = AccessCase.FAST_HOME
        SLOW_DIRECT = AccessCase.SLOW_DIRECT
        misses = (STAGE_MISS, COMMIT_MISS, BLOCK_MISS)
        rec_log: list = []
        rec_fast = _RecordingPool(1, rec_log)
        rec_slow = _RecordingPool(0, rec_log)

        # ---- tallies, folded by flush() ----
        t_reads = t_writes = tbl_reads = 0
        rc_total = rc_hit_t = rc_nm = rc_ne = 0
        f_rb = f_nr = f_db = f_wb = f_nw = 0
        s_rb = s_nr = s_db = s_fb = s_wb = s_nw = 0
        rb_h = rb_m = rb_p = rb_a = 0

        def recorded(helper, *args):
            """Run a movement helper against the recording pools."""
            saved = fast.pool, slow.pool
            fast.pool = rec_fast
            slow.pool = rec_slow
            try:
                return helper(*args)
            finally:
                fast.pool, slow.pool = saved

        def row(a_addr):
            """Inlined :meth:`RowBufferModel.access` (no faults or
            tracing); returns the array latency."""
            nonlocal rb_h, rb_m, rb_p, rb_a
            r = a_addr // rb_row_bytes
            bank = r % rb_banks
            r //= rb_banks
            prev = rb_open.get(bank)
            if prev == r:
                rb_h += 1
                return rb_cas
            rb_open[bank] = r
            rb_m += 1
            if prev is not None:
                rb_p += 1
                return rb_pre_lat
            rb_a += 1
            return rb_act_lat

        def demand(pid, nbytes, is_write, a_addr=None):
            """Log a recorded op's demand transfer; ``(index, array
            latency)``. Exact mode goes through the retry wrappers."""
            nonlocal f_rb, f_nr, f_db, f_wb, f_nw, s_rb, s_nr, s_db, s_wb, s_nw
            di = len(rec_log)
            device = fast if pid else slow
            if exact:
                if is_write:
                    access = ctrl._dev_write(device, 0.0, nbytes, a_addr)
                else:
                    access = ctrl._dev_read(device, 0.0, nbytes, addr=a_addr)
                return di, access.latency_cycles
            rec_log.append((pid, nbytes, not is_write, 0.0))
            if is_write:
                if pid:
                    f_wb += nbytes
                    f_nw += 1
                else:
                    s_wb += nbytes
                    s_nw += 1
            elif pid:
                f_rb += nbytes
                f_nr += 1
                f_db += nbytes
            else:
                s_rb += nbytes
                s_nr += 1
                s_db += nbytes
            if pid and a_addr is not None and rb_open is not None:
                return di, row(a_addr)
            if is_write:
                return di, f_write_lat if pid else s_write_lat
            return di, f_read_lat if pid else s_read_lat

        def logged(case, is_write, rc_op, stage_meta, di, arr, decomp, lines, overflow):
            """Close an op whose transfers sit in the log (exact mode logs
            the table probe first; it replays from ``rc_op`` instead)."""
            skip = 1 if exact and rc_op is not None else 0
            log = tuple(rec_log[skip:] if skip else rec_log)
            rec_log.clear()
            return (
                case, is_write, rc_op, stage_meta, 6 if is_write else 5,
                (log, di - skip), lines, arr, decomp, overflow,
            )

        def body(addr, is_write):
            nonlocal t_reads, t_writes, tbl_reads
            nonlocal rc_total, rc_hit_t, rc_nm, rc_ne
            nonlocal f_rb, f_nr, f_db, f_wb, f_nw
            nonlocal s_rb, s_nr, s_db, s_fb, s_wb, s_nw

            block_id = addr // block_size
            super_id = block_id // super_blocks
            blk_off = block_id % super_blocks
            rem = addr % block_size
            sub_idx = rem // sub_size
            if is_write:
                t_writes += 1
            else:
                t_reads += 1

            # ---- stage-set aging, then the metadata probes ----
            set_index = super_id % stage_num_sets
            n = set_counts[set_index] + 1
            if n < aging_period:
                set_counts[set_index] = n
            else:
                set_counts[set_index] = 0
                age_set(set_index)
            if exact:
                try:
                    hit = rc_access(super_id)
                except CorruptionError:
                    hit = ctrl._repair_remap_cache_line(super_id)
                rc_op = None
                if not hit:
                    # Off-chip remap table probe: one super-block line.
                    lat = ctrl._dev_read(fast, 0.0, 16).latency_cycles
                    rc_op = (rec_log[-1][3], lat)
                    tbl_reads += 1
                ctrl._table_get(0.0, block_id)
                if stage_on:
                    stage_lookup_block(super_id, blk_off)
            else:
                rci = super_id % rc_num_sets
                rc_tag = super_id // rc_num_sets
                rc_set = rc_sets[rci]
                rc_lines = rc_set.lines
                rc_total += 1
                if rc_tag in rc_lines:
                    rc_hit_t += 1
                    rc_lines[rc_tag] = rc_lines.pop(rc_tag)
                    rc_op = None
                else:
                    rc_nm += 1
                    if len(rc_lines) >= rc_set.ways:
                        del rc_lines[next(iter(rc_lines))]
                        rc_ne += 1
                    rc_lines[rc_tag] = CacheLine(rc_tag)
                    rc_op = rc_miss_op
                    f_rb += 16
                    f_nr += 1
                    f_db += 16
                    tbl_reads += 1

            # ---- resolve the case and apply its state ----
            stage_meta = overflow = False
            dev = nbytes = 0
            di = -1
            arr = decomp = 0.0
            lines = None
            staged = stage_sub_get(block_id * sub_per_block + sub_idx)
            entry = None if staged is not None else entries_get(block_id)
            if staged is not None:
                # Case 1: stage hit. Exact-rank LRU promote: ranks are
                # dense 0..valid-1, so a way already at MRU rank leaves
                # every rank unchanged.
                case = STAGE_HIT
                stage_meta = True
                way, slot_idx = staged
                entries_si = stage_entries[set_index]
                target = entries_si[way]
                old_rank = target.lru
                mru = valid_counts[set_index] - 1
                if old_rank != mru:
                    for e in entries_si:
                        if e.valid and e.lru > old_rank:
                            e.lru -= 1
                    target.lru = mru
                slot = target.slots[slot_idx]
                read = not (slot.zero or is_write)
                if slot.zero and is_write:
                    # The write breaks the Z encoding.
                    recorded(
                        ctrl._stage_zero_write, 0.0, set_index, way, slot_idx,
                        block_id, blk_off, sub_idx,
                    )
                    di, arr = demand(1, cl_size, True, block_id * block_size)
                    overflow = True
                elif is_write:
                    a_addr = block_id * block_size + sub_idx * sub_size
                    if exact:
                        di, arr = demand(1, cl_size, True, a_addr)
                    else:
                        f_wb += cl_size
                        f_nw += 1
                        arr = f_write_lat if rb_open is None else row(a_addr)
                        dev, nbytes = 3, cl_size
                    slot.dirty = True
                    cf = slot.cf
                    if (
                        note_write(block_id, sub_idx)
                        and cf > 1
                        and not fits(block_id, slot.sub_start, cf, ca)
                    ):
                        overflow = True
                        if not exact:
                            # The inlined write becomes the log's demand.
                            di = len(rec_log)
                            rec_log.append((1, cl_size, False, 0.0))
                        recorded(
                            ctrl._stage_overflow, 0.0, set_index, way, slot_idx,
                            block_id, blk_off,
                        )
                elif read:
                    cf = slot.cf
                    sub_start = slot.sub_start
            elif entry is not None and (entry.zero or (entry.remap >> sub_idx) & 1):
                # Case 2: commit hit, then the fast-area replacement touch.
                case = COMMIT_HIT
                found = fa_find(super_id, blk_off)
                if found is None:
                    raise SimulationError(
                        f"remap entry points to fast memory but block {block_id} "
                        "is not tracked in the fast area"
                    )
                way, state = found
                if fa_lru:
                    fa._clock += 1
                    state.stamp = fa._clock
                else:
                    fa_touch(super_id % fa_num_sets, way)
                read = not (entry.zero or is_write)
                if not entry.zero:
                    # entry.range_of, inlined (membership established).
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
                if entry.zero and is_write:
                    # The write breaks the committed Z encoding: evict the
                    # logical block and write to slow memory.
                    stats_inc("commit_zero_breaks")
                    note_write(block_id, sub_idx)
                    recorded(
                        ctrl._evict_committed_logical_block, 0.0, super_id,
                        block_id, blk_off,
                    )
                    di, arr = demand(0, cl_size, True)
                    overflow = True
                elif is_write:
                    a_addr = block_id * block_size + sub_idx * sub_size
                    if exact:
                        di, arr = demand(1, cl_size, True, a_addr)
                    else:
                        f_wb += cl_size
                        f_nw += 1
                        arr = f_write_lat if rb_open is None else row(a_addr)
                        dev, nbytes = 3, cl_size
                    state.dirty_subs.add((blk_off, sub_idx))
                    if (
                        note_write(block_id, sub_idx)
                        and cf > 1
                        and not fits(block_id, sub_start, cf, ca)
                    ):
                        overflow = True
                        stats_inc("commit_write_overflows")
                        if not exact:
                            # The inlined write becomes the log's demand.
                            di = len(rec_log)
                            rec_log.append((1, cl_size, False, 0.0))
                        recorded(
                            ctrl._handle_commit_overflow, 0.0, super_id, block_id,
                            blk_off, sub_start, cf, super_id % fa_num_sets, way,
                        )
            else:
                read = False
                miss_way = None
                if stage_on and block_id in stage_block:
                    # Case 3: sub-block miss on a staged block.
                    case = STAGE_MISS
                    miss_way = stage_block[block_id][0]
                elif entry is not None:
                    case = COMMIT_MISS if stage_on else BLOCK_MISS
                elif (
                    flat_blocks
                    and block_id % home_period == 0
                    and block_id // home_period < flat_blocks
                ):
                    case = FAST_HOME if block_id not in displaced else SLOW_DIRECT
                else:
                    # Case 5: block miss.
                    case = BLOCK_MISS
                if not stage_on and case is BLOCK_MISS:
                    # No-stage ablation (Fig. 13c): insert straight into
                    # the committed area; the demand read is the helper's
                    # first transfer.
                    di = len(rec_log)
                    access, lines = recorded(
                        ctrl._no_stage_miss, 0.0, super_id, block_id, blk_off,
                        sub_idx, (rem % sub_size) // cl_size, is_write,
                    )
                    arr = access.latency_cycles
                    if lines:
                        decomp = decomp_f
                    else:
                        lines = None
                elif case is COMMIT_MISS or case is SLOW_DIRECT:
                    # Commit miss (a slow-memory bypass) or a displaced
                    # home, served from its spread slow copy.
                    if exact:
                        di, arr = demand(0, cl_size, is_write)
                    elif is_write:
                        s_wb += cl_size
                        s_nw += 1
                        dev, nbytes, arr = 4, cl_size, s_write_lat
                    else:
                        s_rb += cl_size
                        s_nr += 1
                        s_db += cl_size
                        dev, nbytes, arr = 2, cl_size, s_read_lat
                elif case is FAST_HOME:
                    # Flat scheme: resident home block, served in place.
                    a_addr = block_id * block_size
                    if exact:
                        di, arr = demand(1, cl_size, is_write, a_addr)
                    elif is_write:
                        f_wb += cl_size
                        f_nw += 1
                        arr = f_write_lat if rb_open is None else row(a_addr)
                        dev, nbytes = 3, cl_size
                    else:
                        f_rb += cl_size
                        f_nr += 1
                        f_db += cl_size
                        arr = f_read_lat if rb_open is None else row(a_addr)
                        dev, nbytes = 1, cl_size
                    fa._clock += 1
                    home_stamps[block_id] = fa._clock
                else:
                    # Cases 3/5: fetch from slow memory, stage the range.
                    # stage.record_block_miss, inlined; the MRU check uses
                    # the dense-rank invariant (MRU way has rank valid-1).
                    if miss_way is None:
                        bound_entry = None
                        n = mru_miss_cnt[set_index] + 1
                        mru_miss_cnt[set_index] = n if n < miss_cap else miss_cap
                    else:
                        bound_entry = stage_entries[set_index][miss_way]
                        n = bound_entry.miss_count + 1
                        bound_entry.miss_count = n if n < miss_cap else miss_cap
                        if bound_entry.lru == valid_counts[set_index] - 1:
                            n = mru_miss_cnt[set_index] + 1
                            mru_miss_cnt[set_index] = n if n < miss_cap else miss_cap
                        if exact:
                            # The fetch resolves its staged block again.
                            stage_lookup_block(super_id, blk_off)
                    if (
                        bound_entry is None
                        and zero_support
                        and is_zero(block_id, 0, sub_per_block)
                    ):
                        # All-zero block: the Z encoding stages it whole,
                        # for free.
                        recorded(
                            ctrl._stage_insert, 0.0, super_id, block_id, blk_off,
                            RangeSlot(cf=1, dirty=is_write, blk_off=blk_off, zero=True),
                            None,
                        )
                        stats_inc("zero_block_stages")
                    else:
                        # _choose_fetch_range, inlined.
                        compressed = False
                        hint = cf_hints_get(block_id)
                        if hint is not None and cwb:
                            if (hint[1] >> (sub_idx >> 2)) & 1:
                                sub_start = (sub_idx >> 2) << 2
                                cf = 4
                                compressed = True
                            elif (hint[0] >> (sub_idx >> 1)) & 1:
                                sub_start = (sub_idx >> 1) << 1
                                cf = 2
                                compressed = True
                        if not compressed:
                            cf = max_cf(block_id, sub_idx, ca)
                            sub_start = (sub_idx // cf) * cf
                        if bound_entry is not None and cf > 1:
                            # Avoid refetching sub-blocks already staged
                            # (the block's stage_sub keys; a staged Z slot
                            # would have made this access a stage hit).
                            sub_base = block_id * sub_per_block
                            while cf > 1 and any(
                                sub_base + s in stage_sub
                                for s in range(sub_start, sub_start + cf)
                            ):
                                cf //= 2
                                sub_start = (sub_idx // cf) * cf
                                compressed = False
                        # Demand chunk first: one 64 B transfer, or the
                        # whole compressed slot without cacheline-aligned
                        # compression.
                        if compressed:
                            demand_nb = cl_size if ca else sub_size
                            fetch_bytes = sub_size
                            decomp = decomp_f
                            # _chunk_lines, inlined.
                            base = block_id * block_size + sub_start * sub_size
                            demanded = (
                                (sub_idx - sub_start) * lines_per_sub
                                + (rem % sub_size) // cl_size
                            )
                            if ca:
                                first = (demanded // cf) * cf
                                rng = range(first, first + cf)
                            else:
                                rng = range(cf * lines_per_sub)
                            lines = [base + i * cl_size for i in rng if i != demanded]
                        else:
                            demand_nb = cl_size
                            fetch_bytes = cf * sub_size
                        # Background: the rest of the range, then the
                        # stage-area fill.
                        rest = fetch_bytes - demand_nb
                        if exact:
                            di, arr = demand(0, demand_nb, False)
                            if rest > 0:
                                ctrl._bg_read(slow, 0.0, rest)
                            ctrl._bg_write(fast, 0.0, sub_size)
                        else:
                            s_rb += demand_nb
                            s_nr += 1
                            s_db += demand_nb
                            di, arr = len(rec_log), s_read_lat
                            rec_log.append((0, demand_nb, True, 0.0))
                            if rest > 0:
                                s_rb += rest
                                s_nr += 1
                                s_fb += rest
                                rec_log.append((0, rest, False, 0.0))
                            f_wb += sub_size
                            f_nw += 1
                            rec_log.append((1, sub_size, False, 0.0))
                        if h_fetch_subs is not None:
                            h_fetch_subs.observe(cf)
                            h_fetch_bytes.observe(fetch_bytes)
                        new_slot = RangeSlot(
                            cf=cf, dirty=is_write, blk_off=blk_off, sub_start=sub_start
                        )
                        # _stage_insert: free-slot / fresh-way shapes
                        # inline, the replacement shapes (and a subclass's
                        # own insert) via the helper.
                        ins_way = None
                        if own_insert:
                            pass
                        elif bound_entry is not None:
                            if bound_entry.used < sub_per_block:
                                ins_way = miss_way
                        elif share_phys:
                            candidates = stage_tag_lookup(
                                set_index, super_id // stage_num_sets
                            )
                            if candidates:
                                with_room = [
                                    (w, e) for w, e in candidates
                                    if e.used < sub_per_block
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
                            recorded(
                                ctrl._stage_insert, 0.0, super_id, block_id,
                                blk_off, new_slot,
                                None if bound_entry is None
                                else (miss_way, bound_entry),
                            )
                        if is_write:
                            note_write(block_id, sub_idx)
                    if case is BLOCK_MISS and tracker is not None:
                        tracker.block_staged(block_id)

            if read:
                # Cases 1/2: the demand read of the (compressed) chunk.
                nbytes = cl_size if (cf <= 1 or ca) else sub_size
                a_addr = block_id * block_size + sub_idx * sub_size
                if exact:
                    di, arr = demand(1, nbytes, False, a_addr)
                else:
                    f_rb += nbytes
                    f_nr += 1
                    f_db += nbytes
                    arr = f_read_lat if rb_open is None else row(a_addr)
                    dev = 1
                if cf > 1:
                    decomp = decomp_f
                    # _chunk_lines, inlined: sibling cachelines of the
                    # compressed chunk the demand read decompresses.
                    base = block_id * block_size + sub_start * sub_size
                    demanded = (
                        (sub_idx - sub_start) * lines_per_sub
                        + (rem % sub_size) // cl_size
                    )
                    if ca:
                        first = (demanded // cf) * cf
                        rng = range(first, first + cf)
                    else:
                        rng = range(cf * lines_per_sub)
                    lines = [base + i * cl_size for i in rng if i != demanded]
            n_cases[case.index] += 1
            if exact or rec_log:
                return logged(
                    case, is_write, rc_op, stage_meta, di, arr, decomp, lines, overflow
                )
            return (
                case, is_write, rc_op, stage_meta, dev, nbytes, lines, arr, decomp,
                overflow,
            )

        def guarded(addr, is_write):
            """``body`` behind the observers: the tracker, quarantine and
            degraded service, and exact mode's recording pools."""
            nonlocal t_reads, t_writes
            if tracker is not None:
                tracker.tick()
            block_id = addr // block_size
            super_id = block_id // super_blocks
            staged = block_id in stage_block
            committed = block_id in entries_tbl
            saved = fast.pool, slow.pool
            if exact:
                fast.pool = rec_fast
                slow.pool = rec_slow
            try:
                op = None
                if super_id in quarantined:
                    # Poisoned super-block: degraded service straight
                    # from slow memory, no staging or metadata effects.
                    if is_write:
                        t_writes += 1
                    else:
                        t_reads += 1
                    access = ctrl._quarantined_serve(0.0, is_write)
                else:
                    try:
                        op = body(addr, is_write)
                    except (TransientDeviceError, CorruptionError) as err:
                        if recovery is None:
                            raise
                        access = ctrl._degraded(0.0, super_id, err, is_write)
                if op is None:
                    n_cases[SLOW_DIRECT.index] += 1
                    staged = committed = False
                    op = logged(
                        SLOW_DIRECT, is_write, None, True, len(rec_log) - 1,
                        access.latency_cycles, 0.0, None, False,
                    )
            finally:
                fast.pool, slow.pool = saved
            case = op[0]
            if tracker is not None and case is not FAST_HOME:
                tracker.record(
                    block_id, staged=staged, committed=committed,
                    is_write=is_write, miss=case in misses, overflow=op[9],
                )
            return op

        def flush():
            nonlocal t_reads, t_writes, tbl_reads
            nonlocal rc_total, rc_hit_t, rc_nm, rc_ne
            nonlocal f_rb, f_nr, f_db, f_wb, f_nw
            nonlocal s_rb, s_nr, s_db, s_fb, s_wb, s_nw
            nonlocal rb_h, rb_m, rb_p, rb_a
            if t_reads or t_writes:
                n_rw[0] += t_reads
                n_rw[1] += t_writes
                t_reads = t_writes = 0
            if tbl_reads:
                stats_inc("remap_table_reads", tbl_reads)
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

        if exact or tracker is not None or recovery is not None:
            return guarded, flush
        return body, flush

    def _build_replay(self):
        """``replay(op, now) -> latency``: run one op's channel transfers
        at ``now`` in the scalar flow's order and return the access's
        latency, writes included. Every device total is ``(array latency
        + queue) + transfer``, as in :meth:`MemoryDevice.read`."""
        fast_transfer = self.devices.fast.pool.transfer
        slow_transfer = self.devices.slow.pool.transfer
        tag_lat = float(self.config.stage.tag_latency_cycles)
        rc_lat = float(self.remap_cache.latency_cycles)
        meta_hit = max(tag_lat, rc_lat)

        def replay(op, now):
            _, _, rc_op, stage_meta, dev, nbytes, _, arr, decomp, _ = op
            if rc_op is None:
                latency = tag_lat if stage_meta else meta_hit
            else:
                t, lat = rc_op
                queue, transfer = fast_transfer(now + t, 16, True)
                if stage_meta:
                    latency = tag_lat
                else:
                    remap_lat = rc_lat + ((lat + queue) + transfer)
                    latency = remap_lat if remap_lat > tag_lat else tag_lat
            if dev < 5:
                if dev:
                    queue, transfer = (fast_transfer if dev & 1 else slow_transfer)(
                        now, nbytes, dev < 3
                    )
                    latency += (arr + queue) + transfer
                    if decomp:
                        latency += decomp
                return latency
            log, di = nbytes
            for i, (pid, nb, pri, t) in enumerate(log):
                queue, transfer = (fast_transfer if pid else slow_transfer)(
                    now + t, nb, pri
                )
                if i == di:
                    latency += (arr + queue) + transfer
                    if decomp:
                        latency += decomp
            return latency

        return replay

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
        invalidate + fault-paused refill into one pass over the set; a
        paused access never consulted the injector, so no pause/resume is
        needed here.
        """
        self.remap_cache.repair(super_id)
        self.recovery.record("remap_cache_repairs", site="remap_cache")
        return False

    def _quarantined_serve(self, now: float, is_write: bool):
        """Degraded service for a poisoned super-block (always succeeds);
        returns the slow-memory :class:`DeviceAccess`."""
        self.recovery.record("quarantined_serves")
        token = self._pause_faults()
        try:
            return self._slow_direct(now, is_write)
        finally:
            self._resume_faults(token)

    def _degraded(self, now: float, super_id: int, err: Exception, is_write: bool):
        """Recovery exhausted (retries spent or corruption with no clean
        repair): quarantine the super-block and serve from slow memory;
        returns the slow-memory :class:`DeviceAccess`.

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
            return self._slow_direct(now, is_write)
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

    def _stage_overflow(
        self, now: float, set_index: int, way: int, slot_idx: int, block_id: int,
        blk_off: int,
    ) -> None:
        """A stage write overflowed its range: remove the range and
        reinsert it as freshly fetched pieces (case 3 semantics) — the
        data are already in fast memory."""
        entry = self.stage.entry(set_index, way)
        self._stats.inc("stage_write_overflows")
        removed = self.stage.remove_slot(set_index, way, slot_idx)
        super_id = self.stage.mapper.super_block_of(set_index, entry.tag)
        for piece in self._split_range(block_id, removed.sub_start, removed.cf):
            piece_slot = RangeSlot(
                cf=piece[1], dirty=True, blk_off=blk_off, sub_start=piece[0]
            )
            self._stage_insert(now, super_id, block_id, blk_off, piece_slot)
            self._bg_write(self.devices.fast, now, self.geometry.sub_block_size)

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

    def _slow_direct(self, now: float, is_write: bool):
        """One cacheline to or from slow memory, with no staging side
        effects; returns the :class:`DeviceAccess`."""
        size = self.geometry.cacheline_size
        if is_write:
            return self._dev_write(self.devices.slow, now, size)
        return self._dev_read(self.devices.slow, now, size)

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
        cf = self.oracle.max_cf(block_id, sub_idx, ca)
        start, _ = g.aligned_range(sub_idx, cf)
        return start, cf, False

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
            if entry.used < len(entry.slots):
                self.stage.insert_range(set_index, way, new_slot)
                self.stage.touch(set_index, way)
                return
            # A block whose ranges fill the way never reaches here: a way
            # has one slot per sub-block, so it covers the whole block.
            if not self._two_level or self.stage.is_lru(set_index, way):
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
            if not self.stage.entry(set_index, way).used:
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
        with_room = [(w, e) for w, e in candidates if e.used < len(e.slots)]
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
        for slot in entry.slots:
            if slot is not None:
                self._writeback_stage_slot(now, set_index, super_id, slot)
        snapshot = self.stage.invalidate(set_index, way)
        self._stats.inc("stage_evictions")
        if self.tracker is not None:
            base = super_id * self.geometry.super_block_blocks
            for blk_off in snapshot.blocks_present():
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
        for blk_off, (remap, cf2, cf4, zero, dirties) in self._remap_fields(entry):
            block_id = base + blk_off
            if zero:
                cf2 = cf4 = 0
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

    def _remap_fields(self, entry: StageTagEntry) -> List[Tuple[int, list]]:
        """Translate a stage entry's slots into remap-entry fields.

        One pass over the slots, grouped by block: ``(blk_off, [remap,
        cf2, cf4, zero, dirties])`` per staged block, ascending BlkOff.
        ``dirties`` lists the dirty sub-blocks in slot order; a Z slot
        sets every remap bit (the caller clears ``cf2``/``cf4`` then).
        """
        n = self.geometry.sub_blocks_per_block
        groups: Dict[int, list] = {}
        for slot in entry.slots:
            if slot is None:
                continue
            fields = groups.get(slot.blk_off)
            if fields is None:
                fields = groups[slot.blk_off] = [0, 0, 0, False, []]
            if slot.zero:
                fields[0] = (1 << n) - 1
                fields[3] = True
                if slot.dirty:
                    fields[4].extend(range(n))
                continue
            start = slot.sub_start
            cf = slot.cf
            fields[0] |= ((1 << cf) - 1) << start
            if slot.dirty:
                fields[4].extend(range(start, start + cf))
            if cf == 2:
                fields[1] |= 1 << (start // 2)
            elif cf == 4:
                fields[2] |= 1 << (start // 4)
        return sorted(groups.items())

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
        super_id: int,
        block_id: int,
        blk_off: int,
        sub_idx: int,
        line_idx: int,
        is_write: bool,
    ):
        """Fig. 13(c) ablation: no stage area.

        Every fetched range goes straight into the committed area. Because
        the compact remap format is sorted and dense, each insertion into
        an existing physical block re-sorts the whole block layout: a full
        fast-memory read + write of the block, on top of the slow fetch.
        Returns the demand read's :class:`DeviceAccess`, the helper's first
        transfer, and the prefetched cachelines (decompressed when any).
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
        demand = self._dev_read(self.devices.slow, now, demand_bytes)
        prefetched: List[int] = []
        if compressed:
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
        return demand, prefetched

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
