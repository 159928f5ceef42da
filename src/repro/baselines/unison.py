"""Unison Cache (Jevdjic et al., MICRO 2014).

A die-stacked DRAM cache with 2 kB pages, 64 B sub-blocking via *footprint
prediction*, embedded in-DRAM tags and a way predictor:

* pages allocate on a miss but fetch only the *predicted footprint* — the
  set of 64 B lines the page used during its previous residency (tracked
  in a footprint history table); first-time pages fetch the demanded line
  plus a small default spatial window;
* tags live in DRAM next to the data, so every lookup costs a fast-memory
  access; a way predictor lets the common case issue tag+data as a single
  access, with a second access on misprediction;
* unused sub-block slots of a page stay unused — the capacity
  under-utilization Baryon's co-location removes (Fig. 1a).

No state here depends on the clock, so the simulator's deferred seam
serves every access (:meth:`UnisonCache.make_deferred_server`) and
replays the channel timing in :meth:`UnisonCache.access_batch`.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from repro.baselines.base import InlineServedBaseline
from repro.cache.replacement import CacheLine, LruSet
from repro.core.events import CASE_COUNTER_KEYS, AccessCase, AccessResult

#: Default footprint for never-seen pages: the demanded line plus the next
#: ones in this window (Footprint Cache's singleton/spatial default).
_DEFAULT_WINDOW_LINES = 4

# Deferred op kinds: page hit, footprint miss, page miss.
_HIT, _FOOTPRINT_MISS, _PAGE_MISS = 0, 1, 2
#: Shared op tuples for every shape without byte counts, indexed by
#: ``[kind][mispredict][is_write]``.
_OPS = [
    [[(kind, mis, w, 0, 0, 0, None) for w in (False, True)]
     for mis in (False, True)]
    for kind in (_HIT, _FOOTPRINT_MISS)
]
_HIT_KEY = CASE_COUNTER_KEYS[AccessCase.COMMIT_HIT]
_FOOTPRINT_MISS_KEY = CASE_COUNTER_KEYS[AccessCase.STAGE_MISS]
_PAGE_MISS_KEY = CASE_COUNTER_KEYS[AccessCase.BLOCK_MISS]


class UnisonCache(InlineServedBaseline):
    """Footprint-predicting sub-blocked DRAM cache with in-DRAM tags."""

    name = "unison"

    def __init__(self, config=None, devices=None) -> None:
        super().__init__(config, devices)
        layout = self.config.layout
        g = self.geometry
        fast_pages = max(1, layout.fast_capacity // g.block_size)
        self.ways = layout.associativity
        self.num_sets = max(1, fast_pages // self.ways)
        self.lines_per_page = g.block_size // g.cacheline_size
        self._sets: Dict[int, LruSet] = {}
        #: Footprint history: page id -> line-index bitmap of the last
        #: residency. The SRAM table is bounded — Baryon's evaluation
        #: scales it with the fast memory size (one entry per fast page,
        #: doubled) — with FIFO eviction of the oldest entries.
        self._history: Dict[int, int] = {}
        self._history_capacity = max(1024, 2 * fast_pages)
        #: Way predictor: last way used per set (MRU-based prediction).
        self._predicted_way: Dict[int, int] = {}

    def _set_for(self, index: int) -> LruSet:
        cache_set = self._sets.get(index)
        if cache_set is None:
            cache_set = LruSet(self.ways)
            self._sets[index] = cache_set
        return cache_set

    def _line_index(self, addr: int) -> int:
        return (addr % self.geometry.block_size) // self.geometry.cacheline_size

    def access(self, addr: int, is_write: bool, now: Optional[float] = None) -> AccessResult:
        now = self._advance(now)
        g = self.geometry
        page_id = g.block_id(addr)
        set_index = page_id % self.num_sets
        tag = page_id // self.num_sets
        line_idx = self._line_index(addr)
        cache_set = self._set_for(set_index)

        line = cache_set.lookup(tag)
        # In-DRAM tags: the tag probe is a fast-memory access. With a
        # correct way prediction it is bundled with the data access.
        predicted = self._predicted_way.get(set_index)
        tag_probe = self.devices.fast.read(now, g.cacheline_size, demand=True)
        latency = tag_probe.total_cycles
        if line is not None:
            actual_way = line.payload["way"]
            if predicted is not None and predicted != actual_way:
                # Misprediction: a second access to the right way.
                latency += self.devices.fast.read(
                    now, g.cacheline_size, demand=True
                ).total_cycles
                self.stats.inc("way_mispredictions")
            self._predicted_way[set_index] = actual_way

        if line is not None:
            cache_set.touch(line)
            present: Set[int] = line.payload["present"]
            touched: Set[int] = line.payload["touched"]
            touched.add(line_idx)
            if line_idx in present:
                if is_write:
                    line.payload["dirty"].add(line_idx)
                    self.devices.fast.write(now, g.cacheline_size)
                return self._count(
                    AccessResult(AccessCase.COMMIT_HIT, latency, is_write), is_write, addr
                )
            # Footprint miss: fetch the single line from slow memory.
            if is_write:
                demand = self.devices.slow.write(now, g.cacheline_size)
                line.payload["dirty"].add(line_idx)
            else:
                demand = self.devices.slow.read(now, g.cacheline_size, demand=True)
            self.devices.fast.write(now, g.cacheline_size)
            present.add(line_idx)
            self.stats.inc("footprint_misses")
            return self._count(
                AccessResult(AccessCase.STAGE_MISS, latency + demand.total_cycles, is_write),
                is_write,
                addr,
            )

        # Page miss: allocate and fetch the predicted footprint.
        if is_write:
            demand = self.devices.slow.write(now, g.cacheline_size)
        else:
            demand = self.devices.slow.read(now, g.cacheline_size, demand=True)
        latency += demand.total_cycles
        footprint = self._predict_footprint(page_id, line_idx)
        free_way = len(cache_set.lines)
        if cache_set.is_full():
            free_way = self._evict(now, cache_set, set_index)
        fetch_lines = len(footprint)
        extra = max(0, fetch_lines - 1) * g.cacheline_size
        if extra:
            self.devices.slow.read(now, extra, demand=False)
        self.devices.fast.write(now, fetch_lines * g.cacheline_size)
        payload = {
            "page": page_id,
            "way": free_way,
            "present": set(footprint),
            "touched": {line_idx},
            "dirty": {line_idx} if is_write else set(),
        }
        cache_set.insert(CacheLine(tag, dirty=is_write, payload=payload))
        self.stats.inc("page_fills")
        self.stats.inc("footprint_fetched_lines", fetch_lines)
        return self._count(
            AccessResult(AccessCase.BLOCK_MISS, latency, is_write), is_write, addr
        )

    def _predict_footprint(self, page_id: int, line_idx: int) -> Set[int]:
        bitmap = self._history.get(page_id)
        if bitmap is None:
            end = min(self.lines_per_page, line_idx + _DEFAULT_WINDOW_LINES)
            return set(range(line_idx, end))
        footprint = {i for i in range(self.lines_per_page) if (bitmap >> i) & 1}
        footprint.add(line_idx)
        return footprint

    def _evict(self, now: float, cache_set: LruSet, set_index: int) -> int:
        """Evict the LRU page; returns the way index it occupied."""
        victim = cache_set.victim()
        payload = victim.payload
        dirty_lines = len(payload["dirty"])
        if dirty_lines:
            nbytes = dirty_lines * self.geometry.cacheline_size
            self.devices.fast.read(now, nbytes, demand=False)
            self.devices.slow.write(now, nbytes)
            self.stats.inc("dirty_writebacks")
        bitmap = 0
        for i in payload["touched"]:
            bitmap |= 1 << i
        self._history.pop(payload["page"], None)
        self._history[payload["page"]] = bitmap
        while len(self._history) > self._history_capacity:
            # FIFO: dicts preserve insertion order, so the first key is
            # the oldest footprint record.
            self._history.pop(next(iter(self._history)))
            self.stats.inc("history_evictions")
        cache_set.evict(victim.tag)
        self.stats.inc("evictions")
        return victim.payload["way"]

    # ------------------------------------------------ deferred batch path
    def make_deferred_server(self):
        """Build the inline ``(serve, flush, replay)`` triple.

        ``serve(addr, is_write)`` applies :meth:`access`'s state effects
        in trace order — the LRU touch, the way predictor, the footprint
        present/touched/dirty sets, page fills and evictions with their
        FIFO history-table updates — and returns the access's channel
        work as one op for :meth:`access_batch`:

            (kind, mispredict, is_write, evict_bytes, extra_bytes,
             fill_bytes, None)

        ``kind`` is 0 (page hit), 1 (footprint miss) or 2 (page miss);
        the byte slots are the page miss's dirty writeback, its extra
        footprint fetch and its fast-memory fill. Hits and footprint
        misses share constant tuples. Counters tally in closure locals
        until ``flush()`` scatters them into ``stats`` and the devices.
        """
        if not self.supports_batching:
            return None
        g = self.geometry
        block_size = g.block_size
        line_size = g.cacheline_size
        num_sets = self.num_sets
        ways = self.ways
        sets = self._sets
        sets_get = sets.get
        predicted_way = self._predicted_way
        predicted_get = predicted_way.get
        history = self._history
        history_capacity = self._history_capacity
        predict_footprint = self._predict_footprint
        stats = self.stats
        fast = self.devices.fast
        slow = self.devices.slow
        ops = _OPS
        # Tallies: accesses, writes, page hits, footprint misses, page
        # fills, mispredictions, fetched lines, dirty writebacks,
        # evictions, history evictions.
        t_acc = t_writes = t_hits = t_fp = t_pages = t_mis = 0
        t_fetched = t_dirty_wb = t_evictions = t_hist_ev = 0
        # Device tallies: one-cacheline demand reads (``*_dr``), fill
        # reads (count, bytes), writes (count, bytes).
        f_dr = f_fr = f_fb = f_nw = f_wb = 0
        s_dr = s_fr = s_fb = s_nw = s_wb = 0

        def serve(addr, is_write):
            nonlocal t_acc, t_writes, t_hits, t_fp, t_pages, t_mis
            nonlocal t_fetched, t_dirty_wb, t_evictions, t_hist_ev
            nonlocal f_dr, f_fr, f_fb, f_nw, f_wb
            nonlocal s_dr, s_fr, s_fb, s_nw, s_wb
            page_id = addr // block_size
            set_index = page_id % num_sets
            tag = page_id // num_sets
            line_idx = (addr % block_size) // line_size
            cache_set = sets_get(set_index)
            if cache_set is None:
                cache_set = sets[set_index] = LruSet(ways)
            lines = cache_set.lines
            line = lines.get(tag)
            t_acc += 1
            if is_write:
                t_writes += 1
            f_dr += 1  # the in-DRAM tag probe
            if line is not None:
                payload = line.payload
                way = payload["way"]
                predicted = predicted_get(set_index)
                mis = predicted is not None and predicted != way
                if mis:
                    f_dr += 1
                    t_mis += 1
                predicted_way[set_index] = way
                # LruSet.touch, inlined.
                clock = cache_set._clock = cache_set._clock + 1
                line.counter = clock
                lines[tag] = lines.pop(tag)
                payload["touched"].add(line_idx)
                present = payload["present"]
                if line_idx in present:
                    t_hits += 1
                    if is_write:
                        payload["dirty"].add(line_idx)
                        f_nw += 1
                        f_wb += line_size
                    return ops[0][mis][is_write]
                if is_write:
                    s_nw += 1
                    s_wb += line_size
                    payload["dirty"].add(line_idx)
                else:
                    s_dr += 1
                f_nw += 1
                f_wb += line_size
                present.add(line_idx)
                t_fp += 1
                return ops[1][mis][is_write]

            # Page miss: the demand line, then the predicted footprint.
            if is_write:
                s_nw += 1
                s_wb += line_size
            else:
                s_dr += 1
            footprint = predict_footprint(page_id, line_idx)
            free_way = len(lines)
            evict_bytes = 0
            if free_way >= ways:
                # _evict, inlined: the LRU page leaves.
                victim = next(iter(lines.values()))
                payload = victim.payload
                dirty_lines = len(payload["dirty"])
                if dirty_lines:
                    evict_bytes = dirty_lines * line_size
                    f_fr += 1
                    f_fb += evict_bytes
                    s_nw += 1
                    s_wb += evict_bytes
                    t_dirty_wb += 1
                bitmap = 0
                for i in payload["touched"]:
                    bitmap |= 1 << i
                page = payload["page"]
                history.pop(page, None)
                history[page] = bitmap
                while len(history) > history_capacity:
                    # FIFO: the first key is the oldest footprint record.
                    history.pop(next(iter(history)))
                    t_hist_ev += 1
                del lines[victim.tag]
                t_evictions += 1
                free_way = payload["way"]
            fetch_lines = len(footprint)
            extra_bytes = (fetch_lines - 1) * line_size
            if extra_bytes:
                s_fr += 1
                s_fb += extra_bytes
            fill_bytes = fetch_lines * line_size
            f_nw += 1
            f_wb += fill_bytes
            line = CacheLine(tag, dirty=is_write, payload={
                "page": page_id,
                "way": free_way,
                "present": set(footprint),
                "touched": {line_idx},
                "dirty": {line_idx} if is_write else set(),
            })
            # LruSet.insert, inlined (the set has a free way).
            lines[tag] = line
            clock = cache_set._clock = cache_set._clock + 1
            line.counter = clock
            lines[tag] = lines.pop(tag)
            t_pages += 1
            t_fetched += fetch_lines
            return (_PAGE_MISS, False, is_write, evict_bytes, extra_bytes,
                    fill_bytes, None)

        def flush():
            nonlocal t_acc, t_writes, t_hits, t_fp, t_pages, t_mis
            nonlocal t_fetched, t_dirty_wb, t_evictions, t_hist_ev
            nonlocal f_dr, f_fr, f_fb, f_nw, f_wb
            nonlocal s_dr, s_fr, s_fb, s_nw, s_wb
            if not t_acc:
                return
            for key, count in (
                ("accesses", t_acc), ("reads", t_acc - t_writes),
                ("writes", t_writes), ("served_fast", t_hits),
                (_HIT_KEY, t_hits), ("way_mispredictions", t_mis),
                ("footprint_misses", t_fp), (_FOOTPRINT_MISS_KEY, t_fp),
                ("dirty_writebacks", t_dirty_wb),
                ("history_evictions", t_hist_ev), ("evictions", t_evictions),
                ("page_fills", t_pages), ("footprint_fetched_lines", t_fetched),
                (_PAGE_MISS_KEY, t_pages),
            ):
                if count:
                    stats.inc(key, count)
            fast.credit_traffic(f_dr, f_dr * line_size, f_fr, f_fb, f_nw, f_wb)
            slow.credit_traffic(s_dr, s_dr * line_size, s_fr, s_fb, s_nw, s_wb)
            t_acc = t_writes = t_hits = t_fp = t_pages = t_mis = 0
            t_fetched = t_dirty_wb = t_evictions = t_hist_ev = 0
            f_dr = f_fr = f_fb = f_nw = f_wb = 0
            s_dr = s_fr = s_fb = s_nw = s_wb = 0

        return serve, flush, self.access_batch

    def access_batch(self, ops, cycles: float, mlp: float) -> float:
        """Replay a run of deferred ops against the channel pools.

        Each op's transfers run at the clock the accumulator has reached
        — the ``now`` the scalar loop passes to :meth:`access` — in
        :meth:`access`'s order, and a read's latency is the same left
        fold: tag probe, then the mispredicted second probe, then the
        slow-memory demand read, each ``((latency + 0.0) + queue) +
        transfer`` as in :meth:`MemoryDevice.read`. So the channel busy
        state and ``cycles`` stay bit-identical to the scalar path.
        """
        fast_transfer = self.devices.fast.pool.transfer
        slow_transfer = self.devices.slow.pool.transfer
        f_lat = self.devices.fast.read_latency + 0.0
        s_lat = self.devices.slow.read_latency + 0.0
        line_size = self.geometry.cacheline_size
        now = self._now
        for op in ops:
            if op.__class__ is float:
                cycles += op
                continue
            kind, mis, is_write, evict_bytes, extra_bytes, fill_bytes, _ = op
            now = cycles
            queue, transfer = fast_transfer(now, line_size, True)
            if is_write:
                # Posted: channel occupancy only, no core-visible latency.
                if mis:
                    fast_transfer(now, line_size, True)
                if kind == _HIT:
                    fast_transfer(now, line_size)
                    continue
                slow_transfer(now, line_size)
            else:
                latency = (f_lat + queue) + transfer
                if mis:
                    queue, transfer = fast_transfer(now, line_size, True)
                    latency += (f_lat + queue) + transfer
                if kind == _HIT:
                    cycles += latency / mlp
                    continue
                queue, transfer = slow_transfer(now, line_size, True)
                latency += (s_lat + queue) + transfer
                cycles += latency / mlp
            if kind == _FOOTPRINT_MISS:
                fast_transfer(now, line_size)
                continue
            if evict_bytes:
                fast_transfer(now, evict_bytes)
                slow_transfer(now, evict_bytes)
            if extra_bytes:
                slow_transfer(now, extra_bytes)
            fast_transfer(now, fill_bytes)
        self._now = now
        return cycles
