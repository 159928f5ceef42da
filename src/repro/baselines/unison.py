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

No state here depends on the clock, so the design is one inline server
that applies each access's state in trace order and one replay of its
channel transfers (:class:`~repro.baselines.base.BaselineController`).
"""

from __future__ import annotations

from typing import Dict

from repro.baselines.base import BaselineController
from repro.cache.replacement import CacheLine, LruSet
from repro.core.events import CASE_COUNTER_KEYS, AccessCase

#: Default footprint for never-seen pages: the demanded line plus the next
#: ones in this window (Footprint Cache's singleton/spatial default).
_DEFAULT_WINDOW_LINES = 4

# Deferred op kinds: page hit, footprint miss, page miss.
_HIT, _FOOTPRINT_MISS, _PAGE_MISS = 0, 1, 2
#: Shared op tuples for every shape without byte counts, indexed by
#: ``[kind][mispredict][is_write]``.
_OPS = [
    [[(kind, w, mis, 0, 0, 0, None) for w in (False, True)]
     for mis in (False, True)]
    for kind in (_HIT, _FOOTPRINT_MISS)
]
_HIT_KEY = CASE_COUNTER_KEYS[AccessCase.COMMIT_HIT]
_FOOTPRINT_MISS_KEY = CASE_COUNTER_KEYS[AccessCase.STAGE_MISS]
_PAGE_MISS_KEY = CASE_COUNTER_KEYS[AccessCase.BLOCK_MISS]


class UnisonCache(BaselineController):
    """Footprint-predicting sub-blocked DRAM cache with in-DRAM tags."""

    name = "unison"
    _CASES = (AccessCase.COMMIT_HIT, AccessCase.STAGE_MISS, AccessCase.BLOCK_MISS)

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

    def _build_server(self):
        """The inline ``(serve, flush)`` pair.

        ``serve(addr, is_write)`` applies an access's state effects in
        trace order — the LRU touch, the way predictor, the footprint
        present/touched/dirty sets, page fills and evictions with their
        FIFO history-table updates — and returns its channel work as one
        op for ``replay``:

            (kind, is_write, mispredict, evict_bytes, extra_bytes,
             fill_bytes, None)

        ``kind`` is 0 (page hit), 1 (footprint miss) or 2 (page miss);
        the byte slots are the page miss's dirty writeback, its extra
        footprint fetch and its fast-memory fill. Hits and footprint
        misses share constant tuples. Counters tally in closure locals
        until ``flush()`` scatters them into ``stats`` and the devices.
        """
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
        history_get = history.get
        history_capacity = self._history_capacity
        lines_per_page = self.lines_per_page
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
                # Footprint miss: fetch the single line from slow memory.
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
            # The predicted footprint: the last residency's touched lines
            # plus this one, else the default window from this line.
            bitmap = history_get(page_id)
            if bitmap is None:
                end = min(lines_per_page, line_idx + _DEFAULT_WINDOW_LINES)
                footprint = set(range(line_idx, end))
            else:
                footprint = {
                    i for i in range(lines_per_page) if (bitmap >> i) & 1
                }
                footprint.add(line_idx)
            free_way = len(lines)
            evict_bytes = 0
            if free_way >= ways:
                # Evict the LRU page.
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
                "present": footprint,
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
            return (_PAGE_MISS, is_write, False, evict_bytes, extra_bytes,
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

        return serve, flush

    def _build_replay(self):
        """``replay(op, now)``: the op's transfers at ``now`` in access
        order. The latency is the left fold of the tag probe, the
        mispredicted second probe and, on a miss, the slow-memory demand
        read or write."""
        fast_transfer = self.devices.fast.pool.transfer
        slow_transfer = self.devices.slow.pool.transfer
        f_lat = self.devices.fast.read_latency + 0.0
        s_lat = self.devices.slow.read_latency + 0.0
        s_wlat = self.devices.slow.write_latency
        line_size = self.geometry.cacheline_size

        def replay(op, now):
            kind, is_write, mis, evict_bytes, extra_bytes, fill_bytes, _ = op
            # In-DRAM tags: the tag probe is a fast-memory read, bundled
            # with the data unless the way prediction missed.
            queue, transfer = fast_transfer(now, line_size, True)
            latency = (f_lat + queue) + transfer
            if mis:
                queue, transfer = fast_transfer(now, line_size, True)
                latency += (f_lat + queue) + transfer
            if kind == _HIT:
                if is_write:
                    fast_transfer(now, line_size)
                return latency
            if is_write:
                queue, transfer = slow_transfer(now, line_size)
                latency += (s_wlat + queue) + transfer
            else:
                queue, transfer = slow_transfer(now, line_size, True)
                latency += (s_lat + queue) + transfer
            if kind == _FOOTPRINT_MISS:
                fast_transfer(now, line_size)
                return latency
            if evict_bytes:
                fast_transfer(now, evict_bytes)
                slow_transfer(now, evict_bytes)
            if extra_bytes:
                slow_transfer(now, extra_bytes)
            fast_transfer(now, fill_bytes)
            return latency

        return replay
