"""Simple: the no-compression, no-sub-blocking DRAM cache baseline.

2 kB blocks, 4-way set-associative, LRU, whole-block fills and whole-block
dirty writebacks — the "Simple" configuration that normalizes Fig. 9.
Metadata follows the Section III-A baseline: a remap cache probed on every
access, with off-chip remap-table reads on misses.

No state here depends on the clock, so the design is one inline server
that applies each access's state in trace order and one replay of its
channel transfers (:class:`~repro.baselines.base.BaselineController`).
"""

from __future__ import annotations

from typing import Dict

from repro.baselines.base import BaselineController
from repro.cache.replacement import CacheLine, LruSet
from repro.core.events import CASE_COUNTER_KEYS, AccessCase
from repro.metadata.remap_cache import RemapCache

# Deferred op kinds: block hit, block miss.
_HIT, _MISS = 0, 1
#: Every op is a shared constant tuple, indexed by
#: ``[kind][rc_miss][is_write][dirty_victim]`` (hits never evict).
_OPS = [
    [[[(kind, w, rc_miss, dirty, None, None, None) for dirty in (False, True)]
      for w in (False, True)]
     for rc_miss in (False, True)]
    for kind in (_HIT, _MISS)
]
_HIT_KEY = CASE_COUNTER_KEYS[AccessCase.COMMIT_HIT]
_MISS_KEY = CASE_COUNTER_KEYS[AccessCase.BLOCK_MISS]
#: Bytes of one remap-table read (a super-block's eight entries).
_TABLE_READ_BYTES = 16


class SimpleCache(BaselineController):
    """Plain block-grain DRAM cache of the slow memory."""

    name = "simple"
    _CASES = (AccessCase.COMMIT_HIT, AccessCase.BLOCK_MISS)

    def __init__(self, config=None, devices=None) -> None:
        super().__init__(config, devices)
        layout = self.config.layout
        fast_blocks = max(1, layout.fast_capacity // self.geometry.block_size)
        self.ways = layout.associativity
        self.num_sets = max(1, fast_blocks // self.ways)
        self._sets: Dict[int, LruSet] = {}
        self.remap_cache = RemapCache(
            num_sets=self.config.remap_cache.num_sets,
            ways=self.config.remap_cache.ways,
            latency_cycles=self.config.remap_cache.latency_cycles,
        )

    def _build_server(self):
        """The inline ``(serve, flush)`` pair.

        ``serve(addr, is_write)`` applies an access's state effects in
        trace order — the remap-cache probe, then on a hit the LRU touch
        and dirty bit, on a miss the LRU victim's eviction and the
        whole-block insert — and returns one shared op for ``replay``:

            (kind, is_write, rc_miss, dirty_victim, None, None, None)

        ``kind`` is 0 (block hit) or 1 (block miss); ``rc_miss`` adds the
        off-chip remap-table read and ``dirty_victim`` the evicted
        block's writeback. Counters tally in closure locals until
        ``flush()`` scatters them into ``stats`` and the devices.
        """
        g = self.geometry
        block_size = g.block_size
        super_block_size = g.super_block_size
        line_size = g.cacheline_size
        rest_bytes = block_size - line_size
        num_sets = self.num_sets
        ways = self.ways
        sets = self._sets
        sets_get = sets.get
        rc_access = self.remap_cache.access
        stats = self.stats
        fast = self.devices.fast
        slow = self.devices.slow
        hit_ops = _OPS[_HIT]
        miss_ops = _OPS[_MISS]
        # Tallies: read and write hits, read and write misses, dirty
        # writebacks, evictions, remap-table reads.
        t_rh = t_wh = t_rm = t_wm = t_dirty_wb = t_evictions = t_table = 0

        def serve(addr, is_write):
            nonlocal t_rh, t_wh, t_rm, t_wm, t_dirty_wb, t_evictions, t_table
            rc_miss = not rc_access(addr // super_block_size)
            if rc_miss:
                t_table += 1
            block_id = addr // block_size
            set_index = block_id % num_sets
            tag = block_id // num_sets
            cache_set = sets_get(set_index)
            if cache_set is None:
                cache_set = sets[set_index] = LruSet(ways)
            lines = cache_set.lines
            line = lines.get(tag)
            if line is not None:
                # LruSet.touch, inlined.
                lines[tag] = lines.pop(tag)
                if is_write:
                    line.dirty = True
                    t_wh += 1
                else:
                    t_rh += 1
                return hit_ops[rc_miss][is_write][False]

            # Miss: respond from slow memory, then fill the whole block.
            if is_write:
                t_wm += 1
            else:
                t_rm += 1
            dirty = False
            if len(lines) >= ways:
                victim = next(iter(lines.values()))
                if victim.dirty:
                    dirty = True
                    t_dirty_wb += 1
                del lines[victim.tag]
                t_evictions += 1
            # LruSet.insert, inlined (the set has a free way).
            lines[tag] = CacheLine(tag, dirty=is_write)
            return miss_ops[rc_miss][is_write][dirty]

        def flush():
            nonlocal t_rh, t_wh, t_rm, t_wm, t_dirty_wb, t_evictions, t_table
            hits = t_rh + t_wh
            misses = t_rm + t_wm
            if not (hits or misses):
                return
            for key, count in (
                ("accesses", hits + misses), ("reads", t_rh + t_rm),
                ("writes", t_wh + t_wm), ("served_fast", hits),
                (_HIT_KEY, hits), ("dirty_writebacks", t_dirty_wb),
                ("evictions", t_evictions), ("block_fills", misses),
                (_MISS_KEY, misses),
            ):
                if count:
                    stats.inc(key, count)
            fast.credit_traffic(
                t_table + t_rh, t_table * _TABLE_READ_BYTES + t_rh * line_size,
                t_dirty_wb, t_dirty_wb * block_size,
                t_wh + misses, t_wh * line_size + misses * block_size,
            )
            slow.credit_traffic(
                t_rm, t_rm * line_size, misses, misses * rest_bytes,
                t_wm + t_dirty_wb, t_wm * line_size + t_dirty_wb * block_size,
            )
            t_rh = t_wh = t_rm = t_wm = t_dirty_wb = t_evictions = t_table = 0

        return serve, flush

    def _build_replay(self):
        """``replay(op, now)``: the op's transfers at ``now`` in access
        order — the remap-table read on a remap-cache miss, the demand
        access (fast on a hit, slow on a miss), then a miss's dirty
        victim (fast read, slow write), the slow read of the rest of the
        block and its fast fill. The latency is the left fold of the
        remap-cache probe, the table read and the demand access."""
        fast_transfer = self.devices.fast.pool.transfer
        slow_transfer = self.devices.slow.pool.transfer
        f_lat = self.devices.fast.read_latency + 0.0
        f_wlat = self.devices.fast.write_latency
        s_lat = self.devices.slow.read_latency + 0.0
        s_wlat = self.devices.slow.write_latency
        rc_lat = float(self.remap_cache.latency_cycles)
        g = self.geometry
        block_size = g.block_size
        line_size = g.cacheline_size
        rest_bytes = block_size - line_size

        def replay(op, now):
            kind, is_write, rc_miss, dirty, _, _, _ = op
            latency = rc_lat
            if rc_miss:
                queue, transfer = fast_transfer(now, _TABLE_READ_BYTES, True)
                latency += (f_lat + queue) + transfer
            if kind == _HIT:
                if is_write:
                    queue, transfer = fast_transfer(now, line_size)
                    return latency + ((f_wlat + queue) + transfer)
                queue, transfer = fast_transfer(now, line_size, True)
                return latency + ((f_lat + queue) + transfer)
            if is_write:
                queue, transfer = slow_transfer(now, line_size)
                latency += (s_wlat + queue) + transfer
            else:
                queue, transfer = slow_transfer(now, line_size, True)
                latency += (s_lat + queue) + transfer
            if dirty:
                fast_transfer(now, block_size)
                slow_transfer(now, block_size)
            slow_transfer(now, rest_bytes)
            fast_transfer(now, block_size)
            return latency

        return replay
