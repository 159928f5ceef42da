"""DICE: a compressed DRAM cache (Young et al., ISCA 2017).

64 B blocks, direct-mapped, with *dictionary-free* compression that packs
up to four neighbouring cachelines into one 64 B physical slot when they
compress. We model the cache at aligned 4-line-group granularity: a group
maps to one set; the number of its lines resident in the slot is the
group's achievable CF (from the shared compressibility oracle, the same
source Baryon uses so the comparison is apples-to-apples).

Per the paper's evaluation setup, DICE runs with a *perfect* way/index
predictor, so hits cost a single fast-memory access and no extra tag
probes. Compressed residency also grants DICE the memory-to-LLC spatial
prefetch of co-compressed lines.

No state here depends on the clock, so the design is one inline server
that applies each access's state in trace order and one replay of its
channel transfers (:class:`~repro.baselines.base.BaselineController`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Set

from repro.baselines.base import BaselineController
from repro.compression.synthetic import SyntheticCompressibility
from repro.core.events import CASE_COUNTER_KEYS, AccessCase

# Deferred op kinds: hit, compressed read hit (decompresses and
# prefetches its slot-mates), line miss.
_HIT, _COMPRESSED_HIT, _MISS = 0, 1, 2
#: Shared op tuples for the uncompressed read hit and the write hit
#: that does not overflow, indexed by ``is_write``.
_HIT_OPS = ((_HIT, False, 0, 0, 0, 0, None), (_HIT, True, 0, 0, 0, 0, None))
_HIT_KEY = CASE_COUNTER_KEYS[AccessCase.COMMIT_HIT]
_MISS_KEY = CASE_COUNTER_KEYS[AccessCase.BLOCK_MISS]


@dataclass
class _GroupEntry:
    """Resident state of one compressed line group in its set."""

    group_id: int
    #: Line indices (0..3 within the group) resident in the slot.
    present: Set[int] = field(default_factory=set)
    dirty: Set[int] = field(default_factory=set)
    cf: int = 1


class DiceCache(BaselineController):
    """Direct-mapped compressed 64 B-line DRAM cache."""

    name = "dice"
    _CASES = (AccessCase.COMMIT_HIT, AccessCase.COMMIT_HIT, AccessCase.BLOCK_MISS)
    _GROUP_LINES = 4
    #: TAD (tag-and-data) transfer size: the tag rides in spare ECC bits
    #: plus alignment, costing extra fast-memory bandwidth per access.
    _TAD_BYTES = 72

    def __init__(self, config=None, devices=None, compressibility=None, seed: int = 1) -> None:
        super().__init__(config, devices)
        self.oracle = compressibility or SyntheticCompressibility(seed=seed)
        g = self.geometry
        fast_lines = max(1, self.config.layout.fast_capacity // g.cacheline_size)
        self.num_sets = fast_lines
        self._sets: Dict[int, _GroupEntry] = {}

    def _build_server(self):
        """The inline ``(serve, flush)`` pair.

        ``serve(addr, is_write)`` applies an access's state effects in
        trace order — group entries and their present/dirty sets, the
        oracle's ``note_write`` and ``max_cf`` queries, and the fit
        recheck after a write — and returns its channel work as one op
        for ``replay``:

            (kind, is_write, writeback_bytes, extra_bytes, install_bytes,
             overflow_bytes, lines)

        ``kind`` is 0 (hit), 1 (compressed read hit: decompression plus
        ``lines``, the slot-mates to prefetch) or 2 (miss, with the
        victim's dirty writeback, the extra neighbour fetch and the
        install); ``overflow_bytes`` is a write hit's overflow writeback.
        Counters tally in closure locals until ``flush()`` scatters them
        into ``stats`` and the devices.
        """
        g = self.geometry
        line_size = g.cacheline_size
        block_size = g.block_size
        sub_size = g.sub_block_size
        group_lines = self._GROUP_LINES
        group_bytes = group_lines * line_size
        tad_bytes = self._TAD_BYTES
        num_sets = self.num_sets
        sets = self._sets
        sets_get = sets.get
        note_write = self.oracle.note_write
        max_cf = self.oracle.max_cf
        stats = self.stats
        fast = self.devices.fast
        slow = self.devices.slow
        hit_ops = _HIT_OPS
        # Tallies: accesses, writes, hits, line fills, evictions, dirty
        # writebacks, write overflows.
        t_acc = t_writes = t_hits = t_fills = t_evictions = 0
        t_dirty_wb = t_overflows = 0
        # Device tallies: demand reads, fill reads (count, bytes), writes
        # (count, bytes). Fast demand reads are TAD-sized, slow ones one
        # cacheline.
        f_dr = f_fr = f_fb = f_nw = f_wb = 0
        s_dr = s_fr = s_fb = s_nw = s_wb = 0

        def serve(addr, is_write):
            nonlocal t_acc, t_writes, t_hits, t_fills, t_evictions
            nonlocal t_dirty_wb, t_overflows
            nonlocal f_dr, f_fr, f_fb, f_nw, f_wb
            nonlocal s_dr, s_fr, s_fb, s_nw, s_wb
            line = addr // line_size
            group_id = line // group_lines
            line_in_group = line % group_lines
            set_index = group_id % num_sets
            entry = sets_get(set_index)
            t_acc += 1
            if is_write:
                t_writes += 1
            if (
                entry is not None
                and entry.group_id == group_id
                and line_in_group in entry.present
            ):
                t_hits += 1
                if not is_write:
                    f_dr += 1
                    if entry.cf > 1:
                        base = group_id * group_bytes
                        return (_COMPRESSED_HIT, False, 0, 0, 0, 0, [
                            base + i * line_size
                            for i in entry.present
                            if i != line_in_group
                        ])
                    return hit_ops[0]
                f_nw += 1
                f_wb += tad_bytes
                entry.dirty.add(line_in_group)
                if not note_write(addr // block_size, (addr % block_size) // sub_size):
                    return hit_ops[1]
                # The write may have broken the group's fit: query the
                # CF of its first sub-block range, as at fill time.
                base = group_id * group_bytes
                new_cf = max_cf(base // block_size, (base % block_size) // sub_size, True)
                if new_cf >= entry.cf:
                    return hit_ops[1]
                # Overflow: keep only the demanded line's sub-group.
                t_overflows += 1
                keep_start = (line_in_group // new_cf) * new_cf
                keep = set(range(keep_start, keep_start + new_cf))
                evicted_dirty = entry.dirty - keep
                overflow_bytes = len(evicted_dirty) * line_size
                if overflow_bytes:
                    f_fr += 1
                    f_fb += overflow_bytes
                    s_nw += 1
                    s_wb += overflow_bytes
                entry.present &= keep
                entry.dirty &= keep
                entry.cf = new_cf
                return (_HIT, True, 0, 0, 0, overflow_bytes, None)

            # Miss: fetch the line (plus compressible neighbours) from slow.
            if is_write:
                s_nw += 1
                s_wb += line_size
            else:
                s_dr += 1
            # The oracle speaks sub-block ranges; a line group compresses
            # with the same locality, so its CF is that of its enclosing
            # range (both ask whether 4x the data fits one transfer unit).
            base = group_id * group_bytes
            cf = max_cf(base // block_size, (base % block_size) // sub_size, True)
            writeback_bytes = 0
            if entry is not None:
                # The old entry's dirty lines go back. The same group
                # missing this line (a lower-CF slot) is refetched at its
                # current CF; a different group is also an eviction.
                if entry.dirty:
                    writeback_bytes = len(entry.dirty) * line_size
                    f_fr += 1
                    f_fb += writeback_bytes
                    s_nw += 1
                    s_wb += writeback_bytes
                    t_dirty_wb += 1
                if entry.group_id != group_id:
                    t_evictions += 1
            start = (line_in_group // cf) * cf
            present = set(range(start, min(start + cf, group_lines)))
            present.add(line_in_group)
            extra_bytes = (len(present) - 1) * line_size
            if extra_bytes:
                s_fr += 1
                s_fb += extra_bytes
            # Compressed install: CF lines share one 64 B slot (plus tag).
            install_bytes = max(
                tad_bytes, (len(present) // max(1, cf)) * tad_bytes
            )
            f_nw += 1
            f_wb += install_bytes
            sets[set_index] = _GroupEntry(
                group_id=group_id,
                present=present,
                dirty={line_in_group} if is_write else set(),
                cf=cf,
            )
            t_fills += 1
            return (_MISS, is_write, writeback_bytes, extra_bytes,
                    install_bytes, 0, None)

        def flush():
            nonlocal t_acc, t_writes, t_hits, t_fills, t_evictions
            nonlocal t_dirty_wb, t_overflows
            nonlocal f_dr, f_fr, f_fb, f_nw, f_wb
            nonlocal s_dr, s_fr, s_fb, s_nw, s_wb
            if not t_acc:
                return
            for key, count in (
                ("accesses", t_acc), ("reads", t_acc - t_writes),
                ("writes", t_writes), ("served_fast", t_hits),
                (_HIT_KEY, t_hits), ("write_overflows", t_overflows),
                ("dirty_writebacks", t_dirty_wb), ("evictions", t_evictions),
                ("line_fills", t_fills), (_MISS_KEY, t_fills),
            ):
                if count:
                    stats.inc(key, count)
            fast.credit_traffic(f_dr, f_dr * tad_bytes, f_fr, f_fb, f_nw, f_wb)
            slow.credit_traffic(s_dr, s_dr * line_size, s_fr, s_fb, s_nw, s_wb)
            t_acc = t_writes = t_hits = t_fills = t_evictions = 0
            t_dirty_wb = t_overflows = 0
            f_dr = f_fr = f_fb = f_nw = f_wb = 0
            s_dr = s_fr = s_fb = s_nw = s_wb = 0

        return serve, flush

    def _build_replay(self):
        """``replay(op, now)``: the op's transfers at ``now`` in access
        order. The latency is the device total of the TAD access or the
        slow-memory demand read or write, plus the decompression latency
        on a compressed hit."""
        fast_transfer = self.devices.fast.pool.transfer
        slow_transfer = self.devices.slow.pool.transfer
        f_lat = self.devices.fast.read_latency + 0.0
        f_wlat = self.devices.fast.write_latency
        s_lat = self.devices.slow.read_latency + 0.0
        s_wlat = self.devices.slow.write_latency
        decomp = self.config.compression.decompression_latency_cycles
        line_size = self.geometry.cacheline_size
        tad_bytes = self._TAD_BYTES

        def replay(op, now):
            kind, is_write, wb_bytes, extra_bytes, install_bytes, overflow, _ = op
            if kind == _MISS:
                if is_write:
                    queue, transfer = slow_transfer(now, line_size)
                    latency = (s_wlat + queue) + transfer
                else:
                    queue, transfer = slow_transfer(now, line_size, True)
                    latency = (s_lat + queue) + transfer
                if wb_bytes:
                    fast_transfer(now, wb_bytes)
                    slow_transfer(now, wb_bytes)
                if extra_bytes:
                    slow_transfer(now, extra_bytes)
                fast_transfer(now, install_bytes)
                return latency
            if is_write:
                queue, transfer = fast_transfer(now, tad_bytes)
                if overflow:
                    fast_transfer(now, overflow)
                    slow_transfer(now, overflow)
                return (f_wlat + queue) + transfer
            queue, transfer = fast_transfer(now, tad_bytes, True)
            latency = (f_lat + queue) + transfer
            if kind == _COMPRESSED_HIT:
                latency += decomp
            return latency

        return replay
