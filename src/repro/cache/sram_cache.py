"""Generic set-associative SRAM cache.

Write-back, write-allocate, physically indexed. The cache reports, for
every access, whether it hit and which (if any) dirty victim address must
be written back — the two facts the next level down needs. It also supports
:meth:`install` for prefetch-style fills that bypass the demand path (the
memory-to-LLC install of decompressed neighbour cachelines, Sec. III-E).

Hot-path engineering: the per-access work runs through
:meth:`access_raw`, which returns a plain tuple instead of allocating an
:class:`AccessOutcome`, and event counts accumulate in plain integer
attributes that are folded into the public ``stats``
:class:`~repro.common.stats.CounterGroup` lazily on read. Counter values
observed through ``stats`` are exact at any point — only the dictionary
update is deferred.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.cache.replacement import BaseSet, CacheLine, make_set
from repro.common.config import CacheGeometry
from repro.common.stats import CounterGroup


@dataclass(frozen=True)
class AccessOutcome:
    """Result of one cache access.

    ``writeback_addr`` is the byte address of the dirty victim that must be
    written to the next level (None when the victim was clean or no
    eviction happened).
    """

    hit: bool
    writeback_addr: Optional[int] = None
    victim_addr: Optional[int] = None


#: Shared hit outcome — frozen, so one instance serves every hit.
_HIT = AccessOutcome(hit=True)


def lru_fill(
    cache: "SetAssociativeCache", cache_set: BaseSet, index: int, tag: int,
    dirty: bool,
) -> Tuple[Optional[int], Optional[int]]:
    """Allocate ``tag`` in an LRU ``cache_set`` (a miss): evict the LRU
    line if the set is full. Returns ``(writeback_addr, victim_addr)``.

    A plain function, so the hierarchy's inlined LRU probes share it.
    """
    lines = cache_set.lines
    writeback = victim_addr = None
    if len(lines) >= cache_set.ways:
        victim_tag, line = next(iter(lines.items()))
        victim_addr = (victim_tag * cache.num_sets + index) * cache._line_size
        if line.dirty:
            writeback = victim_addr
            cache._n_writebacks += 1
        del lines[victim_tag]
        cache._n_evictions += 1
        # Recycle the evicted line object: reset every field
        # CacheLine.__init__ would set, skipping the allocation
        # (``counter`` is never written on an LRU line, so it is 0).
        line.tag = tag
        line.dirty = dirty
        line.payload = None
        line.referenced = False
        line.stamp = 0
    else:
        line = CacheLine(tag, dirty=dirty)
    lines[tag] = line
    return writeback, victim_addr


class SetAssociativeCache:
    """One level of the hierarchy; line granularity = ``geometry.line_size``."""

    def __init__(self, geometry: CacheGeometry) -> None:
        self.geometry = geometry
        self.num_sets = geometry.num_sets
        self._sets: List[BaseSet] = [
            make_set(geometry.replacement, geometry.ways) for _ in range(self.num_sets)
        ]
        self._stats = CounterGroup(geometry.name)
        self._line_size = geometry.line_size
        # LRU dominates the hierarchy configs; its touch/victim/insert are
        # inlined on the hot path (same state transitions as LruSet's).
        self._is_lru = geometry.replacement == "lru"
        # Deferred counters, folded into ``_stats`` on read.
        self._n_accesses = 0
        self._n_hits = 0
        self._n_misses = 0
        self._n_installs = 0
        self._n_writebacks = 0
        self._n_evictions = 0

    @property
    def stats(self) -> CounterGroup:
        """Counter group with all pending hot-path counts folded in."""
        if self._n_accesses:
            self._stats.inc("accesses", self._n_accesses)
            self._n_accesses = 0
        if self._n_hits:
            self._stats.inc("hits", self._n_hits)
            self._n_hits = 0
        if self._n_misses:
            self._stats.inc("misses", self._n_misses)
            self._n_misses = 0
        if self._n_installs:
            self._stats.inc("installs", self._n_installs)
            self._n_installs = 0
        if self._n_writebacks:
            self._stats.inc("writebacks", self._n_writebacks)
            self._n_writebacks = 0
        if self._n_evictions:
            self._stats.inc("evictions", self._n_evictions)
            self._n_evictions = 0
        return self._stats

    # -- address math -----------------------------------------------------
    def _index_tag(self, addr: int) -> tuple[int, int]:
        line = addr // self._line_size
        return line % self.num_sets, line // self.num_sets

    def _addr_of(self, index: int, tag: int) -> int:
        return (tag * self.num_sets + index) * self._line_size

    # -- operations ---------------------------------------------------------
    def access_raw(
        self, addr: int, is_write: bool
    ) -> Tuple[bool, Optional[int], Optional[int]]:
        """Demand access returning ``(hit, writeback_addr, victim_addr)``.

        Allocation-free form of :meth:`access` for the per-access hot
        path; semantics and counter effects are identical.
        """
        line = addr // self._line_size
        index = line % self.num_sets
        cache_set = self._sets[index]
        tag = line // self.num_sets
        lines = cache_set.lines
        entry = lines.get(tag)
        self._n_accesses += 1
        if entry is not None:
            if self._is_lru:
                lines[tag] = lines.pop(tag)
            else:
                cache_set.touch(entry)
            if is_write:
                entry.dirty = True
            self._n_hits += 1
            return True, None, None
        self._n_misses += 1
        writeback, victim = self._allocate(cache_set, index, tag, is_write)
        return False, writeback, victim

    def access(self, addr: int, is_write: bool) -> AccessOutcome:
        """Demand access with allocate-on-miss; returns hit + writeback info."""
        hit, writeback, victim = self.access_raw(addr, is_write)
        if hit:
            return _HIT
        return AccessOutcome(hit=False, writeback_addr=writeback, victim_addr=victim)

    def install_raw(self, addr: int, dirty: bool = False) -> Optional[int]:
        """Prefetch-style fill; returns the dirty victim address, if any.

        A no-op when the line is already resident (returns None).
        """
        index, tag = self._index_tag(addr)
        cache_set = self._sets[index]
        if cache_set.lines.get(tag) is not None:
            return None
        self._n_installs += 1
        writeback, _ = self._allocate(cache_set, index, tag, dirty)
        return writeback

    def install(self, addr: int, dirty: bool = False) -> AccessOutcome:
        """Fill a line without a demand access (prefetch install).

        A no-op when the line is already resident.
        """
        index, tag = self._index_tag(addr)
        cache_set = self._sets[index]
        if cache_set.lines.get(tag) is not None:
            return _HIT
        self._n_installs += 1
        writeback, victim = self._allocate(cache_set, index, tag, dirty)
        return AccessOutcome(hit=False, writeback_addr=writeback, victim_addr=victim)

    def contains(self, addr: int) -> bool:
        index, tag = self._index_tag(addr)
        return self._sets[index].lookup(tag) is not None

    def invalidate(self, addr: int) -> Optional[int]:
        """Drop a line if present; returns its address when it was dirty."""
        index, tag = self._index_tag(addr)
        line = self._sets[index].invalidate(tag)
        if line is not None and line.dirty:
            return self._addr_of(index, tag)
        return None

    def _allocate(
        self, cache_set: BaseSet, index: int, tag: int, dirty: bool
    ) -> tuple[Optional[int], Optional[int]]:
        if self._is_lru:
            return lru_fill(self, cache_set, index, tag, dirty)
        writeback = None
        victim_addr = None
        lines = cache_set.lines
        if len(lines) >= cache_set.ways:
            victim = cache_set.victim()
            victim_addr = self._addr_of(index, victim.tag)
            if victim.dirty:
                writeback = victim_addr
                self._n_writebacks += 1
            cache_set.evict(victim.tag)
            self._n_evictions += 1
        cache_set.insert(CacheLine(tag, dirty=dirty))
        return writeback, victim_addr

    @property
    def hit_rate(self) -> float:
        accesses = self.stats.get("accesses")
        return self.stats.get("hits") / accesses if accesses else 0.0
