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
from typing import Dict, List, Optional, Tuple

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
    cache: "SetAssociativeCache", lines: Dict[int, bool], index: int, tag: int,
    dirty: bool,
) -> Tuple[Optional[int], Optional[int]]:
    """Allocate ``tag`` in an LRU set's ``tag -> dirty`` dict (a miss):
    evict the LRU line if the set is full. Returns ``(writeback_addr,
    victim_addr)``.

    Dict order is recency order, so the victim is the first key. A plain
    function, so the fast path's LLC closure shares it.
    """
    writeback = victim_addr = None
    if len(lines) >= cache._ways:
        victim_tag = next(iter(lines))
        victim_addr = (victim_tag * cache.num_sets + index) * cache._line_size
        if lines.pop(victim_tag):
            writeback = victim_addr
            cache._n_writebacks += 1
        cache._n_evictions += 1
    lines[tag] = dirty
    return writeback, victim_addr


class SetAssociativeCache:
    """One level of the hierarchy; line granularity = ``geometry.line_size``.

    ``_lines[index]`` is set ``index``'s resident lines keyed by tag. An
    LRU level keeps no line objects: its dict maps tag -> dirty bit in
    recency order (least recent first), so a clean line's value is
    ``False`` and residency is tested with ``in`` / ``is not None``,
    never truthiness. Other policies keep a :class:`BaseSet` per set in
    ``_sets`` and ``_lines`` aliases each set's ``tag -> CacheLine`` dict.
    """

    def __init__(self, geometry: CacheGeometry) -> None:
        self.geometry = geometry
        self.num_sets = geometry.num_sets
        self._is_lru = geometry.replacement == "lru"
        self._sets: List[BaseSet] = []
        if self._is_lru:
            self._lines: List[dict] = [{} for _ in range(self.num_sets)]
        else:
            self._sets = [
                make_set(geometry.replacement, geometry.ways)
                for _ in range(self.num_sets)
            ]
            self._lines = [cache_set.lines for cache_set in self._sets]
        self._stats = CounterGroup(geometry.name)
        self._line_size = geometry.line_size
        self._ways = geometry.ways
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
        tag = line // self.num_sets
        self._n_accesses += 1
        if self._is_lru:
            lines = self._lines[index]
            dirty = lines.pop(tag, None)
            if dirty is not None:
                # Re-inserted at the most-recent end.
                lines[tag] = dirty or is_write
                self._n_hits += 1
                return True, None, None
            self._n_misses += 1
            writeback, victim = lru_fill(self, lines, index, tag, is_write)
            return False, writeback, victim
        cache_set = self._sets[index]
        entry = cache_set.lines.get(tag)
        if entry is not None:
            cache_set.touch(entry)
            if is_write:
                entry.dirty = True
            self._n_hits += 1
            return True, None, None
        self._n_misses += 1
        writeback, victim = self._allocate(index, tag, is_write)
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
        if tag in self._lines[index]:
            return None
        self._n_installs += 1
        return self._allocate(index, tag, dirty)[0]

    def install(self, addr: int, dirty: bool = False) -> AccessOutcome:
        """Fill a line without a demand access (prefetch install).

        A no-op when the line is already resident.
        """
        index, tag = self._index_tag(addr)
        if tag in self._lines[index]:
            return _HIT
        self._n_installs += 1
        writeback, victim = self._allocate(index, tag, dirty)
        return AccessOutcome(hit=False, writeback_addr=writeback, victim_addr=victim)

    def contains(self, addr: int) -> bool:
        index, tag = self._index_tag(addr)
        return tag in self._lines[index]

    def invalidate(self, addr: int) -> Optional[int]:
        """Drop a line if present; returns its address when it was dirty."""
        index, tag = self._index_tag(addr)
        if self._is_lru:
            dirty = self._lines[index].pop(tag, None)
        else:
            line = self._sets[index].invalidate(tag)
            dirty = line is not None and line.dirty
        return self._addr_of(index, tag) if dirty else None

    def _allocate(
        self, index: int, tag: int, dirty: bool
    ) -> tuple[Optional[int], Optional[int]]:
        if self._is_lru:
            return lru_fill(self, self._lines[index], index, tag, dirty)
        writeback = None
        victim_addr = None
        cache_set = self._sets[index]
        if len(cache_set.lines) >= cache_set.ways:
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
