"""Multi-core cache hierarchy: private L1D/L2 per core, shared LLC.

The hierarchy consumes the raw trace and emits the memory-controller-level
events: demand LLC misses (with their latency contribution) and dirty LLC
writebacks. L1I is omitted — the synthetic traces model data accesses, and
Table I's L1I would filter instruction fetches we do not generate.

The hierarchy is non-inclusive/non-exclusive (the common "NINE" policy):
L2/LLC victims do not back-invalidate inner levels; dirty victims propagate
downward level by level. :meth:`install_llc` supports the bandwidth-free
memory-to-LLC prefetch of Sec. III-E — when the controller decompresses one
64 B chunk into up to four cachelines, the extra lines are installed into
the LLC directly.

Hot-path engineering: the private L1/L2 walk is the same for every
design, so the fast loop computes it once per trace and replays only the
LLC stream (:meth:`CacheHierarchy.make_fast_path`). Level hit counters
accumulate in integers folded into ``stats`` lazily on read.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from repro.cache.sram_cache import SetAssociativeCache, lru_fill
from repro.common.config import HierarchyConfig
from repro.common.errors import SimulationError
from repro.common.stats import CounterGroup


@dataclass
class HierarchyResult:
    """What one trace access did to the hierarchy.

    ``llc_miss`` — the access needs main memory; ``latency_cycles`` — the
    SRAM lookup latency already spent on the way down; ``writebacks`` —
    dirty LLC victim addresses that must be written to main memory.
    """

    hit_level: str
    llc_miss: bool
    latency_cycles: int
    writebacks: List[int] = field(default_factory=list)


#: Per-cache counters a private walk totals, in ``PrivateWalk.counts`` order.
_CACHE_COUNTERS = (
    "_n_accesses", "_n_hits", "_n_misses", "_n_installs", "_n_writebacks",
    "_n_evictions",
)

#: The one memoized walk, ``(key, columns, walk)``. ``columns`` holds the
#: keyed trace columns, so their buffers (and with them the key) cannot
#: be freed and reused while the entry lives.
_walk_memo: list = [None]


def _column_key(column) -> tuple:
    """Identity of one trace column: the numpy buffer region it views, or
    the object itself for a plain sequence. Never the content."""
    face = getattr(column, "__array_interface__", None)
    if face is None:
        return (id(column),)
    return (face["data"][0], face["shape"], face["strides"], face["typestr"])


class PrivateWalk:
    """One trace's pass through cold private L1/L2 caches.

    ``incs``: the core-side cycle increments in scalar order, per access
    a non-zero gap's ``gap * base_cpi / threads`` then its SRAM latency
    over ``threads``. One record per access that touches the LLC:
    ``ends`` (the offset where its increments end), ``addrs``, ``kinds``
    (0: an L2 hit that only spills; 2/3: a read/write LLC demand probe)
    and its LLC write-allocations in order, ``spills`` (the dirty L1
    victim's L2 spill) then ``victims`` (the dirty L2 demand victim), -1
    when absent. ``l1_hits``, ``l2_hits`` and ``counts`` (per L1, then
    per L2 cache, in ``_CACHE_COUNTERS`` order) total the counters.
    """

    __slots__ = (
        "incs", "ends", "addrs", "kinds", "spills", "victims", "l1_hits",
        "l2_hits", "counts",
    )


def _walk_private(
    config: HierarchyConfig, addrs, writes, igaps, cores, base_cpi, threads
) -> PrivateWalk:
    """Run a trace through fresh private L1/L2 caches (see PrivateWalk).

    The loop only probes the caches; numpy then tallies the counters and
    lays out the increments (its float64 ``*`` and ``/`` round exactly
    like Python floats) and records.
    """
    addrs, writes, igaps, cores = map(np.asarray, (addrs, writes, igaps, cores))
    n_cores = config.cores
    cores = cores.astype(np.int64) % n_cores
    # Per access: 0 L1 hit, 1 L2 hit, 2 LLC probe; its dirty L1 victim's
    # L2 spill and its dirty L2 demand victim, -1 when absent.
    levels = bytearray(len(addrs))
    spills = array("q", [-1]) * len(addrs)
    victims = array("q", [-1]) * len(addrs)
    # Private caches see only their own core's accesses, so each core's
    # subsequence is walked on its own, in trace order.
    mine = [np.flatnonzero(cores == core) for core in range(n_cores)]
    counts = _probe_lru(config, addrs, writes, mine, levels, spills, victims)

    level = np.frombuffer(levels, np.uint8)
    walk = PrivateWalk()
    # Demand accesses that hit L1 and L2, over all cores.
    tally = np.bincount(level, minlength=3).tolist()
    walk.l1_hits, walk.l2_hits = tally[0], tally[1]
    walk.counts = counts
    # Each access's increments: a non-zero gap's, then its latency's.
    gapped = igaps != 0
    ends = np.cumsum(gapped + 1, dtype=np.int64)
    geometries = (config.l1d, config.l2, config.llc)
    latency = np.cumsum([geometry.latency_cycles for geometry in geometries])
    incs = np.empty(int(ends[-1]) if len(ends) else 0)
    incs[ends - 1] = (latency / threads)[level]
    incs[ends[gapped] - 2] = igaps[gapped] * base_cpi / threads
    spills = np.frombuffer(spills, np.int64)
    records = np.flatnonzero((level == 2) | (spills >= 0))
    walk.incs = _packed("d", incs)
    walk.ends = _packed("q", ends[records])
    walk.addrs = _packed("q", addrs[records])
    walk.kinds = bytes(
        np.where(level[records] == 2, 2 + writes[records], 0).astype(np.uint8)
    )
    walk.spills = _packed("q", spills[records])
    walk.victims = _packed("q", np.frombuffer(victims, np.int64)[records])
    return walk


def _probe_lru(config, addrs, writes, mine, levels, spills, victims) -> list:
    """The private walk: per core, fresh ``tag -> dirty`` dicts per set,
    probed over (set, tag) columns numpy computes up front. Fills,
    victims and spills are inlined, with the transitions of
    :meth:`SetAssociativeCache.access_raw`. Fills ``levels``, ``spills``
    and ``victims`` and returns the per-cache counter tuples.

    Every set starts full of clean placeholder keys, which equal no tag
    and are older than every line, so a miss always evicts the head:
    a placeholder (clean, uncounted) until the set has filled, then the
    LRU line, exactly as a set that checks its occupancy first.
    """
    l1, l2 = config.l1d, config.l2
    n1, size1 = l1.num_sets, l1.line_size
    n2, size2 = l2.num_sets, l2.line_size
    pads1 = {object() for _ in range(l1.ways)}
    pads2 = {object() for _ in range(l2.ways)}
    line1 = addrs // size1
    line2 = addrs // size2
    columns = (line1 % n1, line1 // n1, line2 % n2, line2 // n2, writes)
    level = np.frombuffer(levels, np.uint8)
    l1_counts, l2_counts = [], []
    for ids in mine:
        sets1 = [dict.fromkeys(pads1, False) for _ in range(n1)]
        sets2 = [dict.fromkeys(pads2, False) for _ in range(n2)]
        n_spills = spill_hits = wb2 = 0
        for i, s1, t1, s2, t2, is_write in zip(
            ids.tolist(), *(column[ids].tolist() for column in columns)
        ):
            lines = sets1[s1]
            dirty = lines.pop(t1, None)
            if dirty is not None:
                lines[t1] = dirty or is_write
                continue
            spill = -1
            for victim in lines:  # the head: LRU line or placeholder
                break
            if lines.pop(victim):
                spill = (victim * n1 + s1) * size1
            lines[t1] = is_write
            # Read-only at L2 under NINE: dirtiness is tracked at L1.
            lines = sets2[s2]
            dirty = lines.pop(t2, None)
            if dirty is not None:
                lines[t2] = dirty
                levels[i] = 1
            else:
                levels[i] = 2
                for victim in lines:
                    break
                if lines.pop(victim):
                    victims[i] = (victim * n2 + s2) * size2
                    wb2 += 1
                lines[t2] = False
            if spill >= 0:
                # Dirty L1 victim lands in L2 (write-allocate at L2).
                n_spills += 1
                line = spill // size2
                index = line % n2
                tag = line // n2
                lines = sets2[index]
                if lines.pop(tag, None) is not None:
                    spill_hits += 1
                else:
                    for victim in lines:
                        break
                    if lines.pop(victim):
                        spills[i] = (victim * n2 + index) * size2
                        wb2 += 1
                lines[tag] = True
        l2_hits, llc = np.bincount(level[ids], minlength=3).tolist()[1:]
        held1 = sum(len(lines) - len(pads1 & lines.keys()) for lines in sets1)
        held2 = sum(len(lines) - len(pads2 & lines.keys()) for lines in sets2)
        # No line is ever invalidated, so every fill past a set's
        # residents evicted one line.
        misses1 = l2_hits + llc
        l1_counts.append(
            (len(ids), len(ids) - misses1, misses1, 0, n_spills, misses1 - held1)
        )
        misses2 = llc + n_spills - spill_hits
        l2_counts.append((
            l2_hits + llc + n_spills, l2_hits + spill_hits, misses2, 0, wb2,
            misses2 - held2,
        ))
    return l1_counts + l2_counts


def _packed(typecode: str, values) -> array:
    """A numpy column as a compact ``array`` (no intermediate bytes)."""
    out = array(typecode)
    out.frombytes(memoryview(np.ascontiguousarray(values, typecode)).cast("B"))
    return out


class CacheHierarchy:
    """Private L1D + L2 per core, one shared LLC."""

    def __init__(self, config: Optional[HierarchyConfig] = None) -> None:
        self.config = config or HierarchyConfig()
        cores = self.config.cores
        self._l1: List[SetAssociativeCache] = [
            SetAssociativeCache(self.config.l1d) for _ in range(cores)
        ]
        self._l2: List[SetAssociativeCache] = [
            SetAssociativeCache(self.config.l2) for _ in range(cores)
        ]
        self.llc = SetAssociativeCache(self.config.llc)
        self._stats = CounterGroup("hierarchy")
        self._cores = cores
        self._lat_l1 = self.config.l1d.latency_cycles
        self._lat_l12 = self._lat_l1 + self.config.l2.latency_cycles
        self._lat_full = self._lat_l12 + self.config.llc.latency_cycles
        # Deferred level-hit counters, folded into ``stats`` on read.
        self._n_l1_hits = 0
        self._n_l2_hits = 0
        self._n_llc_hits = 0
        self._n_llc_misses = 0
        self._n_prefetch_installs = 0

    @property
    def stats(self) -> CounterGroup:
        """Counter group with all pending hot-path counts folded in."""
        if self._n_l1_hits:
            self._stats.inc("l1_hits", self._n_l1_hits)
            self._n_l1_hits = 0
        if self._n_l2_hits:
            self._stats.inc("l2_hits", self._n_l2_hits)
            self._n_l2_hits = 0
        if self._n_llc_hits:
            self._stats.inc("llc_hits", self._n_llc_hits)
            self._n_llc_hits = 0
        if self._n_llc_misses:
            self._stats.inc("llc_misses", self._n_llc_misses)
            self._n_llc_misses = 0
        if self._n_prefetch_installs:
            self._stats.inc("llc_prefetch_installs", self._n_prefetch_installs)
            self._n_prefetch_installs = 0
        return self._stats

    def access_fast(
        self, addr: int, is_write: bool, core: int = 0
    ) -> Optional[Tuple[str, int, bool, Optional[List[int]]]]:
        """Run one demand access through L1 -> L2 -> LLC, allocation-free.

        Returns ``None`` for the dominant L1-hit case; otherwise a tuple
        ``(hit_level, latency_cycles, llc_miss, writebacks)`` where
        ``writebacks`` is ``None`` when no dirty LLC victims spilled.
        Simulation effects are identical to :meth:`access`.
        """
        core %= self._cores
        hit, l1_wb, _ = self._l1[core].access_raw(addr, is_write)
        if hit:
            self._n_l1_hits += 1
            return None
        writebacks: Optional[List[int]] = None
        l2 = self._l2[core]
        llc = self.llc
        # Read-only at L2 under NINE: dirtiness is tracked at L1.
        hit2, l2_wb, _ = l2.access_raw(addr, False)
        if l1_wb is not None:
            # Dirty L1 victim lands in L2 (write-allocate at L2).
            _, spill, _ = l2.access_raw(l1_wb, True)
            if spill is not None:
                _, llc_wb, _ = llc.access_raw(spill, True)
                # Truthiness (not `is not None`) preserves the historical
                # spill semantics exactly.
                if llc_wb:
                    writebacks = [llc_wb]
        if hit2:
            self._n_l2_hits += 1
            return ("L2", self._lat_l12, False, writebacks)
        if l2_wb is not None:
            _, llc_wb, _ = llc.access_raw(l2_wb, True)
            if llc_wb:
                if writebacks is None:
                    writebacks = [llc_wb]
                else:
                    writebacks.append(llc_wb)
        hit3, llc_wb, _ = llc.access_raw(addr, False)
        if llc_wb is not None:
            if writebacks is None:
                writebacks = [llc_wb]
            else:
                writebacks.append(llc_wb)
        if hit3:
            self._n_llc_hits += 1
            return ("LLC", self._lat_full, False, writebacks)
        self._n_llc_misses += 1
        return ("MEM", self._lat_full, True, writebacks)

    def access(self, addr: int, is_write: bool, core: int = 0) -> HierarchyResult:
        """Run one demand access through L1 -> L2 -> LLC."""
        outcome = self.access_fast(addr, is_write, core)
        if outcome is None:
            return HierarchyResult("L1", False, self._lat_l1, [])
        level, latency, llc_miss, writebacks = outcome
        return HierarchyResult(
            level, llc_miss, latency, writebacks if writebacks is not None else []
        )

    def make_fast_path(self):
        """Closures ``(walk, access, install, flush)`` for the fast loop.

        L1D and L2 are private and non-inclusive, and prefetch installs
        touch only the LLC, so a trace's L1/L2 walk is the same for every
        design. ``walk(addrs, writes, igaps, cores, base_cpi, threads)``
        returns ``(PrivateWalk, walked)``, computing the walk only when
        the one-entry memo (keyed on the identity of the trace columns,
        the L1/L2 geometry, the LLC latency, the core count, ``base_cpi``
        and ``threads``) misses; ``walked`` counts the accesses walked.
        ``access(addr, spill, victim, kind)`` does one walk record's LLC
        work and returns ``(llc_miss, writebacks)``; ``install`` is
        :meth:`install_llc_fast`; ``flush`` folds the LLC tallies into
        :attr:`stats`. The demand probe is inlined. Raises
        :class:`SimulationError` unless this hierarchy's L1/L2 are cold.
        """
        if any(
            cache.stats.get("accesses") or any(cache._lines)
            for cache in (*self._l1, *self._l2)
        ):
            raise SimulationError(
                "the fast loop needs cold L1/L2 caches: simulate on a "
                "fresh hierarchy, or pass scalar=True"
            )
        config = self.config
        # Everything the walk reads besides the trace and the core timing
        # (the LLC latency is part of a full miss's increment).
        private = (config.l1d, config.l2, config.llc.latency_cycles, self._cores)
        llc = self.llc
        llc_line = llc._line_size
        llc_sets_n = llc.num_sets
        llc_lines = llc._lines
        llc_raw = llc.access_raw
        llc_install_raw = llc.install_raw

        n_llc = n_miss = n_pref = 0

        def walk(addrs, writes, igaps, cores, base_cpi, threads):
            columns = (addrs, writes, igaps, cores)
            key = (*map(_column_key, columns), private, base_cpi, threads)
            entry = _walk_memo[0]
            if entry is not None and entry[0] == key:
                return entry[2], 0
            result = _walk_private(config, *columns, base_cpi, threads)
            _walk_memo[0] = (key, columns, result)
            return result, len(addrs)

        def access(addr, spill, victim, kind):
            nonlocal n_llc, n_miss
            writebacks = None
            if spill >= 0:
                _, wb, _ = llc_raw(spill, True)
                # Truthiness (not `is not None`) preserves the historical
                # spill semantics exactly.
                if wb:
                    writebacks = [wb]
            if victim >= 0:
                _, wb, _ = llc_raw(victim, True)
                if wb:
                    if writebacks is None:
                        writebacks = [wb]
                    else:
                        writebacks.append(wb)
            if not kind:
                return False, writebacks
            line = addr // llc_line
            index = line % llc_sets_n
            tag = line // llc_sets_n
            lines = llc_lines[index]
            llc._n_accesses += 1
            dirty = lines.pop(tag, None)
            if dirty is not None:
                lines[tag] = dirty
                llc._n_hits += 1
                n_llc += 1
                return False, writebacks
            llc._n_misses += 1
            wb = lru_fill(llc, lines, index, tag, False)[0]
            if wb is not None:
                if writebacks is None:
                    writebacks = [wb]
                else:
                    writebacks.append(wb)
            n_miss += 1
            return True, writebacks

        def install(addr):
            nonlocal n_pref
            n_pref += 1
            return llc_install_raw(addr)

        def flush():
            nonlocal n_llc, n_miss, n_pref
            self._n_llc_hits += n_llc
            self._n_llc_misses += n_miss
            self._n_prefetch_installs += n_pref
            n_llc = n_miss = n_pref = 0

        return walk, access, install, flush

    def add_walk_counts(self, walk: "PrivateWalk") -> None:
        """Fold a private walk's L1/L2 counter totals into this hierarchy
        (its ``stats`` and every per-core L1/L2 cache's counters)."""
        self._n_l1_hits += walk.l1_hits
        self._n_l2_hits += walk.l2_hits
        for cache, counts in zip((*self._l1, *self._l2), walk.counts):
            for name, value in zip(_CACHE_COUNTERS, counts):
                setattr(cache, name, getattr(cache, name) + value)

    def install_llc_fast(self, addr: int) -> Optional[int]:
        """Install a prefetched line into the LLC; returns the dirty
        writeback address, if any (allocation-free form)."""
        writeback = self.llc.install_raw(addr)
        self._n_prefetch_installs += 1
        return writeback

    def install_llc(self, addr: int) -> List[int]:
        """Install a prefetched line into the LLC; returns dirty writebacks."""
        writeback = self.install_llc_fast(addr)
        return [writeback] if writeback else []

    @property
    def llc_miss_rate(self) -> float:
        accesses = self.llc.stats.get("accesses")
        return self.llc.stats.get("misses") / accesses if accesses else 0.0
