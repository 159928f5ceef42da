"""On-chip remap cache at super-block-line granularity (Sec. III-C).

Each line caches all eight remap entries of one super-block (16 B of
entries plus a tag), so one fill serves the whole prefix-sum position
calculation. The cache only models presence — the authoritative entries
live in the :class:`~repro.metadata.remap.RemapTable` — because what the
simulator needs from it is the hit/miss behaviour that decides whether an
access pays the extra off-chip remap-table lookup.

Default geometry: 256 sets x 8 ways = 2048 super-block lines ~= 32 kB,
matching Table I, with >90% typical hit rates as the paper reports.
"""

from __future__ import annotations

from typing import List

from repro.cache.replacement import CacheLine, LruSet
from repro.common.errors import CorruptionError
from repro.common.stats import CounterGroup, RatioStat
from repro.obs.tracer import NULL_TRACER


class RemapCache:
    """Set-associative, LRU, super-block-granularity metadata cache."""

    def __init__(
        self,
        num_sets: int = 256,
        ways: int = 8,
        entries_per_line: int = 8,
        latency_cycles: int = 3,
    ) -> None:
        self.num_sets = num_sets
        self.ways = ways
        self.entries_per_line = entries_per_line
        self.latency_cycles = latency_cycles
        self._sets: List[LruSet] = [LruSet(ways) for _ in range(num_sets)]
        self._stats = CounterGroup("remap_cache")
        # Deferred per-probe counters, folded into ``stats`` on read.
        self._n_hits = 0
        self._n_misses = 0
        self._n_evictions = 0
        self.hit_ratio = RatioStat("remap_cache_hits")
        #: Observability hook point; see :mod:`repro.obs`.
        self.obs = NULL_TRACER
        #: Optional :class:`~repro.resilience.faults.FaultInjector`. A
        #: corrupted line raises before any hit/miss accounting; recovery
        #: invalidates and refills with injection paused.
        self.faults = None

    def _split(self, super_block_id: int) -> tuple[int, int]:
        return super_block_id % self.num_sets, super_block_id // self.num_sets

    @property
    def stats(self) -> CounterGroup:
        """Counter group with all pending probe counts folded in."""
        if self._n_hits:
            self._stats.inc("hits", self._n_hits)
            self._n_hits = 0
        if self._n_misses:
            self._stats.inc("misses", self._n_misses)
            self._n_misses = 0
        if self._n_evictions:
            self._stats.inc("evictions", self._n_evictions)
            self._n_evictions = 0
        return self._stats

    def access(self, super_block_id: int) -> bool:
        """Probe for a super-block line; fills on miss. Returns hit."""
        if (
            self.faults is not None
            and self.faults.active
            and self.faults.remap_corruption()
        ):
            raise CorruptionError(
                f"remap cache line for super-block {super_block_id} corrupted",
                site="remap_cache",
                set_index=super_block_id % self.num_sets,
                block_id=super_block_id,
            )
        index = super_block_id % self.num_sets
        tag = super_block_id // self.num_sets
        cache_set = self._sets[index]
        lines = cache_set.lines
        line = lines.get(tag)
        hit = line is not None
        ratio = self.hit_ratio
        ratio.total += 1
        if self.obs.enabled:
            self.obs.emit("remap_cache", super=super_block_id, hit=hit)
        if hit:
            ratio.hits += 1
            # LRU touch inlined (same transitions as LruSet.touch).
            cache_set._clock += 1
            line.counter = cache_set._clock
            lines[tag] = lines.pop(tag)
            self._n_hits += 1
        else:
            self._n_misses += 1
            if len(lines) >= cache_set.ways:
                victim_tag = next(iter(lines))
                del lines[victim_tag]
                self._n_evictions += 1
            line = CacheLine(tag)
            cache_set._clock += 1
            line.counter = cache_set._clock
            lines[tag] = line
        return hit

    def probe_state(self):
        """Bindings for an externally inlined probe loop.

        The deferred-batch server inlines :meth:`access` (minus faults
        and tracing, which disable batching altogether) and needs the
        cache's mutable internals hoisted once per run. Returns
        ``(sets, num_sets, hit_ratio)``. An inline probe must
        preserve this class's transitions exactly:

        * hit — bump the set ``_clock``, stamp ``line.counter``, and
          re-insert the tag (``lines[tag] = lines.pop(tag)``) so dict
          order stays LRU→MRU;
        * miss at capacity — evict ``next(iter(lines))`` (the LRU);
        * fill — fresh ``CacheLine(tag)`` stamped from the set clock.

        Hit/miss/eviction outcomes must be tallied by the caller and
        folded back through :meth:`credit_probes` before anything reads
        ``stats`` or ``hit_ratio``.
        """
        return self._sets, self.num_sets, self.hit_ratio

    def credit_probes(
        self, total: int, hits: int, misses: int, evictions: int
    ) -> None:
        """Fold a batch of externally tallied probe outcomes back in.

        The counterpart of :meth:`probe_state`: after this, ``stats``,
        ``hit_ratio`` and ``hit_rate`` read exactly as if every probe
        had gone through :meth:`access`.
        """
        ratio = self.hit_ratio
        ratio.total += total
        ratio.hits += hits
        self._n_hits += hits
        self._n_misses += misses
        self._n_evictions += evictions

    def contains(self, super_block_id: int) -> bool:
        index, tag = self._split(super_block_id)
        return self._sets[index].lookup(tag) is not None

    def invalidate(self, super_block_id: int) -> None:
        index, tag = self._split(super_block_id)
        self._sets[index].invalidate(tag)

    def repair(self, super_block_id: int) -> bool:
        """Drop and refill one (corrupted) line in a single pass.

        Fuses the old ``invalidate`` + fault-paused ``access`` repair
        sequence: the set index and tag are split once and the refill
        sizes the set from ``len(lines)`` instead of re-probing it.
        Draw-for-draw identical to the two-step sequence — a paused
        access never consults the fault injector, the dropped line makes
        the refill an unconditional miss, and all hit/miss/eviction
        accounting matches a plain missing probe. Returns ``False``: the
        access now pays the off-chip table probe, as any miss would.
        """
        index = super_block_id % self.num_sets
        tag = super_block_id // self.num_sets
        cache_set = self._sets[index]
        lines = cache_set.lines
        lines.pop(tag, None)
        self.hit_ratio.total += 1
        if self.obs.enabled:
            self.obs.emit("remap_cache", super=super_block_id, hit=False)
        self._n_misses += 1
        if len(lines) >= cache_set.ways:
            del lines[next(iter(lines))]
            self._n_evictions += 1
        line = CacheLine(tag)
        cache_set._clock += 1
        line.counter = cache_set._clock
        lines[tag] = line
        return False

    def storage_bytes(self, entry_bytes: int = 2, tag_bytes: int = 4) -> int:
        line_bytes = self.entries_per_line * entry_bytes + tag_bytes
        return self.num_sets * self.ways * line_bytes

    @property
    def hit_rate(self) -> float:
        return self.hit_ratio.rate
