"""Processor-side SRAM cache models (Table I: L1D, L2, shared LLC).

These caches exist to turn a workload's raw access trace into the stream of
LLC misses and writebacks that actually reaches the hybrid memory
controller — the paper's designs only ever see that filtered stream. The
package provides a set-associative cache, LRU at every level as in
Table I, and a multi-core hierarchy with private L1/L2 and a shared LLC,
including the LLC-install path for the memory-to-LLC prefetch of
decompressed neighbour lines (Sec. III-E).
"""

from repro.cache.hierarchy import CacheHierarchy, HierarchyResult
from repro.cache.sram_cache import AccessOutcome, SetAssociativeCache

__all__ = [
    "AccessOutcome",
    "CacheHierarchy",
    "HierarchyResult",
    "SetAssociativeCache",
]
