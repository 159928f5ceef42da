"""Baseline hybrid-memory and DRAM-cache designs the paper compares against.

* :class:`~repro.baselines.simple_cache.SimpleCache` — **Simple**: a plain
  2 kB-block, 4-way LRU DRAM cache, no compression, no sub-blocking;
* :class:`~repro.baselines.unison.UnisonCache` — **Unison Cache** (MICRO'14):
  2 kB pages with 64 B footprint sub-blocking, in-DRAM tags, way prediction
  and a footprint history table — sub-blocking but no compression;
* :class:`~repro.baselines.dice.DiceCache` — **DICE** (ISCA'17): a
  direct-mapped compressed DRAM cache of 64 B lines where neighbouring
  lines share a set when compressible — compression but no sub-blocking
  (evaluated with a perfect way predictor, as in the paper);
* :class:`~repro.baselines.hybrid2.Hybrid2` — **Hybrid2** (HPCA'20): a flat,
  fully-associative hybrid memory with 256 B sub-blocking and write-cost
  migration decisions, no compression. It *is* a
  :class:`~repro.core.controller.BaryonController` subclass configured with
  compression disabled, physical-block sharing disabled and the commit
  model reduced to its dirty-traffic term (k = 0), which is exactly how
  the paper positions it; it takes Baryon's deferred seam unchanged.

All expose the same ``access(addr, is_write, now) -> AccessResult`` duck
type as :class:`~repro.core.controller.BaryonController`, and all take the
simulator's deferred seam while no event tracer is attached. Every design
*is* its inline server, which never declines (Simple, Unison and DICE
through :class:`~repro.baselines.base.BaselineController`, Hybrid2
through Baryon's): its ``access`` serves one op, flushes its tallies and
replays its transfers.
"""

from repro.baselines.base import BaselineController
from repro.baselines.dice import DiceCache
from repro.baselines.hybrid2 import Hybrid2
from repro.baselines.simple_cache import SimpleCache
from repro.baselines.unison import UnisonCache

__all__ = [
    "BaselineController",
    "DiceCache",
    "Hybrid2",
    "SimpleCache",
    "UnisonCache",
]
