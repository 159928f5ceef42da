"""The committed cache/flat area: hybrid sets of fast block spaces.

Committed blocks live here under the compact remap-entry format. This
class owns the physical side of that story:

* which super-block's data each fast block space holds, and which logical
  blocks (BlkOffs) of it are committed there;
* the per-physical-block dirty/replacement metadata the paper stores
  separately from the remap entries (Sec. III-C): replacement stamps,
  which :meth:`FastArea.touch` refreshes under LRU;
* for the flat scheme, which OS-visible fast block is *homed* at each
  space and whether it is currently displaced by committed data.

Commit victims are chosen by the controller, not here
(``BaryonController._peek_commit_victim``): cache-mode and
set-associative flat sets take the coldest way by stamp, and the
fully-associative organization (Sec. III-E) takes a cycling FIFO pointer
(``BaryonController._fa_next_victim``). :meth:`FastArea.victim_way`
implements the paper's interchangeable policies for standalone use; it
is not on the simulation path.

Indexing: slow-side lookups map a super-block to a set via
``super_block_id % num_sets`` so that one stage block (whose ranges all
share a super-block, Rule 1) commits into a single set. Fast block spaces
are statically partitioned across sets. A super-block index maps each
resident super-block to the ways holding its data, so lookups cost the
few ways of that one super-block, not the set's associativity (thousands
of ways in the fully-associative organization).
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.common.config import Geometry
from repro.common.errors import LayoutError
from repro.common.stats import CounterGroup


@dataclass(slots=True)
class FastBlockState:
    """State of one occupied fast block space in the cache/flat area."""

    super_id: int
    #: BlkOffs of the super-block committed into this space, each with its
    #: occupied slot count (needed to free capacity on per-block eviction).
    committed: Dict[int, int] = field(default_factory=dict)
    slots_used: int = 0
    #: Dirty sub-blocks as (blk_off, sub_index) pairs.
    dirty_subs: Set[Tuple[int, int]] = field(default_factory=set)
    #: Replacement timestamp (LRU touch time or FIFO insertion time).
    stamp: int = 0
    #: LFU access frequency and CLOCK referenced bit.
    frequency: int = 0
    referenced: bool = False
    #: Flat scheme: home block displaced by this committed data, if any.
    displaced_home: Optional[int] = None

    def dirty_count(self) -> int:
        return len(self.dirty_subs)


class FastArea:
    """Set-associative committed area, indexed by super-block."""

    #: Fast-to-slow eviction policies the paper lists as interchangeable
    #: (Sec. III-E: "LRU, LFU, CLOCK, and even random").
    POLICIES = ("lru", "fifo", "lfu", "clock", "random")

    def __init__(
        self,
        num_sets: int,
        ways: int,
        geometry: Geometry,
        replacement: str = "lru",
        seed: int = 0xFA57,
    ) -> None:
        import random

        if num_sets <= 0 or ways <= 0:
            raise LayoutError("fast area needs positive sets and ways")
        if replacement not in self.POLICIES:
            raise LayoutError(
                f"fast area replacement must be one of {self.POLICIES}"
            )
        self.num_sets = num_sets
        self.ways = ways
        self.geometry = geometry
        self.replacement = replacement
        self.blocks: List[List[Optional[FastBlockState]]] = [
            [None] * ways for _ in range(num_sets)
        ]
        #: super_id -> ascending ways of its set holding that super-block's
        #: data. ``install``/``remove`` keep it current; a state's
        #: ``super_id`` never changes while it is installed.
        self._ways_of_super: Dict[int, List[int]] = {}
        self._clock = 0
        self._rng = random.Random(seed)
        self.stats = CounterGroup("fast_area")

    # -- indexing -----------------------------------------------------------
    def set_of_super(self, super_id: int) -> int:
        return super_id % self.num_sets

    def total_blocks(self) -> int:
        return self.num_sets * self.ways

    # -- lookup --------------------------------------------------------------
    def lookup_super(self, super_id: int) -> List[Tuple[int, FastBlockState]]:
        """All ways of the set currently holding data of ``super_id``,
        in ascending way order."""
        ways = self._ways_of_super.get(super_id)
        if ways is None:
            return []
        row = self.blocks[super_id % self.num_sets]
        return [(way, row[way]) for way in ways]

    def find_block(self, super_id: int, blk_off: int) -> Optional[Tuple[int, FastBlockState]]:
        """The lowest way holding committed data of logical block ``blk_off``."""
        ways = self._ways_of_super.get(super_id)
        if ways is not None:
            row = self.blocks[super_id % self.num_sets]
            for way in ways:
                state = row[way]
                if blk_off in state.committed:
                    return way, state
        return None

    def state(self, set_index: int, way: int) -> Optional[FastBlockState]:
        return self.blocks[set_index][way]

    # -- replacement -----------------------------------------------------------
    def touch(self, set_index: int, way: int) -> None:
        """Refresh replacement state on a hit.

        LRU bumps the stamp; LFU increments a frequency count; CLOCK sets
        the referenced bit; FIFO and random ignore touches.
        """
        state = self.blocks[set_index][way]
        if state is None:
            raise LayoutError("touched an empty fast block space")
        if self.replacement == "lru":
            self._clock += 1
            state.stamp = self._clock
        elif self.replacement == "lfu":
            state.frequency += 1
        elif self.replacement == "clock":
            state.referenced = True

    def free_way(self, set_index: int) -> Optional[int]:
        for way, state in enumerate(self.blocks[set_index]):
            if state is None:
                return way
        return None

    def victim_way(self, set_index: int) -> int:
        """Replacement victim according to the configured policy."""
        row = self.blocks[set_index]
        for way, state in enumerate(row):
            if state is None:
                return way
        if self.replacement == "random":
            return self._rng.randrange(self.ways)
        if self.replacement == "lfu":
            return min(
                range(self.ways), key=lambda w: (row[w].frequency, row[w].stamp)
            )
        if self.replacement == "clock":
            # Second chance sweep from the oldest stamp.
            order = sorted(range(self.ways), key=lambda w: row[w].stamp)
            for way in order:
                if not row[way].referenced:
                    return way
                row[way].referenced = False
            return order[0]
        # LRU / FIFO: oldest stamp (touch refreshes it only under LRU).
        return min(range(self.ways), key=lambda w: row[w].stamp)

    def peek_victim(self, set_index: int) -> Optional[FastBlockState]:
        """The state that :meth:`victim_way` would displace (None if a free
        way exists) — used by the commit cost model's #Dirty_area term."""
        if self.free_way(set_index) is not None:
            return None
        return self.blocks[set_index][self.victim_way(set_index)]

    # -- mutation -----------------------------------------------------------------
    def install(self, set_index: int, way: int, state: FastBlockState) -> None:
        if self.blocks[set_index][way] is not None:
            raise LayoutError("installing over an occupied fast block space")
        if state.super_id % self.num_sets != set_index:
            raise LayoutError(
                f"super-block {state.super_id} belongs in set "
                f"{state.super_id % self.num_sets}, not set {set_index}"
            )
        self._clock += 1
        state.stamp = self._clock
        self.blocks[set_index][way] = state
        insort(self._ways_of_super.setdefault(state.super_id, []), way)
        self.stats.inc("installs")

    def remove(self, set_index: int, way: int) -> FastBlockState:
        state = self.blocks[set_index][way]
        if state is None:
            raise LayoutError("removing an empty fast block space")
        self.blocks[set_index][way] = None
        ways = self._ways_of_super[state.super_id]
        ways.remove(way)
        if not ways:
            del self._ways_of_super[state.super_id]
        self.stats.inc("removals")
        return state

    def occupancy(self) -> float:
        used = sum(
            1 for row in self.blocks for state in row if state is not None
        )
        return used / self.total_blocks()
