"""The committed cache/flat area: hybrid sets of fast block spaces.

Committed blocks live here under the compact remap-entry format. This
class owns the physical side of that story:

* which super-block's data each fast block space holds, and which logical
  blocks (BlkOffs) of it are committed there;
* the per-physical-block dirty/replacement metadata the paper stores
  separately from the remap entries (Sec. III-C): replacement stamps,
  which :meth:`FastArea.touch` refreshes under LRU and FIFO leaves at
  insertion time;
* for the flat scheme, which OS-visible fast block is *homed* at each
  space (:meth:`FastArea.home_block_of`) and its last-access stamp;
* the commit victim: :meth:`FastArea.commit_victim` names the way a
  commit would take, with no side effects, and :meth:`FastArea.take`
  records that a commit took it. Set-associative sets take a free
  cache-area way, else the coldest way across committed blocks and
  resident home blocks. The fully-associative organization (Sec. III-E)
  takes a cycling FIFO pointer that only :meth:`FastArea.take` advances.

Sec. III-E lists LRU, LFU, CLOCK and random as interchangeable; only LRU
and FIFO are modelled.

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
    #: Flat scheme: home block displaced by this committed data, if any.
    displaced_home: Optional[int] = None

    def dirty_count(self) -> int:
        return len(self.dirty_subs)


class FastArea:
    """Set-associative committed area, indexed by super-block.

    The first ``flat_ways`` ways of each set are the flat scheme's
    OS-visible spaces; the home of flat space ``index = way * num_sets +
    set`` is block ``index * home_period``.
    """

    #: Fast-to-slow eviction policies: LRU refreshes a way's stamp on
    #: every hit, FIFO keeps its insertion stamp.
    POLICIES = ("lru", "fifo")

    def __init__(
        self,
        num_sets: int,
        ways: int,
        geometry: Geometry,
        replacement: str = "lru",
        flat_ways: int = 0,
        home_period: int = 1,
        fully_associative: bool = False,
    ) -> None:
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
        self.flat_ways = flat_ways
        self.home_period = home_period
        self.fully_associative = fully_associative
        self.blocks: List[List[Optional[FastBlockState]]] = [
            [None] * ways for _ in range(num_sets)
        ]
        #: super_id -> ascending ways of its set holding that super-block's
        #: data. ``install``/``remove`` keep it current; a state's
        #: ``super_id`` never changes while it is installed.
        self._ways_of_super: Dict[int, List[int]] = {}
        self._clock = 0
        #: Flat scheme: last-access stamps of home blocks, on the
        #: replacement clock, so commits displace cold homes.
        self.home_stamps: Dict[int, int] = {}
        # Fully-associative FIFO pointer: it cycles over the cache-area
        # ways, and over the flat ways only when there is no cache area.
        self._fifo_first = flat_ways if flat_ways < ways else 0
        self._fifo_next = self._fifo_first
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

    def home_block_of(self, set_index: int, way: int) -> Optional[int]:
        """Flat scheme: the block homed at ``(set_index, way)``, if any."""
        if way >= self.flat_ways:
            return None
        return (way * self.num_sets + set_index) * self.home_period

    # -- replacement -----------------------------------------------------------
    def touch(self, set_index: int, way: int) -> None:
        """Refresh replacement state on a hit: LRU bumps the stamp, FIFO
        ignores touches."""
        state = self.blocks[set_index][way]
        if state is None:
            raise LayoutError("touched an empty fast block space")
        if self.replacement == "lru":
            self._clock += 1
            state.stamp = self._clock

    def commit_victim(self, set_index: int) -> Tuple[int, Optional[FastBlockState]]:
        """The way a commit into ``set_index`` would take, and its
        occupant (None for a free way or a resident home); no side effects.

        Set-associative sets return a free cache-area way, else the
        coldest way by committed-block stamp or resident-home last-access
        stamp, so a hot OS-resident block is not displaced in favour of
        lukewarm migrated data. The fully-associative organization returns
        the way under its FIFO pointer.
        """
        row = self.blocks[set_index]
        if self.fully_associative:
            way = self._fifo_next
            return way, row[way]
        best_way, best_stamp, best_state = 0, None, None
        for way, state in enumerate(row):
            if state is None:
                home = self.home_block_of(set_index, way)
                if home is None:
                    return way, None  # free cache-area way
                stamp = self.home_stamps.get(home, 0)
            else:
                stamp = state.stamp
            if best_stamp is None or stamp < best_stamp:
                best_way, best_stamp, best_state = way, stamp, state
        return best_way, best_state

    def take(self, way: int) -> None:
        """A commit takes ``way``: the fully-associative FIFO pointer
        moves past it."""
        if self.fully_associative:
            way += 1
            self._fifo_next = way if way < self.ways else self._fifo_first

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
