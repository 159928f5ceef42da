"""Remap table: the compact metadata format (Fig. 5b).

One 2-byte entry per logical data block over the whole physical address
space. The entry records *which* sub-blocks are cached/migrated (eight
Remap bits), *where* (one short Pointer — Rule 3: all of a block's
remapped sub-blocks live in one physical block), and *how* they are
compressed (CF2/CF4 range bits — Rule 2: contiguous aligned ranges).
Positions inside the physical block are never stored: the layout is sorted
and frozen at commit (Rule 4), so a slot index is the prefix sum

    slots_before = popcount(Remap) - popcount(CF2) - 3 * popcount(CF4)

accumulated over the same-pointer blocks earlier in the super-block, plus
the index of the range inside the block itself. The special *invalid*
combination CF2 = 1111, CF4 = 11 encodes an all-zero block (the Z case),
which occupies no data space at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.errors import MetadataError

def _popcount(value: int) -> int:
    return bin(value).count("1")


def _mask(bits: int) -> int:
    return (1 << bits) - 1


@dataclass(slots=True)
class RemapEntry:
    """Compact per-block remap metadata.

    ``remap`` — bit ``i`` set means sub-block ``i`` is in the fast memory
    at the physical block named by ``pointer``; clear means it stays at its
    original (slow or flat) location. ``cf2`` bit ``j`` marks the aligned
    pair ``(2j, 2j+1)`` as one CF=2 range; ``cf4`` bit ``q`` marks the
    aligned quad starting at ``4q`` as one CF=4 range. ``zero`` uses the
    invalid CF2/CF4 state and means the whole block is zeros.
    """

    remap: int = 0
    pointer: int = 0
    cf2: int = 0
    cf4: int = 0
    zero: bool = False
    #: Sub-blocks per block: 8 for the paper's 256 B sub-blocking, 32 for
    #: the Baryon-64B variant. Non-default widths change the bit budget.
    num_subs: int = 8

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        n = self.num_subs
        # Fast accept for the all-clear entry: RemapTable.get constructs one
        # per probe of an unremapped block, and every check below passes
        # trivially when no field is set.
        if (
            n == 8
            and not self.zero
            and self.remap == 0
            and self.pointer == 0
            and self.cf2 == 0
            and self.cf4 == 0
        ):
            return
        if n < 4 or n % 4:
            raise MetadataError("num_subs must be a multiple of 4")
        if not 0 <= self.remap <= _mask(n):
            raise MetadataError("Remap bits out of range")
        if not 0 <= self.cf2 <= _mask(n // 2) or not 0 <= self.cf4 <= _mask(n // 4):
            raise MetadataError("CF2/CF4 bits out of range")
        if self.pointer < 0:
            raise MetadataError("Pointer must be non-negative")
        if self.zero:
            return
        if self.cf2 == _mask(n // 2) and self.cf4 == _mask(n // 4):
            raise MetadataError("CF2/CF4 all-ones is reserved for the zero state")
        if self.remap == 0:
            # Hint state (Sec. III-F): after a compressed fast-to-slow
            # writeback the Remap bits are cleared but CF2/CF4 persist as
            # slow-to-stage prefetch and compression hints.
            return
        for q in range(n // 4):
            if (self.cf4 >> q) & 1:
                quad_mask = 0xF << (4 * q)
                if (self.remap & quad_mask) != quad_mask:
                    raise MetadataError(f"CF4 quad {q} not fully remapped")
                pair_mask = 0b11 << (2 * q)
                if self.cf2 & pair_mask:
                    raise MetadataError(f"CF2 bits overlap CF4 quad {q}")
        for pair in range(n // 2):
            if (self.cf2 >> pair) & 1:
                pair_mask = 0b11 << (2 * pair)
                if (self.remap & pair_mask) != pair_mask:
                    raise MetadataError(f"CF2 pair {pair} not fully remapped")

    # -- queries -----------------------------------------------------------
    @property
    def is_remapped(self) -> bool:
        """Any sub-block of this block is in fast memory."""
        return self.zero or self.remap != 0

    def sub_block_remapped(self, sub_index: int) -> bool:
        if self.zero:
            return True
        return bool((self.remap >> sub_index) & 1)

    def range_of(self, sub_index: int) -> Optional[Tuple[int, int]]:
        """``(start, cf)`` of the committed range containing ``sub_index``."""
        if self.zero:
            return (0, 1)
        if not self.sub_block_remapped(sub_index):
            return None
        quad = sub_index // 4
        if (self.cf4 >> quad) & 1:
            return (quad * 4, 4)
        pair = sub_index // 2
        if (self.cf2 >> pair) & 1:
            return (pair * 2, 2)
        return (sub_index, 1)

    def ranges(self) -> List[Tuple[int, int]]:
        """All committed ranges, sorted by start: the frozen slot order."""
        if self.zero:
            return []
        out: List[Tuple[int, int]] = []
        sub = 0
        while sub < self.num_subs:
            r = self.range_of(sub)
            if r is None:
                sub += 1
                continue
            start, cf = r
            if start == sub:
                out.append(r)
            sub = start + cf
        return out

    def occupied_slots(self) -> int:
        """Physical sub-block slots this block consumes (zero blocks: 0)."""
        if self.zero or self.remap == 0:
            return 0
        return _popcount(self.remap) - _popcount(self.cf2) - 3 * _popcount(self.cf4)

    def dirty_like_count(self) -> int:
        """Number of remapped sub-blocks (for flat-area swap accounting)."""
        if self.zero:
            return 0
        return _popcount(self.remap)

    # -- 16-bit encoding (at the default 8-sub-block width) -------------------
    def encode(self, pointer_bits: int = 2) -> int:
        if not 0 <= self.pointer < (1 << pointer_bits):
            raise MetadataError(
                f"pointer {self.pointer} exceeds {pointer_bits} bits"
            )
        n = self.num_subs
        if self.zero:
            cf2, cf4 = _mask(n // 2), _mask(n // 4)
        else:
            cf2, cf4 = self.cf2, self.cf4
        value = self.remap
        value = (value << pointer_bits) | self.pointer
        value = (value << (n // 2)) | cf2
        value = (value << (n // 4)) | cf4
        return value

    @staticmethod
    def decode(value: int, pointer_bits: int = 2, num_subs: int = 8) -> "RemapEntry":
        n = num_subs
        total_bits = n + pointer_bits + n // 2 + n // 4
        if not 0 <= value < (1 << total_bits):
            raise MetadataError("encoded remap entry out of range")
        cf4 = value & _mask(n // 4)
        value >>= n // 4
        cf2 = value & _mask(n // 2)
        value >>= n // 2
        pointer = value & _mask(pointer_bits)
        value >>= pointer_bits
        remap = value & _mask(n)
        zero = cf2 == _mask(n // 2) and cf4 == _mask(n // 4)
        if zero:
            cf2, cf4 = 0, 0
        return RemapEntry(
            remap=remap, pointer=pointer, cf2=cf2, cf4=cf4, zero=zero, num_subs=n
        )

    @staticmethod
    def entry_bits(pointer_bits: int = 2, num_subs: int = 8) -> int:
        return num_subs + pointer_bits + num_subs // 2 + num_subs // 4


#: Shared all-clear entry returned for every unremapped probe. Consumers
#: treat entries as read-only records (updates construct fresh entries and
#: go through :meth:`RemapTable.set`), so one instance can serve them all.
_EMPTY_ENTRY = RemapEntry()


def block_occupied_slots(entry: RemapEntry) -> int:
    """Paper's prefix-sum term for one block (module-level convenience)."""
    return entry.occupied_slots()


def locate_sub_block(
    super_entries: Sequence[RemapEntry], blk_off: int, sub_index: int
) -> Optional[int]:
    """Slot index of ``sub_index`` of block ``blk_off`` in its physical block.

    ``super_entries`` are the eight remap entries of one super-block in
    block order — exactly what one remap-cache line holds. Returns None
    when the sub-block is not remapped, and never returns a slot for a
    zero block (its data occupy no space).
    """
    if not 0 <= blk_off < len(super_entries):
        raise MetadataError("blk_off outside the super-block")
    target = super_entries[blk_off]
    target_range = target.range_of(sub_index)
    if target_range is None or target.zero:
        return None
    position = 0
    for off in range(blk_off):
        entry = super_entries[off]
        if entry.is_remapped and not entry.zero and entry.pointer == target.pointer:
            position += entry.occupied_slots()
    start, _cf = target_range
    for range_start, _range_cf in target.ranges():
        if range_start < start:
            position += 1
    return position


@dataclass
class RemapTable:
    """The full off-chip remap table: one entry per logical block.

    Backed by a dict so the 36 GB address space costs memory only for
    blocks that are actually remapped; absent blocks read as the identity
    entry (no remap). ``pointer_bits`` tracks the configured associativity
    for size accounting.
    """

    pointer_bits: int = 2
    _entries: Dict[int, RemapEntry] = field(default_factory=dict)
    #: Optional update observer (duck-typed ``on_set``/``on_clear``), e.g.
    #: the :class:`~repro.resilience.checker.ShadowChecker` shadow copy.
    shadow: Optional[object] = field(default=None, compare=False, repr=False)

    def get(self, block_id: int) -> RemapEntry:
        entry = self._entries.get(block_id)
        return entry if entry is not None else _EMPTY_ENTRY

    def set(self, block_id: int, entry: RemapEntry) -> None:
        # Every entry self-validates in ``__post_init__``; re-validating
        # here would only re-check an already-accepted construction.
        if entry.is_remapped:
            self._entries[block_id] = entry
        else:
            self._entries.pop(block_id, None)
        if self.shadow is not None:
            self.shadow.on_set(block_id, entry)

    def clear(self, block_id: int) -> None:
        self._entries.pop(block_id, None)
        if self.shadow is not None:
            self.shadow.on_clear(block_id)

    def super_block_entries(
        self, super_block_id: int, blocks_per_super: int = 8
    ) -> List[RemapEntry]:
        """The remap-cache line: all entries of one super-block, in order."""
        base = super_block_id * blocks_per_super
        return [self.get(base + off) for off in range(blocks_per_super)]

    def remapped_blocks(self) -> List[int]:
        return sorted(self._entries.keys())

    def storage_bytes(self, total_blocks: int) -> int:
        """Table size if materialized: entry bits x total block count."""
        bits = RemapEntry.entry_bits(self.pointer_bits)
        return (total_blocks * bits + 7) // 8
