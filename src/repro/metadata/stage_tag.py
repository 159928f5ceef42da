"""Stage tag array: the flexible metadata format (Fig. 5a).

One entry per stage-area physical block. An entry holds the super-block
tag (Rule 1: a physical block only stores sub-blocks of one super-block),
eight 8-bit *range slots*, 3-bit LRU and FIFO fields for the two-level
replacement policy, and a 16-bit MissCnt for the selective-commit cost
model. Total: 21 + 1 + 64 + 3 + 3 + 16 = 108 bits = 14 B, matching the
paper.

Each slot describes one contiguous, aligned, compressed range (Rule 2)
with a prefix code — the paper states the slot fits 8 bits across four
types but does not spell out the code, so we reconstruct the only prefix
code that fits all widths:

====== ======================================= ====================
bits   type                                    layout (8 bits)
====== ======================================= ====================
``1``  CF=1 range (one sub-block)              1 D BlkOff(3) SubOff(3)
``01`` CF=2 range (aligned pair)               01 D BlkOff(3) SubOff(2)
``001`` CF=4 range (aligned quad)              001 D BlkOff(3) SubOff(1)
``000`` special: empty or all-zero block       000 Z D BlkOff(3)
====== ======================================= ====================

SubOff counts aligned ranges, not raw sub-blocks: a CF=2 slot's SubOff of
``01`` means the second aligned pair, i.e. sub-blocks 2-3 (the paper's
H2-H3 example encodes exactly as ``01 0 111 01``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.common.errors import MetadataError

#: Slot byte value meaning "empty" (special type, Z=0, D=0, BlkOff=0).
EMPTY_SLOT = 0b000_00000

_TAG_BITS = 21
_LRU_BITS = 3
_FIFO_BITS = 3
_MISS_BITS = 16
ENTRY_BITS = _TAG_BITS + 1 + 8 * 8 + _LRU_BITS + _FIFO_BITS + _MISS_BITS


@dataclass(slots=True)
class RangeSlot:
    """One physical sub-block slot holding a compressed aligned range.

    ``cf`` in {1, 2, 4}; ``blk_off`` is the block within the super-block
    (0..7); ``sub_start`` is the first sub-block of the range inside that
    block, always a multiple of ``cf``. ``zero`` marks the all-zero-block
    special encoding, in which case the slot stores no data and covers the
    entire block (``cf``/``sub_start`` are ignored).
    """

    cf: int = 1
    dirty: bool = False
    blk_off: int = 0
    sub_start: int = 0
    zero: bool = False

    def __post_init__(self) -> None:
        if self.cf not in (1, 2, 4):
            raise MetadataError(f"invalid CF {self.cf}")
        if not 0 <= self.blk_off < 32:
            raise MetadataError(f"BlkOff {self.blk_off} out of range")
        if not self.zero:
            if not 0 <= self.sub_start < 32:
                raise MetadataError(f"SubOff {self.sub_start} out of range")
            if self.sub_start % self.cf != 0:
                raise MetadataError(
                    f"range start {self.sub_start} not aligned to CF {self.cf}"
                )

    def covers(self, blk_off: int, sub_index: int) -> bool:
        """Does this range contain ``sub_index`` of block ``blk_off``?"""
        if blk_off != self.blk_off:
            return False
        if self.zero:
            return True
        return self.sub_start <= sub_index < self.sub_start + self.cf

    @property
    def sub_blocks(self) -> Tuple[int, ...]:
        """The sub-block indices covered by this range.

        Empty for the all-zero encoding, which covers the whole block
        without storing anything (callers handle ``zero`` explicitly).
        """
        if self.zero:
            return ()
        return tuple(range(self.sub_start, self.sub_start + self.cf))

    # -- 8-bit prefix-code encoding ---------------------------------------
    def encode(self) -> int:
        if (not self.zero and self.sub_start >= 8) or self.blk_off >= 8:
            raise MetadataError(
                "the 8-bit slot encoding is defined for 8 sub-blocks per "
                "block and 8 blocks per super-block; wider geometries "
                "(Baryon-64B, Fig. 13b sweeps) are simulated only"
            )
        if self.zero:
            return (0b000 << 5) | (1 << 4) | (int(self.dirty) << 3) | self.blk_off
        d = int(self.dirty)
        if self.cf == 1:
            return (0b1 << 7) | (d << 6) | (self.blk_off << 3) | self.sub_start
        if self.cf == 2:
            return (0b01 << 6) | (d << 5) | (self.blk_off << 2) | (self.sub_start // 2)
        return (0b001 << 5) | (d << 4) | (self.blk_off << 1) | (self.sub_start // 4)

    @staticmethod
    def decode(byte: int) -> Optional["RangeSlot"]:
        """Decode an 8-bit slot; None for the empty encoding."""
        if not 0 <= byte <= 0xFF:
            raise MetadataError(f"slot byte {byte} out of range")
        if byte >> 7 == 1:
            return RangeSlot(
                cf=1,
                dirty=bool((byte >> 6) & 1),
                blk_off=(byte >> 3) & 0x7,
                sub_start=byte & 0x7,
            )
        if byte >> 6 == 0b01:
            return RangeSlot(
                cf=2,
                dirty=bool((byte >> 5) & 1),
                blk_off=(byte >> 2) & 0x7,
                sub_start=(byte & 0x3) * 2,
            )
        if byte >> 5 == 0b001:
            return RangeSlot(
                cf=4,
                dirty=bool((byte >> 4) & 1),
                blk_off=(byte >> 1) & 0x7,
                sub_start=(byte & 0x1) * 4,
            )
        # Special type: Z bit selects zero-block vs empty.
        if (byte >> 4) & 1:
            return RangeSlot(
                cf=1,
                dirty=bool((byte >> 3) & 1),
                blk_off=byte & 0x7,
                zero=True,
            )
        if byte != EMPTY_SLOT:
            raise MetadataError(f"non-canonical empty slot {byte:#010b}")
        return None


@dataclass(slots=True)
class StageTagEntry:
    """One stage tag array entry: a staged physical block's full metadata.

    ``used`` counts the occupied (non-``None``) slots. It is simulator
    bookkeeping, not one of the 108 encoded bits: construction (and so
    :meth:`decode`) derives it from ``slots``, and the stage area's slot
    mutation sites (allocate, invalidate, insert, remove) keep it exact,
    so "has this block room?" is ``used < len(slots)`` instead of a scan.
    """

    tag: int = 0
    valid: bool = False
    slots: List[Optional[RangeSlot]] = field(default_factory=lambda: [None] * 8)
    lru: int = 0
    fifo: int = 0
    miss_count: int = 0
    used: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.slots:
            raise MetadataError("entry must have at least one slot")
        self.used = len(self.slots) - self.slots.count(None)

    # -- queries -----------------------------------------------------------
    def slots_of_block(self, blk_off: int) -> List[int]:
        """All slot indices holding ranges of block ``blk_off``."""
        return [
            i
            for i, slot in enumerate(self.slots)
            if slot is not None and slot.blk_off == blk_off
        ]

    def free_slot(self) -> Optional[int]:
        """Lowest empty slot index, or None when the block is full."""
        for i, slot in enumerate(self.slots):
            if slot is None:
                return i
        return None

    def blocks_present(self) -> List[int]:
        """Distinct BlkOffs with at least one staged range."""
        return sorted({s.blk_off for s in self.slots if s is not None})

    def dirty_sub_block_count(self) -> int:
        """#Dirty term of the commit cost model: dirty sub-blocks staged."""
        total = 0
        for slot in self.slots:
            if slot is not None and slot.dirty and not slot.zero:
                total += slot.cf
        return total

    # -- bit-exact encoding -------------------------------------------------
    def encode(self) -> int:
        if len(self.slots) != 8:
            raise MetadataError("the 108-bit encoding is defined for 8 slots")
        if not 0 <= self.tag < (1 << _TAG_BITS):
            raise MetadataError(f"tag {self.tag} exceeds {_TAG_BITS} bits")
        if not 0 <= self.miss_count < (1 << _MISS_BITS):
            raise MetadataError("MissCnt overflow")
        if not 0 <= self.lru < (1 << _LRU_BITS) or not 0 <= self.fifo < (1 << _FIFO_BITS):
            raise MetadataError("LRU/FIFO field overflow")
        value = self.tag
        value = (value << 1) | int(self.valid)
        for slot in self.slots:
            value = (value << 8) | (EMPTY_SLOT if slot is None else slot.encode())
        value = (value << _LRU_BITS) | self.lru
        value = (value << _FIFO_BITS) | self.fifo
        value = (value << _MISS_BITS) | self.miss_count
        return value

    @staticmethod
    def decode(value: int) -> "StageTagEntry":
        """Decode the canonical 108-bit entry (8-slot geometry only)."""
        if not 0 <= value < (1 << ENTRY_BITS):
            raise MetadataError("encoded entry exceeds 108 bits")
        miss = value & ((1 << _MISS_BITS) - 1)
        value >>= _MISS_BITS
        fifo = value & ((1 << _FIFO_BITS) - 1)
        value >>= _FIFO_BITS
        lru = value & ((1 << _LRU_BITS) - 1)
        value >>= _LRU_BITS
        slots: List[Optional[RangeSlot]] = []
        for i in range(8):
            byte = (value >> (8 * (7 - i))) & 0xFF
            slots.append(RangeSlot.decode(byte))
        value >>= 64
        valid = bool(value & 1)
        tag = value >> 1
        return StageTagEntry(
            tag=tag, valid=valid, slots=slots, lru=lru, fifo=fifo, miss_count=miss
        )


class StageTagArray:
    """The on-chip stage tag array: ``num_sets`` x ``ways`` entries.

    Entry/stage-block correspondence is one-to-one, so a tag hit/miss here
    *is* a stage-area hit/miss (Sec. III-D). Matching is associative by
    super-block tag; multiple ways may stage the same super-block (a
    super-block's hot data can span several physical blocks).
    """

    def __init__(self, num_sets: int, ways: int, slots_per_entry: int = 8) -> None:
        self.num_sets = num_sets
        self.ways = ways
        self.slots_per_entry = slots_per_entry
        self.entries: List[List[StageTagEntry]] = [
            [
                StageTagEntry(slots=[None] * slots_per_entry)
                for _ in range(ways)
            ]
            for _ in range(num_sets)
        ]

    def lookup(self, set_index: int, tag: int) -> List[Tuple[int, StageTagEntry]]:
        """All valid ways of ``set_index`` whose tag matches."""
        return [
            (way, entry)
            for way, entry in enumerate(self.entries[set_index])
            if entry.valid and entry.tag == tag
        ]

    def entry(self, set_index: int, way: int) -> StageTagEntry:
        return self.entries[set_index][way]

    def invalid_way(self, set_index: int) -> Optional[int]:
        for way, entry in enumerate(self.entries[set_index]):
            if not entry.valid:
                return way
        return None

    def storage_bytes(self) -> int:
        """Total SRAM budget (14 B per entry at the paper's geometry,
        giving 448 kB for a 64 MB stage area; wider geometries scale the
        per-slot field linearly)."""
        bits = ENTRY_BITS + 8 * (self.slots_per_entry - 8)
        return self.num_sets * self.ways * ((bits + 7) // 8)
