"""The LRU set shared by the metadata and baseline caches.

The remap cache and the Simple and Unison baselines keep one
:class:`LruSet` per set and inline its ``touch`` / ``insert``
transitions on their hot paths. Entries carry a ``dirty`` flag and an
opaque ``payload`` so those structures (remap entries, Unison's
footprint bitmaps) can ride along. The SRAM hierarchy itself keeps bare
``tag -> dirty`` dicts (see
:class:`~repro.cache.sram_cache.SetAssociativeCache`).
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional


class CacheLine:
    """One resident line: tag plus dirty bit plus user payload."""

    __slots__ = ("tag", "dirty", "payload")

    def __init__(self, tag: Hashable, dirty: bool = False, payload=None) -> None:
        self.tag = tag
        self.dirty = dirty
        self.payload = payload


class LruSet:
    """Least-recently-used, with the ``lines`` dict as the recency order.

    Python dicts preserve insertion order: ``touch`` re-inserts the line
    at the tail, so the head is always the least-recently-used entry and
    ``victim`` is O(1).
    """

    def __init__(self, ways: int) -> None:
        self.ways = ways
        self.lines: Dict[Hashable, CacheLine] = {}

    def lookup(self, tag: Hashable) -> Optional[CacheLine]:
        return self.lines.get(tag)

    def is_full(self) -> bool:
        return len(self.lines) >= self.ways

    def touch(self, line: CacheLine) -> None:
        """Move ``line`` to the tail of the recency order (a hit)."""
        tag = line.tag
        lines = self.lines
        lines[tag] = lines.pop(tag)

    def insert(self, line: CacheLine) -> None:
        """Add a line at the MRU end; the caller must have evicted if the
        set was full."""
        if self.is_full():
            raise ValueError("insert into full set; evict first")
        self.lines[line.tag] = line

    def victim(self) -> CacheLine:
        """The LRU line (not removed)."""
        return next(iter(self.lines.values()))

    def mru(self) -> Optional[CacheLine]:
        """Most-recently-used line (needed by the MRUMissCnt statistic)."""
        if not self.lines:
            return None
        return next(reversed(self.lines.values()))

    def evict(self, tag: Hashable) -> CacheLine:
        return self.lines.pop(tag)

    def invalidate(self, tag: Hashable) -> Optional[CacheLine]:
        return self.lines.pop(tag, None)
