"""Content-backed oracle mode: prove reads return the bytes last written.

The synthetic controller moves *accounting* (slots, remap entries, byte
counters) but no data, so nothing in the simulator proves that Baryon's
staging/commit/swap machinery actually preserves content. This module
threads a value through every data movement the controller performs:

* every 64 B cacheline has a *value* — a monotonically increasing write
  token (0 = pristine, never written);
* four stores mirror the tiers data can live in: ``slow`` memory, the
  ``stage`` area, the committed ``fast`` area, and flat-scheme ``home``
  block spaces;
* every movement seam of :class:`~repro.core.controller.BaryonController`
  (stage insertion, dirty writeback, commit, cache/flat eviction, range
  eviction, zero-break, home displacement/restore, the no-stage path) is
  overridden to copy values between stores exactly when the synthetic
  controller would move data;
* after every access the oracle's ``serve`` (which wraps the
  controller's, so the simulator's fast loop keeps the deferred seam)
  locates the sub-block's single authoritative tier (mirroring the
  Fig. 6 dispatch priority: stage → committed fast → fast home → slow),
  deposits a write's token there or asserts a read's value equals the
  ``golden`` last-written token. Any divergence — data dropped on a
  writeback, committed stale, left behind by a swap — raises
  :class:`~repro.common.errors.OracleViolation` at the first read that
  could observe it.

``inject_bug`` enables deliberate placement bugs (test-only hooks) so the
fuzzer/minimizer pipeline can demonstrate it catches real data loss; see
:data:`INJECTABLE_BUGS`.
"""

from __future__ import annotations

import weakref
from typing import Dict, Iterable, List, Optional, Tuple

from repro.common.config import BaryonConfig
from repro.common.errors import OracleViolation
from repro.common.stats import CounterGroup
from repro.core.controller import _UNRESOLVED, BaryonController
from repro.metadata.stage_tag import RangeSlot

#: Test-only placement bugs the oracle must catch (selftest + docs).
#: ``drop_dirty_writeback`` loses dirty staged data on eviction to slow
#: memory; ``commit_stale_data`` commits the pre-staging slow copy
#: instead of the staged (possibly dirty) values.
INJECTABLE_BUGS = ("drop_dirty_writeback", "commit_stale_data")


class _ZeroMaskedOracle:
    """Compressibility wrapper making the Z-bit consistent with content.

    The synthetic ``is_zero`` draw is content-free, so it can declare a
    block all-zero that the content model knows holds written data — and
    the controller's Z encoding stores nothing, which would "lose" those
    writes by design. In content mode a block is only ever treated as
    zero when its golden content is entirely pristine and the triggering
    access is a read (a write-miss to a zero block must take the normal
    fetch path so the written value has a physical slot to live in).
    """

    def __init__(self, inner, owner: "ContentBackedController") -> None:
        self._inner = inner
        self._owner = owner

    def is_zero(self, block_id: int, start_sub: int, n_sub: int) -> bool:
        owner = self._owner
        if owner._current_is_write or owner._block_has_content(block_id):
            return False
        return self._inner.is_zero(block_id, start_sub, n_sub)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class ContentBackedController(BaryonController):
    """A :class:`BaryonController` that carries real content end to end.

    Timing, counters and metadata behave exactly as in the base class
    (the overrides only *add* value bookkeeping around each ``super()``
    call), so the oracle validates the very controller the experiments
    run, not a simplified model of it. Its checks wrap ``serve``
    (:meth:`_build_server`), so ``access``, the deferred seam and the
    simulator's fast loop all run them.
    """

    def __init__(
        self,
        config: Optional[BaryonConfig] = None,
        inject_bug: Optional[str] = None,
        conservation_every: int = 64,
        **kwargs,
    ) -> None:
        super().__init__(config, **kwargs)
        if inject_bug is not None and inject_bug not in INJECTABLE_BUGS:
            raise ValueError(
                f"unknown injectable bug {inject_bug!r}; "
                f"choose from {INJECTABLE_BUGS}"
            )
        self.inject_bug = inject_bug
        self.conservation_every = conservation_every
        #: golden model: cacheline -> last written token (absent = 0).
        self.golden: Dict[int, int] = {}
        #: per-tier value stores, all keyed by global cacheline index.
        self.c_slow: Dict[int, int] = {}
        self.c_stage: Dict[int, int] = {}
        self.c_fast: Dict[int, int] = {}
        self.c_home: Dict[int, int] = {}
        #: served read values in trace order (differential fingerprint).
        self.served_reads: List[int] = []
        self.vstats = CounterGroup("validation")
        self._token = 0
        self._access_index = 0
        self._current_is_write = False
        # Mask the Z-bit oracle so zero blocks stay content-consistent.
        self.oracle = _ZeroMaskedOracle(self.oracle, self)

    # -- line arithmetic ---------------------------------------------------
    def _lines_of_sub(self, block_id: int, sub: int) -> range:
        g = self.geometry
        per_sub = g.cachelines_per_sub_block
        base = block_id * g.cachelines_per_block + sub * per_sub
        return range(base, base + per_sub)

    def _lines_of_block(self, block_id: int) -> range:
        per_block = self.geometry.cachelines_per_block
        base = block_id * per_block
        return range(base, base + per_block)

    def _slot_lines(self, block_id: int, slot: RangeSlot) -> Iterable[int]:
        if slot.zero:
            return self._lines_of_block(block_id)
        lines: List[int] = []
        for sub in slot.sub_blocks:
            lines.extend(self._lines_of_sub(block_id, sub))
        return lines

    def _block_has_content(self, block_id: int) -> bool:
        golden = self.golden
        return any(golden.get(line, 0) for line in self._lines_of_block(block_id))

    def _backing_store(self, block_id: int) -> Dict[int, int]:
        """Where a block's data rest when neither staged nor committed.

        Normally slow memory — but a flat-scheme home block whose space
        is not (or no longer) displaced is served from its fast home, so
        writebacks of its data must land there, not in slow memory.
        """
        if self._is_fast_home(block_id):
            return self.c_home
        return self.c_slow

    # -- oracle entry point ------------------------------------------------
    def _build_server(self):
        """The base server with the oracle's checks around ``serve``.

        After each op's state effects, a write deposits a fresh token in
        the sub-block's authoritative tier and a read must find the
        ``golden`` token there; every ``conservation_every`` ops run
        :meth:`check_conservation`. The closure reaches the controller
        only through a weak proxy (see ``ServedSeam``).
        """
        serve, flush = super()._build_server()
        ctrl = weakref.proxy(self)
        golden = self.golden
        served_reads = self.served_reads
        vstats_inc = self.vstats.inc
        line_size = self.geometry.cacheline_size

        def oracle_serve(addr, is_write):
            ctrl._access_index += 1
            ctrl._current_is_write = is_write
            try:
                op = serve(addr, is_write)
            finally:
                ctrl._current_is_write = False
            line = addr // line_size
            location, store = ctrl._locate(addr)
            if is_write:
                ctrl._token += 1
                store[line] = golden[line] = ctrl._token
                vstats_inc("writes_deposited")
            else:
                got = store.get(line, 0)
                want = golden.get(line, 0)
                served_reads.append(got)
                vstats_inc("reads_verified")
                if got != want:
                    vstats_inc("violations")
                    index = ctrl._access_index
                    raise OracleViolation(
                        f"stale read at addr {addr:#x} (access #{index}, "
                        f"case {op[0].value}): {location} holds token {got}, "
                        f"last write was token {want}",
                        kind="stale_read", addr=addr, access_index=index,
                        location=location, expected=want, got=got,
                    )
            every = ctrl.conservation_every
            if every and ctrl._access_index % every == 0:
                ctrl.check_conservation()
            return op

        return oracle_serve, flush

    def _locate(self, addr: int) -> Tuple[str, Dict[int, int]]:
        """The sub-block's single authoritative tier after the access.

        Mirrors the case priority of the controller's access flow
        (:meth:`BaryonController._build_server`): staged data shadow
        committed data, committed data shadow the home space, and slow
        memory is the backstop (including quarantined super-blocks and
        displaced flat homes).
        """
        g = self.geometry
        block_id = g.block_id(addr)
        super_id = g.super_block_id(addr)
        if super_id in self._quarantined:
            return "slow", self.c_slow
        if self.config.stage.enabled:
            staged = self.stage.lookup_sub_block(
                super_id, g.block_offset_in_super(addr), g.sub_block_index(addr)
            )
            if staged is not None:
                return "stage", self.c_stage
        entry = self.remap_table.get(block_id)
        if entry.is_remapped and entry.sub_block_remapped(g.sub_block_index(addr)):
            return "fast", self.c_fast
        if self._is_fast_home(block_id):
            return "home", self.c_home
        return "slow", self.c_slow

    def check_conservation(self) -> None:
        """Every sub-block lives in exactly one tier.

        Metadata level: no sub-block may be simultaneously staged and
        committed (the dispatch priority would silently shadow one copy).
        Content level: the stage and fast value stores must be disjoint.
        """
        self.vstats.inc("conservation_checks")
        tags = self.stage.tags
        num_sets = self.stage.num_sets
        for set_index in range(num_sets):
            for way in range(tags.ways):
                entry = tags.entry(set_index, way)
                if not entry.valid:
                    continue
                super_id = entry.tag * num_sets + set_index
                base = super_id * self.geometry.super_block_blocks
                for slot in entry.slots:
                    if slot is None:
                        continue
                    block_id = base + slot.blk_off
                    remap = self.remap_table.get(block_id)
                    if not remap.is_remapped:
                        continue
                    subs = (
                        range(self.geometry.sub_blocks_per_block)
                        if slot.zero else slot.sub_blocks
                    )
                    for sub in subs:
                        if remap.sub_block_remapped(sub):
                            raise OracleViolation(
                                f"sub-block {sub} of block {block_id} is both "
                                "staged and committed",
                                kind="conservation",
                            )
        overlap = self.c_stage.keys() & self.c_fast.keys()
        if overlap:
            line = next(iter(overlap))
            raise OracleViolation(
                f"cacheline {line} has values in both the stage and fast "
                f"stores ({len(overlap)} overlapping line(s))",
                kind="conservation",
            )

    # -- movement seams ----------------------------------------------------
    def _stage_insert(
        self, now, super_id, block_id, blk_off, new_slot, bound=_UNRESOLVED
    ) -> None:
        super()._stage_insert(now, super_id, block_id, blk_off, new_slot, bound)
        # Fetched ranges copy the slow values; re-inserted overflow pieces
        # keep the values already staged (setdefault never clobbers them).
        c_stage, c_slow = self.c_stage, self.c_slow
        for line in self._slot_lines(block_id, new_slot):
            c_stage.setdefault(line, c_slow.get(line, 0))

    def _writeback_stage_slot(self, now, set_index, super_id, slot) -> None:
        super()._writeback_stage_slot(now, set_index, super_id, slot)
        block_id = super_id * self.geometry.super_block_blocks + slot.blk_off
        copy_back = (
            slot.dirty and not slot.zero
            and self.inject_bug != "drop_dirty_writeback"
        )
        backing = self._backing_store(block_id)
        for line in self._slot_lines(block_id, slot):
            value = self.c_stage.pop(line, None)
            if value is not None and copy_back:
                backing[line] = value

    def _stage_zero_write(
        self, now, set_index, way, slot_idx, block_id, blk_off, sub_idx
    ) -> bool:
        overflow = super()._stage_zero_write(
            now, set_index, way, slot_idx, block_id, blk_off, sub_idx
        )
        # The Z slot covered the whole block; the replacement slot covers
        # only one aligned range. Lines no longer staged fall back to the
        # (identically zero) slow copy — drop their stage values.
        super_id = block_id // self.geometry.super_block_blocks
        for sub in range(self.geometry.sub_blocks_per_block):
            if self.stage.lookup_sub_block(super_id, blk_off, sub) is None:
                for line in self._lines_of_sub(block_id, sub):
                    self.c_stage.pop(line, None)
        return overflow

    def _commit_stage_block(
        self, now, set_index, way, super_id, target_way, occupant
    ) -> None:
        entry = self.stage.entry(set_index, way)
        base = super_id * self.geometry.super_block_blocks
        lines: List[int] = []
        for slot in entry.slots:
            if slot is not None:
                lines.extend(self._slot_lines(base + slot.blk_off, slot))
        super()._commit_stage_block(
            now, set_index, way, super_id, target_way, occupant
        )
        c_fast, c_stage, c_slow = self.c_fast, self.c_stage, self.c_slow
        stale = self.inject_bug == "commit_stale_data"
        for line in lines:
            staged = c_stage.pop(line, c_slow.get(line, 0))
            c_fast[line] = c_slow.get(line, 0) if stale else staged

    def _evict_fast_block(self, now, set_index, way, for_commit=False) -> None:
        state = self.fast_area.state(set_index, way)
        moves: List[Tuple[int, int, bool]] = []
        if state is not None:
            g = self.geometry
            base = state.super_id * g.super_block_blocks
            is_flat_way = way < self._flat_ways
            for blk_off in state.committed:
                block_id = base + blk_off
                entry = self.remap_table.get(block_id)
                if entry.zero:
                    # Z entries store nothing; the backing copy is zero too.
                    moves.extend(
                        (line, block_id, False)
                        for line in self._lines_of_block(block_id)
                    )
                    continue
                for sub in range(g.sub_blocks_per_block):
                    if not entry.sub_block_remapped(sub):
                        continue
                    write_back = is_flat_way or (blk_off, sub) in state.dirty_subs
                    moves.extend(
                        (line, block_id, write_back)
                        for line in self._lines_of_sub(block_id, sub)
                    )
        super()._evict_fast_block(now, set_index, way, for_commit)
        for line, block_id, write_back in moves:
            value = self.c_fast.pop(line, None)
            if value is not None and write_back:
                self._backing_store(block_id)[line] = value

    def _evict_committed_range(
        self, now, super_id, block_id, blk_off, start, cf
    ) -> None:
        located = self.fast_area.find_block(super_id, blk_off)
        super()._evict_committed_range(now, super_id, block_id, blk_off, start, cf)
        if located is None:
            return
        # The range is written back unconditionally (clean copies equal
        # the backing values, so the copy is a no-op for them).
        backing = self._backing_store(block_id)
        for sub in range(start, start + cf):
            for line in self._lines_of_sub(block_id, sub):
                value = self.c_fast.pop(line, None)
                if value is not None:
                    backing[line] = value

    def _evict_committed_logical_block(
        self, now, super_id, block_id, blk_off
    ) -> None:
        located = self.fast_area.find_block(super_id, blk_off)
        entry = self.remap_table.get(block_id)
        super()._evict_committed_logical_block(now, super_id, block_id, blk_off)
        if located is None or not entry.is_remapped:
            return
        g = self.geometry
        backing = self._backing_store(block_id)
        for sub in range(g.sub_blocks_per_block):
            if not entry.zero and not entry.sub_block_remapped(sub):
                continue
            for line in self._lines_of_sub(block_id, sub):
                value = self.c_fast.pop(line, None)
                if value is not None and not entry.zero:
                    backing[line] = value

    def _displace_home(self, now, fa_set, way):
        home = self.fast_area.home_block_of(fa_set, way)
        fresh = home is not None and home not in self._displaced
        result = super()._displace_home(now, fa_set, way)
        if fresh:
            for line in self._lines_of_block(home):
                value = self.c_home.pop(line, None)
                if value is not None:
                    self.c_slow[line] = value
        return result

    def _restore_home(self, now, fa_set, way) -> None:
        home = self._home_displaced_at(fa_set, way)
        super()._restore_home(now, fa_set, way)
        if home is None:
            return
        for line in self._lines_of_block(home):
            value = self.c_slow.pop(line, None)
            if value is not None:
                self.c_home[line] = value

    def _no_stage_miss(
        self, now, super_id, block_id, blk_off, sub_idx, line_idx, is_write
    ):
        result = super()._no_stage_miss(
            now, super_id, block_id, blk_off, sub_idx, line_idx, is_write
        )
        # Whatever the final layout holds was either already in the fast
        # store (survived the insertion) or just fetched from slow.
        entry = self.remap_table.get(block_id)
        if entry.is_remapped:
            c_fast, c_slow = self.c_fast, self.c_slow
            for sub in range(self.geometry.sub_blocks_per_block):
                if not entry.sub_block_remapped(sub):
                    continue
                for line in self._lines_of_sub(block_id, sub):
                    c_fast.setdefault(line, c_slow.get(line, 0))
        return result


class GoldenReference:
    """Content-transparent wrapper for the baseline controllers.

    The cache baselines (SimpleCache, Unison, DICE) never transform
    data in-model — their accounting moves no content — so the golden
    write-token model *is* what they serve. Wrapping them gives the
    differential checker a trivially-correct serve stream with the exact
    same trace/token numbering as the content-backed Baryon variants.
    """

    def __init__(self, controller) -> None:
        self.controller = controller
        self.golden: Dict[int, int] = {}
        self.served_reads: List[int] = []
        self._token = 0

    def access(self, addr, is_write, now=None):
        result = self.controller.access(addr, is_write, now)
        line = addr // 64
        if is_write:
            self._token += 1
            self.golden[line] = self._token
        else:
            self.served_reads.append(self.golden.get(line, 0))
        return result


def replay(controller, trace: Iterable[Tuple[int, bool]]):
    """Drive raw memory-level records through one controller.

    ``trace`` is a sequence of ``(addr, is_write)`` records, replayed
    directly at the memory controller (no cache hierarchy, so every
    design sees the identical access sequence). Returns the controller;
    a content-backed controller gets a final conservation check.
    """
    now = 0.0
    for addr, is_write in trace:
        now += 1.0
        controller.access(int(addr), bool(is_write), now)
    check = getattr(controller, "check_conservation", None)
    if check is not None:
        check()
    return controller
