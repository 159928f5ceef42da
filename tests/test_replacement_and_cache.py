"""Replacement policies, the generic SRAM cache, and the hierarchy."""

import pytest

from repro.cache.hierarchy import CacheHierarchy
from repro.cache.replacement import CacheLine, make_set
from repro.cache.sram_cache import SetAssociativeCache
from repro.common.config import CacheGeometry, HierarchyConfig

KB = 1024


def fill(cache_set, tags):
    for tag in tags:
        cache_set.insert(CacheLine(tag))


class TestPolicies:
    def test_lru_victim(self):
        s = make_set("lru", 3)
        fill(s, "abc")
        s.touch(s.lookup("a"))
        assert s.victim().tag == "b"

    def test_lru_mru(self):
        s = make_set("lru", 3)
        fill(s, "abc")
        s.touch(s.lookup("a"))
        assert s.mru().tag == "a"

    def test_fifo_ignores_touches(self):
        s = make_set("fifo", 3)
        fill(s, "abc")
        s.touch(s.lookup("a"))
        assert s.victim().tag == "a"

    def test_lfu_prefers_least_used(self):
        s = make_set("lfu", 3)
        fill(s, "abc")
        for _ in range(3):
            s.touch(s.lookup("a"))
        s.touch(s.lookup("c"))
        assert s.victim().tag == "b"

    def test_clock_second_chance(self):
        s = make_set("clock", 3)
        fill(s, "abc")
        # All referenced: the hand clears bits then evicts the first.
        victim = s.victim()
        assert victim.tag in "abc"
        s.evict(victim.tag)
        assert len(s.lines) == 2

    def test_clock_survives_invalidation(self):
        s = make_set("clock", 3)
        fill(s, "abc")
        s.invalidate("b")
        assert s.victim().tag in "ac"

    def test_random_is_deterministic_under_seed(self):
        a = make_set("random", 4)
        b = make_set("random", 4)
        fill(a, "wxyz")
        fill(b, "wxyz")
        assert a.victim().tag == b.victim().tag

    def test_lfu_tiebreak_is_insertion_order(self):
        s = make_set("lfu", 3)
        fill(s, "abc")
        # Equal counters: the oldest insertion must lose, not whichever
        # line object happens to have the lowest id().
        assert s.victim().tag == "a"
        s.evict("a")
        s.insert(CacheLine("d"))
        assert s.victim().tag == "b"

    def test_lfu_victim_deterministic_across_fork(self):
        import os

        if not hasattr(os, "fork"):
            pytest.skip("no fork on this platform")

        def build():
            s = make_set("lfu", 4)
            fill(s, "wxyz")
            s.touch(s.lookup("y"))
            return s

        parent_victims = []
        s = build()
        while s.lines:
            victim = s.victim().tag
            parent_victims.append(victim)
            s.evict(victim)
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:  # child: same construction, report the victim order
            os.close(read_fd)
            s = build()
            order = []
            while s.lines:
                victim = s.victim().tag
                order.append(victim)
                s.evict(victim)
            os.write(write_fd, "".join(order).encode())
            os._exit(0)
        os.close(write_fd)
        child_victims = os.read(read_fd, 16).decode()
        os.close(read_fd)
        assert os.waitpid(pid, 0)[1] == 0
        assert "".join(parent_victims) == child_victims

    def test_clock_hand_follows_mid_ring_removal(self):
        s = make_set("clock", 3)
        fill(s, "abc")
        s._hand = 2  # pointing at "c"
        s.evict("a")
        assert s._ring[s._hand] == "c"
        # Removing the pointed-at line advances to the next element.
        s._hand = 0
        s.evict("b")
        assert s._ring == ["c"] and s._hand == 0

    def test_clock_second_chance_preserved_after_eviction(self):
        s = make_set("clock", 3)
        fill(s, "abc")
        assert s.victim().tag == "a"  # full sweep clears all bits
        s.touch(s.lookup("a"))
        assert s.victim().tag == "b"  # hand now past "a", at "b"
        s.touch(s.lookup("b"))
        s.touch(s.lookup("c"))
        s.evict("a")  # removal below the hand must not shift it onto "c"
        s.insert(CacheLine("d"))
        # b, c, d all referenced: the sweep starts at "b" (the line the
        # hand was on), so "b" loses its bit first and is the victim.
        assert s.victim().tag == "b"

    def test_unknown_policy(self):
        with pytest.raises(ValueError):
            make_set("mru", 2)

    def test_insert_full_raises(self):
        s = make_set("lru", 1)
        fill(s, "a")
        with pytest.raises(ValueError):
            s.insert(CacheLine("b"))


class TestSetAssociativeCache:
    def make(self, size_kb=4, ways=2):
        return SetAssociativeCache(CacheGeometry("T", size_kb * KB, ways))

    def test_miss_then_hit(self):
        cache = self.make()
        assert not cache.access(0x1000, False).hit
        assert cache.access(0x1000, False).hit
        assert cache.hit_rate == 0.5

    def test_dirty_writeback_address(self):
        cache = self.make(size_kb=1, ways=1)  # 16 sets x 1 way
        cache.access(0x0000, True)
        outcome = cache.access(0x0000 + 1 * KB, False)  # same set, conflict
        assert not outcome.hit
        assert outcome.writeback_addr == 0x0000

    def test_clean_eviction_no_writeback(self):
        cache = self.make(size_kb=1, ways=1)
        cache.access(0x0000, False)
        outcome = cache.access(0x0000 + 1 * KB, False)
        assert outcome.writeback_addr is None
        assert outcome.victim_addr == 0x0000

    def test_install_is_idempotent(self):
        cache = self.make()
        assert not cache.install(0x40).hit
        assert cache.install(0x40).hit
        assert cache.access(0x40, False).hit

    def test_invalidate_returns_dirty(self):
        cache = self.make()
        cache.access(0x80, True)
        assert cache.invalidate(0x80) == 0x80
        assert cache.invalidate(0x80) is None

    def test_same_line_different_bytes(self):
        cache = self.make()
        cache.access(0x100, False)
        assert cache.access(0x13F, False).hit  # same 64 B line

    @pytest.mark.parametrize("addr", [0x0, 0x1040])
    @pytest.mark.parametrize("fill", ["access", "install"])
    def test_clean_resident_line_is_present(self, addr, fill):
        """An LRU set stores a clean line's dirty bit as False (falsy), and
        line 0 has the falsy tag 0: both are still resident everywhere
        the cache probes them."""
        cache = self.make()
        getattr(cache, fill)(addr, False)
        assert cache.contains(addr)
        assert cache.access_raw(addr, False) == (True, None, None)
        assert cache.install_raw(addr) is None
        assert cache.install(addr).hit
        assert cache.stats.get("installs") == (fill == "install")
        assert cache.invalidate(addr) is None
        assert not cache.contains(addr)

    def test_lru_levels_hold_no_line_objects(self):
        cache = self.make(size_kb=1, ways=2)
        cache.access(0x0, True)
        cache.install(0x400)
        assert cache._lines[0] == {0: True, 2: False}


class TestHierarchy:
    def make(self):
        return CacheHierarchy(
            HierarchyConfig(
                cores=2,
                l1d=CacheGeometry("L1D", 1 * KB, 2, latency_cycles=4),
                l2=CacheGeometry("L2", 4 * KB, 2, latency_cycles=9),
                llc=CacheGeometry("LLC", 16 * KB, 4, latency_cycles=38),
            )
        )

    def test_miss_goes_to_memory(self):
        h = self.make()
        result = h.access(0x10000, False, core=0)
        assert result.llc_miss
        assert result.hit_level == "MEM"
        assert result.latency_cycles == 4 + 9 + 38

    def test_l1_hit_after_fill(self):
        h = self.make()
        h.access(0x10000, False, core=0)
        result = h.access(0x10000, False, core=0)
        assert result.hit_level == "L1"
        assert result.latency_cycles == 4

    def test_private_l1_per_core(self):
        h = self.make()
        h.access(0x10000, False, core=0)
        result = h.access(0x10000, False, core=1)
        # Core 1's private L1/L2 miss; shared LLC hits.
        assert result.hit_level == "LLC"

    def test_install_llc_prefetch(self):
        h = self.make()
        h.install_llc(0x20000)
        result = h.access(0x20000, False, core=0)
        assert result.hit_level == "LLC"

    def test_dirty_writeback_eventually_reaches_memory(self):
        h = self.make()
        wbs = []
        # Write a long stream so dirty lines cascade out of the LLC.
        for i in range(4096):
            result = h.access(i * 64, True, core=0)
            wbs.extend(result.writebacks)
        assert wbs, "dirty LLC victims must surface as memory writebacks"

    @pytest.mark.parametrize("addr", [0x0, 0x20040])
    def test_fast_path_llc_hits_clean_installed_line(self, addr):
        """The fast path's LLC closures see a clean prefetched line (and
        the falsy line-0 tag) as resident."""
        h = self.make()
        _, access, install, flush = h.make_fast_path()
        assert install(addr) is None
        assert install(addr) is None
        assert access(addr, -1, -1, 2) == (False, None)
        flush()
        assert h.stats.get("llc_hits") == 1
        assert h.stats.get("llc_misses") == 0
        assert h.stats.get("llc_prefetch_installs") == 2
        assert h.llc.stats.get("installs") == 1
        assert h.llc.stats.get("hits") == 1

    def test_llc_miss_rate(self):
        h = self.make()
        h.access(0x0, False)
        h.access(0x0, False)
        assert 0.0 <= h.llc_miss_rate <= 1.0
