"""The all-LRU private walk kernel against a per-access reference.

``_walk_private`` runs the private L1/L2 walk of an all-LRU hierarchy as
a kernel over per-core (set, tag) columns with inlined fills. The
reference here replays the same trace one access at a time, in trace
order, through :meth:`SetAssociativeCache.access_raw` on fresh caches,
and lays out every :class:`PrivateWalk` slot in plain Python.
"""

import numpy as np
from hypothesis import example, given, settings, strategies as st

import repro.cache.hierarchy as hierarchy_module
from repro.cache.sram_cache import SetAssociativeCache
from repro.common.config import CacheGeometry, HierarchyConfig

LINE = 64
SLOTS = ("incs", "ends", "addrs", "kinds", "spills", "victims")


def reference_walk(config, addrs, writes, igaps, cores, base_cpi, threads):
    """Every PrivateWalk slot, from one access_raw probe sequence per access."""
    n_cores = config.cores
    l1s = [SetAssociativeCache(config.l1d) for _ in range(n_cores)]
    l2s = [SetAssociativeCache(config.l2) for _ in range(n_cores)]
    latency = np.cumsum(
        [g.latency_cycles for g in (config.l1d, config.l2, config.llc)]
    ).tolist()
    out = {slot: [] for slot in SLOTS}
    l1_hits = l2_hits = 0
    for addr, is_write, gap, core in zip(addrs, writes, igaps, cores):
        l1, l2 = l1s[core % n_cores], l2s[core % n_cores]
        if gap:
            out["incs"].append(gap * base_cpi / threads)
        hit, l1_wb, _ = l1.access_raw(addr, is_write)
        if hit:
            l1_hits += 1
            out["incs"].append(latency[0] / threads)
            continue
        hit2, l2_wb, _ = l2.access_raw(addr, False)
        spill = -1
        if l1_wb is not None:
            written = l2.access_raw(l1_wb, True)[1]
            if written is not None:
                spill = written
        l2_hits += hit2
        out["incs"].append(latency[1 if hit2 else 2] / threads)
        if not hit2 or spill >= 0:
            out["ends"].append(len(out["incs"]))
            out["addrs"].append(addr)
            out["kinds"].append(0 if hit2 else 2 + is_write)
            out["spills"].append(spill)
            out["victims"].append(-1 if l2_wb is None else l2_wb)
    counts = [
        tuple(getattr(cache, name) for name in hierarchy_module._CACHE_COUNTERS)
        for cache in (*l1s, *l2s)
    ]
    return out, l1_hits, l2_hits, counts


def check_walk(config, addrs, writes, igaps, cores, base_cpi):
    columns = (
        np.asarray(addrs, np.uint64), np.asarray(writes, bool),
        np.asarray(igaps, np.uint32), np.asarray(cores, np.uint16),
    )
    walk = hierarchy_module._walk_private(
        config, *columns, base_cpi, config.cores
    )
    ref, l1_hits, l2_hits, counts = reference_walk(
        config, addrs, writes, igaps, cores, base_cpi, config.cores
    )
    for slot in SLOTS:
        assert list(getattr(walk, slot)) == ref[slot], slot
    assert (walk.l1_hits, walk.l2_hits) == (l1_hits, l2_hits)
    assert walk.counts == counts
    return ref


def _geometry(name, sets, ways, latency):
    return CacheGeometry(name, sets * ways * LINE, ways, latency_cycles=latency)


def _config(cores, l1, l2):
    return HierarchyConfig(
        cores=cores,
        l1d=_geometry("L1D", *l1, 4),
        l2=_geometry("L2", *l2, 9),
        llc=_geometry("LLC", 4, 2, 38),
    )


@st.composite
def walks(draw):
    shape = st.tuples(st.integers(1, 4), st.integers(1, 2))
    config = _config(draw(st.integers(1, 4)), draw(shape), draw(shape))
    n = draw(st.integers(0, 150))

    def column(elements):
        return draw(st.lists(elements, min_size=n, max_size=n))

    # Lines 0-23 (line 0 included) at any byte offset within the line.
    addrs = [
        line * LINE + offset
        for line, offset in zip(
            column(st.integers(0, 23)), column(st.integers(0, LINE - 1))
        )
    ]
    writes = column(st.booleans())
    igaps = column(st.integers(0, 3))
    cores = column(st.integers(0, 7))
    base_cpi = draw(st.sampled_from([1.0, 0.5, 0.37]))
    return config, addrs, writes, igaps, cores, base_cpi


#: One core, a 1-way L1 over a 2-way L2, one set each: dirty L1 victims
#: spill into L2 and evict dirty L2 lines, and both write-allocation
#: columns carry line address 0.
_TINY = (
    _config(1, (1, 1), (1, 2)),
    [128, 64 + 8, 192, 0, 3, 256, 0, 128 + 63, 256, 0],
    [False, True, True, True, True, True, True, True, False, False],
    [0, 2, 0, 1, 0, 0, 3, 0, 0, 1],
    [0] * 10,
    0.5,
)


@settings(max_examples=300, deadline=None)
@given(walks())
@example(_TINY)
def test_lru_walk_kernel_matches_access_raw_reference(case):
    check_walk(*case)


def test_tiny_caches_spill_and_victimise_line_zero():
    """The pinned example reaches both dirty write-allocation paths, with
    line address 0 among the victims."""
    ref = check_walk(*_TINY)
    assert 0 in ref["spills"] and 0 in ref["victims"]
    assert any(spill > 0 for spill in ref["spills"])
