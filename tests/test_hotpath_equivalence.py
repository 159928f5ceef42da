"""Batched hot path vs the scalar reference loop, and window bugfixes.

The batched loop in :class:`repro.sim.system.SystemSimulator` must be a
pure speed optimization: every :class:`~repro.sim.results.SimResult`
counter — including the float ``cycles`` accumulator — must match the
scalar reference loop bit for bit, and the differential content oracle
must reach the same verdict either way. The windowing tests pin the
measurement-window semantics of energy and ``extra``: on a stationary
trace the per-access measured stats must not depend on the warmup
fraction.
"""

import dataclasses
import random

import numpy as np
import pytest

import repro.cache.hierarchy as hierarchy_module
from repro.analysis import DESIGNS, build_controller
from repro.baselines import DiceCache, Hybrid2, UnisonCache
from repro.cache import CacheHierarchy
from repro.common.config import CacheGeometry, HierarchyConfig, SimulationConfig
from repro.common.errors import SimulationError
from repro.core import BaryonController
from repro.obs import EventTracer, MetricsRegistry, attach_observability
from repro.sim import SystemSimulator
from repro.validation import ContentBackedController, generate_trace, make_tiny_config
from repro.workloads import StreamWorkload, ZipfWorkload, build_workload, scaled_system
from repro.workloads.base import Trace

from tests.conftest import KB, make_small_config, make_small_sim_config


def _make_trace(workload_cls, config, n, seed, **wl_kwargs):
    return workload_cls(
        "wl", 4 * config.layout.fast_capacity, seed=seed, **wl_kwargs
    ).generate(n)


def _run(workload_cls, *, scalar, n=3000, seed=2, config=None, ctrl=None,
         **wl_kwargs):
    config = config or make_small_config()
    sim_config = make_small_sim_config()
    trace = _make_trace(workload_cls, config, n, seed, **wl_kwargs)
    ctrl = ctrl or BaryonController(config, seed=seed)
    trace.apply_compressibility(ctrl.oracle)
    sim = SystemSimulator(ctrl, sim_config)
    return sim.run(trace, "wl", "baryon", scalar=scalar)


#: Fast-area organizations: cache mode and the set-associative flat
#: scheme (LRU by default), and the fully-associative flat scheme (FIFO
#: by default). The inline server serves commit hits under all of them.
LAYOUTS = {
    "cache": {},
    "flat": {"flat": 0.75},
    "flat-fa": {"flat": 1.0, "fully_associative": True},
}
#: Explicit non-LRU fast-area policies: a commit hit leaves the stamp
#: alone, so commit victims come from insertion order.
POLICIES = ("fifo",)


def _case_id(workload_cls, layout, policy=None):
    # Cache-mode, default-policy cases keep their plain workload ids.
    parts = [workload_cls.__name__]
    if layout != "cache":
        parts.append(layout)
    if policy is not None:
        parts.append(policy)
    return "-".join(parts)


BIT_IDENTITY_CASES = [
    pytest.param(workload_cls, layout, None, id=_case_id(workload_cls, layout))
    for layout in LAYOUTS
    for workload_cls in (ZipfWorkload, StreamWorkload)
] + [
    pytest.param(
        workload_cls, layout, policy,
        id=_case_id(workload_cls, layout, policy),
    )
    for layout in ("cache", "flat-fa")
    for policy in POLICIES
    for workload_cls in (ZipfWorkload, StreamWorkload)
]


class TestBatchedEqualsScalar:
    @pytest.mark.parametrize("workload_cls,layout,policy", BIT_IDENTITY_CASES)
    def test_simresult_bit_identical(self, workload_cls, layout, policy):
        """Every SimResult field, cycles included, matches bit for bit."""
        config = make_small_config(**LAYOUTS[layout])
        if policy is not None:
            config = dataclasses.replace(config, fast_replacement=policy)
        ref = _run(workload_cls, scalar=True, config=config)
        fast = _run(workload_cls, scalar=False, config=config)
        assert fast.to_dict() == ref.to_dict()
        assert fast.cycles == ref.cycles  # exact float equality, no tolerance
        if workload_cls is ZipfWorkload:
            # Zipf re-reads committed data, so the fast loop's
            # committed-block lookup is on the compared path.
            assert ref.case_counts["commit_hit"] > 0

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_layout_selects_commit_hit_path(self, layout):
        """Every layout and fast-area policy takes the inline server."""
        policies = ("auto", "fifo")
        if layout != "flat-fa":
            policies += ("lru",)
        for policy in policies:
            config = make_small_config(
                **LAYOUTS[layout], fast_replacement=policy
            )
            server = BaryonController(config, seed=2).make_deferred_server()
            assert server is not None, policy

    def test_empty_and_tiny_traces(self):
        config = make_small_config()
        for n in (0, 1, 3):
            results = []
            for scalar in (True, False):
                trace = _make_trace(ZipfWorkload, config, n, seed=5)
                ctrl = BaryonController(config, seed=5)
                trace.apply_compressibility(ctrl.oracle)
                sim = SystemSimulator(ctrl, make_small_sim_config())
                results.append(sim.run(trace, scalar=scalar).to_dict())
            assert results[0] == results[1]

    def test_content_oracle_verdict_identical(self):
        """The differential content oracle sees the same access stream and
        serves the same read values under either loop."""
        config = make_tiny_config()
        records = generate_trace(random.Random(11), config, 800)
        n = len(records)
        trace = Trace(
            name="oracle",
            addrs=np.asarray([a for a, _ in records], dtype=np.uint64),
            writes=np.asarray([w for _, w in records], dtype=bool),
            igaps=np.zeros(n, dtype=np.uint32),
            cores=np.zeros(n, dtype=np.uint8),
        )
        fingerprints = []
        for scalar in (True, False):
            controller = ContentBackedController(config, seed=11)
            sim = SystemSimulator(controller, make_small_sim_config())
            result = sim.run(trace, scalar=scalar)
            fingerprints.append(
                (
                    controller.served_reads,
                    controller.vstats.as_dict(),
                    result.to_dict(),
                )
            )
        assert fingerprints[0] == fingerprints[1]


class TestColumnarEquivalence:
    """The stage area's index must stay exact with the tag array."""

    def test_columnar_verifies_after_every_mutation(self):
        """Drive a movement-heavy tiny trace access by access, verifying
        the probe indices after every access — so every controller
        mutation site (stage insert, commit, eviction) is checked the
        moment it happens, not just at the end."""
        config = make_tiny_config()
        records = generate_trace(random.Random(21), config, 700)
        ctrl = BaryonController(config, seed=21)
        now = 0.0
        for addr, is_write in records:
            mem = ctrl.access(addr, is_write, now)
            if not is_write:
                now += mem.latency_cycles
            ctrl.stage.verify()
        # The tiny config forces constant movement: all mutation sites
        # actually fired inside the verified window.
        assert ctrl.stats.get("commits") > 0
        assert ctrl.stage.stats.get("allocations") > 0
        assert ctrl.stage.stats.get("invalidations") > 0

    def test_random_scalar_batched_interleaving(self):
        """Flip between the scalar ``access`` call and the per-op
        ``access_deferred`` delegate at random mid-run; the final
        counters and clock must match the all-scalar replay bit for
        bit."""
        config = make_tiny_config()
        records = generate_trace(random.Random(31), config, 900)
        mlp = 4.0

        ref = BaryonController(config, seed=31)
        cycles = 0.0
        for addr, is_write in records:
            mem = ref.access(addr, is_write, cycles)
            if not is_write:
                cycles += mem.latency_cycles / mlp

        mixed = BaryonController(config, seed=31)
        assert mixed.supports_batching
        rng = random.Random(77)
        b_cycles = 0.0
        ops = []
        deferred_used = 0
        for addr, is_write in records:
            op = (
                mixed.access_deferred(addr, is_write)
                if rng.random() < 0.6 else None
            )
            if op is not None:
                ops.append(op)
                deferred_used += 1
                continue
            if ops:
                b_cycles = mixed.access_batch(ops, b_cycles, mlp)
                ops.clear()
            mem = mixed.access(addr, is_write, b_cycles)
            if not is_write:
                b_cycles += mem.latency_cycles / mlp
        if ops:
            b_cycles = mixed.access_batch(ops, b_cycles, mlp)
        assert deferred_used > 0
        assert b_cycles == cycles  # exact float equality, no tolerance
        assert mixed.stats.as_dict() == ref.stats.as_dict()
        assert (mixed.devices.fast.stats.as_dict()
                == ref.devices.fast.stats.as_dict())
        assert (mixed.devices.slow.stats.as_dict()
                == ref.devices.slow.stats.as_dict())
        assert (mixed.remap_cache.stats.as_dict()
                == ref.remap_cache.stats.as_dict())
        mixed.stage.verify()


class TestInlineServer:
    """Baryon's inline deferred server vs the scalar replay."""

    @pytest.mark.parametrize("seed", [3, 17, 29, 41])
    def test_random_flush_boundaries_bit_identical(self, seed):
        """The fuzzer's server twin under random forced mid-run flush
        boundaries; raises on any divergence."""
        from repro.validation.fuzz import run_batched_case

        records = generate_trace(random.Random(seed), make_tiny_config(), 900)
        run_batched_case({}, records, seed, random.Random(seed * 7))

    @pytest.mark.parametrize("policy", POLICIES)
    def test_non_lru_commit_victims_bit_identical(self, policy):
        """The tiny fast area fills its sets, so commit victims are
        picked from stamps the server's commit hits leave alone; the
        server twin must still match the scalar replay."""
        from repro.validation.fuzz import run_batched_case

        kwargs = {"fast_replacement": policy}
        records = generate_trace(random.Random(13), make_tiny_config(**kwargs), 900)
        run_batched_case(kwargs, records, 13, random.Random(91))

    def test_decline_reasons_are_counted_per_reason(self):
        """Baryon's per-reason decline counters stay empty: in a batched
        sim run ``serve`` returns an op for every miss and writeback,
        zero-encoding breaks and write overflows included."""
        config = make_small_config()
        sim_config = make_small_sim_config()
        trace = _make_trace(ZipfWorkload, config, 3000, seed=2)
        ctrl = BaryonController(config, seed=2)
        trace.apply_compressibility(ctrl.oracle)
        served = []
        make_server = ctrl.make_deferred_server

        def counting_server():
            serve, flush, batch = make_server()

            def counted(addr, is_write):
                op = serve(addr, is_write)
                served.append(op is not None)
                return op

            return counted, flush, batch

        ctrl.make_deferred_server = counting_server
        SystemSimulator(ctrl, sim_config).run(trace, "wl", "baryon")
        stats = ctrl.stats
        assert ctrl.deferred_declines == {}
        assert all(served) and len(served) == stats.get("accesses")
        assert stats.get("stage_write_overflows") + stats.get("stage_zero_breaks") > 0


#: Controller-level observers the inline server runs under, by
#: ``ResilienceConfig`` knobs (``tracker`` attaches a StagePhaseTracker
#: instead). ``exhaust``,
#: ``writedrop`` and ``stagetag`` quarantine super-blocks mid-run.
OBSERVED_SEAM_SETUPS = {
    "exhaust": {"p_read_transient": 5e-3, "p_write_drop": 5e-3, "max_retries": 0},
    "writedrop": {"p_write_drop": 2e-2, "max_retries": 0},
    "stagetag": {"p_stage_tag_corruption": 2e-2},
    "checker": {
        "p_table_corruption": 2e-3, "p_remap_corruption": 3e-3,
        "check_invariants": True,
    },
    "faults": {"p_read_transient": 1e-2, "p_latency_spike": 1e-2},
    "tracker": None,
}


def _observed_baryon_run(setup, workload, *, scalar):
    """One scale-256 Baryon run under ``setup``; returns everything the
    observers and the controller counted, plus the run's op counts."""
    from repro.common.config import ResilienceConfig
    from repro.core.tracking import StagePhaseTracker

    config, sim_config = scaled_system(256)
    probs = OBSERVED_SEAM_SETUPS[setup]
    if probs is not None:
        config = dataclasses.replace(
            config, resilience=ResilienceConfig(enabled=True, **probs)
        )
    tracker = StagePhaseTracker() if setup == "tracker" else None
    ctrl = build_controller("baryon", config, seed=1, tracker=tracker)
    trace = build_workload(
        workload, config.layout.fast_capacity, n_accesses=3000, seed=1
    )
    trace.apply_compressibility(ctrl.oracle)
    counts = {"deferred": 0, "prefetching": 0, "access": 0}
    _counting_server(ctrl, counts)
    access = ctrl.access

    def counting_access(*args):
        counts["access"] += 1
        return access(*args)

    ctrl.access = counting_access
    result = SystemSimulator(ctrl, sim_config).run(
        trace, workload, "baryon", scalar=scalar
    )
    devices = ctrl.devices
    seen = {
        "result": result.to_dict(),
        "controller": ctrl.stats.as_dict(),
        "fast": devices.fast.stats.as_dict(),
        "slow": devices.slow.stats.as_dict(),
        "quarantined": sorted(ctrl._quarantined),
    }
    for name in ("faults", "recovery", "checker"):
        component = getattr(ctrl, name)
        if component is not None:
            seen[name] = component.stats.as_dict()
    if tracker is not None:
        tracker.finalize()
        seen["tracker"] = tracker.mpki_distribution()
    return seen, counts


class TestObservedBaryonSeam:
    """Faults, recovery, the shadow checker, the phase tracker and
    quarantined super-blocks all run inside Baryon's ``serve``, so the
    fast loop keeps them on the deferred seam."""

    @pytest.mark.parametrize("setup", OBSERVED_SEAM_SETUPS)
    def test_observed_run_serves_deferred_and_matches_scalar(self, setup):
        for workload in ("YCSB-A", "YCSB-B", "519.lbm_r"):
            ref, ref_counts = _observed_baryon_run(setup, workload, scalar=True)
            fast, counts = _observed_baryon_run(setup, workload, scalar=False)
            assert fast == ref, workload
            assert ref_counts["deferred"] == 0 < ref_counts["access"]
            assert counts["access"] == 0 < counts["deferred"], workload
        if setup in ("exhaust", "writedrop", "stagetag"):
            assert fast["quarantined"]


#: (design, observer) cells whose fast runs must stay on the seam: every
#: design metered and traced, plus Baryon under the content oracle.
OBSERVED_CELLS = [
    *((design, observer) for observer in ("metered", "traced") for design in DESIGNS),
    ("baryon", "oracle"),
]


def _no_access(*args, **kwargs):
    raise AssertionError("the fast loop called controller.access")


def _observer_run(design, observer, *, scalar, monkeypatch=None):
    """One scale-512 YCSB-B run of ``design`` under ``observer``; returns
    the SimResult, what the observer recorded and the run's op counts.
    With ``monkeypatch``, the controller class's ``access`` fails."""
    config, sim_config = scaled_system(512)
    if observer == "oracle":
        ctrl = ContentBackedController(config, seed=1)
    else:
        ctrl = build_controller(design, config, seed=1)
    if monkeypatch is not None:
        monkeypatch.setattr(type(ctrl), "access", _no_access)
    tracer = EventTracer(capacity=1 << 20) if observer == "traced" else None
    registry = MetricsRegistry() if observer == "metered" else None
    attach_observability(ctrl, tracer, registry)
    trace = build_workload(
        "YCSB-B", config.layout.fast_capacity, n_accesses=3000, seed=1
    )
    if hasattr(ctrl, "oracle"):
        trace.apply_compressibility(ctrl.oracle)
    counts = {"deferred": 0, "prefetching": 0}
    _counting_server(ctrl, counts)
    result = SystemSimulator(ctrl, sim_config, metrics=registry).run(
        trace, "YCSB-B", design, scalar=scalar
    )
    if tracer is not None:
        seen = list(tracer.ring)
    elif registry is not None:
        seen = registry.to_json()
    else:
        seen = (ctrl.served_reads, ctrl.vstats.as_dict())
    return result.to_dict(), seen, counts


class TestObserversStayOnTheSeam:
    """Metrics, event tracing and the content oracle observe the fast
    loop's deferred seam: no fast run calls ``access``, and each records
    exactly what the scalar loop's per-op ``access`` calls record."""

    @pytest.mark.parametrize("design,observer", OBSERVED_CELLS)
    def test_fast_run_serves_deferred_and_matches_scalar(
        self, design, observer, monkeypatch
    ):
        ref, ref_seen, _ = _observer_run(design, observer, scalar=True)
        fast, seen, counts = _observer_run(
            design, observer, scalar=False, monkeypatch=monkeypatch
        )
        assert counts["deferred"] > 0
        assert fast == ref
        assert seen == ref_seen
        assert seen


class TestSimpleDesignSeam:
    """The ``simple`` baseline serves every miss on its inline server."""

    def test_sim_run_bit_identical_and_seam_engaged(self):
        from repro.baselines.simple_cache import SimpleCache

        # One line per 2 kB block over a 1 MB fast memory: hits, block
        # fills and dirty-victim writebacks all occur.
        config = make_small_config(fast_mb=1)
        sim_config = make_small_sim_config()
        payloads = {}
        ctrls = {}
        counts = {}
        for scalar in (True, False):
            trace = _make_trace(StreamWorkload, config, 3000, seed=2, stride=2048)
            ctrl = SimpleCache(config)
            counts[scalar] = {"deferred": 0, "prefetching": 0}
            _counting_server(ctrl, counts[scalar])
            sim = SystemSimulator(ctrl, sim_config)
            payloads[scalar] = sim.run(trace, "wl", "simple", scalar=scalar).to_dict()
            ctrls[scalar] = ctrl
        assert payloads[True] == payloads[False]
        assert ctrls[True].stats.as_dict() == ctrls[False].stats.as_dict()
        # The scalar run never serves; the fast run defers every access,
        # block fills, dirty victims and remap-table reads included.
        ctrl = ctrls[False]
        assert counts[True]["deferred"] == 0
        assert counts[False]["deferred"] == ctrl.stats.get("accesses") > 0
        assert ctrl.deferred_declines == {}
        assert ctrl.stats.get("served_fast") > 0
        assert ctrl.stats.get("dirty_writebacks") > 0
        assert ctrl.remap_cache.stats.get("misses") > 0

    @pytest.mark.parametrize("seed", [5, 23])
    def test_fuzz_twin_clean(self, seed):
        """The fuzzer's server twin under random forced flush boundaries."""
        from repro.validation.fuzz import run_baseline_case

        records = generate_trace(random.Random(seed), make_tiny_config(), 700)
        run_baseline_case({}, records, seed, rng=random.Random(seed * 7))


class TestHybrid2Seam:
    """Hybrid2 is Baryon at k = 0 without compression or sharing, so the
    fast loop serves its misses through Baryon's inline server."""

    @pytest.mark.parametrize("workload_cls", [ZipfWorkload, StreamWorkload])
    def test_simresult_bit_identical(self, workload_cls):
        ref, fast = (
            _run(workload_cls, scalar=scalar, ctrl=Hybrid2(make_small_config(), seed=2))
            for scalar in (True, False)
        )
        assert fast.to_dict() == ref.to_dict()
        assert fast.cycles == ref.cycles  # exact float equality, no tolerance

    def test_builds_deferred_server(self):
        assert Hybrid2(make_small_config()).make_deferred_server() is not None

    def test_k0_commits_run_through_the_server(self):
        """A fast run defers ops, and the k = 0 policy commits stage
        blocks from inside the server's eager staging fetches."""
        ctrl = Hybrid2(make_small_config(), seed=2)
        assert ctrl.policy.config.k == 0.0
        counts = {"deferred": 0, "served_commits": 0}
        serving = [False]
        commit = ctrl._commit_stage_block

        def counting_commit(*args):
            if serving[0]:
                counts["served_commits"] += 1
            return commit(*args)

        ctrl._commit_stage_block = counting_commit
        make_server = ctrl.make_deferred_server

        def counting_server():
            serve, flush, batch = make_server()

            def counting_serve(addr, is_write):
                serving[0] = True
                try:
                    op = serve(addr, is_write)
                finally:
                    serving[0] = False
                if op is not None:
                    counts["deferred"] += 1
                return op

            return counting_serve, flush, batch

        ctrl.make_deferred_server = counting_server
        _run(ZipfWorkload, scalar=False, ctrl=ctrl)
        assert counts["deferred"] > 0
        assert counts["served_commits"] >= 1


def _counting_server(ctrl, counts):
    """Wrap ``ctrl.make_deferred_server`` so every op its ``serve``
    returns is counted in ``counts["deferred"]``, and every op carrying
    prefetched lines in ``counts["prefetching"]``."""
    make_server = ctrl.make_deferred_server

    def counting_server():
        serve, flush, batch = make_server()

        def counting_serve(addr, is_write):
            op = serve(addr, is_write)
            if op is not None:
                counts["deferred"] += 1
                if op[6]:
                    counts["prefetching"] += 1
            return op

        return counting_serve, flush, batch

    ctrl.make_deferred_server = counting_server


#: Unison/DICE seam cells: (design, workload, fast MB, accesses, workload
#: kwargs, counters the fast run must make non-zero). The strided stream
#: touches one line per 2 kB page over twice the footprint-history
#: capacity, so Unison evicts history records; ``prefetching`` counts
#: DICE's compressed read hits that hand slot-mates to the LLC.
BASELINE_SEAM_CELLS = [
    pytest.param(UnisonCache, ZipfWorkload, 4, 3000, {},
                 ("way_mispredictions", "footprint_misses"), id="unison-Zipf"),
    pytest.param(UnisonCache, StreamWorkload, 4, 3000, {},
                 ("footprint_misses",), id="unison-Stream"),
    pytest.param(UnisonCache, StreamWorkload, 1, 4000, {"stride": 2048},
                 ("way_mispredictions", "history_evictions", "dirty_writebacks"),
                 id="unison-Stream-paged"),
    pytest.param(DiceCache, ZipfWorkload, 4, 3000, {},
                 ("write_overflows", "prefetching"), id="dice-Zipf"),
    pytest.param(DiceCache, StreamWorkload, 4, 3000, {},
                 ("write_overflows", "prefetching"), id="dice-Stream"),
]


def _run_baseline(cls, workload_cls, fast_mb, n, wl_kwargs, *, scalar):
    """One small-config run of a cache baseline; returns the result, the
    controller and the run's op counts."""
    config = make_small_config(fast_mb=fast_mb)
    ctrl = cls(config, seed=2) if cls is DiceCache else cls(config)
    counts = {"deferred": 0, "prefetching": 0}
    _counting_server(ctrl, counts)
    trace = _make_trace(workload_cls, config, n, seed=2, **wl_kwargs)
    if hasattr(ctrl, "oracle"):
        trace.apply_compressibility(ctrl.oracle)
    sim = SystemSimulator(ctrl, make_small_sim_config())
    return sim.run(trace, "wl", cls.name, scalar=scalar), ctrl, counts


class TestUnisonAndDiceSeam:
    """Unison and DICE serve every miss through their own inline
    servers; the fast loop must match the scalar loop bit for bit."""

    @pytest.mark.parametrize(
        "cls,workload_cls,fast_mb,n,wl_kwargs,covered", BASELINE_SEAM_CELLS
    )
    def test_simresult_bit_identical(
        self, cls, workload_cls, fast_mb, n, wl_kwargs, covered
    ):
        ref, ref_ctrl, ref_counts = _run_baseline(
            cls, workload_cls, fast_mb, n, wl_kwargs, scalar=True
        )
        fast, ctrl, counts = _run_baseline(
            cls, workload_cls, fast_mb, n, wl_kwargs, scalar=False
        )
        assert fast.to_dict() == ref.to_dict()
        assert fast.cycles == ref.cycles  # exact float equality, no tolerance
        assert ctrl.stats.as_dict() == ref_ctrl.stats.as_dict()
        # The scalar run never serves; the fast run defers every access.
        assert ref_counts["deferred"] == 0
        assert counts["deferred"] == ctrl.stats.get("accesses") > 0
        assert ctrl.deferred_declines == {}
        # The rare paths are on the compared path.
        seen = {**ctrl.stats.as_dict(), **counts}
        assert all(seen.get(key, 0) > 0 for key in covered), seen

    def test_pending_run_bound_keeps_bit_identity(self, monkeypatch):
        """A tiny bound replays the pending run every few records; the
        result must not move."""
        import repro.sim.system as system_module

        ref = _run_baseline(
            UnisonCache, ZipfWorkload, 4, 3000, {}, scalar=True
        )[0]
        monkeypatch.setattr(system_module, "MAX_PENDING_OPS", 8)
        config = make_small_config()
        ctrl = UnisonCache(config)
        replays = [0]
        batch = ctrl.access_batch

        def counting_batch(ops, cycles, mlp):
            replays[0] += 1
            return batch(ops, cycles, mlp)

        ctrl.access_batch = counting_batch
        trace = _make_trace(ZipfWorkload, config, 3000, seed=2)
        fast = SystemSimulator(ctrl, make_small_sim_config()).run(
            trace, "wl", "unison"
        )
        assert fast.to_dict() == ref.to_dict()
        assert fast.cycles == ref.cycles
        # Unbounded, the warmup and measured spans replay once each; the
        # bound cut them into hundreds of runs.
        assert replays[0] > 100

    @pytest.mark.parametrize("cls", [UnisonCache, DiceCache], ids=["unison", "dice"])
    @pytest.mark.parametrize("seed", [5, 23])
    def test_fuzz_twin_clean(self, cls, seed):
        """The fuzzer's server twin under random forced flush boundaries."""
        from repro.validation.fuzz import run_baseline_case

        records = generate_trace(random.Random(seed), make_tiny_config(), 700)
        run_baseline_case({}, records, seed, cls, random.Random(seed * 7))


def _four_core_sim_config(l2_kb=32, base_cpi=None, llc_latency=38):
    hierarchy = HierarchyConfig(
        cores=4,
        l1d=CacheGeometry("L1D", 8 * KB, 8, latency_cycles=4),
        l2=CacheGeometry("L2", l2_kb * KB, 8, latency_cycles=9),
        llc=CacheGeometry("LLC", 128 * KB, 16, latency_cycles=llc_latency),
    )
    sim_config = SimulationConfig(hierarchy=hierarchy, warmup_fraction=0.1)
    if base_cpi is not None:
        sim_config = dataclasses.replace(sim_config, base_cpi=base_cpi)
    return sim_config


def _hierarchy_counters(sim):
    hierarchy = sim.hierarchy
    caches = [*hierarchy._l1, *hierarchy._l2, hierarchy.llc]
    return hierarchy.stats.as_dict(), [cache.stats.as_dict() for cache in caches]


def _run_design(design, trace, sim_config, *, scalar=False, seed=1, **sim_kwargs):
    config, _ = scaled_system(512)
    ctrl = build_controller(design, config, seed=seed)
    if hasattr(ctrl, "oracle"):
        trace.apply_compressibility(ctrl.oracle)
    sim = SystemSimulator(ctrl, sim_config, **sim_kwargs)
    return sim.run(trace, "wl", design, scalar=scalar), sim


def _ycsb_a(n=3000):
    """Write-heavy: dirty L1 victims spill through L2 into the LLC."""
    config, _ = scaled_system(512)
    return build_workload(
        "YCSB-A", config.layout.fast_capacity, n_accesses=n, seed=1
    ).replay_view()


class TestSharedPrivateWalk:
    """The fast loop replays one memoized L1/L2 walk per trace."""

    def test_four_core_hierarchy_counters_match_scalar(self):
        """Every hierarchy and per-level counter equals the scalar run's."""
        trace = _ycsb_a()
        counters = {}
        for scalar in (True, False):
            result, sim = _run_design(
                "baryon", trace, _four_core_sim_config(), scalar=scalar
            )
            counters[scalar] = (result.to_dict(), _hierarchy_counters(sim))
        assert counters[False] == counters[True]
        levels, caches = counters[True][1]
        assert levels["l1_hits"] and levels["l2_hits"] and levels["llc_hits"]
        # Dirty victims left L1 and L2: the spill path is on the compared run.
        assert all(stats.get("writebacks") for stats in caches[:8])
        assert all(
            {"accesses", "hits", "misses", "evictions"} <= set(stats)
            for stats in caches
        )

    def test_walk_computed_once_per_trace_and_config(self, monkeypatch):
        """Designs replaying one view share the walk; a changed base_cpi,
        L2 geometry or LLC latency (part of the full-miss increment)
        walks again, and each result still equals the scalar run's."""
        walks = []
        walk_private = hierarchy_module._walk_private

        def counting(*args):
            walks.append(args[0])
            return walk_private(*args)

        monkeypatch.setattr(hierarchy_module, "_walk_private", counting)
        trace = _ycsb_a()
        sim_config = _four_core_sim_config()
        for design in ("simple", "baryon"):
            fast, _ = _run_design(design, trace, sim_config)
            ref, _ = _run_design(design, trace, sim_config, scalar=True)
            assert fast.to_dict() == ref.to_dict()
        assert len(walks) == 1
        _run_design("simple", trace, _four_core_sim_config(base_cpi=0.5))
        assert len(walks) == 2
        _run_design("simple", trace, _four_core_sim_config(l2_kb=64))
        assert len(walks) == 3
        _run_design("simple", trace, _four_core_sim_config(l2_kb=64))
        assert len(walks) == 3
        slow_llc = _four_core_sim_config(l2_kb=64, llc_latency=50)
        fast, _ = _run_design("simple", trace, slow_llc)
        ref, _ = _run_design("simple", trace, slow_llc, scalar=True)
        assert len(walks) == 4
        assert fast.to_dict() == ref.to_dict()

    def test_chunked_run_splitting_an_increment_run(self):
        """Progress + metrics chunks, with the warmup boundary inside a
        run of increments between two LLC records, match the unchunked
        and the scalar run."""
        trace = _ycsb_a()
        sim_config = _four_core_sim_config()
        walk, _ = CacheHierarchy(sim_config.hierarchy).make_fast_path()[0](
            trace.addrs, trace.writes, trace.igaps, trace.cores,
            sim_config.base_cpi, sim_config.hierarchy.cores,
        )
        access_ends = np.cumsum((trace.igaps != 0) + 1)
        touches_llc = np.isin(access_ends, np.asarray(walk.ends))
        boundary = next(
            i for i in range(300, len(trace))
            if not touches_llc[i - 1] and not touches_llc[i]
        )
        sim_config = dataclasses.replace(
            sim_config, warmup_fraction=(boundary + 0.5) / len(trace)
        )
        plain, _ = _run_design("baryon", trace, sim_config)
        scalar, _ = _run_design("baryon", trace, sim_config, scalar=True)
        reports = []
        chunked, _ = _run_design(
            "baryon", trace, sim_config, metrics=MetricsRegistry(),
            metrics_window=13, progress=lambda done, total: reports.append(done),
            progress_every=97,
        )
        assert chunked.to_dict() == plain.to_dict() == scalar.to_dict()
        assert len(reports) > len(trace) // 97

    def test_warm_injected_hierarchy_raises(self):
        """The walk starts from cold private caches, so a hierarchy whose
        L1/L2 already hold lines is refused, not silently diverged from."""
        trace = _ycsb_a(500)
        sim_config = _four_core_sim_config()
        warm = CacheHierarchy(sim_config.hierarchy)
        warm.access(0x4000, True, core=1)
        config, _ = scaled_system(512)
        ctrl = build_controller("simple", config, seed=1)
        with pytest.raises(SimulationError, match="cold L1/L2"):
            SystemSimulator(ctrl, sim_config, hierarchy=warm).run(trace)
        fresh = CacheHierarchy(sim_config.hierarchy)
        ref, _ = _run_design("simple", trace, sim_config)
        ctrl = build_controller("simple", config, seed=1)
        got = SystemSimulator(ctrl, sim_config, hierarchy=fresh).run(
            trace, "wl", "simple"
        )
        assert got.to_dict() == ref.to_dict()


def _run_with_warmup(warmup_fraction, n=20000, seed=3):
    config = make_small_config()
    sim_config = dataclasses.replace(
        make_small_sim_config(), warmup_fraction=warmup_fraction
    )
    trace = _make_trace(ZipfWorkload, config, n, seed)
    ctrl = BaryonController(config, seed=seed)
    trace.apply_compressibility(ctrl.oracle)
    return SystemSimulator(ctrl, sim_config).run(trace)


class TestMeasurementWindow:
    """Energy and ``extra`` must describe the measured window only."""

    def test_energy_per_access_warmup_invariant(self):
        full = _run_with_warmup(0.0)
        half = _run_with_warmup(0.5)
        assert half.memory_accesses < full.memory_accesses
        per_full = full.energy.total_j / full.memory_accesses
        per_half = half.energy.total_j / half.memory_accesses
        # Pre-fix, half-warmup energy covered the whole run: per-access
        # energy came out ~2x. Stationary trace => ~equal per access.
        assert 0.7 < per_half / per_full < 1.4

    def test_extra_counters_warmup_invariant(self):
        full = _run_with_warmup(0.0)
        half = _run_with_warmup(0.5)
        commits_full = full.extra["ctrl_commits"] / full.memory_accesses
        commits_half = half.extra["ctrl_commits"] / half.memory_accesses
        # Pre-fix, ctrl_commits was the full-run total regardless of
        # warmup; per measured access it came out ~2x for warmup 0.5.
        assert 0.7 < commits_half / commits_full < 1.4
        # Miss rate is now a window rate; on a stationary trace both
        # windows sit near the steady-state rate.
        assert full.extra["llc_miss_rate"] > 0.0
        assert half.extra["llc_miss_rate"] == pytest.approx(
            full.extra["llc_miss_rate"], rel=0.25
        )

    def test_useful_bytes_follow_line_size(self):
        """useful_bytes derives from the configured LLC line size."""
        config = make_small_config()
        hierarchy = HierarchyConfig(
            cores=2,
            l1d=CacheGeometry("L1D", 16 * KB, 8, line_size=128, latency_cycles=4),
            l2=CacheGeometry("L2", 64 * KB, 8, line_size=128, latency_cycles=9),
            llc=CacheGeometry("LLC", 128 * KB, 16, line_size=128, latency_cycles=38),
        )
        sim_config = SimulationConfig(hierarchy=hierarchy, warmup_fraction=0.1)
        trace = _make_trace(ZipfWorkload, config, 4000, seed=2)
        ctrl = BaryonController(config, seed=2)
        trace.apply_compressibility(ctrl.oracle)
        result = SystemSimulator(ctrl, sim_config).run(trace)
        assert result.llc_misses > 0
        assert result.useful_bytes == result.llc_misses * 128
