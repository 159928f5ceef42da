"""The system simulator: drive a trace through caches into a controller."""

from __future__ import annotations

from bisect import bisect_right
from time import perf_counter
from typing import Dict, Optional, Tuple

from repro.cache.hierarchy import CacheHierarchy
from repro.common.config import SimulationConfig
from repro.devices.energy import EnergyModel
from repro.obs.metrics import MetricsRegistry
from repro.obs.profiler import NULL_PROFILER, PhaseProfiler
from repro.obs.spans import NULL_SPANS, SpanTracer
from repro.sim.results import SimResult


def _decline(addr, is_write):
    """The seam of a controller without one: every op takes ``access``."""
    return None


def _no_flush():
    """The flush of a seam that keeps no tallies between calls."""


def _timed(acc: list, fn):
    """``fn`` with every call's wall time and count added to ``acc``
    (``[seconds, calls]``, folded into the profiler once per run)."""
    clock = perf_counter

    def timed(*args):
        t0 = clock()
        out = fn(*args)
        acc[0] += clock() - t0
        acc[1] += 1
        return out

    return timed


class SystemSimulator:
    """Runs one (controller, trace) pair and produces a :class:`SimResult`.

    The controller is any object with the
    ``access(addr, is_write, now) -> AccessResult`` duck type (Baryon or a
    baseline). A fresh :class:`~repro.cache.hierarchy.CacheHierarchy` is
    built per simulator unless one is injected; the fast loop requires
    its L1/L2 caches to be cold.

    Two interchangeable per-access loops drive the trace:

    ``scalar``
        The original reference loop, kept verbatim: one
        :class:`~repro.cache.hierarchy.HierarchyResult` per access and one
        ``controller.access`` call per LLC miss and writeback.
    ``fast`` (default)
        Every other run. The private L1/L2 walk is the same for every
        design, so the hierarchy computes it once per trace (memoized;
        :meth:`~repro.cache.hierarchy.CacheHierarchy.make_fast_path`):
        the core-side cycle increments in scalar order plus one record
        per access that touches the LLC. The loop replays only those
        records' LLC work. LLC misses and writebacks take the
        controller's *deferred seam* when it has one: safe ops — reads,
        write hits that provably do not overflow, batch-safe writebacks —
        are state-applied eagerly in trace order and their channel timing
        replays in one ``access_batch`` call. For Baryon the ops are
        served by the inlined ``serve`` closure of
        ``make_deferred_server``, for ``simple`` by its per-op
        ``access_deferred``. Any unsafe op (zero-encoding breaks,
        overflowing writes, block fills) first flushes the pending run and
        then takes ``controller.access`` with the current clock; without
        the seam every miss and writeback does. SimResults — cycles,
        counters, energy — and every hierarchy counter are bit-identical
        to the scalar loop (the float accumulation order of ``cycles`` is
        preserved operation for operation);
        ``tests/test_hotpath_equivalence.py`` and the golden corpus in
        ``tests/test_golden.py`` assert this.

    The seam has two vetoes. The controller's ``supports_batching`` is
    false while a per-access observer of its own is attached — fault
    injection, recovery, the shadow checker, the phase tracker, the
    content oracle or event tracing all hook the scalar ``access`` flow —
    and always for unison and dice. An attached ``metrics``
    registry turns it off as well: a deferred op's latency exists only at
    replay time, but the latency histogram observes every miss as it is
    served. Profiling, spans and progress callbacks never change which
    code runs.

    Observability (all optional, all free when absent):

    ``metrics``
        A :class:`~repro.obs.metrics.MetricsRegistry`; the simulator
        registers a memory-latency histogram (one observation per demand
        LLC miss) plus windowed serve-rate and IPC time series sampled
        every ``metrics_window`` accesses.
    ``profiler``
        A :class:`~repro.obs.profiler.PhaseProfiler`; wall-clock is split
        into warmup/measured phases and cache-hierarchy vs controller
        time, with instruction counts per phase. The fast loop wraps its
        bound hierarchy and controller callables once per run, so every
        call is timed and unprofiled runs pay nothing.
    ``spans``
        A :class:`~repro.obs.spans.SpanTracer`; the run is wrapped in a
        ``sim.run`` span with ``sim.warmup``/``sim.measured`` child
        phase spans (fast loop; the scalar reference loop records the
        run span only).
    ``progress``
        A ``callable(done, total)`` invoked every ``progress_every``
        accesses (and at each phase boundary).

    With progress or metrics attached the fast loop runs in chunks that
    end at progress reports and series sampling ticks — chunking only
    changes where local accumulators are written back, so results stay
    bit-identical to the unchunked loop.
    """

    def __init__(
        self,
        controller,
        config: Optional[SimulationConfig] = None,
        hierarchy: Optional[CacheHierarchy] = None,
        metrics: Optional[MetricsRegistry] = None,
        profiler: Optional[PhaseProfiler] = None,
        metrics_window: int = 1000,
        spans: Optional[SpanTracer] = None,
        progress=None,
        progress_every: int = 2048,
    ) -> None:
        self.controller = controller
        self.config = config or SimulationConfig()
        self.hierarchy = hierarchy or CacheHierarchy(self.config.hierarchy)
        self.profiler = profiler or NULL_PROFILER
        self.metrics = metrics
        self.spans = spans or NULL_SPANS
        self._progress = progress
        self._progress_every = max(1, progress_every)
        self._run_span = None
        self._loop = None
        self._walk = None
        self._inc_pos = 0
        self._timers: Dict[str, list] = {}
        self.cycles = 0.0
        self.instructions = 0
        self._served_fast = 0
        self._mem_seen = 0
        if metrics is not None:
            self._h_latency = metrics.histogram(
                "repro_mem_latency_cycles",
                help="memory-level demand access latency (cycles)",
            )
            self._ts_serve = metrics.series(
                "repro_serve_rate",
                help="running fast-memory serve rate",
                every=metrics_window,
            )
            self._ts_ipc = metrics.series(
                "repro_ipc", help="running instructions per cycle",
                every=metrics_window,
            )

    def run(
        self, trace, name: str = "", design: str = "", *, scalar: bool = False
    ) -> SimResult:
        """Simulate the whole trace; measure after the warmup fraction.

        The measured window is ``[warmup_end, n)``: the snapshot is taken
        just before access ``warmup_end`` runs, or after the loop when
        warmup covers the whole (possibly empty) trace — so the window is
        always well-defined, at worst empty. ``scalar=True`` selects the
        reference per-access loop instead of the fast loop.
        """
        n = len(trace)
        warmup_end = min(n, int(n * self.config.warmup_fraction))
        spans = self.spans
        if spans.enabled:
            self._run_span = spans.start(
                "sim.run", design=design or getattr(self.controller, "name", ""),
                workload=name, accesses=n, warmup=warmup_end,
            )
        try:
            if scalar:
                mark, wall_start = self._run_scalar(trace, n, warmup_end)
            else:
                mark, wall_start = self._run_fast(trace, n, warmup_end)
            return self._finalize(
                trace, name, design, n, warmup_end, mark, wall_start
            )
        finally:
            if self._run_span is not None:
                spans.end(
                    self._run_span,
                    instructions=self.instructions, cycles=self.cycles,
                )
                self._run_span = None

    # ----------------------------------------------------- reference loop
    def _run_scalar(
        self, trace, n: int, warmup_end: int
    ) -> Tuple[Optional[Dict[str, float]], float]:
        """The original per-access loop, kept verbatim as the equivalence
        reference for the fast loop."""
        mark: Optional[Dict[str, float]] = None

        addrs = trace.addrs
        writes = trace.writes
        igaps = trace.igaps
        cores = trace.cores
        mlp = self.config.memory_level_parallelism
        base_cpi = self.config.base_cpi
        # The trace interleaves all cores' streams: wall-clock compute
        # time per access is the per-thread time over the core count.
        threads = max(1, self.config.hierarchy.cores)

        profiling = self.profiler.enabled
        observing = self.metrics is not None
        progress = self._progress
        progress_stride = self._progress_every
        served_fast = 0
        mem_seen = 0
        wall_start = perf_counter() if profiling else 0.0

        for i in range(n):
            if i == warmup_end:
                mark = self._snapshot()
                if profiling:
                    self.profiler.add("warmup", perf_counter() - wall_start, calls=i)
                    self.profiler.count("warmup_instructions", self.instructions)
                    wall_start = perf_counter()
            gap = int(igaps[i])
            self.instructions += gap + 1
            self.cycles += gap * base_cpi / threads

            addr = int(addrs[i])
            is_write = bool(writes[i])
            if profiling:
                t0 = perf_counter()
                result = self.hierarchy.access(addr, is_write, int(cores[i]))
                self.profiler.add("hierarchy", perf_counter() - t0)
            else:
                result = self.hierarchy.access(addr, is_write, int(cores[i]))
            self.cycles += result.latency_cycles / threads
            if result.llc_miss:
                if profiling:
                    t0 = perf_counter()
                    mem = self.controller.access(addr, is_write, self.cycles)
                    self.profiler.add("controller", perf_counter() - t0)
                else:
                    mem = self.controller.access(addr, is_write, self.cycles)
                if not is_write:
                    # Writes are posted; only read latency stalls the core.
                    self.cycles += mem.latency_cycles / mlp
                if observing:
                    self._h_latency.observe(mem.latency_cycles)
                    mem_seen += 1
                    if mem.served_fast:
                        served_fast += 1
                for line_addr in mem.prefetched_lines:
                    for wb in self.hierarchy.install_llc(line_addr):
                        self.controller.access(wb, True, self.cycles)
            for wb in result.writebacks:
                self.controller.access(wb, True, self.cycles)
            if observing:
                self._ts_serve.tick(served_fast / mem_seen if mem_seen else 0.0)
                self._ts_ipc.tick(
                    self.instructions / self.cycles if self.cycles else 0.0
                )
            if progress is not None and not ((i + 1) % progress_stride):
                progress(i + 1, n)

        self._served_fast = served_fast
        self._mem_seen = mem_seen
        if progress is not None and n % progress_stride:
            progress(n, n)
        return mark, wall_start

    # ----------------------------------------------------- fast loop
    def _run_fast(
        self, trace, n: int, warmup_end: int
    ) -> Tuple[Optional[Dict[str, float]], float]:
        """Segmented fast loop: warmup span, boundary snapshot, measured
        span. State effects are bit-identical to the scalar loop (see the
        class docstring)."""
        mark: Optional[Dict[str, float]] = None
        profiling = self.profiler.enabled
        self._served_fast = 0
        self._mem_seen = 0

        wall_start = perf_counter() if profiling else 0.0
        self._bind_loop(trace)
        igaps = trace.igaps
        igaps = igaps.tolist() if hasattr(igaps, "tolist") else list(igaps)

        spans = self.spans
        phase_span = (
            spans.start("sim.warmup", parent=self._run_span, accesses=warmup_end)
            if spans.enabled and warmup_end else None
        )
        self._segment(0, warmup_end, igaps, n)
        if phase_span is not None:
            spans.end(phase_span)
        if warmup_end < n:
            mark = self._snapshot()
            if profiling:
                self.profiler.add(
                    "warmup", perf_counter() - wall_start, calls=warmup_end
                )
                self.profiler.count("warmup_instructions", self.instructions)
                wall_start = perf_counter()
            phase_span = (
                spans.start(
                    "sim.measured", parent=self._run_span,
                    accesses=n - warmup_end,
                )
                if spans.enabled else None
            )
            self._segment(warmup_end, n, igaps, n)
            if phase_span is not None:
                spans.end(phase_span)
        self.hierarchy.add_walk_counts(self._walk)
        for row, (seconds, calls) in self._timers.items():
            if calls:
                self.profiler.add(row, seconds, calls=calls)
        return mark, wall_start

    def _bind_loop(self, trace) -> None:
        """Bind the fast loop's callables and the trace's private walk
        once per run.

        The deferred seam is ``serve``, ``flush`` and ``batch``: the
        controller's ``make_deferred_server`` triple when it builds one,
        else its per-op ``access_deferred`` with ``access_batch``. It is
        bound only when neither veto applies (see the class docstring);
        otherwise ``serve`` declines every op. A profiler wraps every
        bound hierarchy and controller callable here, so the loop itself
        has no profiling branch; its ``hierarchy`` row also times the
        walk, one call per access walked (none on a memo hit).
        """
        controller = self.controller
        walk, access, install, hier_flush = self.hierarchy.make_fast_path()
        ctrl_access = controller.access
        serve, flush, batch = _decline, _no_flush, None
        if self.metrics is None and getattr(controller, "supports_batching", False):
            make_server = getattr(controller, "make_deferred_server", None)
            server = make_server() if make_server is not None else None
            if server is not None:
                serve, flush, batch = server
            else:
                serve, batch = controller.access_deferred, controller.access_batch
        if self.profiler.enabled:
            hier = [0.0, 0]
            ctrl = [0.0, 0]
            self._timers = {"hierarchy": hier, "controller": ctrl}
            access = _timed(hier, access)
            install = _timed(hier, install)
            ctrl_access = _timed(ctrl, ctrl_access)
            serve, flush, batch = (
                fn if fn in (_decline, _no_flush, None) else _timed(ctrl, fn)
                for fn in (serve, flush, batch)
            )
        observe = self._observe_miss if self.metrics is not None else None
        self._loop = (
            access, install, hier_flush, ctrl_access, serve, flush, batch,
            observe,
        )
        cfg = self.config
        start = perf_counter()
        self._walk, walked = walk(
            trace.addrs, trace.writes, trace.igaps, trace.cores,
            cfg.base_cpi, max(1, cfg.hierarchy.cores),
        )
        self._inc_pos = 0
        if walked and self.profiler.enabled:
            hier[0] += perf_counter() - start
            hier[1] += walked

    def _observe_miss(self, mem) -> None:
        """Metrics for one demand miss served by ``controller.access``."""
        self._h_latency.observe(mem.latency_cycles)
        self._mem_seen += 1
        if mem.served_fast:
            self._served_fast += 1

    def _segment(self, start: int, stop: int, igaps, total: int) -> None:
        """One warmup/measured segment, in chunks that end at progress
        reports and series sampling ticks when those are attached."""
        progress = self._progress
        metered = self.metrics is not None
        if progress is None and not metered:
            self._fast_span(start, stop, igaps)
            return
        stride = self._progress_every
        report = start + stride if progress is not None else stop
        pos = start
        while pos < stop:
            end = min(stop, report)
            if metered:
                end = min(end, pos + self._until_sample())
            self._fast_span(pos, end, igaps)
            if metered:
                self._tick_series(end - pos)
            pos = end
            if progress is not None and (pos == report or pos == stop):
                progress(pos, total)
                report += stride

    def _until_sample(self) -> int:
        """Accesses left until either series records its next point."""
        return min(
            series.next_due() - series.ticks
            for series in (self._ts_serve, self._ts_ipc)
        )

    def _tick_series(self, count: int) -> None:
        """Advance both series by ``count`` accesses. A chunk never
        crosses a due tick, so a chunk that ends on one records the
        point exactly as a per-access ``tick`` would have."""
        mem_seen = self._mem_seen
        cycles = self.cycles
        for series, value in (
            (self._ts_serve, self._served_fast / mem_seen if mem_seen else 0.0),
            (self._ts_ipc, self.instructions / cycles if cycles else 0.0),
        ):
            tick = series.ticks + count
            if tick == series.next_due():
                series.sample_at(tick, value)
            else:
                series.advance_to(tick)

    def _fast_span(self, start: int, stop: int, igaps) -> None:
        """Run accesses ``[start, stop)`` through the fast loop.

        Spans run in trace order. Between the walk's records its
        increments are appended to ``ops`` while a deferred run is
        pending, else added to ``cycles`` one by one — the scalar loop's
        float operation order (``sum`` may compensate, so it is never
        used on floats). Each record then does its LLC work, and every
        LLC miss and writeback first goes to the seam's ``serve``. One
        ``batch`` call replays a run of deferred ops and increments,
        evolving the channel pools and ``cycles`` in scalar order. A
        declined op first replays the pending run (so ``cycles`` is
        current) and flushes the seam's tallies, then takes
        ``controller.access`` with that clock, exactly as the scalar loop
        would. The only skipped additions are ``+ 0.0`` terms (zero
        instruction gaps), which cannot change a non-negative accumulator
        bit pattern.
        """
        if start >= stop:
            return
        (
            llc_access, install_fast, hier_flush, ctrl_access, serve,
            server_flush, ctrl_batch, observe,
        ) = self._loop
        mlp = self.config.memory_level_parallelism
        walk = self._walk
        incs = walk.incs
        ends = walk.ends
        # Spans run in trace order; each access has one increment plus
        # one per non-zero gap.
        gaps = igaps[start:stop]
        pos = self._inc_pos
        last = self._inc_pos = pos + 2 * (stop - start) - gaps.count(0)
        first = bisect_right(ends, pos)
        after = bisect_right(ends, last)

        cycles = self.cycles
        ops = []
        append = ops.append
        for end, addr, kind, spill, victim in zip(
            ends[first:after], walk.addrs[first:after],
            walk.kinds[first:after], walk.spills[first:after],
            walk.victims[first:after],
        ):
            if ops:
                ops.extend(incs[pos:end])
            else:
                for inc in incs[pos:end]:
                    cycles += inc
            pos = end
            llc_miss, wbs = llc_access(addr, spill, victim, kind)
            if llc_miss:  # The controller serves it.
                is_write = kind == 3
                op = serve(addr, is_write)
                if op is not None:
                    append(op)
                    pls = op[6]
                    if pls:
                        for line_addr in pls:
                            wb = install_fast(line_addr)
                            if wb:
                                wop = serve(wb, True)
                                if wop is not None:
                                    append(wop)
                                else:
                                    cycles = ctrl_batch(ops, cycles, mlp)
                                    ops.clear()
                                    server_flush()
                                    ctrl_access(wb, True, cycles)
                else:
                    if ops:
                        cycles = ctrl_batch(ops, cycles, mlp)
                        ops.clear()
                    server_flush()
                    mem = ctrl_access(addr, is_write, cycles)
                    if not is_write:
                        # Writes are posted; only reads stall the core.
                        cycles += mem.latency_cycles / mlp
                    if observe is not None:
                        observe(mem)
                    pls = mem.prefetched_lines
                    if pls:
                        for line_addr in pls:
                            wb = install_fast(line_addr)
                            if wb:
                                ctrl_access(wb, True, cycles)
            if wbs is not None:
                for wb in wbs:
                    # Writebacks are posted ops: a deferred one replays at
                    # the exact clock the scalar call would have seen, so
                    # batch-safe writebacks extend the run instead of
                    # flushing it.
                    wop = serve(wb, True)
                    if wop is not None:
                        append(wop)
                    else:
                        if ops:
                            cycles = ctrl_batch(ops, cycles, mlp)
                            ops.clear()
                        server_flush()
                        ctrl_access(wb, True, cycles)
        if ops:
            ops.extend(incs[pos:last])
            cycles = ctrl_batch(ops, cycles, mlp)
            ops.clear()
        else:
            for inc in incs[pos:last]:
                cycles += inc
        server_flush()
        hier_flush()
        self.cycles = cycles
        self.instructions += sum(gaps) + (stop - start)

    # -------------------------------------------------------- result assembly
    def _finalize(
        self,
        trace,
        name: str,
        design: str,
        n: int,
        warmup_end: int,
        mark: Optional[Dict[str, float]],
        wall_start: float,
    ) -> SimResult:
        profiling = self.profiler.enabled
        tracker = getattr(self.controller, "tracker", None)
        if tracker is not None:
            tracker.finalize()
        # Deterministic tail flush: a traced run's JSONL sink holds every
        # event the moment the simulator finalizes, even if the caller
        # never closes the tracer (short runs used to lose buffered tail
        # events to the file object's write buffer).
        obs = getattr(self.controller, "obs", None)
        if obs is not None and obs.enabled:
            obs.flush()

        if mark is None:
            # Warmup covered the whole trace (or it was empty): the
            # measured window is empty and every delta below is zero.
            mark = self._snapshot()
        if profiling:
            phase = "measured" if warmup_end < n else "warmup"
            self.profiler.add(phase, perf_counter() - wall_start, calls=n - warmup_end)
            self.profiler.count(
                "measured_instructions",
                self.instructions - self.profiler.counters.get("warmup_instructions", 0),
            )
            self.profiler.count("accesses", n)
        end = self._snapshot()
        cases = {
            key[len("case_"):]: int(end.get(key, 0) - mark.get(key, 0))
            for key in end
            if key.startswith("case_")
        }
        # Energy for the measured window only: charging the whole run's
        # traffic would inflate the window's joules by the warmup share.
        energy = EnergyModel(self.controller.devices.timings).report_deltas(
            int(end["fast_read_bytes"] - mark["fast_read_bytes"]),
            int(end["fast_write_bytes"] - mark["fast_write_bytes"]),
            int(end["fast_ops"] - mark["fast_ops"]),
            int(end["slow_read_bytes"] - mark["slow_read_bytes"]),
            int(end["slow_write_bytes"] - mark["slow_write_bytes"]),
        )
        # Windowed extras: full-run rates would smear warmup transients
        # into the measurement window (e.g. cold-cache misses).
        d_llc_accesses = end["llc_accesses"] - mark["llc_accesses"]
        d_llc_misses = end["llc_misses"] - mark["llc_misses"]
        extra = {
            "llc_miss_rate": (
                d_llc_misses / d_llc_accesses if d_llc_accesses else 0.0
            ),
            "ctrl_commits": end["commits"] - mark["commits"],
        }
        return SimResult(
            name=name or getattr(trace, "name", ""),
            design=design or getattr(self.controller, "name", type(self.controller).__name__),
            instructions=int(end["instructions"] - mark["instructions"]),
            cycles=end["cycles"] - mark["cycles"],
            memory_accesses=int(end["mem_accesses"] - mark["mem_accesses"]),
            llc_misses=int(d_llc_misses),
            served_fast=int(end["served_fast"] - mark["served_fast"]),
            fast_traffic_bytes=int(end["fast_bytes"] - mark["fast_bytes"]),
            slow_traffic_bytes=int(end["slow_bytes"] - mark["slow_bytes"]),
            useful_bytes=int(end["useful_bytes"] - mark["useful_bytes"]),
            case_counts=cases,
            energy=energy,
            extra=extra,
        )

    def _snapshot(self) -> Dict[str, float]:
        devices = self.controller.devices
        stats = self.controller.stats
        fast_stats = devices.fast.stats
        slow_stats = devices.slow.stats
        llc_stats = self.hierarchy.llc.stats
        llc_misses = llc_stats.get("misses")
        snap: Dict[str, float] = {
            "instructions": float(self.instructions),
            "cycles": self.cycles,
            "mem_accesses": float(stats.get("accesses")),
            "served_fast": float(stats.get("served_fast")),
            "fast_bytes": float(devices.fast.total_bytes),
            "slow_bytes": float(devices.slow.total_bytes),
            "llc_misses": float(llc_misses),
            "llc_accesses": float(llc_stats.get("accesses")),
            # Useful bytes = demanded lines at the configured LLC line
            # granularity (the unit moved between memory and the LLC).
            "useful_bytes": float(llc_misses * self.hierarchy.llc.geometry.line_size),
            "commits": float(stats.get("commits")),
            "fast_read_bytes": float(fast_stats.get("read_bytes")),
            "fast_write_bytes": float(fast_stats.get("write_bytes")),
            "fast_ops": float(fast_stats.get("reads") + fast_stats.get("writes")),
            "slow_read_bytes": float(slow_stats.get("read_bytes")),
            "slow_write_bytes": float(slow_stats.get("write_bytes")),
        }
        for key, value in stats.as_dict().items():
            if key.startswith("case_"):
                snap[key] = float(value)
        return snap
