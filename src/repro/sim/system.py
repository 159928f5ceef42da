"""The system simulator: drive a trace through caches into a controller."""

from __future__ import annotations

from time import perf_counter
from typing import Dict, Optional, Tuple

from repro.cache.hierarchy import CacheHierarchy
from repro.common.config import SimulationConfig
from repro.core.columnar import CLS_DECLINE_STAGING_FETCH, DECLINE_REASONS
from repro.devices.energy import EnergyModel
from repro.obs.metrics import MetricsRegistry
from repro.obs.profiler import NULL_PROFILER, PhaseProfiler
from repro.obs.spans import NULL_SPANS, SpanTracer
from repro.sim.results import SimResult


def _decline(addr, is_write):
    """The seam of a controller without one: every op takes ``access``."""
    return None


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
    built per simulator unless one is injected.

    Two interchangeable per-access loops drive the trace:

    ``scalar``
        The original reference loop, kept verbatim: one
        :class:`~repro.cache.hierarchy.HierarchyResult` per access and one
        ``controller.access`` call per LLC miss and writeback.
    ``fast`` (default)
        Every other run. Trace arrays are converted to plain Python lists
        once and the hierarchy runs through its allocation-free closures
        (:meth:`~repro.cache.hierarchy.CacheHierarchy.make_fast_path`).
        LLC misses and writebacks take the controller's *deferred seam*
        when it has one: safe ops — reads, write hits that provably do
        not overflow, batch-safe writebacks — are state-applied eagerly
        in trace order and their channel timing replays in one
        ``access_batch`` call. For Baryon the ops are served by the
        inlined ``serve`` closure of ``make_deferred_server``, fed bulk
        verdicts by a numpy run classifier; without a server (a non-LRU
        fast area) they go through the per-op ``access_deferred``. Any
        unsafe op (staging cases, overflowing writes, block fills) first
        flushes the pending run and then takes ``controller.access`` with
        the current clock; without the seam every miss and writeback
        does. SimResults — cycles, counters, energy — are bit-identical
        to the scalar loop (the float accumulation order of ``cycles`` is
        preserved operation for operation);
        ``tests/test_hotpath_equivalence.py`` and the golden corpus in
        ``tests/test_golden.py`` assert this.

    The seam has two vetoes. The controller's ``supports_batching`` is
    false while a per-access observer of its own is attached — fault
    injection, recovery, the shadow checker, the phase tracker, the
    content oracle or event tracing all hook the scalar ``access`` flow —
    and always for unison, dice and hybrid2. An attached ``metrics``
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

        self._loop = self._bind_loop(trace.addrs, trace.writes)
        # One bulk conversion: list indexing beats numpy scalar reads in
        # a Python loop, and ``tolist`` yields native int/bool objects.
        addrs, writes, igaps, cores = (
            arr.tolist() if hasattr(arr, "tolist") else list(arr)
            for arr in (trace.addrs, trace.writes, trace.igaps, trace.cores)
        )

        spans = self.spans
        wall_start = perf_counter() if profiling else 0.0
        phase_span = (
            spans.start("sim.warmup", parent=self._run_span, accesses=warmup_end)
            if spans.enabled and warmup_end else None
        )
        self._segment(0, warmup_end, addrs, writes, igaps, cores, n)
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
            self._segment(warmup_end, n, addrs, writes, igaps, cores, n)
            if phase_span is not None:
                spans.end(phase_span)
        for row, (seconds, calls) in self._timers.items():
            if calls:
                self.profiler.add(row, seconds, calls=calls)
        return mark, wall_start

    def _bind_loop(self, addrs, writes) -> tuple:
        """Bind the fast loop's callables once per run.

        The deferred seam (``serve``/``defer``, ``flush``, ``batch``) is
        bound only when neither veto applies (see the class docstring);
        otherwise ``defer`` declines every op. The run classifier is
        built only for a server, its one consumer. A profiler wraps every
        bound hierarchy and controller callable here, so the loop itself
        has no profiling branch.
        """
        controller = self.controller
        hierarchy = self.hierarchy
        fast_path = hierarchy.make_fast_path()
        if fast_path is None:
            # Non-LRU levels: the bound methods, with no tallies to fold.
            fast_path = (hierarchy.access_fast, hierarchy.install_llc_fast, None)
        access, install, hier_flush = fast_path
        ctrl_access = controller.access
        defer = _decline
        serve = flush = batch = classifier = classify = None
        if self.metrics is None and getattr(controller, "supports_batching", False):
            make_server = getattr(controller, "make_deferred_server", None)
            server = make_server() if make_server is not None else None
            if server is not None:
                serve, flush, batch = server
                classifier = controller.make_run_classifier(addrs, writes)
                if classifier is not None:
                    classify = classifier.classify
            else:
                defer = controller.access_deferred
                batch = controller.access_batch
        if self.profiler.enabled:
            hier = [0.0, 0]
            ctrl = [0.0, 0]
            self._timers = {"hierarchy": hier, "controller": ctrl}
            access = _timed(hier, access)
            install = _timed(hier, install)
            ctrl_access, serve, flush, batch, classify = (
                None if fn is None else _timed(ctrl, fn)
                for fn in (ctrl_access, serve, flush, batch, classify)
            )
            if defer is not _decline:
                defer = _timed(ctrl, defer)
        observe = self._observe_miss if self.metrics is not None else None
        return (
            access, install, hier_flush, ctrl_access, defer, serve, flush,
            batch, classifier, classify, observe,
        )

    def _observe_miss(self, mem) -> None:
        """Metrics for one demand miss served by ``controller.access``."""
        self._h_latency.observe(mem.latency_cycles)
        self._mem_seen += 1
        if mem.served_fast:
            self._served_fast += 1

    def _segment(
        self, start: int, stop: int, addrs, writes, igaps, cores, total: int
    ) -> None:
        """One warmup/measured segment, in chunks that end at progress
        reports and series sampling ticks when those are attached."""
        progress = self._progress
        metered = self.metrics is not None
        if progress is None and not metered:
            self._fast_span(start, stop, addrs, writes, igaps, cores)
            return
        stride = self._progress_every
        report = start + stride if progress is not None else stop
        pos = start
        while pos < stop:
            end = min(stop, report)
            if metered:
                end = min(end, pos + self._until_sample())
            self._fast_span(pos, end, addrs, writes, igaps, cores)
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

    def _fast_span(
        self, start: int, stop: int, addrs, writes, igaps, cores
    ) -> None:
        """Run accesses ``[start, stop)`` through the fast loop.

        Deferred ops accumulate in ``ops`` together with the interleaved
        core-side cycle increments; one ``batch`` call replays the run,
        evolving the channel pools and the ``cycles`` accumulator in the
        scalar loop's exact float operation order. A declined op first
        flushes the pending run (so ``cycles`` is current) and then takes
        ``controller.access`` with that clock, exactly as the scalar loop
        would. The only skipped additions are ``+ 0.0`` terms (zero
        instruction gaps), which cannot change a non-negative accumulator
        bit pattern, and the precomputed L1 quotient equals the
        per-access division bit for bit.

        With a run classifier attached, verdicts for chunks of future
        trace indices are precomputed in one numpy gather pass. Accepts
        and per-op verdicts go to ``serve`` (which revalidates accepts
        against the classifier's dirty set); staging fetches and stale
        declines are served inline by ``serve`` too; the remaining
        pre-resolved declines skip classification entirely (the
        per-reason decline counter is charged here). Every op is still
        served in exact trace order, so state and cycles stay
        bit-identical.
        """
        if start >= stop:
            return
        (
            access_fast, install_fast, hier_flush, ctrl_access, ctrl_deferred,
            serve, server_flush, ctrl_batch, classifier, classify, observe,
        ) = self._loop
        cfg = self.config
        base_cpi = cfg.base_cpi
        mlp = cfg.memory_level_parallelism
        threads = max(1, cfg.hierarchy.cores)
        l1_div = self.hierarchy.config.l1d.latency_cycles / threads
        if classifier is not None:
            declines = self.controller.deferred_declines
            reason_of = DECLINE_REASONS
            sf_code = CLS_DECLINE_STAGING_FETCH
            dirty = classifier.dirty_blocks
            block_size = classifier.block_size
            chunk = classifier.chunk
            codes = None
            cls_base = cls_end = start

        cycles = self.cycles
        instructions = self.instructions
        ops = []
        append = ops.append
        # zip over list slices: one C-level iteration replaces four
        # per-element list index reads in the hottest Python loop.
        i = start - 1
        for addr, is_write, gap, core in zip(
            addrs[start:stop], writes[start:stop],
            igaps[start:stop], cores[start:stop],
        ):
            i += 1
            instructions += gap + 1
            if gap:
                g = gap * base_cpi / threads
                if ops:
                    append(g)
                else:
                    cycles += g
            outcome = access_fast(addr, is_write, core)
            if outcome is None:
                if ops:
                    append(l1_div)
                else:
                    cycles += l1_div
                continue
            h = outcome[1] / threads
            if ops:
                append(h)
            else:
                cycles += h
            if outcome[2]:  # LLC miss: the controller serves it.
                if serve is None:
                    op = ctrl_deferred(addr, is_write)
                elif classifier is None:
                    op = serve(addr, is_write, 0, 0)
                else:
                    if i >= cls_end:
                        cls_base = i
                        cls_end = min(stop, i + chunk)
                        codes, auxes = classify(cls_base, cls_end)
                    code = codes[i - cls_base]
                    if code > 0:
                        # serve() rechecks the dirty set itself (it already
                        # has block_id in hand) before trusting the verdict.
                        op = serve(addr, is_write, code, auxes[i - cls_base])
                    elif code == 0:
                        op = serve(addr, is_write, 0, 0)
                    elif code == sf_code or addr // block_size in dirty:
                        # Staging fetches serve inline (the closure runs
                        # the real fetch-and-stage with its transfers
                        # captured for replay); stale pre-resolved
                        # declines re-classify inline the same way.
                        op = serve(addr, is_write, 0, 0)
                    else:
                        declines[reason_of[code]] += 1
                        op = None
                if op is not None:
                    append(op)
                    pls = op[6]
                    if pls:
                        for line_addr in pls:
                            wb = install_fast(line_addr)
                            if wb:
                                wop = (
                                    serve(wb, True, 0, 0)
                                    if serve is not None
                                    else ctrl_deferred(wb, True)
                                )
                                if wop is not None:
                                    append(wop)
                                else:
                                    cycles = ctrl_batch(ops, cycles, mlp)
                                    ops.clear()
                                    if server_flush is not None:
                                        server_flush()
                                    ctrl_access(wb, True, cycles)
                else:
                    if ops:
                        cycles = ctrl_batch(ops, cycles, mlp)
                        ops.clear()
                    if server_flush is not None:
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
            wbs = outcome[3]
            if wbs is not None:
                for wb in wbs:
                    # Writebacks are posted ops: a deferred one replays at
                    # the exact clock the scalar call would have seen, so
                    # batch-safe writebacks extend the run instead of
                    # flushing it.
                    wop = (
                        serve(wb, True, 0, 0)
                        if serve is not None
                        else ctrl_deferred(wb, True)
                    )
                    if wop is not None:
                        append(wop)
                    else:
                        if ops:
                            cycles = ctrl_batch(ops, cycles, mlp)
                            ops.clear()
                        if server_flush is not None:
                            server_flush()
                        ctrl_access(wb, True, cycles)
        if ops:
            cycles = ctrl_batch(ops, cycles, mlp)
            ops.clear()
        if server_flush is not None:
            server_flush()
        if hier_flush is not None:
            hier_flush()
        self.cycles = cycles
        self.instructions = instructions

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
