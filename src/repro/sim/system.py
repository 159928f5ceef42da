"""The system simulator: drive a trace through caches into a controller."""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from typing import Dict, Optional

from repro.cache.hierarchy import CacheHierarchy
from repro.common.config import SimulationConfig
from repro.devices.energy import EnergyModel
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import NULL_SPANS, SpanTracer
from repro.sim.results import SimResult


#: The fast loop replays its pending run of deferred ops and cycle
#: increments once it holds more than this many entries, so a long
#: run's memory stays bounded. Replay boundaries never change results.
MAX_PENDING_OPS = 4096


class SystemSimulator:
    """Runs one (controller, trace) pair and produces a :class:`SimResult`.

    The controller is a :class:`~repro.core.seam.ServedSeam` (Baryon or
    a baseline): the scalar loop calls its ``access``, the fast loop its
    deferred seam. A fresh :class:`~repro.cache.hierarchy.CacheHierarchy` is
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
        records' LLC work. Every LLC miss and writeback takes the
        controller's *deferred seam*: each op is state-applied eagerly in
        trace order by the ``serve`` closure of ``make_deferred_server``
        and its channel timing replays in one ``access_batch`` call. No
        design's state depends on the clock, so ``serve`` takes every
        op, and every design's ``access`` is itself ``serve`` + ``flush``
        + a one-op replay. SimResults — cycles, counters, energy — and
        every hierarchy counter are bit-identical to the scalar loop (the
        float accumulation order of ``cycles`` is preserved operation for
        operation); ``tests/test_hotpath_equivalence.py`` and the golden
        corpus in ``tests/test_golden.py`` assert this.

    Watching a run never changes which code runs. Faults, recovery, the
    shadow checker, the phase tracker, quarantined super-blocks and the
    content oracle run inside ``serve``. An event tracer emits each op's
    ``access`` event when it replays, so while one is attached each op
    replays before the next is served and the event stream keeps the
    scalar loop's order. An attached ``metrics`` registry observes each
    demand op's latency and case at replay. Spans and progress
    callbacks only wrap or chunk the loop.

    Observability (all optional, all free when absent):

    ``metrics``
        A :class:`~repro.obs.metrics.MetricsRegistry`; the simulator
        registers a memory-latency histogram (one observation per demand
        LLC miss) plus windowed serve-rate and IPC time series sampled
        every ``metrics_window`` accesses.
    ``spans``
        A :class:`~repro.obs.spans.SpanTracer`, the simulator's only
        timer (``--profile`` prints its tree). The run is wrapped in a
        ``sim.run`` span; the fast loop adds ``sim.walk`` (the private
        L1/L2 walk, ``accesses`` walked, 0 on a memo hit) and the
        ``sim.warmup``/``sim.measured`` phase spans, each ending with
        its phase's ``instructions``. The scalar reference loop records
        the run span only.
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
        metrics_window: int = 1000,
        spans: Optional[SpanTracer] = None,
        progress=None,
        progress_every: int = 2048,
    ) -> None:
        self.controller = controller
        self.config = config or SimulationConfig()
        self.hierarchy = hierarchy or CacheHierarchy(self.config.hierarchy)
        self.metrics = metrics
        # A fresh tracer has no finished spans yet, so it is falsy.
        self.spans = spans if spans is not None else NULL_SPANS
        self._progress = progress
        self._progress_every = max(1, progress_every)
        self._run_span = None
        self._loop = None
        self._walk = None
        self._inc_pos = 0
        self.cycles = 0.0
        self.instructions = 0
        #: Demand ops the metrics observed, and those served fast.
        self._tally = [0, 0]
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
                mark = self._run_scalar(trace, n, warmup_end)
            else:
                mark = self._run_fast(trace, n, warmup_end)
            return self._finalize(trace, name, design, mark)
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
    ) -> Optional[Dict[str, float]]:
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

        observing = self.metrics is not None
        progress = self._progress
        progress_stride = self._progress_every
        served_fast = 0
        mem_seen = 0

        for i in range(n):
            if i == warmup_end:
                mark = self._snapshot()
            gap = int(igaps[i])
            self.instructions += gap + 1
            self.cycles += gap * base_cpi / threads

            addr = int(addrs[i])
            is_write = bool(writes[i])
            result = self.hierarchy.access(addr, is_write, int(cores[i]))
            self.cycles += result.latency_cycles / threads
            if result.llc_miss:
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

        if progress is not None and n % progress_stride:
            progress(n, n)
        return mark

    # ----------------------------------------------------- fast loop
    def _run_fast(
        self, trace, n: int, warmup_end: int
    ) -> Optional[Dict[str, float]]:
        """Segmented fast loop: warmup phase, boundary snapshot, measured
        phase. State effects are bit-identical to the scalar loop (see the
        class docstring)."""
        mark: Optional[Dict[str, float]] = None
        self._tally[:] = (0, 0)
        self._bind_loop(trace)
        igaps = trace.igaps
        igaps = igaps.tolist() if hasattr(igaps, "tolist") else list(igaps)
        if warmup_end:
            self._phase("sim.warmup", 0, warmup_end, igaps, n)
        if warmup_end < n:
            mark = self._snapshot()
            self._phase("sim.measured", warmup_end, n, igaps, n)
        self.hierarchy.add_walk_counts(self._walk)
        return mark

    def _phase(self, name: str, start: int, stop: int, igaps, total: int) -> None:
        """Run accesses ``[start, stop)`` in a ``name`` span that ends
        with the phase's instructions."""
        spans = self.spans
        span = spans.start(name, parent=self._run_span, accesses=stop - start)
        before = self.instructions
        self._segment(start, stop, igaps, total)
        spans.end(span, instructions=self.instructions - before)

    def _bind_loop(self, trace) -> None:
        """Bind the fast loop's callables and the trace's private walk
        once per run.

        The deferred seam is ``serve``, ``flush`` and ``batch``: the
        controller's ``make_deferred_server`` triple. ``serve_wb`` serves
        writebacks; it differs from ``serve`` only in a metered run
        (:meth:`_metered`). ``eager`` is set while an event tracer is
        attached (see the class docstring). The walk runs in a
        ``sim.walk`` span whose ``accesses`` counts the accesses walked
        (0 on a memo hit).
        """
        controller = self.controller
        walk, access, install, hier_flush = self.hierarchy.make_fast_path()
        serve, flush, batch = controller.make_deferred_server()
        serve_wb = serve
        if self.metrics is not None:
            serve, serve_wb, batch = self._metered(serve, batch)
        self._loop = (
            access, install, hier_flush, serve, serve_wb, flush, batch,
            controller.obs.enabled,
        )
        cfg = self.config
        spans = self.spans
        span = spans.start("sim.walk", parent=self._run_span)
        self._walk, walked = walk(
            trace.addrs, trace.writes, trace.igaps, trace.cores,
            cfg.base_cpi, max(1, cfg.hierarchy.cores),
        )
        spans.end(span, accesses=walked)
        self._inc_pos = 0

    def _metered(self, serve, batch):
        """``(serve, serve_wb, batch)`` that feed each demand op's
        latency and case to the metrics when it replays.

        Both serves queue whether their op is a demand op; ops replay in
        the order they were served, so the observer takes each op's flag
        from the queue's head. Writebacks are not observed, as in the
        scalar loop, and replay runs in trace order, so the histogram
        sums in the scalar order too.
        """
        demand = deque()
        flag = demand.append
        observe_latency = self._h_latency.observe
        tally = self._tally

        def serve_demand(addr, is_write):
            op = serve(addr, is_write)
            flag(True)
            return op

        def serve_wb(addr, is_write):
            op = serve(addr, is_write)
            flag(False)
            return op

        def observe(case, latency):
            if demand.popleft():
                observe_latency(latency)
                tally[0] += 1
                if case.fast:
                    tally[1] += 1

        def metered_batch(ops, cycles, mlp):
            return batch(ops, cycles, mlp, observe)

        return serve_demand, serve_wb, metered_batch

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
        mem_seen, served_fast = self._tally
        cycles = self.cycles
        for series, value in (
            (self._ts_serve, served_fast / mem_seen if mem_seen else 0.0),
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
        used on floats). Each record then does its LLC work: every LLC
        miss and writeback goes to the seam's ``serve`` and its op joins
        the pending run. One ``batch`` call replays a run of deferred ops
        and increments, evolving the channel pools and ``cycles`` in
        scalar order. The pending run is bounded: once it holds more than
        :data:`MAX_PENDING_OPS` entries, the next record boundary replays
        it; an ``eager`` (traced) run replays each op as soon as it is
        served. A replay boundary only decides when ``batch`` runs, not
        what it computes, so results do not depend on either. The only
        skipped additions are ``+ 0.0`` terms (zero instruction gaps),
        which cannot change a non-negative accumulator bit pattern.
        """
        if start >= stop:
            return
        (
            llc_access, install_fast, hier_flush, serve, serve_wb,
            server_flush, ctrl_batch, eager,
        ) = self._loop
        mlp = self.config.memory_level_parallelism
        max_pending = MAX_PENDING_OPS
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
            if len(ops) > max_pending:
                cycles = ctrl_batch(ops, cycles, mlp)
                ops.clear()
            if ops:
                ops.extend(incs[pos:end])
            else:
                for inc in incs[pos:end]:
                    cycles += inc
            pos = end
            llc_miss, wbs = llc_access(addr, spill, victim, kind)
            if llc_miss:  # The controller serves it.
                op = serve(addr, kind == 3)
                append(op)
                if eager:
                    cycles = ctrl_batch(ops, cycles, mlp)
                    ops.clear()
                pls = op[6]
                if pls:
                    for line_addr in pls:
                        wb = install_fast(line_addr)
                        if wb:
                            append(serve_wb(wb, True))
                            if eager:
                                cycles = ctrl_batch(ops, cycles, mlp)
                                ops.clear()
            if wbs is not None:
                for wb in wbs:
                    # Writebacks are posted ops: a deferred one replays at
                    # the exact clock the scalar call would have seen.
                    append(serve_wb(wb, True))
                    if eager:
                        cycles = ctrl_batch(ops, cycles, mlp)
                        ops.clear()
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
        mark: Optional[Dict[str, float]],
    ) -> SimResult:
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
