"""Layer tracer for the traced benchmark run.

``LayerTracer.install()`` wraps the public functions each ``repro``
package exposes to the layer above it, so every call into a layer is
timed from outside the program. Timing is stack based: a call's *self*
time is its duration minus the time of the wrapped calls it made, so the
self times of all layers add up to the time of the outermost call.

Two kinds of call are told apart:

* coarse calls (a plan, a cell, trace generation, one simulator run)
  each record a span ``{id, name, start, end, parent, trace_id}`` kept
  in memory until :meth:`LayerTracer.dump`;
* hot calls (one per simulated access: the SRAM hierarchy, the
  controller seam, the baseline controllers) only accumulate; when the
  enclosing ``sim.run`` span ends, each hot layer seen inside it is
  written as one aggregate span carrying ``self_s`` and ``calls``.

Spans of one cell (sweeps) or one query (serve) share a ``trace_id``.

The "core" seam metrics cover every controller that implements the
deferred batch seam (``BaryonController`` and ``SimpleCache``); scalar
``access`` calls on those controllers are ``core.fallback``. Controllers
without the seam (unison, dice, hybrid2) are timed as
``baselines.access``.
"""

from __future__ import annotations

import json
import threading
from collections import Counter, defaultdict
from time import perf_counter

#: Hot layers: aggregated per ``sim.run`` span instead of one span each.
HOT = ("cache.access", "core.classify", "core.serve", "core.replay",
       "core.fallback", "baselines.access")


class LayerTracer:
    def __init__(self) -> None:
        self.spans = []
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.deferred_by_trace = Counter()
        self._local = threading.local()
        self._next_id = 1
        self._id_lock = threading.Lock()

    # -- timing core --------------------------------------------------------
    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.hot = {}
            local.trace_id = None
        return local

    def _new_id(self) -> int:
        with self._id_lock:
            span_id = self._next_id
            self._next_id += 1
        return span_id

    def wrap(self, name, fn, trace_id=None):
        """``fn`` timed as layer ``name``. Outside any cell or query,
        ``trace_id(args, kwargs)`` names the one this call starts; inside
        one, the call joins it."""
        hot = name in HOT
        tracer = self

        def timed(*args, **kwargs):
            state = tracer._state()
            stack = state.stack
            outer_trace = state.trace_id
            if trace_id is not None and outer_trace is None:
                state.trace_id = trace_id(args, kwargs)
            span_id = None if hot else tracer._new_id()
            frame = [span_id, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                tracer.self_s[name] += duration - frame[1]
                tracer.total_s[name] += duration
                tracer.calls[name] += 1
                if stack:
                    stack[-1][1] += duration
                if hot:
                    agg = state.hot.get(name)
                    if agg is None:
                        state.hot[name] = [duration - frame[1], 1, start, end]
                    else:
                        agg[0] += duration - frame[1]
                        agg[1] += 1
                        agg[3] = end
                else:
                    parent = next(
                        (f[0] for f in reversed(stack) if f[0] is not None), None
                    )
                    tracer.spans.append({
                        "id": span_id, "name": name, "start": start,
                        "end": end, "parent": parent,
                        "trace_id": state.trace_id,
                        "self_s": duration - frame[1],
                    })
                    if name == "sim.run":
                        for hot_name, (busy, calls, first, last) in state.hot.items():
                            tracer.spans.append({
                                "id": tracer._new_id(), "name": hot_name,
                                "start": first, "end": last, "parent": span_id,
                                "trace_id": state.trace_id,
                                "self_s": busy, "calls": calls,
                            })
                        state.hot = {}
                state.trace_id = outer_trace

        timed.__wrapped__ = fn
        return timed

    # -- instrumentation ----------------------------------------------------
    def install_client(self) -> None:
        """Time the job-server client calls (the caller's side of serve)."""
        from repro.serve.client import ServeClient

        def job_id(args, kwargs):
            return args[1]

        ServeClient.submit = self.wrap("serve.submit", ServeClient.submit)
        ServeClient.job = self.wrap("serve.poll", ServeClient.job, job_id)
        ServeClient.results = self.wrap(
            "serve.results", ServeClient.results, job_id)

    def install(self) -> None:
        """Patch the layer entry points of an imported ``repro``."""
        import repro.analysis.experiments as experiments
        import repro.parallel as parallel
        import repro.parallel.runner as runner
        import repro.serve.jobs as jobs
        import repro.serve.server as server
        from repro.cache.hierarchy import CacheHierarchy
        from repro.sim.system import SystemSimulator
        from repro.workloads.base import Trace

        tracer = self
        runner.build_workload = self.wrap(
            "workloads.generate", runner.build_workload,
            trace_id=lambda a, k: f"trace:{a[0]}/{k.get('seed')}",
        )
        Trace.apply_compressibility = self.wrap(
            "compression.apply", Trace.apply_compressibility)
        experiments.run_cell = self.wrap(
            "analysis.run_cell", experiments.run_cell,
            trace_id=lambda a, k: f"{a[0]}/{a[1]}/{k.get('seed')}",
        )
        build_controller = experiments.build_controller

        def build_and_instrument(*args, **kwargs):
            return tracer._instrument_controller(build_controller(*args, **kwargs))

        experiments.build_controller = self.wrap(
            "analysis.build_controller", build_and_instrument)
        sim_run = SystemSimulator.run

        def run_and_count(sim, *args, **kwargs):
            result = sim_run(sim, *args, **kwargs)
            tracer._count_run(sim)
            return result

        SystemSimulator.run = self.wrap("sim.run", run_and_count)
        CacheHierarchy.access_fast = self.wrap(
            "cache.access", CacheHierarchy.access_fast)
        CacheHierarchy.install_llc_fast = self.wrap(
            "cache.access", CacheHierarchy.install_llc_fast)
        make_fast_path = CacheHierarchy.make_fast_path

        def timed_fast_path(hierarchy):
            closures = make_fast_path(hierarchy)
            if closures is None:
                return None
            return tuple(tracer.wrap("cache.access", fn) for fn in closures)

        CacheHierarchy.make_fast_path = timed_fast_path
        parallel.run_plan = self.wrap("parallel.run_plan", parallel.run_plan)
        jobs.run_plan = self.wrap("parallel.run_plan", jobs.run_plan)
        server.run_job = self.wrap(
            "serve.run_job", server.run_job, trace_id=lambda a, k: a[0].id)

    def _instrument_controller(self, controller):
        """Time the simulator's calls into one controller instance."""
        if not getattr(controller, "supports_batching", False):
            controller.access = self.wrap("baselines.access", controller.access)
            return controller
        tracer = self
        controller.access = self.wrap("core.fallback", controller.access)
        controller.access_batch = self.wrap("core.replay", controller.access_batch)
        controller.access_deferred = self._counting_serve(controller.access_deferred)
        make_classifier = getattr(controller, "make_run_classifier", None)
        if make_classifier is not None:
            def timed_classifier(*args, **kwargs):
                classifier = make_classifier(*args, **kwargs)
                if classifier is not None:
                    classifier.classify = tracer.wrap(
                        "core.classify", classifier.classify)
                return classifier

            controller.make_run_classifier = timed_classifier
        make_server = getattr(controller, "make_deferred_server", None)
        if make_server is not None:
            def timed_server(*args, **kwargs):
                closures = make_server(*args, **kwargs)
                if closures is None:
                    return None
                serve, flush, batch = closures
                return (tracer._counting_serve(serve),
                        tracer.wrap("core.serve", flush),
                        tracer.wrap("core.replay", batch))

            controller.make_deferred_server = timed_server
        return controller

    def _counting_serve(self, serve):
        timed = self.wrap("core.serve", serve)
        counts = self.counts
        by_trace = self.deferred_by_trace
        state = self._state

        def serve_and_count(*args):
            op = timed(*args)
            if op is not None:
                counts["core.deferred_ops"] += 1
                by_trace[state().trace_id] += 1
            return op

        return serve_and_count

    def _count_run(self, sim) -> None:
        """Fold one finished run's layer counters into :attr:`counts`."""
        from repro.core import BaryonController

        counts = self.counts
        hier = sim.hierarchy.stats
        for key in ("l1_hits", "l2_hits", "llc_hits"):
            counts[f"cache.{key}"] += hier.get(key)
        counts["cache.llc_demand_misses"] += hier.get("llc_misses")
        llc = sim.hierarchy.llc.stats
        counts["cache.llc_fills"] += llc.get("misses")
        counts["cache.writebacks"] += llc.get("writebacks")
        controller = sim.controller
        inner = getattr(controller, "_inner", controller)
        declines = getattr(inner, "deferred_declines", None)
        if declines is not None and getattr(controller, "supports_batching", False):
            counts["core.seam_requests"] += inner.stats.get("accesses")
            for reason, value in declines.items():
                counts[f"core.declines.{reason}"] += value
        if isinstance(inner, BaryonController):
            stats = inner.stats
            counts["core.commits"] += stats.get("commits")
            counts["core.evictions"] += stats.get("stage_evictions")
            counts["core.fast_evictions"] += (
                stats.get("fast_block_evictions")
                + stats.get("committed_range_evictions"))
        remap = getattr(inner, "remap_cache", None)
        if remap is not None:
            counts["metadata.remap_hits"] += remap.stats.get("hits")
            counts["metadata.remap_misses"] += remap.stats.get("misses")
        devices = inner.devices
        counts["devices.fast_bytes"] += devices.fast.total_bytes
        counts["devices.slow_bytes"] += devices.slow.total_bytes
        for device in (devices.fast, devices.slow):
            rows = device.row_buffer
            if rows is not None:
                counts["devices.row_hits"] += rows.stats.get("row_hits")
                counts["devices.row_misses"] += rows.stats.get("row_misses")

    # -- export -------------------------------------------------------------
    def snapshot(self) -> dict:
        return {
            "self_s": dict(self.self_s),
            "total_s": dict(self.total_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "deferred_by_trace": dict(self.deferred_by_trace),
        }

    def dump(self, path: str, process: str) -> None:
        """Append every span to ``path`` as one JSON line, tagged with the
        ``process`` that recorded it (span ids are unique per process)."""
        with open(path, "a", encoding="utf-8") as sink:
            for span in self.spans:
                sink.write(json.dumps({**span, "process": process},
                                      sort_keys=True) + "\n")
