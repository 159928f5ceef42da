"""Process-pool execution of experiment matrix plans.

The runner turns a deterministic cell plan (:mod:`repro.parallel.plan`)
into a :class:`MatrixOutcome`:

* cells are dispatched to a ``fork`` process pool (``jobs`` workers);
  each worker serializes its :class:`~repro.sim.results.SimResult` and
  per-component counter snapshots back as plain dicts (pickle-free
  payloads, transport-agnostic);
* the parent folds the shards with the ``CounterGroup.merge`` /
  ``RatioStat.merge`` aggregation APIs.

Crash safety (``repro.resilience``):

* a cell that raises comes back as a **tagged error payload** carrying
  the worker's formatted traceback instead of poisoning the fold;
* every cell has a **deadline** (``cell_timeout_s``): a worker killed
  mid-cell (its task is silently lost by ``multiprocessing.Pool``) is
  detected when the deadline lapses and the cell is **requeued**, up to
  ``max_attempts`` total attempts — exhausted cells land in
  ``MatrixOutcome.failed`` rather than aborting the matrix;
* with ``checkpoint=path`` the parent durably rewrites a fingerprinted
  checkpoint after every finished cell, and ``resume=path`` preloads
  finished cells from it — salvaging digest-verified cells out of a
  torn/corrupted file — so an interrupted sweep continues where it
  died and reproduces the uninterrupted matrix exactly (every cell is a
  pure function of its own seed).

Service-grade hardening (exercised by ``repro chaos-soak``):

* **hung-worker detection** distinct from dead: a cell whose heartbeats
  keep arriving while ``done`` stays flat past ``progress_timeout_s`` is
  requeued with reason ``WorkerHungError`` instead of waiting out the
  full dead-worker deadline;
* a **poison-cell circuit breaker**: a cell that violently takes down
  ``quarantine_after`` consecutive workers is set aside in
  ``MatrixOutcome.quarantined`` with its partial progress — degraded
  result, not a failed sweep;
* a **global retry budget** (``retry_budget``) across all cells, with
  exponential backoff + deterministic jitter (``backoff_base_s``)
  between a cell's attempts;
* **graceful SIGINT/SIGTERM** (``handle_signals=True``): stop
  dispatching, drain in-flight cells within a bounded grace window,
  leave a resumable checkpoint, report ``MatrixOutcome.interrupted``;
* an **end-of-run integrity audit** re-verifying the merged counters
  and per-cell results against the manifest's SHA-256 digests
  (``MatrixOutcome.audit``).

Everything the orchestration layer itself does is counted in
``MatrixOutcome.orchestration`` (requeues by reason, quarantines,
checkpoint write failures, salvage results, injected chaos).

When ``jobs <= 1``, the plan has a single cell, or the platform lacks
``fork`` (e.g. some macOS/Windows configurations), the same dispatch
loop runs each cell in-process, one at a time — results are identical
either way because every cell derives all randomness from its own seed.
"""

from __future__ import annotations

import multiprocessing
import os
import queue as queue_mod
import signal
import threading
import traceback
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from time import monotonic, perf_counter, sleep
from time import time as _wall
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.common.config import BaryonConfig, SimulationConfig
from repro.common.errors import CheckpointCorruptError, ConfigurationError
from repro.common.fsio import remove_stale_temps
from repro.common.stats import CounterGroup, RatioStat
from repro.obs.aggregate import merge_snapshot
from repro.obs.manifest import (
    audit_manifest,
    build_manifest,
    load_manifest,
    result_digests,
    write_manifest,
)
from repro.obs.metrics import MetricsRegistry
from repro.obs.progress import make_heartbeat
from repro.obs.spans import NULL_SPANS, Span, SpanTracer
from repro.parallel.plan import Cell
from repro.parallel.telemetry import SweepTelemetry, WorkerTelemetry
from repro.resilience.chaos import (
    ChaosInjector,
    ChaosPlan,
    WorkerChaos,
    write_effect_mutator,
)
from repro.resilience.checkpoint import (
    load_checkpoint,
    plan_fingerprint,
    salvage_checkpoint,
    write_checkpoint,
)
from repro.resilience.recovery import requeue_backoff_s
from repro.sim.results import SimResult
from repro.workloads import build_workload
from repro.workloads.base import Trace

#: Bound on the per-process trace cache (distinct (workload, seed,
#: length, capacity) streams kept alive at once).
TRACE_CACHE_CAPACITY = 32

#: Default wall-clock budget per cell attempt. Deliberately generous —
#: it includes pool queue wait, and its job is dead-worker detection,
#: not fine-grained scheduling.
DEFAULT_CELL_TIMEOUT_S = 600.0

_trace_cache: "OrderedDict[Tuple, Trace]" = OrderedDict()

# The heartbeat queue installed by the pool initializer. This is the
# only per-worker state bound at fork time: everything else a cell
# needs (configs, access count, telemetry spec) travels inside each
# submitted task, so one long-lived pool can serve differently
# configured jobs back to back.
_worker_beat_queue = None


def fork_available() -> bool:
    """True when the platform supports ``fork`` worker processes."""
    return "fork" in multiprocessing.get_all_start_methods()


def resolve_jobs(jobs: Optional[int], n_cells: int) -> int:
    """Effective worker count: clamp to the plan size, fall back to
    in-process execution when parallelism is unavailable or pointless."""
    if jobs is None or jobs <= 0:
        jobs = os.cpu_count() or 1
    if jobs <= 1 or n_cells <= 1 or not fork_available():
        return 1
    return min(jobs, n_cells)


def clear_trace_cache() -> None:
    """Drop the process-local trace cache (tests and benchmarks)."""
    _trace_cache.clear()


def _cell_trace(
    cell: Cell, config: BaryonConfig, n_accesses: int
) -> Tuple[Trace, bool]:
    """The cell's replay stream, generated at most once per process.

    Returns ``(replay_view, generated)`` — the view is immutable, so a
    cached stream cannot be perturbed by one design before another
    replays it.
    """
    key = (*cell.trace_key, n_accesses, config.layout.fast_capacity)
    cached = _trace_cache.get(key)
    generated = cached is None
    if cached is None:
        cached = build_workload(
            cell.workload,
            config.layout.fast_capacity,
            n_accesses=n_accesses,
            seed=cell.seed,
        )
        _trace_cache[key] = cached
        if len(_trace_cache) > TRACE_CACHE_CAPACITY:
            _trace_cache.popitem(last=False)
    else:
        _trace_cache.move_to_end(key)
    return cached.replay_view(), generated


def _execute_cell(
    cell: Cell,
    config: BaryonConfig,
    sim_config: SimulationConfig,
    n_accesses: int,
    attempt: int = 1,
    telemetry: Optional[WorkerTelemetry] = None,
    beat=None,
) -> Dict[str, Any]:
    """Run one cell and package its result + counter shards as dicts.

    ``attempt`` is 1-based and carries no semantics here — the cell is a
    pure function of its seed, so a retry is bit-identical — but it lets
    fault-injection test doubles behave attempt-dependently.

    ``telemetry`` (a :class:`~repro.parallel.telemetry.WorkerTelemetry`)
    turns on worker-side spans and/or a private metrics registry; both
    travel home inside the payload (``"spans"``/``"metrics"`` keys,
    absent on untelemetered runs). ``beat`` is a callable receiving one
    heartbeat dict every ``telemetry.heartbeat_every`` accesses.
    """
    from repro.analysis.experiments import run_cell

    spans = NULL_SPANS
    registry = None
    if telemetry is not None:
        if telemetry.spans:
            spans = SpanTracer(origin=f"c{cell.index}a{attempt}")
        if telemetry.metrics:
            registry = MetricsRegistry()
    progress = None
    heartbeat_every = telemetry.heartbeat_every if telemetry is not None else 0
    # Worker-side orchestration chaos (kills, hangs, heartbeat loss)
    # rides the heartbeat path.
    chaos_plan = telemetry.chaos if telemetry is not None else None
    if beat is not None and chaos_plan is not None and chaos_plan.wants_worker_chaos:
        worker_chaos = WorkerChaos(chaos_plan, cell.index, attempt)

        def beat(event, _chaos=worker_chaos, _emit=beat):
            _chaos.on_beat(_emit, event)

    if beat is not None and heartbeat_every > 0:
        cell_start = perf_counter()
        pid = os.getpid()

        def progress(done: int, total: int, _cell=cell, _attempt=attempt) -> None:
            try:
                beat(make_heartbeat(
                    _cell, _attempt, done, total,
                    perf_counter() - cell_start, pid,
                ))
            except Exception:
                pass  # a torn heartbeat channel must never fail the cell

    with spans.span("cell.trace", workload=cell.workload, seed=cell.seed):
        trace, generated = _cell_trace(cell, config, n_accesses)
    if progress is not None:
        progress(0, n_accesses)
    result, controller = run_cell(
        cell.workload,
        cell.design,
        config,
        sim_config,
        n_accesses=n_accesses,
        seed=cell.seed,
        trace=trace,
        metrics=registry,
        spans=spans if spans.enabled else None,
        progress=progress,
        progress_every=heartbeat_every if heartbeat_every > 0 else 2048,
    )
    devices: Dict[str, int] = {}
    if getattr(controller, "devices", None) is not None:
        for device in (controller.devices.fast, controller.devices.slow):
            for key, value in device.stats.as_dict().items():
                devices[f"{device.name}.{key}"] = value
    compression: Dict[str, int] = {}
    engine = getattr(getattr(controller, "oracle", None), "engine", None)
    if engine is not None:
        compression = engine.stats.as_dict()
    resilience: Dict[str, int] = {}
    for attr, prefix in (("faults", "fault"), ("recovery", "recovery"), ("checker", "checker")):
        component = getattr(controller, attr, None)
        if component is not None:
            for key, value in component.stats.as_dict().items():
                resilience[f"{prefix}.{key}"] = value
    payload: Dict[str, Any] = {
        "index": cell.index,
        "result": result.to_dict(),
        "controller": controller.stats.as_dict(),
        "devices": devices,
        "compression": compression,
        "resilience": resilience,
        "generated_trace": generated,
    }
    if spans.enabled:
        # Resilience activity surfaces as span events on a summary span,
        # so faults/recoveries are visible in the sweep tree without a
        # separate record type.
        summary = spans.start("cell.collect", index=cell.index)
        for key, value in sorted(resilience.items()):
            if value:
                spans.event(summary, f"resilience.{key}", count=value)
        spans.end(summary)
        payload["spans"] = spans.export()
    if registry is not None:
        payload["metrics"] = registry.to_json()
    return payload


def _error_payload(index: int, attempt: int, err: BaseException,
                   traceback_text: Optional[str]) -> Dict[str, Any]:
    return {
        "index": index,
        "error": {
            "type": type(err).__name__,
            "message": str(err),
            "traceback": traceback_text,
            "attempt": attempt,
        },
    }


def _safe_execute(
    cell: Cell,
    config: BaryonConfig,
    sim_config: SimulationConfig,
    n_accesses: int,
    attempt: int,
    telemetry: Optional[WorkerTelemetry] = None,
    beat=None,
) -> Dict[str, Any]:
    """Run one cell; exceptions become tagged error payloads with the
    worker-side traceback, never a poisoned fold."""
    try:
        return _execute_cell(
            cell, config, sim_config, n_accesses, attempt,
            telemetry=telemetry, beat=beat,
        )
    except Exception as err:
        return _error_payload(cell.index, attempt, err, traceback.format_exc())


def _init_worker(beat_queue=None) -> None:
    # Forked workers inherit the parent's signal disposition, including
    # any _InterruptGuard handler — which would swallow the SIGTERM that
    # Pool.terminate() sends and deadlock the pool's join. Restore the
    # default SIGTERM action and ignore SIGINT (a terminal ^C signals
    # the whole foreground group; the parent alone drains gracefully).
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    global _worker_beat_queue
    _worker_beat_queue = beat_queue


def _worker_cell(task: Tuple) -> Dict[str, Any]:
    """Pool-side entry point: unpack one self-contained task.

    ``task`` is ``(cell, attempt, config, sim_config, n_accesses,
    worker-telemetry spec)`` — the full execution context, so the pool
    itself is job-agnostic. Beats flow only when the task's spec asks
    for them; an untelemetered task on a queue-bearing pool emits none.
    """
    cell, attempt, config, sim_config, n_accesses, spec = task
    beat = (
        _worker_beat_queue.put
        if _worker_beat_queue is not None
        and spec is not None
        and spec.heartbeat_every > 0
        else None
    )
    return _safe_execute(
        cell, config, sim_config, n_accesses, attempt,
        telemetry=spec, beat=beat,
    )


class _ImmediateHandle:
    """AsyncResult-shaped wrapper for a synchronously computed payload."""

    __slots__ = ("_value",)

    def __init__(self, value: Dict[str, Any]) -> None:
        self._value = value

    def ready(self) -> bool:
        return True

    def get(self, timeout: Optional[float] = None) -> Dict[str, Any]:
        return self._value


class CellExecutor:
    """Runs plan cells; owns (or forgoes) the fork process pool.

    This splits "run a cell" from "own the process pool":
    :func:`run_plan` builds a private executor per sweep by default —
    exactly the historical behavior — while a long-running service
    constructs one ``CellExecutor`` and passes it to every job's
    ``run_plan`` call. The pool and its heartbeat queue then persist
    across jobs, and each submitted task carries its own
    ``(config, sim_config, n_accesses, telemetry spec)``, so
    back-to-back jobs may differ in everything but the worker count.

    ``jobs <= 1`` — or a platform without ``fork`` — yields an
    in-process executor (``pooled`` is False) that owns no pool.
    :func:`run_plan` drives both kinds through the same dispatch loop;
    on an in-process executor the loop runs each cell itself, one at a
    time with live heartbeats, so :meth:`submit` serves pooled
    executors only.
    """

    def __init__(self, jobs: Optional[int] = 1) -> None:
        workers = jobs if jobs is not None and jobs > 0 else (os.cpu_count() or 1)
        if workers > 1 and not fork_available():
            workers = 1
        self.workers = workers
        self.beat_queue = None
        self.closed = False
        self._pool = None
        if workers > 1:
            ctx = multiprocessing.get_context("fork")
            self.beat_queue = ctx.Queue()
            self._pool = ctx.Pool(
                processes=workers,
                initializer=_init_worker,
                initargs=(self.beat_queue,),
            )

    @property
    def pooled(self) -> bool:
        return self._pool is not None

    def submit(
        self,
        cell: Cell,
        config: BaryonConfig,
        sim_config: SimulationConfig,
        n_accesses: int,
        attempt: int = 1,
        spec: Optional[WorkerTelemetry] = None,
    ):
        """Dispatch one cell attempt to the pool; returns its
        ``AsyncResult`` (``ready()``/``get()``)."""
        if self.closed:
            raise RuntimeError("submit() on a closed CellExecutor")
        if self._pool is None:
            raise RuntimeError("submit() on an in-process CellExecutor")
        task = (cell, attempt, config, sim_config, n_accesses, spec)
        return self._pool.apply_async(_worker_cell, (task,))

    def discard_beats(self) -> int:
        """Drop queued heartbeats; returns how many were dropped.

        A job that abandons in-flight cells (interrupt grace expired)
        can leave stale workers beating into the shared queue — the next
        job on this executor must not let those refresh its deadlines.
        """
        if self.beat_queue is None:
            return 0
        dropped = 0
        while True:
            try:
                self.beat_queue.get_nowait()
            except (queue_mod.Empty, OSError, EOFError):
                return dropped
            dropped += 1

    def close(self) -> None:
        """Terminate the pool and tear down the heartbeat channel."""
        if self.closed:
            return
        self.closed = True
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
        if self.beat_queue is not None:
            self.beat_queue.close()
            self.beat_queue.join_thread()

    def __enter__(self) -> "CellExecutor":
        return self

    def __exit__(self, *exc) -> bool:
        self.close()
        return False


class _RetryBudget:
    """Global requeue allowance across the whole plan (``None`` = ∞).

    One budget object is shared by every cell: a sweep where many cells
    flake burns the budget fast and fails loudly instead of retrying
    forever — a service-side guard, distinct from per-cell
    ``max_attempts``.
    """

    def __init__(self, limit: Optional[int]) -> None:
        self.limit = limit
        self.used = 0

    def take(self) -> bool:
        if self.limit is not None and self.used >= self.limit:
            return False
        self.used += 1
        return True


class _Inflight:
    """Book-keeping for one submitted cell attempt.

    Two independent deadlines hang off it: *dead* (no heartbeat at all
    for ``cell_timeout_s`` — the worker's process is gone) and *hung*
    (beats keep arriving but ``done`` never advances for
    ``progress_timeout_s`` — the worker is alive but stalled).
    """

    __slots__ = (
        "attempt", "handle", "submitted_t",
        "last_beat_t", "last_done", "last_total", "last_progress_t",
    )

    def __init__(self, attempt: int, handle, now: float) -> None:
        self.attempt = attempt
        self.handle = handle
        self.submitted_t = now
        self.last_beat_t = now
        self.last_done = -1  # no beat seen yet
        self.last_total = 0
        self.last_progress_t = now

    def note_beat(self, event: Dict[str, Any], now: float) -> bool:
        """Fold one heartbeat in; returns ``True`` when it refreshed the
        deadlines. A beat from a superseded attempt must NOT reset the
        current attempt's deadline — only an exact attempt match counts
        (the stale worker of a requeued cell may beat for a long time).
        """
        if event.get("attempt") != self.attempt:
            return False
        self.last_beat_t = now
        done = event.get("done")
        if isinstance(done, int) and done > self.last_done:
            self.last_done = done
            self.last_progress_t = now
        total = event.get("total")
        if isinstance(total, int):
            self.last_total = total
        return True

    def dead(self, now: float, cell_timeout_s: float) -> bool:
        return now > self.last_beat_t + cell_timeout_s

    def hung(self, now: float, progress_timeout_s: Optional[float]) -> bool:
        """Stalled progress with a live heartbeat stream. Requires at
        least one beat (queue wait is not a stall) and beats recent
        enough that the dead path is not the right diagnosis."""
        if progress_timeout_s is None or self.last_done < 0:
            return False
        return (
            now > self.last_progress_t + progress_timeout_s
            and now - self.last_beat_t <= progress_timeout_s
        )


@dataclass
class MatrixOutcome:
    """Results of a plan plus merged counter shards and runner telemetry.

    ``counters``/``device_counters``/``compression_counters``/
    ``resilience_counters`` are the fold of every cell's per-component
    snapshots through :meth:`~repro.common.stats.CounterGroup.merge`;
    ``serve`` merges the per-cell served-fast ratios with
    :meth:`~repro.common.stats.RatioStat.merge`. ``traces_generated``
    counts actual generations — ``cells - traces_generated`` streams
    were replayed from cache. ``failed`` maps a cell key to its final
    error record (type, message, worker traceback, attempts) for cells
    that exhausted their retry budget; ``retries`` counts requeued
    attempts and ``resumed`` counts cells preloaded from a checkpoint.

    ``metrics`` is the cross-shard
    :class:`~repro.obs.metrics.MetricsRegistry` — every worker
    registry's snapshot folded with a ``shard`` label (the cell's plan
    index) through :func:`repro.obs.aggregate.merge_snapshot` — present
    only when the sweep ran with
    :attr:`~repro.parallel.telemetry.SweepTelemetry.collect_metrics`.
    """

    results: Dict[Tuple, SimResult] = field(default_factory=dict)
    counters: CounterGroup = field(
        default_factory=lambda: CounterGroup("matrix.controller")
    )
    device_counters: CounterGroup = field(
        default_factory=lambda: CounterGroup("matrix.devices")
    )
    compression_counters: CounterGroup = field(
        default_factory=lambda: CounterGroup("matrix.compression")
    )
    resilience_counters: CounterGroup = field(
        default_factory=lambda: CounterGroup("matrix.resilience")
    )
    serve: RatioStat = field(default_factory=lambda: RatioStat("matrix.serve"))
    failed: Dict[Tuple, Dict[str, Any]] = field(default_factory=dict)
    cells: int = 0
    jobs: int = 1
    elapsed_s: float = 0.0
    traces_generated: int = 0
    retries: int = 0
    resumed: int = 0
    metrics: Optional[MetricsRegistry] = None
    #: Cells set aside by the poison-cell circuit breaker: key → record
    #: with the failure reasons and the last observed partial progress.
    quarantined: Dict[Tuple, Dict[str, Any]] = field(default_factory=dict)
    #: True when SIGINT/SIGTERM (or injected interrupt chaos) stopped
    #: the sweep before every cell finished; the checkpoint is resumable.
    interrupted: bool = False
    #: Cells recovered out of a damaged checkpoint on resume.
    salvaged: int = 0
    #: What the orchestration layer itself did: requeues by reason,
    #: quarantines, checkpoint write errors, salvage, injected chaos.
    orchestration: CounterGroup = field(
        default_factory=lambda: CounterGroup("matrix.orchestration")
    )
    #: End-of-run integrity audit vs the manifest on disk (``None`` when
    #: no manifest was written).
    audit: Optional[Dict[str, Any]] = None


def _group(name: str, snapshot: Dict[str, int]) -> CounterGroup:
    group = CounterGroup(name)
    for key, value in snapshot.items():
        group.inc(key, value)
    return group


def _fold(
    plan: Sequence[Cell],
    payloads: List[Dict[str, Any]],
    jobs: int,
    elapsed_s: float,
) -> MatrixOutcome:
    outcome = MatrixOutcome(cells=len(plan), jobs=jobs, elapsed_s=elapsed_s)
    by_index = {cell.index: cell for cell in plan}
    for payload in payloads:
        cell = by_index[payload["index"]]
        result = SimResult.from_dict(payload["result"])
        outcome.results[cell.key] = result
        outcome.counters.merge(_group("cell", payload["controller"]))
        outcome.device_counters.merge(_group("cell", payload["devices"]))
        outcome.compression_counters.merge(_group("cell", payload["compression"]))
        outcome.resilience_counters.merge(
            _group("cell", payload.get("resilience", {}))
        )
        shard = RatioStat("cell")
        shard.hits = result.served_fast
        shard.total = result.memory_accesses
        outcome.serve.merge(shard)
        outcome.traces_generated += bool(payload["generated_trace"])
        snapshot = payload.get("metrics")
        if snapshot:
            if outcome.metrics is None:
                outcome.metrics = MetricsRegistry()
            merge_snapshot(outcome.metrics, snapshot, shard=str(cell.index))
    return outcome


def _telemetry_parts(telemetry: Optional[SweepTelemetry]):
    """``(span tracer, progress tracker, worker spec)`` with the null
    tracer standing in when spans are off."""
    if telemetry is None:
        return NULL_SPANS, None, None
    spans = telemetry.spans if telemetry.spans is not None else NULL_SPANS
    return spans, telemetry.progress, telemetry.worker_spec()


def _cell_event(etype: str, cell: Cell, attempt: int, **fields: Any) -> Dict[str, Any]:
    """A parent-side ``cell_done``/``cell_failed`` progress event (see
    :data:`repro.obs.progress.HEARTBEAT_SCHEMA`)."""
    event: Dict[str, Any] = {
        "type": etype,
        "ts": _wall(),
        "cell": cell.index,
        "workload": cell.workload,
        "design": cell.design,
        "seed": cell.seed,
        "attempt": attempt,
    }
    event.update(fields)
    return event


def _dispatch(
    cells: Sequence[Cell],
    executor: CellExecutor,
    config: BaryonConfig,
    sim_config: SimulationConfig,
    n_accesses: int,
    max_attempts: int,
    cell_timeout_s: float,
    note_success,
    failures: Dict[int, Dict[str, Any]],
    quarantined: Dict[int, Dict[str, Any]],
    orchestration: CounterGroup,
    stop: threading.Event,
    telemetry: Optional[SweepTelemetry] = None,
    parent_span: Optional[Span] = None,
    *,
    chaos: Optional[ChaosPlan] = None,
    injector: Optional[ChaosInjector] = None,
    progress_timeout_s: Optional[float] = None,
    quarantine_after: Optional[int] = None,
    retry_budget: Optional[_RetryBudget] = None,
    backoff_base_s: float = 0.0,
    backoff_seed: int = 0,
    interrupt_grace_s: float = 30.0,
) -> int:
    """Run cells on ``executor`` with deadlines, requeue, and the
    service-grade failure policies; returns the number of requeues.

    ``multiprocessing.Pool`` silently respawns a killed worker and the
    task it was running never completes — so a lapsed deadline *is* the
    dead-worker signal, and the cell is resubmitted (the respawned
    worker re-derives everything from the cell seed).

    With telemetry attached, workers stream heartbeats through a shared
    queue; each heartbeat of the *current* attempt refreshes its cell's
    deadlines (a superseded attempt's stale beats are shown but ignored
    — see :meth:`_Inflight.note_beat`). Two deadlines run per cell:
    no-beats-at-all for ``cell_timeout_s`` means dead, beats-without-
    progress for ``progress_timeout_s`` means hung. Without heartbeats
    the last activity stays at submission time, which is bit-for-bit the
    pre-telemetry deadline behavior.

    Pooled dispatch is windowed (at most ``2 * workers`` cells in
    flight) so a queued-but-unstarted cell cannot trip its deadline
    while merely waiting for a worker slot. On an in-process executor
    the loop runs each cell as it dispatches it, so its handle is ready
    at once and the deadline, hung and quarantine checks never fire; its window is one
    cell, so a stop (signal or injected interrupt) takes effect before
    the next cell starts, and its heartbeats reach the progress tracker
    live while the cell runs.
    """
    retries = 0
    by_index = {cell.index: cell for cell in cells}
    spans, progress, spec = _telemetry_parts(telemetry)
    if spec is not None and chaos is not None and chaos.wants_worker_chaos:
        spec.chaos = chaos
    # On a shared long-lived executor, beats of a previous job's
    # abandoned cells must not refresh this run's deadlines.
    executor.discard_beats()
    beat_queue = (
        executor.beat_queue
        if telemetry is not None and telemetry.wants_heartbeats
        else None
    )
    inline_beat = progress.on_event if progress is not None else None
    cell_spans: Dict[int, Span] = {}
    ready: deque = deque((cell.index, 1) for cell in cells)
    delayed: List[Tuple[float, int, int]] = []  # (due_t, index, attempt)
    inflight: Dict[int, _Inflight] = {}
    deaths: Dict[int, List[str]] = {}  # consecutive violent deaths
    window = executor.workers * 2 if executor.pooled else 1
    interrupted_at: Optional[float] = None

    def _submit(index: int, attempt: int) -> _Inflight:
        cell = by_index[index]
        submitted_t = monotonic()
        if spans.enabled:
            cell_spans[index] = spans.start(
                "cell", parent=parent_span, index=index,
                workload=cell.workload, design=cell.design,
                seed=cell.seed, attempt=attempt,
            )
        if executor.pooled:
            handle = executor.submit(
                cell, config, sim_config, n_accesses, attempt, spec,
            )
        else:
            # The cell runs inside this call, so its heartbeats go
            # straight to the tracker instead of through a queue.
            handle = _ImmediateHandle(_safe_execute(
                cell, config, sim_config, n_accesses, attempt,
                telemetry=spec, beat=inline_beat,
            ))
        return _Inflight(attempt, handle, submitted_t)

    def _pump() -> None:
        now = monotonic()
        if delayed:
            for item in sorted(d for d in delayed if d[0] <= now):
                delayed.remove(item)
                ready.append((item[1], item[2]))
        while ready and len(inflight) < window:
            index, attempt = ready.popleft()
            inflight[index] = _submit(index, attempt)

    def _drain_heartbeats() -> None:
        if beat_queue is None:
            return
        if injector is not None:
            delay = injector.drain_delay()
            if delay > 0.0:
                sleep(delay)
        while True:
            try:
                event = beat_queue.get_nowait()
            except queue_mod.Empty:
                return
            except (OSError, EOFError):  # channel torn down mid-poll
                return
            entry = inflight.get(event.get("cell"))
            if entry is not None:
                entry.note_beat(event, monotonic())
            if progress is not None:
                progress.on_event(event)

    def _close_cell(index: int, payload: Dict[str, Any], entry: _Inflight) -> None:
        span = cell_spans.pop(index, None)
        if span is not None:
            if payload.get("spans"):
                spans.adopt(payload["spans"], parent=span)
            spans.end(span)
        deaths.pop(index, None)
        note_success(index, payload)
        if progress is not None:
            progress.on_event(_cell_event(
                "cell_done", by_index[index], entry.attempt,
                elapsed_s=monotonic() - entry.submitted_t,
            ))

    def _fail_cell(index: int, error: Dict[str, Any], attempt: int) -> None:
        failures[index] = error
        spans.end(cell_spans.pop(index, None), error=error["type"])
        if progress is not None:
            progress.on_event(_cell_event(
                "cell_failed", by_index[index], attempt,
                error=error["type"],
            ))

    def _quarantine(index: int, entry: _Inflight, streak: List[str]) -> None:
        record = {
            "type": "PoisonCellError",
            "message": (
                f"cell {index} took down {len(streak)} consecutive "
                f"worker(s) ({', '.join(streak)}); quarantined with "
                f"partial progress"
            ),
            "attempts": entry.attempt,
            "reasons": list(streak),
            "partial": {
                "done": max(entry.last_done, 0),
                "total": entry.last_total,
            },
        }
        quarantined[index] = record
        orchestration.inc("quarantined")
        spans.end(
            cell_spans.pop(index, None),
            error="PoisonCellError", quarantined=True,
        )
        spans.event(
            parent_span, "quarantined",
            cell=index, attempts=entry.attempt, reasons=len(streak),
        )
        if progress is not None:
            progress.on_event(_cell_event(
                "cell_quarantined", by_index[index], entry.attempt,
                reasons=list(streak),
                done=max(entry.last_done, 0), total=entry.last_total,
            ))

    def _requeue(
        index: int, attempt: int, error: Dict[str, Any], counter: str,
    ) -> None:
        """Retry the cell's failed ``attempt``, or fail the cell with that
        attempt's ``error`` record when the global budget is spent."""
        nonlocal retries
        if retry_budget is not None and not retry_budget.take():
            orchestration.inc("retry_budget_exhausted")
            spans.event(
                parent_span, "retry_budget_exhausted",
                cell=index, attempt=attempt,
            )
            _fail_cell(index, error, attempt)
            return
        retries += 1
        orchestration.inc(counter)
        span = cell_spans.pop(index, None)
        spans.event(span, "requeue", attempt=attempt, error=error["type"])
        spans.end(span, error=error["type"], requeued=True)
        if backoff_base_s > 0.0:
            due = monotonic() + requeue_backoff_s(
                backoff_base_s, attempt, index, backoff_seed,
            )
            delayed.append((due, index, attempt + 1))
        else:
            ready.append((index, attempt + 1))

    def _violent_death(index: int, entry: _Inflight, reason: str) -> None:
        """A worker died under the cell (dead) or froze (hung) —
        circuit-break, requeue, or fail, in that order."""
        streak = deaths.setdefault(index, [])
        streak.append(reason)
        if quarantine_after is not None and len(streak) >= quarantine_after:
            _quarantine(index, entry, streak)
            return
        if reason == "WorkerHungError":
            message = (
                f"cell {index} stalled (heartbeats alive, no "
                f"progress past {entry.last_done} for "
                f"{progress_timeout_s:.1f}s) on attempt "
                f"{entry.attempt}"
            )
        else:
            message = (
                f"cell {index} exceeded {cell_timeout_s:.0f}s "
                f"without a heartbeat on attempt {entry.attempt} "
                f"(worker presumed dead)"
            )
        error = {
            "type": reason,
            "message": message,
            "traceback": None,
            "attempt": entry.attempt,
        }
        if entry.attempt < max_attempts:
            _requeue(
                index, entry.attempt, error,
                "requeue_hung" if reason == "WorkerHungError"
                else "requeue_timeout",
            )
        else:
            _fail_cell(index, error, entry.attempt)

    while inflight or ready or delayed:
        if stop.is_set() and interrupted_at is None:
            interrupted_at = monotonic()
            abandoned = len(ready) + len(delayed)
            ready.clear()
            delayed.clear()
            orchestration.inc("interrupted")
            spans.event(
                parent_span, "interrupt",
                inflight=len(inflight), abandoned=abandoned,
            )
        if interrupted_at is None:
            _pump()
        elif not inflight:
            break
        elif monotonic() > interrupted_at + interrupt_grace_s:
            orchestration.inc("interrupt_abandoned", len(inflight))
            spans.event(
                parent_span, "interrupt_grace_expired",
                abandoned=len(inflight),
            )
            break
        _drain_heartbeats()
        progressed = False
        now = monotonic()
        for index in list(inflight):
            entry = inflight[index]
            if entry.handle.ready():
                progressed = True
                del inflight[index]
                try:
                    payload = entry.handle.get()
                except Exception as err:
                    # Transport-level failure (e.g. unpicklable
                    # payload); same shape as a worker-side error.
                    payload = _error_payload(index, entry.attempt, err, None)
                if "error" not in payload:
                    _close_cell(index, payload, entry)
                elif interrupted_at is not None:
                    # Draining after an interrupt: an error here is
                    # left *unfinished* (resumable), not failed — the
                    # resumed run retries it with a full budget.
                    spans.end(
                        cell_spans.pop(index, None),
                        error=payload["error"]["type"], interrupted=True,
                    )
                else:
                    # The worker survived to report an exception, so
                    # this was not a violent death: the streak resets.
                    deaths.pop(index, None)
                    if entry.attempt < max_attempts:
                        _requeue(
                            index, entry.attempt, payload["error"],
                            "requeue_error",
                        )
                    else:
                        _fail_cell(index, payload["error"], entry.attempt)
            elif entry.dead(now, cell_timeout_s):
                progressed = True
                del inflight[index]
                spans.event(
                    parent_span, "deadline_lapsed",
                    cell=index, attempt=entry.attempt,
                    idle_s=now - entry.last_beat_t,
                )
                if interrupted_at is not None:
                    spans.end(
                        cell_spans.pop(index, None),
                        error="TimeoutError", interrupted=True,
                    )
                else:
                    _violent_death(index, entry, "TimeoutError")
            elif entry.hung(now, progress_timeout_s):
                progressed = True
                del inflight[index]
                spans.event(
                    parent_span, "progress_stalled",
                    cell=index, attempt=entry.attempt,
                    done=entry.last_done,
                    stalled_s=now - entry.last_progress_t,
                )
                if interrupted_at is not None:
                    spans.end(
                        cell_spans.pop(index, None),
                        error="WorkerHungError", interrupted=True,
                    )
                else:
                    _violent_death(index, entry, "WorkerHungError")
        if (inflight or ready or delayed) and not progressed:
            sleep(0.01)
    _drain_heartbeats()
    return retries


class _InterruptGuard:
    """Graceful SIGINT/SIGTERM handling for one ``run_plan`` call.

    The first signal sets the runner's stop flag — dispatch halts,
    in-flight cells drain within the grace window, the checkpoint stays
    resumable, and the sweep returns with ``interrupted=True``. A second
    signal raises :class:`KeyboardInterrupt` (the operator means it).
    Installs only from the main thread (elsewhere it degrades to a
    no-op) and always restores the previous handlers.
    """

    def __init__(self, flag: threading.Event) -> None:
        self.flag = flag
        self._previous: Dict[int, Any] = {}
        self._fired = False

    def _handle(self, signum, frame) -> None:
        if self._fired:
            raise KeyboardInterrupt
        self._fired = True
        self.flag.set()

    def __enter__(self) -> "_InterruptGuard":
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                self._previous[sig] = signal.signal(sig, self._handle)
            except ValueError:  # not the main thread
                break
        return self

    def __exit__(self, *exc) -> bool:
        for sig, previous in self._previous.items():
            try:
                signal.signal(sig, previous)
            except ValueError:  # pragma: no cover - symmetric with enter
                pass
        return False


def run_plan(
    plan: Sequence[Cell],
    config: BaryonConfig,
    sim_config: SimulationConfig,
    n_accesses: int = 50_000,
    jobs: int = 1,
    *,
    max_attempts: int = 2,
    cell_timeout_s: float = DEFAULT_CELL_TIMEOUT_S,
    checkpoint: Optional[str] = None,
    resume: Optional[str] = None,
    telemetry: Optional[SweepTelemetry] = None,
    manifest: Optional[str] = None,
    chaos: Optional[ChaosPlan] = None,
    progress_timeout_s: Optional[float] = None,
    quarantine_after: Optional[int] = None,
    retry_budget: Optional[int] = None,
    backoff_base_s: float = 0.0,
    handle_signals: bool = False,
    interrupt_grace_s: float = 30.0,
    executor: Optional[CellExecutor] = None,
    stop_event: Optional[threading.Event] = None,
) -> MatrixOutcome:
    """Execute a cell plan, in-process or across a ``fork`` pool.

    The outcome is independent of ``jobs``, retries, resumption, and any
    injected chaos — the parallel/serial equivalence tests and the chaos
    soak pin this down. Failed cells (after ``max_attempts`` attempts
    each) are reported in ``MatrixOutcome.failed`` instead of aborting
    the whole matrix.

    ``checkpoint`` names a file durably rewritten after every finished
    cell; ``resume`` preloads finished cells from such a file (missing
    file: start fresh; wrong-plan or wrong-format file: raise
    :class:`~repro.common.errors.ConfigurationError`; damaged file:
    salvage every digest-verified cell, cross-checked against the
    sidecar manifest when present, and re-run the rest). The two may
    name the same path.

    ``telemetry`` (a :class:`~repro.parallel.telemetry.SweepTelemetry`)
    attaches sweep-scale observability: a span tree
    (``sweep`` → ``plan``/``fork``/``simulate``/``merge``/``checkpoint``
    phases, a ``cell`` span per attempt with the worker's own spans
    adopted underneath), live heartbeat-driven progress, and cross-shard
    metrics in :attr:`MatrixOutcome.metrics`. Counters and results are
    bit-identical with telemetry on, off, or partially on.

    ``manifest`` names a run-manifest JSON to write after the fold; when
    omitted but ``checkpoint`` is set, ``<checkpoint>.manifest.json`` is
    written so every checkpointed sweep carries its provenance. Whenever
    a manifest is written, it is re-loaded from disk and audited against
    the merged outcome (``MatrixOutcome.audit``).

    Hardening knobs (all default to the pre-chaos behavior):
    ``progress_timeout_s`` arms hung-worker detection (pool runs with
    heartbeats only — set it well above the wall time of
    ``heartbeat_every`` accesses); ``quarantine_after`` arms the
    poison-cell circuit breaker; ``retry_budget`` caps requeues globally
    across all cells; ``backoff_base_s`` spaces a cell's attempts with
    exponential backoff + deterministic jitter; ``handle_signals``
    installs the graceful SIGINT/SIGTERM guard; ``chaos`` injects
    seeded orchestration chaos (see :mod:`repro.resilience.chaos`).

    ``executor`` lends this run a caller-owned :class:`CellExecutor`
    (``jobs`` is then ignored — the executor's worker count rules); the
    executor is left open for the caller's next run. Without one, a
    private executor is created and torn down as before. ``stop_event``
    shares the run's stop flag with the caller: setting it triggers the
    same graceful drain as SIGINT/SIGTERM, which is how the job server
    drains an in-flight sweep without signal delivery.
    """
    if max_attempts < 1:
        raise ValueError("max_attempts must be >= 1")
    start = perf_counter()
    if executor is not None:
        if executor.closed:
            raise ConfigurationError("run_plan() given a closed CellExecutor")
        effective = executor.workers if executor.pooled else 1
    else:
        effective = resolve_jobs(jobs, len(plan))
    if chaos is not None and chaos.wants_worker_chaos:
        if effective <= 1:
            raise ConfigurationError(
                "worker-side chaos (kill/hang/heartbeat loss) needs a "
                "process pool; run with jobs >= 2 and a multi-cell plan"
            )
        if telemetry is None or not telemetry.wants_heartbeats:
            raise ConfigurationError(
                "worker-side chaos rides the heartbeat channel; attach a "
                "SweepTelemetry with heartbeat_every > 0"
            )
    injector = ChaosInjector(chaos) if chaos is not None and chaos.active else None
    stop = stop_event if stop_event is not None else threading.Event()
    orchestration = CounterGroup("matrix.orchestration")
    quarantined_ix: Dict[int, Dict[str, Any]] = {}
    budget = _RetryBudget(retry_budget) if retry_budget is not None else None
    backoff_seed = chaos.seed if chaos is not None else 0
    spans, progress, _ = _telemetry_parts(telemetry)
    by_index = {cell.index: cell for cell in plan}
    sweep_span = spans.start(
        "sweep", cells=len(plan), jobs=effective, accesses=n_accesses,
    ) if spans.enabled else None
    plan_span = spans.start(
        "plan", parent=sweep_span,
    ) if spans.enabled else None
    fingerprint = plan_fingerprint(
        plan, n_accesses, config, sim_config,
        chaos=chaos, quarantine_after=quarantine_after,
    )
    if checkpoint is not None:
        # A process killed between mkstemp and the rename (SIGKILL,
        # power loss) leaves a temp file no exception path could clean
        # up; this run owns the checkpoint directory, so sweep them now.
        stale = remove_stale_temps(checkpoint, (".checkpoint-", ".manifest-"))
        if stale:
            orchestration.inc("stale_temps_removed", len(stale))
    done: Dict[int, Dict[str, Any]] = {}
    resumed = 0
    salvaged = 0
    if resume is not None and os.path.exists(resume):
        wanted = {cell.index for cell in plan}
        try:
            loaded = load_checkpoint(resume, fingerprint)
        except CheckpointCorruptError:
            # Body damage (torn tail, flipped bit): salvage every cell
            # whose digest verifies — cross-checked against the sidecar
            # manifest when one exists — instead of refusing to resume.
            expected = None
            sidecar = resume + ".manifest.json"
            if os.path.exists(sidecar):
                try:
                    expected = result_digests(load_manifest(sidecar), plan)
                except ConfigurationError:
                    expected = None
            loaded, report = salvage_checkpoint(resume, fingerprint, expected)
            salvaged = report["recovered"]
            orchestration.inc("checkpoint_salvaged_cells", report["recovered"])
            orchestration.inc("checkpoint_salvage_dropped", report["dropped"])
            spans.event(
                sweep_span, "checkpoint_salvage",
                recovered=report["recovered"], dropped=report["dropped"],
            )
        done = {
            index: payload
            for index, payload in loaded.items()
            if index in wanted
        }
        resumed = len(done)
        spans.event(sweep_span, "resume", cells=resumed, path=resume)
    pending = [cell for cell in plan if cell.index not in done]
    spans.end(plan_span, pending=len(pending), resumed=resumed)
    if spans.enabled and done:
        # Resumed cells still appear in the tree: a zero-work cell span
        # (marked ``resumed``) adopting whatever spans the original
        # attempt shipped in its checkpointed payload.
        for index in sorted(done):
            cell = by_index[index]
            cell_span = spans.start(
                "cell", parent=sweep_span, index=index,
                workload=cell.workload, design=cell.design,
                seed=cell.seed, resumed=True,
            )
            if done[index].get("spans"):
                spans.adopt(done[index]["spans"], parent=cell_span)
            spans.end(cell_span)
    if progress is not None:
        for index in sorted(done):
            progress.on_event(_cell_event(
                "cell_done", by_index[index], 0,
                elapsed_s=0.0, resumed=True,
            ))
    failures: Dict[int, Dict[str, Any]] = {}

    def note_success(index: int, payload: Dict[str, Any]) -> None:
        done[index] = payload
        if checkpoint is not None:
            ckpt_span = spans.start(
                "checkpoint", parent=sweep_span, cells=len(done),
            ) if spans.enabled else None
            effect = (
                injector.write_effect("checkpoint")
                if injector is not None else None
            )
            try:
                write_checkpoint(checkpoint, fingerprint, done, effect=effect)
            except OSError as err:
                # Disk-full (real or injected): the sweep keeps running
                # on the previous checkpoint; only resumability degrades.
                orchestration.inc("checkpoint_write_errors")
                spans.event(
                    sweep_span, "checkpoint_write_failed",
                    cells=len(done), error=type(err).__name__,
                )
            spans.end(ckpt_span)
        if injector is not None and injector.should_interrupt(len(done)):
            stop.set()

    simulate_span = spans.start(
        "simulate", parent=sweep_span, pending=len(pending),
    ) if spans.enabled else None
    guard = _InterruptGuard(stop) if handle_signals else None
    own_executor: Optional[CellExecutor] = None
    retries = 0
    try:
        if guard is not None:
            guard.__enter__()
        if pending:
            if executor is None:
                # resolve_jobs() gives 1 without fork, so effective > 1
                # means this executor builds a pool.
                fork_span = spans.start(
                    "fork", parent=simulate_span, workers=effective,
                ) if spans.enabled and effective > 1 else None
                executor = own_executor = CellExecutor(jobs=effective)
                spans.end(fork_span)
            retries = _dispatch(
                pending, executor, config, sim_config, n_accesses,
                max_attempts, cell_timeout_s, note_success, failures,
                quarantined_ix, orchestration, stop,
                telemetry=telemetry, parent_span=simulate_span,
                chaos=chaos, injector=injector,
                progress_timeout_s=progress_timeout_s,
                quarantine_after=quarantine_after,
                retry_budget=budget, backoff_base_s=backoff_base_s,
                backoff_seed=backoff_seed,
                interrupt_grace_s=interrupt_grace_s,
            )
    finally:
        if own_executor is not None:
            own_executor.close()
        if guard is not None:
            guard.__exit__(None, None, None)
    spans.end(simulate_span, retries=retries, failed=len(failures))

    merge_span = spans.start(
        "merge", parent=sweep_span,
    ) if spans.enabled else None
    outcome = _fold(plan, list(done.values()), effective, perf_counter() - start)
    outcome.retries = retries
    outcome.resumed = resumed
    outcome.salvaged = salvaged
    for index, error in failures.items():
        outcome.failed[by_index[index].key] = dict(error)
    for index, record in quarantined_ix.items():
        outcome.quarantined[by_index[index].key] = dict(record)
    outcome.interrupted = stop.is_set() and (
        len(done) + len(failures) + len(quarantined_ix) < len(plan)
    )
    if injector is not None:
        orchestration.merge(injector.stats)
    outcome.orchestration = orchestration
    spans.end(merge_span, results=len(outcome.results))

    manifest_path = manifest
    if manifest_path is None and checkpoint is not None:
        manifest_path = checkpoint + ".manifest.json"
    if manifest_path is not None:
        mutate = (
            write_effect_mutator(injector.write_effect("manifest"))
            if injector is not None else None
        )
        try:
            write_manifest(
                manifest_path, build_manifest(fingerprint, outcome, plan),
                mutate=mutate,
            )
        except OSError as err:
            orchestration.inc("manifest_write_errors")
            spans.event(
                sweep_span, "manifest_write_failed", error=type(err).__name__,
            )
        else:
            spans.event(sweep_span, "manifest", path=manifest_path)
            # End-of-run integrity audit: trust only what landed on disk.
            try:
                on_disk = load_manifest(manifest_path)
            except ConfigurationError as err:
                outcome.audit = {
                    "ok": False, "checked": 0,
                    "mismatches": [f"manifest unreadable after write: {err}"],
                }
            else:
                outcome.audit = audit_manifest(on_disk, outcome, plan)
            if not outcome.audit["ok"]:
                orchestration.inc("audit_failures")
            spans.event(
                sweep_span, "audit",
                ok=outcome.audit["ok"], checked=outcome.audit["checked"],
                mismatches=len(outcome.audit["mismatches"]),
            )
    spans.end(
        sweep_span, failed=len(outcome.failed), retries=retries,
        quarantined=len(outcome.quarantined), interrupted=outcome.interrupted,
    )
    return outcome
