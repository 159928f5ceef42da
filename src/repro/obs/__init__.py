"""`repro.obs` — the observability layer of the simulation pipeline.

Three orthogonal pieces, all zero-cost when not attached:

* :class:`~repro.obs.tracer.EventTracer` — structured, ring-buffered,
  optionally sampled event records (JSONL) from hook points across the
  controller, stage area, commit policy, remap cache, row buffers and
  baselines;
* :class:`~repro.obs.metrics.MetricsRegistry` — labeled counters,
  histograms and windowed time series, exported as JSON or
  Prometheus-style text exposition;
* :class:`~repro.obs.profiler.PhaseProfiler` — per-phase wall-clock and
  instruction accounting inside :class:`~repro.sim.system.SystemSimulator`.

:func:`attach_observability` wires a tracer/registry into any controller
design (Baryon or baseline) by duck type, so ``run_one`` and the CLI can
instrument every design uniformly.
"""

from __future__ import annotations

from typing import Optional

from repro.obs.aggregate import (
    SHARD_LABEL,
    aggregate_shard_snapshots,
    merge_snapshot,
    sum_over_label,
)
from repro.obs.manifest import (
    MANIFEST_MAGIC,
    MANIFEST_VERSION,
    audit_manifest,
    build_manifest,
    counter_digest,
    diff_manifests,
    format_diff,
    load_manifest,
    result_digests,
    write_manifest,
)
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Histogram,
    LabeledCounter,
    MetricsRegistry,
    TimeSeries,
)
from repro.obs.profiler import NULL_PROFILER, NullProfiler, PhaseProfiler
from repro.obs.progress import (
    HEARTBEAT_SCHEMA,
    ProgressTracker,
    make_cli_tracker,
    make_heartbeat,
)
from repro.obs.spans import (
    NULL_SPANS,
    NullSpanTracer,
    Span,
    SpanTracer,
    format_span_tree,
    load_spans,
)
from repro.obs.tracer import (
    EVENT_SCHEMA,
    NULL_TRACER,
    EventTracer,
    NullTracer,
    case_breakdown,
    load_jsonl,
)

__all__ = [
    "EVENT_SCHEMA",
    "HEARTBEAT_SCHEMA",
    "MANIFEST_MAGIC",
    "MANIFEST_VERSION",
    "NULL_TRACER",
    "NULL_PROFILER",
    "NULL_SPANS",
    "DEFAULT_LATENCY_BUCKETS",
    "SHARD_LABEL",
    "EventTracer",
    "NullTracer",
    "NullSpanTracer",
    "Histogram",
    "LabeledCounter",
    "MetricsRegistry",
    "ProgressTracker",
    "Span",
    "SpanTracer",
    "TimeSeries",
    "NullProfiler",
    "PhaseProfiler",
    "aggregate_shard_snapshots",
    "attach_observability",
    "audit_manifest",
    "build_manifest",
    "case_breakdown",
    "collect_run_metrics",
    "counter_digest",
    "diff_manifests",
    "format_diff",
    "format_span_tree",
    "load_jsonl",
    "load_manifest",
    "load_spans",
    "make_cli_tracker",
    "make_heartbeat",
    "merge_snapshot",
    "result_digests",
    "sum_over_label",
    "write_manifest",
]


def attach_observability(
    controller,
    tracer: Optional[EventTracer] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> None:
    """Wire a tracer and/or metrics registry into a controller tree.

    Works on any design by duck type: the controller's own ``obs``
    attribute plus every known instrumented sub-component that exists
    (stage area, commit policy, remap cache, device row buffers).
    """
    if tracer is not None:
        controller.obs = tracer
        for attr in ("stage", "policy", "remap_cache", "faults", "recovery", "checker"):
            component = getattr(controller, attr, None)
            if component is not None:
                component.obs = tracer
        devices = getattr(controller, "devices", None)
        if devices is not None:
            for device in (devices.fast, devices.slow):
                if device.row_buffer is not None:
                    device.row_buffer.obs = tracer
    if metrics is not None:
        bind = getattr(controller, "bind_metrics", None)
        if bind is not None:
            bind(metrics)


def collect_run_metrics(
    registry: MetricsRegistry, controller, result=None, **const_labels
) -> MetricsRegistry:
    """Snapshot a finished controller's counter state into the registry.

    Turns the per-component :class:`~repro.common.stats.CounterGroup`
    bags into labeled counters with stable metric names:

    * ``repro_access_cases_total{case=...}`` — the Fig. 3 breakdown;
    * ``repro_controller_events_total{event=...}`` — everything else the
      controller counted;
    * ``repro_device_bytes_total{device=...,op=...}`` and
      ``repro_device_transfers_total{device=...,op=...}``;
    * ``repro_remap_cache_total{outcome=...}`` and
      ``repro_rowbuffer_total{outcome=...}`` when those components exist;
    * ``repro_compression_total{event=...}`` when a content-backed oracle
      carries a real :class:`~repro.compression.engine.CompressionEngine`
      — including the memo effectiveness events ``memo_hits`` /
      ``memo_misses`` / ``memo_evictions`` (see docs/performance.md);
    * ``repro_fault_total{kind=...}``, ``repro_recovery_total{action=...}``
      and ``repro_checker_total{event=...}`` when the resilience layer is
      active (see docs/resilience.md).
    """
    stats = getattr(controller, "stats", None)
    if stats is not None:
        cases = registry.counter(
            "repro_access_cases_total",
            help="accesses resolved per Fig. 3 access case",
            labels=(*const_labels.keys(), "case"),
        )
        events = registry.counter(
            "repro_controller_events_total",
            help="controller event counters",
            labels=(*const_labels.keys(), "event"),
        )
        for key, value in stats.as_dict().items():
            if key.startswith("case_"):
                cases.inc(value, **const_labels, case=key[len("case_"):])
            else:
                events.inc(value, **const_labels, event=key)

    devices = getattr(controller, "devices", None)
    if devices is not None:
        dev_bytes = registry.counter(
            "repro_device_bytes_total",
            help="bytes moved per device and operation",
            labels=(*const_labels.keys(), "device", "op"),
        )
        dev_ops = registry.counter(
            "repro_device_transfers_total",
            help="transfer operations per device",
            labels=(*const_labels.keys(), "device", "op"),
        )
        for device in (devices.fast, devices.slow):
            snap = device.stats.as_dict()
            for op in ("read", "write"):
                dev_bytes.inc(
                    snap.get(f"{op}_bytes", 0),
                    **const_labels, device=device.name, op=op,
                )
                dev_ops.inc(
                    snap.get(f"{op}s", 0),
                    **const_labels, device=device.name, op=op,
                )
            if device.row_buffer is not None:
                rb = registry.counter(
                    "repro_rowbuffer_total",
                    help="row-buffer outcomes",
                    labels=(*const_labels.keys(), "device", "outcome"),
                )
                for outcome in ("row_hits", "row_misses", "precharges", "activations"):
                    rb.inc(
                        device.row_buffer.stats.get(outcome),
                        **const_labels, device=device.name, outcome=outcome,
                    )

    engine = getattr(getattr(controller, "oracle", None), "engine", None)
    if engine is not None and getattr(engine, "stats", None) is not None:
        comp = registry.counter(
            "repro_compression_total",
            help="compression-engine events (algorithm wins, memo hits/misses)",
            labels=(*const_labels.keys(), "event"),
        )
        for event, value in engine.stats.as_dict().items():
            comp.inc(value, **const_labels, event=event)

    faults = getattr(controller, "faults", None)
    if faults is not None:
        fault_counter = registry.counter(
            "repro_fault_total",
            help="injected faults per kind (repro.resilience)",
            labels=(*const_labels.keys(), "kind"),
        )
        for key, value in faults.stats.as_dict().items():
            kind = key[len("injected_"):] if key.startswith("injected_") else key
            fault_counter.inc(value, **const_labels, kind=kind)

    recovery = getattr(controller, "recovery", None)
    if recovery is not None and recovery.stats.as_dict():
        recovery_counter = registry.counter(
            "repro_recovery_total",
            help="recovery actions taken (retries, repairs, quarantines)",
            labels=(*const_labels.keys(), "action"),
        )
        for action, value in recovery.stats.as_dict().items():
            recovery_counter.inc(value, **const_labels, action=action)

    checker = getattr(controller, "checker", None)
    if checker is not None and checker.stats.as_dict():
        checker_counter = registry.counter(
            "repro_checker_total",
            help="shadow-checker verifications and detections",
            labels=(*const_labels.keys(), "event"),
        )
        for event, value in checker.stats.as_dict().items():
            checker_counter.inc(value, **const_labels, event=event)

    remap_cache = getattr(controller, "remap_cache", None)
    if remap_cache is not None:
        rc = registry.counter(
            "repro_remap_cache_total",
            help="remap-cache probe outcomes",
            labels=(*const_labels.keys(), "outcome"),
        )
        for outcome in ("hits", "misses", "evictions"):
            rc.inc(remap_cache.stats.get(outcome), **const_labels, outcome=outcome)

    if result is not None:
        summary = registry.counter(
            "repro_run_summary",
            help="headline scalar results of the measured window",
            labels=(*const_labels.keys(), "metric"),
        )
        for metric, value in result.summary().items():
            summary.inc(value, **const_labels, metric=metric)
    return registry
