"""The observability layer: tracer, metrics registry, profiling, wiring.

Includes the PR's acceptance check: with tracing enabled on a small
synthetic workload, the emitted event stream reconstructs the exact
access-case breakdown the controller's ``CounterGroup`` reports.
"""

from __future__ import annotations

import json
import subprocess
from pathlib import Path

import pytest

from repro.baselines import DiceCache, Hybrid2, SimpleCache
from repro.core import BaryonController
from repro.obs import (
    EVENT_SCHEMA,
    NULL_TRACER,
    EventTracer,
    MetricsRegistry,
    SpanTracer,
    attach_observability,
    case_breakdown,
    collect_run_metrics,
    load_jsonl,
)
from repro.obs import manifest as manifest_module
from repro.obs.metrics import Histogram, LabeledCounter, TimeSeries
from repro.sim import SystemSimulator
from repro.workloads import ZipfWorkload

from tests.conftest import make_small_config, make_small_sim_config


def run_traced(
    n=3000, seed=3, tracer=None, metrics=None, spans=None, **config_kwargs
):
    config = make_small_config(**config_kwargs)
    sim_config = make_small_sim_config()
    trace = ZipfWorkload("wl", 4 * config.layout.fast_capacity, seed=seed).generate(n)
    ctrl = BaryonController(config, seed=seed, tracer=tracer, metrics=metrics)
    trace.apply_compressibility(ctrl.oracle)
    sim = SystemSimulator(ctrl, sim_config, metrics=metrics, spans=spans)
    return sim.run(trace), ctrl, sim


# --------------------------------------------------------------------- tracer
class TestEventTracer:
    def test_emit_and_iterate(self):
        tracer = EventTracer(capacity=16)
        tracer.emit("access", case="stage_hit", latency=1.0)
        tracer.emit("writeback", block=3, bytes=256, kind="stage_dirty")
        assert len(tracer) == 2
        assert [e["type"] for e in tracer.events()] == ["access", "writeback"]
        assert next(tracer.events("access"))["case"] == "stage_hit"
        assert tracer.counts_by_type() == {"access": 1, "writeback": 1}

    def test_sequence_numbers_are_global(self):
        tracer = EventTracer()
        tracer.emit("a")
        tracer.emit("b")
        assert [e["seq"] for e in tracer.events()] == [1, 2]

    def test_ring_drops_oldest(self):
        tracer = EventTracer(capacity=4)
        for i in range(10):
            tracer.emit("access", i=i)
        assert len(tracer) == 4
        assert [e["i"] for e in tracer.events()] == [6, 7, 8, 9]
        assert tracer.emitted == 10
        assert tracer.dropped == 6

    def test_sampling_keeps_one_in_n(self):
        tracer = EventTracer(sample_every=10)
        for _ in range(100):
            tracer.emit("access")
        assert tracer.emitted == 100
        assert tracer.sampled == 10
        assert len(tracer) == 10

    def test_sink_receives_jsonl(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with open(path, "w") as sink:
            tracer = EventTracer(sink=sink)
            tracer.emit("access", case="stage_hit")
            tracer.close()
        events = load_jsonl(str(path))
        assert events == [{"seq": 1, "type": "access", "case": "stage_hit"}]

    def test_dump_and_load_roundtrip(self, tmp_path):
        tracer = EventTracer()
        tracer.emit("remap_cache", super=7, hit=True)
        tracer.emit("access", case="commit_hit")
        path = tmp_path / "t.jsonl"
        assert tracer.dump_jsonl(str(path)) == 2
        assert load_jsonl(str(path)) == list(tracer.events())

    def test_clear(self):
        tracer = EventTracer()
        tracer.emit("a")
        tracer.clear()
        assert len(tracer) == 0 and tracer.emitted == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            EventTracer(capacity=0)
        with pytest.raises(ValueError):
            EventTracer(sample_every=0)

    def test_null_tracer_is_disabled(self):
        assert NULL_TRACER.enabled is False
        NULL_TRACER.emit("access", case="x")  # no-op, no error
        assert len(NULL_TRACER) == 0

    def test_case_breakdown_helper(self):
        events = [
            {"type": "access", "case": "stage_hit"},
            {"type": "access", "case": "stage_hit"},
            {"type": "access", "case": "block_miss"},
            {"type": "writeback", "kind": "stage_dirty"},
        ]
        assert case_breakdown(events) == {"stage_hit": 2, "block_miss": 1}

    def test_schema_names_known_types(self):
        assert {"access", "commit_decision", "stage_insert", "stage_evict",
                "remap_cache", "writeback"} <= set(EVENT_SCHEMA)


# -------------------------------------------------------------------- metrics
class TestLabeledCounter:
    def test_inc_and_value(self):
        c = LabeledCounter("n", label_names=("case",))
        c.inc(2, case="stage_hit")
        c.inc(case="stage_hit")
        c.inc(case="block_miss")
        assert c.value(case="stage_hit") == 3
        assert c.value(case="block_miss") == 1
        assert c.value(case="never") == 0

    def test_label_mismatch_rejected(self):
        c = LabeledCounter("n", label_names=("case",))
        with pytest.raises(ValueError):
            c.inc(design="x")

    def test_exposition(self):
        c = LabeledCounter("n", help="h", label_names=("case",))
        c.inc(5, case="a")
        text = "\n".join(c.exposition())
        assert "# TYPE n counter" in text
        assert 'n{case="a"} 5' in text


class TestHistogram:
    def test_observe_buckets_and_stats(self):
        h = Histogram("lat", buckets=(10, 100, 1000))
        for v in (5, 50, 500, 5000):
            h.observe(v)
        assert h.counts == [1, 1, 1, 1]
        assert h.total == 4
        assert h.sum == 5555
        assert h.min == 5 and h.max == 5000
        assert h.mean == pytest.approx(5555 / 4)

    def test_quantile_estimates(self):
        h = Histogram("lat", buckets=(10, 100, 1000))
        for _ in range(99):
            h.observe(5)
        h.observe(5000)
        assert h.quantile(0.5) == 10
        assert h.quantile(1.0) == 5000
        assert h.quantile(0.0) == 10
        with pytest.raises(ValueError):
            h.quantile(1.5)

    def test_empty(self):
        h = Histogram("lat", buckets=(1,))
        assert h.quantile(0.5) == 0.0 and h.mean == 0.0

    def test_exposition_is_cumulative(self):
        h = Histogram("lat", help="h", buckets=(10, 100))
        h.observe(5)
        h.observe(50)
        h.observe(500)
        lines = h.exposition()
        assert 'lat_bucket{le="10"} 1' in lines
        assert 'lat_bucket{le="100"} 2' in lines
        assert 'lat_bucket{le="+Inf"} 3' in lines
        assert "lat_count 3" in lines


class TestTimeSeries:
    def test_window_sampling(self):
        ts = TimeSeries("s", every=10)
        for i in range(100):
            ts.tick(float(i))
        assert len(ts.points) == 10
        assert ts.points[0] == (10, 9.0)
        assert ts.last == 99.0

    def test_decimation_bounds_memory(self):
        ts = TimeSeries("s", every=1, capacity=8)
        for i in range(100):
            ts.tick(float(i))
        assert len(ts.points) <= 8 + 1
        assert ts.every > 1


class TestMetricsRegistry:
    def test_registration_is_idempotent(self):
        reg = MetricsRegistry()
        a = reg.counter("x", labels=("l",))
        b = reg.counter("x", labels=("l",))
        assert a is b
        with pytest.raises(ValueError):
            reg.histogram("x")

    def test_json_and_prometheus_export(self):
        reg = MetricsRegistry()
        reg.counter("c", help="ch", labels=("k",)).inc(3, k="v")
        reg.histogram("h", buckets=(1, 2)).observe(1.5)
        reg.series("s", every=1).tick(0.5)
        blob = reg.to_json()
        assert blob["c"]["values"] == [{"labels": {"k": "v"}, "value": 3}]
        assert blob["h"]["count"] == 1
        assert blob["s"]["points"] == [[1, 0.5]]
        text = reg.to_prometheus()
        assert 'c{k="v"} 3' in text
        assert "# TYPE h histogram" in text
        assert "# TYPE s gauge" in text
        json.dumps(blob)  # must be serializable

    def test_ingest_counter_group(self):
        from repro.common.stats import CounterGroup

        group = CounterGroup("g")
        group.inc("hits", 4)
        group.inc("misses", 1)
        reg = MetricsRegistry()
        counter = reg.ingest_counter_group(
            "repro_test_total", group, label="outcome", design="baryon"
        )
        assert counter.value(design="baryon", outcome="hits") == 4
        assert counter.value(design="baryon", outcome="misses") == 1


# ------------------------------------------------------- wiring + integration
class TestAttachObservability:
    def test_attach_to_baryon_reaches_components(self):
        ctrl = BaryonController(make_small_config())
        tracer = EventTracer()
        attach_observability(ctrl, tracer)
        assert ctrl.obs is tracer
        assert ctrl.stage.obs is tracer
        assert ctrl.policy.obs is tracer
        assert ctrl.remap_cache.obs is tracer

    def test_attach_to_baselines(self):
        config = make_small_config()
        tracer = EventTracer()
        for ctrl in (SimpleCache(config), DiceCache(config)):
            attach_observability(ctrl, tracer)
            assert ctrl.obs is tracer
            ctrl.access(0, False)
            ctrl.access(64, True)
        assert sum(1 for _ in tracer.events("access")) == 4

    def test_attach_hybrid2(self):
        ctrl = Hybrid2(make_small_config(flat=0.75, fully_associative=True))
        tracer = EventTracer()
        attach_observability(ctrl, tracer)
        assert ctrl.obs is tracer
        ctrl.access(0, False)
        assert any(tracer.events("access"))


class TestTracedRun:
    def test_trace_reconstructs_case_breakdown(self):
        """Acceptance: JSONL event stream == controller CounterGroup."""
        tracer = EventTracer(capacity=1 << 20)
        _, ctrl, _ = run_traced(tracer=tracer)
        expected = {
            key[len("case_"):]: value
            for key, value in ctrl.stats.items()
            if key.startswith("case_")
        }
        assert sum(expected.values()) == ctrl.stats.get("accesses")
        assert tracer.case_breakdown() == expected

    def test_commit_decisions_match_policy_stats(self):
        tracer = EventTracer(capacity=1 << 20)
        _, ctrl, _ = run_traced(tracer=tracer)
        decisions = list(tracer.events("commit_decision"))
        assert len(decisions) == ctrl.policy.stats.total("commits", "evictions")
        assert all(
            {"commit", "benefit", "stability", "dirty"} <= set(e) for e in decisions
        )

    def test_remap_cache_events_match_stats(self):
        tracer = EventTracer(capacity=1 << 20)
        _, ctrl, _ = run_traced(tracer=tracer)
        probes = list(tracer.events("remap_cache"))
        assert len(probes) == ctrl.remap_cache.stats.total("hits", "misses")
        hits = sum(1 for e in probes if e["hit"])
        assert hits == ctrl.remap_cache.stats.get("hits")

    def test_metrics_registry_populated(self):
        registry = MetricsRegistry()
        result, ctrl, _ = run_traced(metrics=registry)
        latency = registry.get("repro_mem_latency_cycles")
        # Observed once per demand LLC miss; writebacks/prefetch installs
        # also reach the controller, so its counter is an upper bound.
        assert 0 < latency.total <= ctrl.stats.get("accesses")
        assert registry.get("repro_fetch_sub_blocks").total > 0
        assert registry.get("repro_serve_rate").points
        collect_run_metrics(registry, ctrl, result=result)
        cases = registry.get("repro_access_cases_total")
        for key, value in ctrl.stats.items():
            if key.startswith("case_"):
                assert cases.value(case=key[len("case_"):]) == value
        assert "repro_device_bytes_total" in registry
        text = registry.to_prometheus()
        assert "repro_access_cases_total" in text

    def test_profiled_run_keeps_the_seam(self, monkeypatch):
        """A fresh span tracer, as ``--profile`` attaches, leaves the run
        on the deferred seam (``serve`` takes every miss, so nothing
        declines and per-op ``access`` never runs) and matches the
        unprofiled result bit for bit."""
        def fallback(*args, **kwargs):
            raise AssertionError("a miss left the deferred seam")

        monkeypatch.setattr(BaryonController, "access", fallback)
        plain, plain_ctrl, _ = run_traced(seed=4)
        spans = SpanTracer()
        profiled, ctrl, _ = run_traced(seed=4, spans=spans)
        assert profiled.to_dict() == plain.to_dict()
        assert ctrl.deferred_declines == plain_ctrl.deferred_declines == {}
        assert len(spans) == 4

    def test_profile_spans_account_for_the_run(self):
        """``sim.walk``, ``sim.warmup`` and ``sim.measured`` hang off
        ``sim.run``; the phases split its accesses and instructions."""
        spans = SpanTracer()
        result, _, sim = run_traced(n=800, spans=spans)
        by_name = {span.name: span for span in spans.finished}
        assert set(by_name) == {"sim.run", "sim.walk", "sim.warmup", "sim.measured"}
        run = by_name["sim.run"].attributes
        phases = [by_name[name].attributes for name in ("sim.warmup", "sim.measured")]
        for name in ("sim.walk", "sim.warmup", "sim.measured"):
            assert by_name[name].parent_id == by_name["sim.run"].span_id
        assert by_name["sim.walk"].attributes["accesses"] == 800
        assert sum(phase["accesses"] for phase in phases) == run["accesses"] == 800
        assert (
            sum(phase["instructions"] for phase in phases)
            == run["instructions"] == sim.instructions
        )
        assert phases[1]["instructions"] == result.instructions

    def test_scalar_loop_records_the_run_span_only(self):
        config = make_small_config()
        trace = ZipfWorkload("wl", 4 * config.layout.fast_capacity, seed=5).generate(600)
        ctrl = BaryonController(config, seed=5)
        trace.apply_compressibility(ctrl.oracle)
        spans = SpanTracer()
        SystemSimulator(ctrl, make_small_sim_config(), spans=spans).run(
            trace, scalar=True
        )
        assert [span.name for span in spans.finished] == ["sim.run"]
        assert spans.finished[0].attributes["accesses"] == 600

    def test_metered_fast_loop_matches_scalar_exports(self):
        """A metered fast run stays on the deferred seam: the histogram,
        fed at replay, and the series sampled at chunk boundaries equal
        the scalar loop's per-access observations, across odd windows,
        decimation and progress chunking."""
        exports = []
        served = {True: 0, False: 0}
        for scalar in (True, False):
            config = make_small_config()
            trace = ZipfWorkload(
                "wl", 4 * config.layout.fast_capacity, seed=6
            ).generate(2500)
            registry = MetricsRegistry()
            registry.series("repro_serve_rate", every=7, capacity=8)
            registry.series("repro_ipc", every=7, capacity=8)
            ctrl = BaryonController(config, seed=6, metrics=registry)
            trace.apply_compressibility(ctrl.oracle)
            make_server = ctrl.make_deferred_server

            def counting_server():
                serve, flush, batch = make_server()

                def counting_serve(addr, is_write):
                    served[scalar] += 1
                    return serve(addr, is_write)

                return counting_serve, flush, batch

            ctrl.make_deferred_server = counting_server
            sim = SystemSimulator(
                ctrl, make_small_sim_config(), metrics=registry,
                progress=lambda done, total: None, progress_every=300,
            )
            result = sim.run(trace, scalar=scalar)
            exports.append((result.to_dict(), {
                name: registry.get(name).to_json()
                for name in (
                    "repro_mem_latency_cycles", "repro_serve_rate", "repro_ipc"
                )
            }))
        assert exports[0] == exports[1]
        assert exports[0][1]["repro_serve_rate"]["every"] > 7
        # The scalar loop never serves; the fast loop serves every op.
        assert served[True] == 0 < served[False] == ctrl.stats.get("accesses")

    def test_untraced_run_unchanged(self):
        """Observability off must not perturb simulation results."""
        plain, _, _ = run_traced(seed=9)
        traced, _, _ = run_traced(seed=9, tracer=EventTracer(capacity=1 << 20))
        assert plain.cycles == traced.cycles
        assert plain.fast_traffic_bytes == traced.fast_traffic_bytes
        assert plain.case_counts == traced.case_counts


class TestWarmupWindow:
    def test_zero_warmup_measures_everything(self):
        config = make_small_config()
        sim_config = make_small_sim_config()
        sim_config = type(sim_config)(
            hierarchy=sim_config.hierarchy, warmup_fraction=0.0
        )
        trace = ZipfWorkload("wl", 4 * config.layout.fast_capacity, seed=2).generate(1500)
        ctrl = BaryonController(config, seed=2)
        trace.apply_compressibility(ctrl.oracle)
        result = SystemSimulator(ctrl, sim_config).run(trace)
        assert result.memory_accesses == ctrl.stats.get("accesses")
        assert sum(result.case_counts.values()) == ctrl.stats.get("accesses")

    def test_empty_trace_yields_empty_window(self):
        config = make_small_config()
        trace = ZipfWorkload("wl", 4 * config.layout.fast_capacity, seed=2).generate(0)
        ctrl = BaryonController(config, seed=2)
        result = SystemSimulator(ctrl, make_small_sim_config()).run(trace)
        assert result.instructions == 0
        assert result.memory_accesses == 0
        assert result.cycles == 0.0

    def test_full_warmup_yields_empty_window(self):
        """If rounding pushes warmup_end up to n, the measured window must
        come out empty — not crash or report garbage deltas."""
        config = make_small_config()
        sim_config = make_small_sim_config()
        trace = ZipfWorkload("wl", 4 * config.layout.fast_capacity, seed=2).generate(300)
        ctrl = BaryonController(config, seed=2)
        trace.apply_compressibility(ctrl.oracle)
        sim = SystemSimulator(ctrl, sim_config)

        # SimulationConfig validates warmup_fraction < 1, so fake the
        # pathological rounding with a duck-typed stand-in.
        class _FullWarmup:
            hierarchy = sim_config.hierarchy
            base_cpi = sim_config.base_cpi
            memory_level_parallelism = sim_config.memory_level_parallelism
            warmup_fraction = 1.0

        sim.config = _FullWarmup()
        result = sim.run(trace)
        assert result.memory_accesses == 0
        assert result.instructions == 0
        assert result.cycles == 0.0
        assert ctrl.stats.get("accesses") > 0  # the trace really ran


class TestCliObservability:
    def test_trace_subcommand(self, tmp_path, capsys):
        from repro.__main__ import main

        out = tmp_path / "t.jsonl"
        code = main([
            "trace", "YCSB-B", "baryon", "--accesses", "1200",
            "--scale", "512", "--out", str(out),
        ])
        assert code == 0
        events = load_jsonl(str(out))
        assert any(e["type"] == "access" for e in events)
        assert "events" in capsys.readouterr().out

    def test_trace_rejects_unknown_workload(self):
        from repro.__main__ import main

        assert main(["trace", "nope"]) == 2

    def test_report_subcommand_with_metrics(self, capsys):
        from repro.__main__ import main

        code = main([
            "report", "YCSB-B", "baryon", "--accesses", "1200",
            "--scale", "512", "--metrics", "--format", "prometheus",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "access cases (from trace)" in out
        assert "repro_mem_latency_cycles" in out
        assert "# TYPE repro_access_cases_total counter" in out

    def test_report_json_format(self, capsys):
        from repro.__main__ import main

        code = main([
            "report", "YCSB-B", "--accesses", "800", "--scale", "512",
            "--metrics", "--format", "json",
        ])
        assert code == 0
        out = capsys.readouterr().out
        payload = json.loads(out[out.index("{"):])
        assert "repro_mem_latency_cycles" in payload

    @pytest.mark.parametrize("command", [[], ["report"]])
    def test_profile_flag_prints_span_tree(self, capsys, command):
        from repro.__main__ import main

        argv = [*command, "YCSB-B", "baryon", "--accesses", "800",
                "--scale", "512"]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        assert main([*argv, "--profile"]) == 0
        out = capsys.readouterr().out
        assert out.startswith(plain)
        tree = out[len(plain):].splitlines()
        assert tree[0].startswith("sim.run (")
        assert [line.split(" (")[0] for line in tree[1:]] == [
            "  sim.walk", "  sim.warmup", "  sim.measured",
        ]

    @pytest.mark.parametrize("command", [[], ["report"]])
    def test_matrix_profile_flag_prints_span_tree(self, capsys, command):
        from repro.__main__ import main

        argv = [*command, "YCSB-B,YCSB-C", "simple", "--accesses", "600",
                "--scale", "512"]
        assert main(argv) == 0
        plain = capsys.readouterr().out
        assert main([*argv, "--profile"]) == 0
        out = capsys.readouterr().out
        tables = plain[plain.index("IPC"):]
        assert tables in out
        tree = out[out.index(tables) + len(tables):]
        assert tree.startswith("sweep (")
        for name in ("sim.run", "sim.walk", "sim.warmup", "sim.measured"):
            assert tree.count(f" {name} (") == 2


# ------------------------------------------------- sweep-telemetry satellites
class TestLabelEscaping:
    """Prometheus label values must escape backslash, quote, newline."""

    def test_quote_backslash_newline_escaped(self):
        c = LabeledCounter("n", label_names=("path",))
        c.inc(1, path='C:\\dir\\"quoted"\nline')
        line = c.exposition()[-1]
        assert line == 'n{path="C:\\\\dir\\\\\\"quoted\\"\\nline"} 1'
        # The rendered value must not contain a raw newline or an
        # unescaped quote that would break the exposition line format.
        assert "\n" not in line

    def test_plain_values_untouched(self):
        c = LabeledCounter("n", label_names=("case",))
        c.inc(2, case="commit_hit")
        assert 'n{case="commit_hit"} 2' in c.exposition()

    def test_histogram_and_series_unaffected(self):
        h = Histogram("h", buckets=(1.0,))
        h.observe(0.5)
        assert 'h_bucket{le="1"} 1' in h.exposition()


class TestTimeSeriesNextDue:
    """``next_due``-driven interval sampling must replay per-access
    ``tick`` exactly, including across decimation."""

    def test_next_due_reports_next_window_boundary(self):
        ts = TimeSeries("s", every=10)
        assert ts.next_due() == 10
        for _ in range(9):
            ts.tick(1.0)
        assert ts.next_due() == 10
        ts.tick(1.0)
        assert ts.next_due() == 20

    def test_sample_at_replays_tick_exactly(self):
        ticked = TimeSeries("a", every=7)
        values = [float(i * i % 13) for i in range(1, 101)]
        for i, v in enumerate(values, start=1):
            ticked.tick(v)
        sampled = TimeSeries("b", every=7)
        while sampled.next_due() <= len(values):
            due = sampled.next_due()
            sampled.sample_at(due, values[due - 1])
        sampled.advance_to(len(values))
        assert sampled.points == ticked.points
        assert sampled.ticks == ticked.ticks
        assert sampled.every == ticked.every

    def test_equivalence_across_decimation(self):
        n = 400
        ticked = TimeSeries("a", every=2, capacity=16)
        for i in range(1, n + 1):
            ticked.tick(float(i))
        sampled = TimeSeries("b", every=2, capacity=16)
        # next_due must be re-queried after every sample: decimation
        # widens the window mid-run.
        while sampled.next_due() <= n:
            due = sampled.next_due()
            sampled.sample_at(due, float(due))
        sampled.advance_to(n)
        assert sampled.every == ticked.every
        assert sampled.points == ticked.points

    def test_trailing_partial_window_not_recorded(self):
        ts = TimeSeries("s", every=10)
        ts.sample_at(10, 1.0)
        ts.advance_to(15)
        assert ts.points == [(10, 1.0)]
        assert ts.ticks == 15
        assert ts.next_due() == 20


class TestTracerFlushOnFinalize:
    """The simulator must flush the JSONL sink at run end, so short
    traced runs have their tail events on disk without ``close()``."""

    def test_sink_flushed_without_close(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with open(path, "w", encoding="utf-8") as sink:
            tracer = EventTracer(capacity=1 << 16, sink=sink)
            run_traced(n=600, tracer=tracer)
            # Sink deliberately NOT closed and tracer.close() not called:
            # _finalize's flush alone must have pushed every line out.
            lines = path.read_text().strip().splitlines()
            assert len(lines) == tracer.sampled
            assert all(json.loads(line)["seq"] for line in lines)

    def test_close_is_idempotent_and_detaches(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with open(path, "w", encoding="utf-8") as sink:
            tracer = EventTracer(sink=sink)
            tracer.emit("access", case="x")
            tracer.close()
            tracer.close()  # second close: no-op, no error
            tracer.emit("access", case="y")  # post-close emits drop the sink
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1

    def test_flush_without_sink_is_noop(self):
        tracer = EventTracer()
        tracer.flush()
        tracer.close()
        assert NULL_TRACER.flush() is None
        assert NULL_TRACER.close() is None


# ------------------------------------------------------- manifest revision
def _rev_parse(directory) -> "str | None":
    """``git rev-parse HEAD`` in ``directory``, or ``None`` if it fails."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=directory,
            capture_output=True, text=True, timeout=5.0,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    revision = proc.stdout.strip()
    return revision if proc.returncode == 0 and revision else None


def _manifest_run(path):
    """Run a one-cell plan that writes a manifest to ``path``; return it."""
    from repro.obs import load_manifest
    from repro.parallel import plan_cells, run_plan

    plan = plan_cells(["YCSB-B"], ["simple"], seed=3)
    run_plan(
        plan, make_small_config(), make_small_sim_config(), n_accesses=300,
        jobs=1, manifest=str(path),
    )
    return load_manifest(str(path))


class TestManifestRevision:
    """The manifest's ``git_revision`` is HEAD of the working directory's
    repository, computed once per process for each directory."""

    def test_revision_is_head_inside_repo_and_none_outside(
        self, tmp_path, monkeypatch
    ):
        repo = Path(__file__).resolve().parent.parent
        monkeypatch.chdir(repo)
        inside = _manifest_run(tmp_path / "inside.json")
        assert inside["git_revision"] == _rev_parse(repo)
        outside_dir = tmp_path / "plain"
        outside_dir.mkdir()
        if _rev_parse(outside_dir) is not None:
            pytest.skip("the temporary directory lies inside a git repository")
        monkeypatch.chdir(outside_dir)
        assert _manifest_run(tmp_path / "outside.json")["git_revision"] is None

    def test_git_runs_at_most_once_per_directory(self, tmp_path, monkeypatch):
        manifest_module._git_revision_at.cache_clear()
        git_calls = []
        real_run = subprocess.run

        def counting_run(args, *rest, **kwargs):
            if args and args[0] == "git":
                git_calls.append(args)
            return real_run(args, *rest, **kwargs)

        monkeypatch.setattr(manifest_module.subprocess, "run", counting_run)
        monkeypatch.chdir(tmp_path)
        first = _manifest_run(tmp_path / "first.json")
        second = _manifest_run(tmp_path / "second.json")
        assert len(git_calls) <= 1
        assert first["git_revision"] == second["git_revision"]
