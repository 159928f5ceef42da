"""Sweep-scale telemetry: heartbeats, spans through the runner,
cross-shard metric aggregation, and run manifests.

The load-bearing guarantees pinned here:

* telemetry (spans, progress, metrics) changes **nothing** about the
  fold — counters and results are bit-identical with it on or off,
  serial or pooled;
* shard-labeled counters collapsed with ``sum_over_label`` equal the
  registry a single serial run accumulates, bit for bit;
* heartbeats extend the dead-worker deadline (a slow-but-beating cell
  is not reaped), while the no-telemetry deadline semantics are
  untouched;
* a manifest written by one run diffs clean against a re-run of the
  same plan and flags a different plan as an identity difference.
"""

from __future__ import annotations

import io
import json
import os

import pytest

from repro.analysis.experiments import run_cell
from repro.common.errors import ConfigurationError
from repro.obs import (
    HEARTBEAT_SCHEMA,
    MetricsRegistry,
    ProgressTracker,
    SpanTracer,
    aggregate_shard_snapshots,
    build_manifest,
    counter_digest,
    diff_manifests,
    format_diff,
    load_manifest,
    make_heartbeat,
    merge_snapshot,
    sum_over_label,
    write_manifest,
)
from repro.obs.metrics import Histogram
from repro.parallel import (
    SweepTelemetry,
    clear_trace_cache,
    fork_available,
    plan_cells,
    run_plan,
)
from repro.workloads import build_workload

from tests.conftest import make_small_config, make_small_sim_config

WORKLOADS = ["YCSB-B", "557.xz_r"]
DESIGNS = ["simple", "baryon"]
N_ACCESSES = 1200


@pytest.fixture(autouse=True)
def _fresh_trace_cache():
    clear_trace_cache()
    yield
    clear_trace_cache()


def small_configs():
    return make_small_config(), make_small_sim_config()


def make_plan():
    return plan_cells(WORKLOADS, DESIGNS, seed=3)


# --------------------------------------------------------------- heartbeats
class FakeCell:
    index = 4
    workload = "YCSB-B"
    design = "baryon"
    seed = 3


class TestHeartbeats:
    def test_make_heartbeat_matches_schema(self):
        event = make_heartbeat(FakeCell(), 2, 500, 1000, 0.25, 123)
        for field in HEARTBEAT_SCHEMA["heartbeat"]:
            assert field in event
        assert event["type"] == "heartbeat"
        assert event["cell"] == 4 and event["attempt"] == 2
        assert event["accesses_per_s"] == pytest.approx(2000.0)
        json.dumps(event)

    def test_zero_elapsed_rate_is_zero(self):
        assert make_heartbeat(FakeCell(), 1, 0, 10, 0.0, 1)["accesses_per_s"] == 0.0

    def test_tracker_folds_lifecycle(self):
        tracker = ProgressTracker(total_cells=2)
        tracker.on_event(make_heartbeat(FakeCell(), 1, 500, 1000, 0.5, 1))
        assert tracker.running_cells == 1
        assert tracker.aggregate_rate() == pytest.approx(1000.0)
        # 500 left on the running cell plus one queued 1000-access cell.
        assert tracker.eta_s() == pytest.approx(1.5)
        tracker.on_event({"type": "cell_done", "cell": 4})
        assert tracker.cells_done == 1 and tracker.running_cells == 0
        tracker.on_event({"type": "cell_failed", "cell": 5})
        assert tracker.cells_done == 2 and tracker.cells_failed == 1
        assert "FAILED" in tracker.status_line()

    def test_eta_unknown_without_rate(self):
        tracker = ProgressTracker(total_cells=2)
        assert tracker.eta_s() is None
        assert "eta ?" in tracker.status_line()

    def test_sink_receives_every_event(self):
        sink = io.StringIO()
        tracker = ProgressTracker(total_cells=1, sink=sink)
        tracker.on_event(make_heartbeat(FakeCell(), 1, 10, 100, 0.1, 1))
        tracker.on_event({"type": "cell_done", "cell": 4})
        tracker.finish()
        lines = [json.loads(line) for line in sink.getvalue().splitlines()]
        assert [e["type"] for e in lines] == ["heartbeat", "cell_done"]

    def test_render_repaints_one_line(self):
        stream = io.StringIO()
        clock = iter([1.0, 1.05, 2.0]).__next__
        tracker = ProgressTracker(total_cells=1, stream=stream, clock=clock)
        tracker.on_event(make_heartbeat(FakeCell(), 1, 10, 100, 0.1, 1))
        tracker.on_event(make_heartbeat(FakeCell(), 1, 20, 100, 0.2, 1))
        assert stream.getvalue().count("\r\x1b[K") == 1  # second paint throttled
        tracker.finish()
        assert stream.getvalue().endswith("\n")


# ------------------------------------------------------ cross-shard metrics
_SHARD_CACHE = {}


class TestCrossShardAggregation:
    def run_shards(self):
        # The per-cell runs are deterministic; compute them once for the
        # whole class instead of once per test.
        if "runs" not in _SHARD_CACHE:
            config, sim_config = small_configs()
            snapshots = {}
            serial = MetricsRegistry()
            for cell in make_plan():
                shard = MetricsRegistry()
                run_cell(
                    cell.workload, cell.design, config, sim_config,
                    n_accesses=N_ACCESSES, seed=cell.seed, metrics=shard,
                )
                snapshots[cell.index] = shard.to_json()
                run_cell(
                    cell.workload, cell.design, config, sim_config,
                    n_accesses=N_ACCESSES, seed=cell.seed, metrics=serial,
                )
            _SHARD_CACHE["runs"] = (snapshots, serial)
        return _SHARD_CACHE["runs"]

    def test_shard_labeled_counters_sum_bit_identically(self):
        snapshots, serial = self.run_shards()
        merged = aggregate_shard_snapshots(snapshots)
        checked = 0
        for name in serial:
            metric = serial.get(name)
            if metric.kind != "counter":
                continue
            shard_counter = merged.get(name)
            assert shard_counter.label_names == ("shard", *metric.label_names)
            assert sum_over_label(shard_counter) == dict(metric._values)
            checked += 1
        assert checked >= 4  # cases, events, device bytes/transfers, ...

    def test_histograms_fold_elementwise(self):
        snapshots, serial = self.run_shards()
        merged = aggregate_shard_snapshots(snapshots)
        latency = serial.get("repro_mem_latency_cycles")
        folded = merged.get("repro_mem_latency_cycles")
        assert folded.counts == latency.counts
        assert folded.total == latency.total
        assert folded.sum == pytest.approx(latency.sum)
        assert folded.min == latency.min and folded.max == latency.max

    def test_series_kept_per_shard(self):
        snapshots, _ = self.run_shards()
        merged = aggregate_shard_snapshots(snapshots)
        per_shard = [name for name in merged if ":" in name]
        assert per_shard, "expected per-shard series entries"
        for name in per_shard:
            assert name.rsplit(":", 1)[1] in {str(i) for i in snapshots}

    def test_bucket_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.histogram("h", buckets=(1.0, 2.0))
        snap = {"h": Histogram("h", buckets=(1.0, 3.0)).to_json()}
        with pytest.raises(ValueError, match="bucket bounds"):
            merge_snapshot(registry, snap)

    def test_sum_over_label_requires_label(self):
        registry = MetricsRegistry()
        counter = registry.counter("c", labels=("case",))
        counter.inc(1, case="x")
        with pytest.raises(ValueError, match="no label"):
            sum_over_label(counter)

    def test_merged_registry_exports_prometheus(self):
        snapshots, _ = self.run_shards()
        merged = aggregate_shard_snapshots(snapshots)
        text = merged.to_prometheus()
        assert 'shard="0"' in text and "# TYPE" in text


# ------------------------------------------------- telemetry through run_plan
def full_telemetry(n_cells, collect_metrics=True, sink=None):
    return SweepTelemetry(
        spans=SpanTracer(origin="sweep"),
        progress=ProgressTracker(total_cells=n_cells, sink=sink),
        collect_metrics=collect_metrics,
        heartbeat_every=300,
    )


class TestRunPlanTelemetry:
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_counters_bit_identical_with_telemetry(self, jobs):
        if jobs > 1 and not fork_available():
            pytest.skip("fork not available")
        config, sim_config = small_configs()
        plan = make_plan()
        baseline = run_plan(plan, config, sim_config,
                            n_accesses=N_ACCESSES, jobs=1)
        clear_trace_cache()
        telemetry = full_telemetry(len(plan))
        observed = run_plan(plan, config, sim_config,
                            n_accesses=N_ACCESSES, jobs=jobs,
                            telemetry=telemetry)
        assert observed.counters.as_dict() == baseline.counters.as_dict()
        assert observed.device_counters.as_dict() == baseline.device_counters.as_dict()
        assert {k: r.to_dict() for k, r in observed.results.items()} == \
               {k: r.to_dict() for k, r in baseline.results.items()}
        assert observed.metrics is not None

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_span_tree_covers_sweep_cell_phase(self, jobs):
        if jobs > 1 and not fork_available():
            pytest.skip("fork not available")
        config, sim_config = small_configs()
        plan = make_plan()
        telemetry = full_telemetry(len(plan), collect_metrics=False)
        run_plan(plan, config, sim_config, n_accesses=N_ACCESSES,
                 jobs=jobs, telemetry=telemetry)
        spans = telemetry.spans.export()
        by_name = {}
        for span in spans:
            by_name.setdefault(span["name"], []).append(span)
        for phase in ("sweep", "plan", "simulate", "merge"):
            assert len(by_name[phase]) == 1, phase
        if jobs > 1:
            assert len(by_name["fork"]) == 1
        assert len(by_name["cell"]) == len(plan)
        # Worker-side spans were adopted under the parent cell spans.
        cell_ids = {s["span_id"] for s in by_name["cell"]}
        assert len(by_name["sim.run"]) == len(plan)
        for span in by_name["cell.trace"] + by_name["sim.run"]:
            assert span["parent_id"] in cell_ids
        # Every span is closed and the tree renders.
        assert all(s["end_s"] is not None for s in spans)
        assert telemetry.spans.format_tree().startswith("sweep")
        assert telemetry.spans.open_spans == 0

    def test_no_fork_span_when_no_pool_is_built(self, monkeypatch):
        import repro.parallel.runner as runner

        monkeypatch.setattr(runner, "fork_available", lambda: False)
        config, sim_config = small_configs()
        plan = make_plan()
        telemetry = full_telemetry(len(plan), collect_metrics=False)
        outcome = run_plan(plan, config, sim_config, n_accesses=N_ACCESSES,
                           jobs=2, telemetry=telemetry)
        names = [span["name"] for span in telemetry.spans.export()]
        assert "fork" not in names
        assert names.count("cell") == len(plan)
        assert len(outcome.results) == len(plan)

    def test_progress_stream_sees_heartbeats_and_completions(self):
        config, sim_config = small_configs()
        plan = make_plan()
        sink = io.StringIO()
        telemetry = full_telemetry(len(plan), collect_metrics=False, sink=sink)
        run_plan(plan, config, sim_config, n_accesses=N_ACCESSES,
                 jobs=1, telemetry=telemetry)
        events = [json.loads(line) for line in sink.getvalue().splitlines()]
        types = {e["type"] for e in events}
        assert "heartbeat" in types and "cell_done" in types
        done = [e for e in events if e["type"] == "cell_done"]
        assert {e["cell"] for e in done} == {c.index for c in plan}
        assert telemetry.progress.cells_done == len(plan)

    @pytest.mark.skipif(not fork_available(), reason="needs fork")
    def test_pool_heartbeats_flow_back(self):
        config, sim_config = small_configs()
        plan = make_plan()
        sink = io.StringIO()
        telemetry = full_telemetry(len(plan), collect_metrics=False, sink=sink)
        run_plan(plan, config, sim_config, n_accesses=N_ACCESSES,
                 jobs=2, telemetry=telemetry)
        events = [json.loads(line) for line in sink.getvalue().splitlines()]
        beats = [e for e in events if e["type"] == "heartbeat"]
        assert beats, "expected worker heartbeats through the queue"
        assert all(e["pid"] != os.getpid() for e in beats)
        assert telemetry.progress.cells_done == len(plan)

    def test_requeue_surfaces_as_span_event(self, monkeypatch):
        import repro.parallel.runner as runner

        config, sim_config = small_configs()
        plan = plan_cells(["YCSB-B"], ["simple"], seed=3)
        original = runner._execute_cell
        calls = {"n": 0}

        def flaky(cell, config, sim_config, n_accesses, attempt=1, **kwargs):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("transient")
            return original(cell, config, sim_config, n_accesses, attempt,
                            **kwargs)

        monkeypatch.setattr(runner, "_execute_cell", flaky)
        telemetry = full_telemetry(len(plan), collect_metrics=False)
        outcome = run_plan(plan, config, sim_config, n_accesses=600,
                           jobs=1, telemetry=telemetry, max_attempts=2)
        assert outcome.retries == 1 and not outcome.failed
        cell_spans = [s for s in telemetry.spans.export() if s["name"] == "cell"]
        events = [e for span in cell_spans for e in span["events"]]
        assert any(e["name"] == "requeue" for e in events)

    @pytest.mark.skipif(not fork_available(), reason="needs fork")
    def test_heartbeats_extend_dead_worker_deadline(self):
        """A cell slower than the timeout but beating regularly is never
        reaped: the deadline runs from the last heartbeat."""
        config, sim_config = small_configs()
        plan = plan_cells(["YCSB-B"], ["simple", "baryon"], seed=3)
        telemetry = SweepTelemetry(
            progress=ProgressTracker(total_cells=len(plan)),
            heartbeat_every=200,
        )
        outcome = run_plan(
            plan, config, sim_config, n_accesses=60_000, jobs=2,
            telemetry=telemetry, cell_timeout_s=1.0, max_attempts=2,
        )
        assert not outcome.failed
        assert outcome.retries == 0
        assert len(outcome.results) == len(plan)

    def test_stale_attempt_beat_does_not_extend_deadline(self):
        """Regression: a heartbeat from a superseded attempt must not
        refresh the *current* attempt's dead/hung deadlines. After a
        requeue, the abandoned worker of attempt 1 can keep beating for a
        long time; if those beats reset attempt 2's clock, a genuinely
        dead attempt-2 worker would never be reaped."""
        from repro.parallel.runner import _Inflight

        entry = _Inflight(attempt=2, handle=None, now=100.0)
        stale = {"attempt": 1, "done": 700, "total": 800}
        current = {"attempt": 2, "done": 100, "total": 800}

        assert entry.note_beat(dict(current), 100.5)
        # Interleave stale attempt-1 beats: rejected, and none of the
        # bookkeeping (beat clock, progress clock, done counter) moves.
        for now in (101.0, 102.0, 103.0):
            assert not entry.note_beat(dict(stale), now)
        assert entry.last_beat_t == 100.5
        assert entry.last_progress_t == 100.5
        assert entry.last_done == 100
        # With only stale beats since 100.5, attempt 2 is declared dead…
        assert entry.dead(104.0, 3.0)
        # …whereas a real attempt-2 beat does extend the deadline.
        assert entry.note_beat(dict(current, done=200), 104.0)
        assert not entry.dead(104.5, 3.0)

    def test_resumed_cells_reported_to_progress(self, tmp_path):
        config, sim_config = small_configs()
        plan = make_plan()
        ckpt = str(tmp_path / "sweep.json")
        run_plan(plan, config, sim_config, n_accesses=N_ACCESSES,
                 jobs=1, checkpoint=ckpt)
        sink = io.StringIO()
        telemetry = full_telemetry(len(plan), collect_metrics=False, sink=sink)
        outcome = run_plan(plan, config, sim_config, n_accesses=N_ACCESSES,
                           jobs=1, resume=ckpt, telemetry=telemetry)
        assert outcome.resumed == len(plan)
        events = [json.loads(line) for line in sink.getvalue().splitlines()]
        assert sum(e["type"] == "cell_done" for e in events) == len(plan)
        assert all(e.get("resumed") for e in events if e["type"] == "cell_done")
        sweep = [s for s in telemetry.spans.export() if s["name"] == "sweep"][0]
        assert any(e["name"] == "resume" for e in sweep["events"])


# ----------------------------------------------------------------- manifests
class TestManifests:
    def build(self, tmp_path, seed=3, name="run.manifest.json"):
        config, sim_config = small_configs()
        plan = plan_cells(["YCSB-B"], DESIGNS, seed=seed)
        path = str(tmp_path / name)
        outcome = run_plan(plan, config, sim_config, n_accesses=600,
                           jobs=1, manifest=path)
        return path, outcome

    def test_roundtrip_and_contents(self, tmp_path):
        path, outcome = self.build(tmp_path)
        doc = load_manifest(path)
        assert doc["cells"] == 2 and not doc["failed"]
        assert len(doc["results"]) == 2
        for entry in doc["results"].values():
            assert set(entry) == {"digest", "ipc", "serve_rate", "bandwidth_bloat"}
        assert doc["counter_digest"] == counter_digest({
            "controller": outcome.counters,
            "devices": outcome.device_counters,
            "compression": outcome.compression_counters,
            "resilience": outcome.resilience_counters,
        })
        assert doc["packages"]["python"]
        assert doc["wall_s"] > 0

    def test_rerun_diffs_clean_on_identity(self, tmp_path):
        path_a, _ = self.build(tmp_path, name="a.json")
        clear_trace_cache()
        path_b, _ = self.build(tmp_path, name="b.json")
        diff = diff_manifests(load_manifest(path_a), load_manifest(path_b))
        assert diff["identity"] == []
        assert "equivalent" in format_diff(diff) or \
               format_diff(diff) == "manifests are identical"

    def test_different_plan_is_identity_difference(self, tmp_path):
        path_a, _ = self.build(tmp_path, seed=3, name="a.json")
        clear_trace_cache()
        path_b, _ = self.build(tmp_path, seed=4, name="b.json")
        diff = diff_manifests(load_manifest(path_a), load_manifest(path_b))
        assert any(entry.startswith("fingerprint") for entry in diff["identity"])
        assert "identity differences" in format_diff(diff)

    def test_checkpoint_gets_sidecar_manifest(self, tmp_path):
        config, sim_config = small_configs()
        plan = plan_cells(["YCSB-B"], ["simple"], seed=3)
        ckpt = str(tmp_path / "sweep.json")
        run_plan(plan, config, sim_config, n_accesses=600, jobs=1,
                 checkpoint=ckpt)
        doc = load_manifest(ckpt + ".manifest.json")
        assert doc["cells"] == 1

    def test_load_rejects_garbage(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigurationError, match="not valid JSON"):
            load_manifest(str(bad))
        bad.write_text('{"magic": "other"}')
        with pytest.raises(ConfigurationError, match="missing magic"):
            load_manifest(str(bad))
        bad.write_text('{"magic": "repro-run-manifest", "version": 99}')
        with pytest.raises(ConfigurationError, match="version"):
            load_manifest(str(bad))
        with pytest.raises(ConfigurationError, match="cannot read"):
            load_manifest(str(tmp_path / "missing.json"))

    def test_counter_digest_is_order_free(self):
        from repro.common.stats import CounterGroup

        a = CounterGroup("g")
        a.inc("x", 1)
        a.inc("y", 2)
        b = CounterGroup("g")
        b.inc("y", 2)
        b.inc("x", 1)
        assert counter_digest({"g": a}) == counter_digest({"g": b})
        b.inc("x", 1)
        assert counter_digest({"g": a}) != counter_digest({"g": b})

    def test_write_is_atomic_replace(self, tmp_path):
        path = tmp_path / "m.json"
        config, sim_config = small_configs()
        plan = plan_cells(["YCSB-B"], ["simple"], seed=3)
        outcome = run_plan(plan, config, sim_config, n_accesses=600, jobs=1)
        from repro.resilience.checkpoint import plan_fingerprint

        fingerprint = plan_fingerprint(plan, 600, config, sim_config)
        doc = build_manifest(fingerprint, outcome, plan)
        write_manifest(str(path), doc)
        write_manifest(str(path), doc)  # overwrite in place
        assert load_manifest(str(path))["fingerprint"] == fingerprint
        assert not [p for p in tmp_path.iterdir() if p.name.startswith(".manifest-")]


# ----------------------------------------------------------------------- CLI
class TestTelemetryCli:
    def test_matrix_with_telemetry_flags(self, tmp_path, capsys):
        from repro.__main__ import main

        spans_path = tmp_path / "spans.jsonl"
        progress_path = tmp_path / "progress.jsonl"
        manifest_path = tmp_path / "run.manifest.json"
        code = main([
            "YCSB-B,YCSB-C", "simple,baryon", "--accesses", "1000",
            "--scale", "512", "--jobs", "2",
            "--trace-spans", str(spans_path),
            "--progress-out", str(progress_path),
            "--manifest", str(manifest_path),
        ])
        assert code == 0
        from repro.obs import load_spans

        spans = load_spans(str(spans_path))
        assert any(s["name"] == "sweep" for s in spans)
        events = [json.loads(line)
                  for line in progress_path.read_text().splitlines()]
        assert sum(e["type"] == "cell_done" for e in events) == 4
        assert load_manifest(str(manifest_path))["cells"] == 4
        assert "wrote" in capsys.readouterr().err

    def test_manifest_show_and_diff(self, tmp_path, capsys):
        from repro.__main__ import main

        manifest_path = tmp_path / "run.manifest.json"
        assert main([
            "YCSB-B,YCSB-C", "simple", "--accesses", "800", "--scale", "512",
            "--manifest", str(manifest_path),
        ]) == 0
        capsys.readouterr()
        assert main(["manifest", "show", str(manifest_path)]) == 0
        out = capsys.readouterr().out
        assert "fingerprint" in out and "YCSB-B/simple" in out
        assert main([
            "manifest", "diff", str(manifest_path), str(manifest_path),
        ]) == 0
        assert "identical" in capsys.readouterr().out

    def test_manifest_diff_exit_code_on_identity_difference(self, tmp_path, capsys):
        from repro.__main__ import main

        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert main(["YCSB-B,YCSB-C", "simple", "--accesses", "600",
                     "--scale", "512", "--manifest", str(a)]) == 0
        assert main(["YCSB-B,YCSB-C", "simple", "--accesses", "700",
                     "--scale", "512", "--manifest", str(b)]) == 0
        capsys.readouterr()
        assert main(["manifest", "diff", str(a), str(b)]) == 1
        assert "identity differences" in capsys.readouterr().out

    def test_manifest_rejects_garbage(self, tmp_path, capsys):
        from repro.__main__ import main

        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert main(["manifest", "show", str(bad)]) == 2

    def test_report_matrix_metrics_includes_shards(self, capsys):
        from repro.__main__ import main

        code = main([
            "report", "YCSB-B,YCSB-C", "simple", "--accesses", "800",
            "--scale", "512", "--metrics", "--format", "prometheus",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert 'shard="0"' in out
        assert "repro_matrix_controller_total" in out


# ------------------------------------------------------- simulator progress
class TestSimulatorProgress:
    def test_progress_chunks_preserve_bit_identity(self):
        config, sim_config = small_configs()
        trace = build_workload(
            "YCSB-B", config.layout.fast_capacity, n_accesses=2000, seed=3
        )
        plain, _ = run_cell("YCSB-B", "baryon", config, sim_config,
                            n_accesses=2000, seed=3,
                            trace=trace.replay_view())
        seen = []
        chunked, _ = run_cell("YCSB-B", "baryon", config, sim_config,
                              n_accesses=2000, seed=3,
                              trace=trace.replay_view(),
                              progress=lambda done, total: seen.append((done, total)),
                              progress_every=300)
        assert chunked.to_dict() == plain.to_dict()
        assert seen, "progress callback never fired"
        dones = [d for d, _ in seen]
        assert dones == sorted(dones)
        assert seen[-1][0] == seen[-1][1]

    def test_scalar_loop_final_progress_call(self):
        from repro.analysis.experiments import build_controller
        from repro.sim.system import SystemSimulator

        config, sim_config = small_configs()
        trace = build_workload(
            "YCSB-B", config.layout.fast_capacity, n_accesses=1000, seed=3
        )
        controller = build_controller("simple", config, seed=3)
        if hasattr(controller, "oracle"):
            trace.apply_compressibility(controller.oracle)
        seen = []
        simulator = SystemSimulator(
            controller, sim_config,
            progress=lambda done, total: seen.append((done, total)),
            progress_every=300,
        )
        simulator.run(trace, name="YCSB-B", design="simple", scalar=True)
        # Stride reports every 300 accesses plus exactly one trailing
        # call for the remainder — never a duplicate (n, n).
        n = seen[-1][1]
        expected = [(done, n) for done in range(300, n + 1, 300)]
        if n % 300:
            expected.append((n, n))
        assert seen == expected
