"""The serve package — job specs, the fingerprint-keyed result cache,
the async HTTP job server — plus the PR 9 correctness fixes: versioned
plan fingerprints, progress rate/ETA accounting, temp-file hygiene."""

import asyncio
import dataclasses
import json
import os
import threading

import pytest

from repro.common.config import ResilienceConfig
from repro.common.errors import ConfigurationError
from repro.common.fsio import durable_replace, remove_stale_temps
from repro.obs.progress import ProgressTracker
from repro.parallel import CellExecutor, clear_trace_cache, plan_cells, run_plan
from repro.resilience import ChaosPlan, cell_fingerprint, plan_fingerprint
from repro.serve import JobSpec, ResultCache, build_configs
from repro.serve.jobs import Job, run_job
from repro.serve.server import JobServer
from repro.serve.client import ServeClient, ServeError

from tests.conftest import make_small_config, make_small_sim_config

WORKLOADS = ["YCSB-B"]
DESIGNS = ["simple", "baryon"]
N_ACCESSES = 600


@pytest.fixture(autouse=True)
def _fresh_trace_cache():
    clear_trace_cache()
    yield
    clear_trace_cache()


def _plan():
    return plan_cells(WORKLOADS, DESIGNS, seed=3)


# ---------------------------------------------------------------------------
# Satellite 1: versioned plan fingerprints
# ---------------------------------------------------------------------------


class TestFingerprintV2:
    """Worker chaos and quarantine knobs change which counter outcomes a
    checkpoint can contain, so they must be part of its identity — while
    old clean checkpoints keep resuming under the unversioned digest."""

    def setup_method(self):
        self.config = make_small_config()
        self.sim = make_small_sim_config()

    def _fp(self, **kwargs):
        return plan_fingerprint(
            _plan(), N_ACCESSES, self.config, self.sim, **kwargs
        )

    def test_clean_fingerprint_stays_bare_v1(self):
        fingerprint = self._fp()
        assert not fingerprint.startswith("v")
        assert len(fingerprint) == 64
        int(fingerprint, 16)  # pure hex: the seed format, unchanged

    def test_worker_chaos_versions_and_flips_the_fingerprint(self):
        chaotic = self._fp(chaos=ChaosPlan(p_kill_worker=0.2))
        assert chaotic.startswith("v2:")
        assert chaotic != self._fp()

    def test_chaos_seed_is_part_of_the_identity(self):
        a = self._fp(chaos=ChaosPlan(seed=1, p_kill_worker=0.2))
        b = self._fp(chaos=ChaosPlan(seed=2, p_kill_worker=0.2))
        assert a != b

    def test_write_effect_chaos_keeps_the_clean_identity(self):
        # Torn/flipped/ENOSPC writes damage the *file*, which digests and
        # salvage already guard; they never change what a cell computes.
        chaos = ChaosPlan(
            p_torn_checkpoint=0.5, p_flip_checkpoint=0.5, p_enospc=0.5,
            p_delay_drain=0.5,
        )
        assert self._fp(chaos=chaos) == self._fp()

    def test_interrupt_only_chaos_keeps_the_clean_identity(self):
        # An interrupt changes when a run stops, not what any cell
        # produced — the chaos-soak resumes run 2's checkpoint without
        # the interrupt knob and must keep matching.
        chaos = ChaosPlan(interrupt_after_cells=2)
        assert self._fp(chaos=chaos) == self._fp()

    def test_quarantine_knob_flips_the_fingerprint(self):
        guarded = self._fp(quarantine_after=3)
        assert guarded.startswith("v2:")
        assert guarded != self._fp()
        assert guarded != self._fp(quarantine_after=4)

    def test_fault_spec_flips_via_config_repr(self):
        # --faults lives in BaryonConfig.resilience, which config!r
        # already covers; prove the coverage instead of double-hashing.
        faulty = dataclasses.replace(
            self.config,
            resilience=ResilienceConfig(enabled=True, p_read_transient=0.01),
        )
        assert plan_fingerprint(_plan(), N_ACCESSES, faulty, self.sim) \
            != self._fp()

    def test_cell_fingerprint_separates_every_axis(self):
        base = cell_fingerprint(
            "YCSB-B", "baryon", 1, N_ACCESSES, self.config, self.sim)
        assert base == cell_fingerprint(
            "YCSB-B", "baryon", 1, N_ACCESSES, self.config, self.sim)
        others = {
            cell_fingerprint("YCSB-A", "baryon", 1, N_ACCESSES,
                             self.config, self.sim),
            cell_fingerprint("YCSB-B", "simple", 1, N_ACCESSES,
                             self.config, self.sim),
            cell_fingerprint("YCSB-B", "baryon", 2, N_ACCESSES,
                             self.config, self.sim),
            cell_fingerprint("YCSB-B", "baryon", 1, N_ACCESSES + 1,
                             self.config, self.sim),
        }
        assert base not in others and len(others) == 4


# ---------------------------------------------------------------------------
# Satellite 2: progress rate/ETA accounting
# ---------------------------------------------------------------------------


def _beat(cell, done, total, rate):
    return {
        "type": "heartbeat", "cell": cell, "workload": "w", "design": "d",
        "seed": 1, "attempt": 1, "done": done, "total": total,
        "elapsed_s": 1.0, "accesses_per_s": rate, "pid": 1, "ts": 0.0,
    }


class TestProgressAccounting:
    def test_finished_unreaped_cell_excluded_from_rate(self):
        # A cell's last heartbeat (done == total) lingers in the running
        # map until the parent reaps the payload; its rate must not
        # inflate the aggregate nor drag the ETA negative.
        tracker = ProgressTracker(total_cells=2)
        tracker.on_event(_beat(0, 1000, 1000, 50_000.0))   # finished, unreaped
        tracker.on_event(_beat(1, 500, 1000, 250.0))       # genuinely running
        assert tracker.aggregate_rate() == pytest.approx(250.0)
        eta = tracker.eta_s()
        assert eta is not None and eta == pytest.approx(500 / 250.0)

    def test_eta_never_negative_across_a_full_sequence(self):
        tracker = ProgressTracker(total_cells=2)
        for done in (250, 500, 750, 1000):
            tracker.on_event(_beat(0, done, 1000, 1000.0))
            tracker.on_event(_beat(1, done, 1000, 1000.0))
            eta = tracker.eta_s()
            assert eta is None or eta >= 0.0
        tracker.on_event({"type": "cell_done", "cell": 0, "workload": "w",
                          "design": "d", "seed": 1, "attempt": 1,
                          "elapsed_s": 1.0, "ts": 0.0})
        eta = tracker.eta_s()
        assert eta is None or eta >= 0.0

    def test_only_finished_beats_means_no_rate_and_no_eta(self):
        tracker = ProgressTracker(total_cells=1)
        tracker.on_event(_beat(0, 1000, 1000, 9000.0))
        assert tracker.aggregate_rate() == 0.0
        assert tracker.eta_s() is None

    def test_snapshot_is_json_safe_and_complete(self):
        tracker = ProgressTracker(total_cells=3)
        tracker.on_event(_beat(1, 200, 1000, 400.0))
        snap = tracker.snapshot()
        json.dumps(snap)
        assert snap["total_cells"] == 3
        assert snap["running_cells"] == 1
        assert snap["running"][0]["cell"] == 1
        assert snap["running"][0]["done"] == 200
        assert snap["aggregate_rate"] == pytest.approx(400.0)


# ---------------------------------------------------------------------------
# Satellite 3: temp-file hygiene
# ---------------------------------------------------------------------------


class TestTempHygiene:
    def test_durable_replace_unlinks_temp_on_every_failure(self, tmp_path):
        target = tmp_path / "out.bin"

        def explode(fd, tmp):
            raise OSError(28, "No space left on device")

        with pytest.raises(OSError):
            durable_replace(str(target), b"payload", mutate=explode)
        assert not target.exists()
        assert [p.name for p in tmp_path.iterdir()] == []

    def test_temps_carry_the_tmp_suffix(self, tmp_path):
        seen = {}

        def peek(fd, tmp):
            seen["tmp"] = tmp

        durable_replace(
            str(tmp_path / "out.bin"), b"x",
            prefix=".checkpoint-", mutate=peek,
        )
        name = os.path.basename(seen["tmp"])
        assert name.startswith(".checkpoint-") and name.endswith(".tmp")

    def test_remove_stale_temps_matches_prefixes_only(self, tmp_path):
        for name in (".checkpoint-abc.tmp", ".manifest-xyz.tmp",
                     ".other-1.tmp", "data.ckpt"):
            (tmp_path / name).write_bytes(b"")
        removed = remove_stale_temps(
            str(tmp_path / "data.ckpt"), (".checkpoint-", ".manifest-"),
        )
        assert sorted(removed) == [".checkpoint-abc.tmp", ".manifest-xyz.tmp"]
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            ".other-1.tmp", "data.ckpt",
        ]

    def test_failed_cells_leave_no_stray_temps(self, tmp_path, monkeypatch):
        import repro.parallel.runner as runner

        original = runner._execute_cell

        def explode(cell, config, sim_config, n_accesses, attempt=1, **kwargs):
            if cell.design == "baryon":
                raise ValueError("synthetic failure")
            return original(cell, config, sim_config, n_accesses, attempt)

        monkeypatch.setattr(runner, "_execute_cell", explode)
        checkpoint = tmp_path / "run.ckpt"
        outcome = run_plan(
            _plan(), make_small_config(), make_small_sim_config(),
            n_accesses=N_ACCESSES, max_attempts=1,
            checkpoint=str(checkpoint),
        )
        assert outcome.failed
        stray = [p.name for p in tmp_path.iterdir() if p.name.endswith(".tmp")]
        assert stray == []

    def test_run_start_sweeps_stale_temps(self, tmp_path):
        checkpoint = tmp_path / "run.ckpt"
        (tmp_path / ".checkpoint-dead0.tmp").write_bytes(b"half a write")
        (tmp_path / ".manifest-dead1.tmp").write_bytes(b"")
        outcome = run_plan(
            _plan(), make_small_config(), make_small_sim_config(),
            n_accesses=N_ACCESSES, checkpoint=str(checkpoint),
        )
        assert outcome.orchestration.get("stale_temps_removed") == 2
        stray = [p.name for p in tmp_path.iterdir() if p.name.endswith(".tmp")]
        assert stray == []


# ---------------------------------------------------------------------------
# The result cache
# ---------------------------------------------------------------------------


class TestResultCache:
    KEY = "ab" + "0" * 62

    def test_roundtrip_and_miss_counters(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        assert cache.get(self.KEY) is None
        payload = {"index": 5, "result": {"name": "w", "cycles": 123.5}}
        assert cache.put(self.KEY, payload)
        got = cache.get(self.KEY)
        assert got["result"] == payload["result"]
        assert got["index"] == 0  # normalized: entries are plan-agnostic
        assert len(cache) == 1
        assert cache.stats.get("miss") == 1 and cache.stats.get("hit") == 1

    def test_corrupt_entry_dropped_not_served(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.put(self.KEY, {"index": 0, "result": {"cycles": 1.0}})
        path = cache.entry_path(self.KEY)
        raw = bytearray(open(path, "rb").read())
        raw[len(raw) // 2] ^= 0xFF  # flip a payload byte
        with open(path, "wb") as sink:
            sink.write(raw)
        assert cache.get(self.KEY) is None
        assert cache.stats.get("corrupt_dropped") == 1
        assert not os.path.exists(path)
        assert len(cache) == 0

    def test_capacity_prunes_oldest(self, tmp_path):
        cache = ResultCache(str(tmp_path), capacity_entries=2)
        keys = [f"{i:02x}" + "0" * 62 for i in range(3)]
        for i, key in enumerate(keys):
            cache.put(key, {"index": 0, "result": {"i": i}})
            os.utime(cache.entry_path(key), (1000 + i, 1000 + i))
        assert len(cache) == 2
        assert cache.get(keys[0]) is None  # oldest evicted
        assert cache.get(keys[2]) is not None
        assert cache.stats.get("evicted") == 1


# ---------------------------------------------------------------------------
# Job specs and config materialization
# ---------------------------------------------------------------------------


class TestJobSpec:
    GOOD = {"workloads": ["YCSB-B"], "designs": ["baryon"],
            "n_accesses": 500, "scale": 64}

    def test_roundtrip(self):
        spec = JobSpec.from_dict(dict(
            self.GOOD, seeds=[1, 2],
            overrides={"stage": {"size_bytes": 262144}},
        ))
        assert JobSpec.from_dict(spec.to_dict()) == spec

    @pytest.mark.parametrize("bad", [
        {"workloads": ["nope"], "designs": ["baryon"]},
        {"workloads": ["YCSB-B"], "designs": ["nope"]},
        {"workloads": [], "designs": ["baryon"]},
        {"workloads": ["YCSB-B"], "designs": ["baryon"], "n_accesses": 0},
        {"workloads": ["YCSB-B"], "designs": ["baryon"], "bogus": 1},
    ])
    def test_rejects_bad_specs(self, bad):
        with pytest.raises(ConfigurationError):
            JobSpec.from_dict(bad)

    def test_build_configs_applies_overrides(self):
        spec = JobSpec.from_dict(dict(self.GOOD, overrides={
            "layout": {"fast_capacity": 2 << 20, "slow_capacity": 16 << 20},
            "stage": {"size_bytes": 131072},
            "compression_enabled": False,
        }, sim_overrides={"warmup_fraction": 0.25}))
        config, sim_config = build_configs(spec)
        assert config.layout.fast_capacity == 2 << 20
        assert config.stage.size_bytes == 131072
        assert config.compression_enabled is False
        assert sim_config.warmup_fraction == 0.25

    def test_build_configs_rejects_unknown_override(self):
        spec = JobSpec.from_dict(dict(self.GOOD, overrides={"bogus": 1}))
        with pytest.raises(ConfigurationError):
            build_configs(spec)

    def test_build_configs_rejects_null_commit_k(self):
        """``{"commit": {"k": null}}`` fails at build time, not inside a
        run's commit decision."""
        spec = JobSpec.from_dict(dict(self.GOOD, overrides={"commit": {"k": None}}))
        with pytest.raises(ConfigurationError, match="commit k"):
            build_configs(spec)

    @pytest.mark.parametrize("overrides", [
        {"fast_replacement": "lfu"},
        {"fast_replacement": "clock"},
        {"fast_replacement": "random"},
        {"fast_replacement": "lru", "layout": {"fully_associative": True}},
    ])
    def test_build_configs_rejects_unmodelled_fast_replacement(self, overrides):
        spec = JobSpec.from_dict(dict(self.GOOD, overrides=overrides))
        with pytest.raises(ConfigurationError, match="fast_replacement"):
            build_configs(spec)

    @pytest.mark.parametrize("design", ["hybrid2", "baryon-fa"])
    def test_build_configs_rejects_lru_for_fully_associative_designs(self, design):
        """Those designs run a fully-associative variant of the spec's
        configuration, so lru fails at build time, not inside a cell."""
        spec = JobSpec.from_dict(dict(
            self.GOOD, designs=["baryon", design],
            overrides={"fast_replacement": "lru"},
        ))
        with pytest.raises(ConfigurationError, match="fast_replacement 'lru'"):
            build_configs(spec)
        fifo = JobSpec.from_dict(dict(
            self.GOOD, designs=["baryon", design],
            overrides={"fast_replacement": "fifo"},
        ))
        assert build_configs(fifo)[0].fast_replacement == "fifo"


# ---------------------------------------------------------------------------
# run_job: the cache contract (ISSUE satellite 4)
# ---------------------------------------------------------------------------


def _run_one_job(tmp_path, cache, name, spec_dict):
    spec = JobSpec.from_dict(spec_dict)
    job = Job(id=name, spec=spec, workdir=str(tmp_path / name))
    with CellExecutor(jobs=1) as executor:
        outcome = run_job(job, executor, cache, threading.Event())
    return job, outcome


class TestRunJobCaching:
    SPEC = {"workloads": ["YCSB-B"], "designs": ["simple", "baryon"],
            "n_accesses": N_ACCESSES, "scale": 64}

    def test_second_identical_job_served_entirely_from_cache(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        job1, out1 = _run_one_job(tmp_path, cache, "a", self.SPEC)
        assert job1.cache_hits == 0 and not out1.failed
        job2, out2 = _run_one_job(tmp_path, cache, "b", self.SPEC)
        assert job2.cache_hits == len(job2.plan) == 2
        # Bit-identical: merged counters and every per-cell record.
        assert out2.counters.as_dict() == out1.counters.as_dict()
        assert out2.device_counters.as_dict() == out1.device_counters.as_dict()
        assert out2.compression_counters.as_dict() \
            == out1.compression_counters.as_dict()
        records1 = [r["result"] for r in job1.result_records()]
        records2 = [r["result"] for r in job2.result_records()]
        assert records1 == records2
        assert all(r["cached"] for r in job2.result_records())
        assert out2.resumed == 2

    def test_partial_hit_job_warms_cache_with_new_cells(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        _run_one_job(tmp_path, cache, "a", dict(self.SPEC, designs=["simple"]))
        job2, _ = _run_one_job(tmp_path, cache, "b", self.SPEC)
        assert job2.cache_hits == 1
        job3, _ = _run_one_job(tmp_path, cache, "c", self.SPEC)
        assert job3.cache_hits == 2

    def test_all_hit_job_skips_closing_checkpoint_read(self, tmp_path, monkeypatch):
        import repro.serve.jobs as jobs_module

        reads = []
        real_load = jobs_module.load_checkpoint

        def counting_load(*args, **kwargs):
            reads.append(args)
            return real_load(*args, **kwargs)

        monkeypatch.setattr(jobs_module, "load_checkpoint", counting_load)
        cache = ResultCache(str(tmp_path / "cache"))
        _run_one_job(tmp_path, cache, "a", self.SPEC)
        assert len(reads) == 1
        job2, out2 = _run_one_job(tmp_path, cache, "b", self.SPEC)
        assert job2.cache_hits == 2 and out2.resumed == 2
        assert len(reads) == 1

    def test_fingerprint_mismatch_forces_full_rerun(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        _run_one_job(tmp_path, cache, "a", self.SPEC)
        changed = dict(self.SPEC, n_accesses=N_ACCESSES + 100)
        job2, out2 = _run_one_job(tmp_path, cache, "b", changed)
        assert job2.cache_hits == 0
        assert not out2.failed and out2.resumed == 0

    def test_corrupted_cache_entry_recomputed_transparently(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        job1, out1 = _run_one_job(tmp_path, cache, "a", self.SPEC)
        victim = cache.entry_path(job1.cell_keys[0])
        raw = bytearray(open(victim, "rb").read())
        raw[len(raw) // 2] ^= 0xFF
        with open(victim, "wb") as sink:
            sink.write(raw)
        job2, out2 = _run_one_job(tmp_path, cache, "b", self.SPEC)
        assert job2.cache_hits == 1  # the undamaged cell still hits
        assert not out2.failed
        assert out2.counters.as_dict() == out1.counters.as_dict()
        assert [r["result"] for r in job2.result_records()] \
            == [r["result"] for r in job1.result_records()]


# ---------------------------------------------------------------------------
# The shared executor
# ---------------------------------------------------------------------------


class TestCellExecutor:
    def test_reuse_across_runs_matches_private_runs(self):
        config, sim = make_small_config(), make_small_sim_config()
        reference = run_plan(_plan(), config, sim, n_accesses=N_ACCESSES)
        with CellExecutor(jobs=1) as executor:
            first = run_plan(_plan(), config, sim, n_accesses=N_ACCESSES,
                             executor=executor)
            second = run_plan(_plan(), config, sim, n_accesses=N_ACCESSES,
                              executor=executor)
        for outcome in (first, second):
            assert outcome.counters.as_dict() == reference.counters.as_dict()
            assert {k: r.to_dict() for k, r in outcome.results.items()} \
                == {k: r.to_dict() for k, r in reference.results.items()}

    def test_closed_executor_rejected(self):
        executor = CellExecutor(jobs=1)
        executor.close()
        with pytest.raises(ConfigurationError):
            run_plan(_plan(), make_small_config(), make_small_sim_config(),
                     n_accesses=N_ACCESSES, executor=executor)


# ---------------------------------------------------------------------------
# The HTTP layer, end to end on an ephemeral port
# ---------------------------------------------------------------------------


class _ServerThread:
    """Run a JobServer's asyncio loop on a daemon thread for tests."""

    def __init__(self, **kwargs):
        self.server = JobServer(host="127.0.0.1", port=0, **kwargs)
        self._loop = None
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        assert self._ready.wait(10), "server did not come up"

    def _run(self):
        asyncio.run(self._main())

    async def _main(self):
        self._loop = asyncio.get_running_loop()
        await self.server.serve(
            install_signal_handlers=False,
            on_ready=lambda _s: self._ready.set(),
        )

    @property
    def url(self):
        return f"http://127.0.0.1:{self.server.port}"

    def drain(self):
        self._loop.call_soon_threadsafe(self.server.begin_drain)
        self._thread.join(timeout=30)
        assert not self._thread.is_alive(), "server failed to drain"


class TestHttpServer:
    SPEC = {"workloads": ["YCSB-B"], "designs": ["simple", "baryon"],
            "n_accesses": N_ACCESSES, "scale": 64}

    def test_end_to_end_submit_cache_metrics_drain(self, tmp_path):
        harness = _ServerThread(workdir=str(tmp_path))
        try:
            client = ServeClient(harness.url, timeout_s=30)
            assert client.healthz() == {"ok": True, "draining": False}

            cold = client.run(self.SPEC, timeout_s=120)
            assert cold["status"]["state"] == "done"
            assert cold["status"]["cache_hits"] == 0
            assert len(cold["records"]) == 2

            warm = client.run(self.SPEC, timeout_s=120)
            assert warm["status"]["cache_hits"] == 2
            assert [r["result"] for r in warm["records"]] \
                == [r["result"] for r in cold["records"]]
            assert all(r["cached"] for r in warm["records"])

            with pytest.raises(ServeError) as err:
                client.submit({"workloads": ["nope"], "designs": ["baryon"]})
            assert err.value.status == 400
            with pytest.raises(ServeError) as err:
                client.job("job-999999")
            assert err.value.status == 404

            metrics = client.metrics()
            assert 'repro_serve_events_total{event="jobs_done"} 2' in metrics
            assert 'repro_serve_cache_total{event="hit"} 2' in metrics
        finally:
            harness.drain()
        assert harness.server.executor.closed

    def test_draining_server_rejects_new_jobs(self, tmp_path):
        harness = _ServerThread(workdir=str(tmp_path))
        client = ServeClient(harness.url, timeout_s=30)
        # Flip the drain flag without tearing the socket down yet, then
        # observe the 503 before letting the shutdown complete.
        harness.server.draining = True
        with pytest.raises(ServeError) as err:
            client.submit(self.SPEC)
        assert err.value.status == 503
        harness.server.draining = False
        harness.drain()
