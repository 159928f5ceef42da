"""Fault injection, recovery paths, and crash-safe sweeps (repro.resilience).

The contract under test: every injected fault is either *recovered* —
the run's logical outcome is bit-identical to the fault-free run — or
surfaced as a counted, quarantined degradation. Never a silent wrong
result.
"""

import dataclasses
import json
import os

import pytest

from repro.analysis.experiments import run_cell
from repro.common.config import ResilienceConfig
from repro.common.errors import (
    CheckpointCorruptError,
    ConfigurationError,
    CorruptionError,
)
from repro.core.commit import CommitPolicy
from repro.metadata.remap import RemapEntry
from repro.obs.tracer import load_jsonl
from repro.parallel import clear_trace_cache, plan_cells, run_plan
from repro.resilience import (
    FaultInjector,
    FaultPlan,
    ShadowChecker,
    load_checkpoint,
    parse_fault_spec,
    plan_fingerprint,
    salvage_checkpoint,
    write_checkpoint,
)

from tests.conftest import make_small_config, make_small_sim_config

N_ACCESSES = 2500


@pytest.fixture(autouse=True)
def _fresh_trace_cache():
    clear_trace_cache()
    yield
    clear_trace_cache()


def faulty_config(**kwargs):
    return make_small_config(
        resilience=ResilienceConfig(enabled=True, **kwargs)
    )


def run_baryon(config, n_accesses=N_ACCESSES, workload="YCSB-B"):
    return run_cell(
        workload, "baryon", config, make_small_sim_config(),
        n_accesses=n_accesses, seed=1,
    )


def device_stats(controller):
    return {
        f"{device.name}.{key}": value
        for device in (controller.devices.fast, controller.devices.slow)
        for key, value in device.stats.as_dict().items()
    }


def _without(snapshot, *keys):
    return {k: v for k, v in snapshot.items() if k not in keys}


class TestFaultSpec:
    def test_parse_maps_short_keys(self):
        assert parse_fault_spec("read=1e-3,spike=0.5") == {
            "p_read_transient": 1e-3,
            "p_latency_spike": 0.5,
        }

    @pytest.mark.parametrize("spec", ["bogus=1", "read", "read=x", "", ",", "row=5e-3"])
    def test_parse_rejects_bad_specs(self, spec):
        with pytest.raises(ConfigurationError):
            parse_fault_spec(spec)

    def test_table_corruption_requires_checker(self):
        with pytest.raises(ConfigurationError):
            ResilienceConfig(enabled=True, p_table_corruption=1e-3)
        ResilienceConfig(
            enabled=True, p_table_corruption=1e-3, check_invariants=True
        )


class TestFaultInjector:
    def test_certain_fault_fires_and_pause_suppresses(self):
        plan = FaultPlan(p_read_transient=1.0)
        injector = FaultInjector(plan)
        from repro.common.errors import TransientDeviceError

        with pytest.raises(TransientDeviceError):
            injector.on_read("fast")
        injector.paused = True
        assert injector.on_read("fast") == 0.0  # no draw, no raise
        injector.paused = False
        with pytest.raises(TransientDeviceError):
            injector.on_read("fast")
        assert injector.stats.get("injected_read_transient") == 2

    def test_sequences_are_seed_deterministic(self):
        plan = FaultPlan(seed=42, p_latency_spike=0.5)
        a = FaultInjector(plan)
        b = FaultInjector(plan)
        seq_a = [a.on_read("slow") for _ in range(64)]
        seq_b = [b.on_read("slow") for _ in range(64)]
        assert seq_a == seq_b
        assert any(seq_a)  # p=0.5 over 64 draws fires w.p. 1 - 2^-64

    def test_sites_draw_independently(self):
        plan = FaultPlan(seed=7, p_latency_spike=0.5)
        a = FaultInjector(plan)
        b = FaultInjector(plan)
        # Interleaving draws at another site must not perturb this site.
        seq_a = [a.on_read("slow") for _ in range(32)]
        seq_b = []
        for _ in range(32):
            b.on_write("fast")
            seq_b.append(b.on_read("slow"))
        assert seq_a == seq_b


class TestReproducibility:
    def test_same_fault_plan_is_bit_reproducible(self):
        config = faulty_config(
            p_read_transient=5e-3, p_write_drop=5e-3, p_latency_spike=5e-3,
            p_remap_corruption=3e-3, p_table_corruption=2e-3,
            check_invariants=True,
        )
        first_result, first = run_baryon(config)
        clear_trace_cache()
        second_result, second = run_baryon(config)
        assert first_result.to_dict() == second_result.to_dict()
        assert first.stats.as_dict() == second.stats.as_dict()
        assert first.faults.stats.as_dict() == second.faults.stats.as_dict()
        assert device_stats(first) == device_stats(second)
        assert first.faults.injected_total() > 0

    def test_different_seed_changes_fault_sequence(self):
        base = dict(p_read_transient=5e-3, p_latency_spike=5e-3)
        _, a = run_baryon(faulty_config(fault_seed=1, **base))
        clear_trace_cache()
        _, b = run_baryon(faulty_config(fault_seed=2, **base))
        assert a.faults.stats.as_dict() != b.faults.stats.as_dict()


class TestTransparentRecovery:
    """Retryable faults must leave the logical outcome bit-identical."""

    def test_retried_faults_do_not_change_results(self):
        clean_result, clean = run_baryon(make_small_config())
        clear_trace_cache()
        faulty_result, faulty = run_baryon(faulty_config(
            p_read_transient=5e-3, p_write_drop=5e-3,
            p_latency_spike=5e-3, max_retries=8,
        ))
        # Retries fire before any device accounting: traffic, energy and
        # every controller counter match the fault-free run exactly.
        assert faulty.stats.as_dict() == clean.stats.as_dict()
        assert device_stats(faulty) == device_stats(clean)
        assert faulty_result.memory_accesses == clean_result.memory_accesses
        assert faulty_result.served_fast == clean_result.served_fast
        assert faulty_result.case_counts == clean_result.case_counts
        # Only time is allowed to differ (backoff + spike penalties).
        assert faulty_result.cycles >= clean_result.cycles
        assert faulty.recovery.stats.get("retries") > 0
        assert faulty.recovery.stats.get("retry_exhausted") == 0


class TestMetadataRecovery:
    def test_corruption_detected_and_repaired(self):
        _, clean = run_baryon(make_small_config(
            resilience=ResilienceConfig(enabled=True, check_invariants=True)
        ))
        clear_trace_cache()
        _, faulty = run_baryon(faulty_config(
            p_remap_corruption=3e-3, p_table_corruption=2e-3,
            check_invariants=True,
        ))
        assert faulty.faults.stats.get("injected_table_corruption") > 0
        assert faulty.checker.stats.get("corruptions_detected") > 0
        assert (faulty.checker.stats.get("entries_repaired")
                == faulty.checker.stats.get("corruptions_detected"))
        assert faulty.recovery.stats.get("remap_cache_repairs") > 0
        # Repair traffic re-probes the remap table; every *logical*
        # controller counter besides that probe count is unchanged.
        assert (_without(faulty.stats.as_dict(), "remap_table_reads")
                == _without(clean.stats.as_dict(), "remap_table_reads"))
        assert faulty.recovery.stats.get("quarantined_supers") == 0


class TestQuarantine:
    def test_exhausted_retries_quarantine_not_crash(self):
        result, controller = run_baryon(faulty_config(
            p_read_transient=5e-3, max_retries=0,
        ))
        recovery = controller.recovery.stats
        assert recovery.get("retry_exhausted") > 0
        assert recovery.get("quarantined_supers") > 0
        assert recovery.get("degraded_transient") > 0
        # Degraded service is counted, and the run still completes (the
        # measured window shifts with timing, so counts are not compared
        # against the fault-free run — that equivalence only holds for
        # *transparent* recovery).
        assert recovery.get("quarantined_serves") > 0
        assert result.memory_accesses > 0
        assert len(controller._quarantined) == recovery.get("quarantined_supers")

    def test_stage_tag_corruption_quarantines(self):
        result, controller = run_baryon(faulty_config(
            p_stage_tag_corruption=2e-3,
        ))
        recovery = controller.recovery.stats
        assert controller.faults.stats.get("injected_stage_tag_corruption") > 0
        assert recovery.get("degraded_corruption") > 0
        assert recovery.get("quarantined_supers") > 0
        assert result.memory_accesses > 0

    def test_commit_policy_vetoes_quarantined_blocks(self):
        policy = CommitPolicy()
        decision = policy.decide(100, 4, 0, 8, 0, quarantined=True)
        assert not decision.commit
        assert decision.benefit == float("-inf")
        assert policy.stats.get("quarantine_vetoes") == 1
        # The same inputs without quarantine would have committed.
        assert policy.decide(100, 4, 0, 8, 0).commit


class TestShadowChecker:
    def test_shadow_mirrors_table_updates(self):
        checker = ShadowChecker()
        entry = RemapEntry(remap=0b1, pointer=1)
        checker.on_set(5, entry)
        assert checker.shadow_entry(5) == entry
        assert checker.shadow_entry(5) is not entry  # defensive copy
        checker.on_clear(5)
        assert not checker.shadow_entry(5).is_remapped

    def test_injected_corruption_returns_shadow_truth(self):
        checker = ShadowChecker()
        truth = RemapEntry(remap=0b11, pointer=2)
        checker.on_set(9, truth)
        repaired = checker.verified_get(9, RemapEntry(), corrupted=True)
        assert repaired == truth
        assert checker.stats.get("corruptions_detected") == 1
        assert checker.stats.get("entries_repaired") == 1

    def test_real_divergence_raises(self):
        checker = ShadowChecker()
        checker.on_set(9, RemapEntry(remap=0b11, pointer=2))
        with pytest.raises(CorruptionError):
            checker.verified_get(9, RemapEntry(remap=0b1, pointer=2))

    def test_checker_runs_clean_on_fault_free_run(self):
        _, controller = run_baryon(make_small_config(
            resilience=ResilienceConfig(enabled=True, check_invariants=True)
        ))
        assert controller.checker.stats.get("commit_checks") > 0


class TestCheckpoint:
    def _fingerprint(self, plan):
        return plan_fingerprint(
            plan, 100, make_small_config(), make_small_sim_config()
        )

    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "ck.json")
        plan = plan_cells(["YCSB-B"], ["simple"], seed=1)
        fingerprint = self._fingerprint(plan)
        payloads = {0: {"index": 0, "result": {"name": "w"}}}
        write_checkpoint(path, fingerprint, payloads)
        assert load_checkpoint(path, fingerprint) == payloads

    def test_fingerprint_mismatch_rejected(self, tmp_path):
        path = str(tmp_path / "ck.json")
        plan = plan_cells(["YCSB-B"], ["simple"], seed=1)
        write_checkpoint(path, self._fingerprint(plan), {})
        with pytest.raises(ConfigurationError):
            load_checkpoint(path, "different-fingerprint")

    def test_truncated_file_rejected(self, tmp_path):
        path = str(tmp_path / "ck.json")
        plan = plan_cells(["YCSB-B"], ["simple"], seed=1)
        fingerprint = self._fingerprint(plan)
        write_checkpoint(path, fingerprint, {0: {"index": 0}})
        with open(path, "r", encoding="utf-8") as fh:
            content = fh.read()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(content[: len(content) // 2])
        with pytest.raises(ConfigurationError):
            load_checkpoint(path, fingerprint)

    def test_wrong_magic_rejected(self, tmp_path):
        path = str(tmp_path / "ck.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"magic": "something-else", "version": 1}, fh)
        with pytest.raises(ConfigurationError):
            load_checkpoint(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_checkpoint(str(tmp_path / "absent.json"))

    def _damaged(self, tmp_path, cells=3):
        """A checkpoint with ``cells`` records whose last line is torn."""
        path = str(tmp_path / "ck.json")
        plan = plan_cells(["YCSB-B"], ["simple"], seed=1)
        fingerprint = self._fingerprint(plan)
        payloads = {
            i: {"index": i, "result": {"name": f"w{i}"}} for i in range(cells)
        }
        write_checkpoint(path, fingerprint, payloads)
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        lines[-1] = lines[-1][: len(lines[-1]) // 2]
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        return path, fingerprint, payloads

    def test_torn_tail_is_salvageable_corruption(self, tmp_path):
        """Body damage raises the CheckpointCorruptError subtype (not a
        bare ConfigurationError): the header still vouches for the plan,
        so per-cell salvage is worth attempting."""
        path, fingerprint, _ = self._damaged(tmp_path)
        with pytest.raises(CheckpointCorruptError) as excinfo:
            load_checkpoint(path, fingerprint)
        assert excinfo.value.salvageable
        assert "salvage" in str(excinfo.value)

    def test_salvage_recovers_intact_prefix(self, tmp_path):
        path, fingerprint, payloads = self._damaged(tmp_path, cells=3)
        recovered, report = salvage_checkpoint(path, fingerprint)
        assert recovered == {0: payloads[0], 1: payloads[1]}
        assert report["recovered"] == 2
        assert report["dropped"] >= 1

    def test_digest_mismatch_drops_only_the_bad_cell(self, tmp_path):
        path = str(tmp_path / "ck.json")
        plan = plan_cells(["YCSB-B"], ["simple"], seed=1)
        fingerprint = self._fingerprint(plan)
        payloads = {
            i: {"index": i, "result": {"name": f"w{i}"}} for i in range(3)
        }
        write_checkpoint(path, fingerprint, payloads)
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        # Flip a payload character in the middle record: still valid
        # JSON, but the recorded digest no longer matches.
        lines[2] = lines[2].replace('"name": "w1"', '"name": "wX"')
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        with pytest.raises(CheckpointCorruptError, match="digest"):
            load_checkpoint(path, fingerprint)
        recovered, report = salvage_checkpoint(path, fingerprint)
        assert sorted(recovered) == [0, 2]
        assert any("digest" in note for note in report["damage"])

    def test_missing_record_vs_header_count_is_corruption(self, tmp_path):
        path = str(tmp_path / "ck.json")
        plan = plan_cells(["YCSB-B"], ["simple"], seed=1)
        fingerprint = self._fingerprint(plan)
        payloads = {
            i: {"index": i, "result": {"name": f"w{i}"}} for i in range(3)
        }
        write_checkpoint(path, fingerprint, payloads)
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        del lines[2]  # a whole record vanished; every surviving line parses
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        with pytest.raises(CheckpointCorruptError, match="promises"):
            load_checkpoint(path, fingerprint)
        recovered, _ = salvage_checkpoint(path, fingerprint)
        assert sorted(recovered) == [0, 2]

    def test_salvage_refuses_wrong_plan(self, tmp_path):
        path, _, _ = self._damaged(tmp_path)
        with pytest.raises(ConfigurationError, match="different sweep"):
            salvage_checkpoint(path, "some-other-fingerprint")


class TestResume:
    def test_resumed_matrix_reproduces_uninterrupted_run(self, tmp_path):
        config, sim = make_small_config(), make_small_sim_config()
        plan = plan_cells(["YCSB-B"], ["simple", "dice", "baryon"], seed=1)
        baseline = run_plan(plan, config, sim, n_accesses=800, jobs=1)

        # Simulate a crash after two cells: keep a partial checkpoint.
        path = str(tmp_path / "sweep.json")
        clear_trace_cache()
        run_plan(plan, config, sim, n_accesses=800, jobs=1, checkpoint=path)
        fingerprint = plan_fingerprint(plan, 800, config, sim)
        payloads = load_checkpoint(path, fingerprint)
        partial = dict(list(sorted(payloads.items()))[:2])
        write_checkpoint(path, fingerprint, partial)

        clear_trace_cache()
        resumed = run_plan(plan, config, sim, n_accesses=800, jobs=1, resume=path)
        assert resumed.resumed == 2
        assert not resumed.failed
        assert {k: v.to_dict() for k, v in resumed.results.items()} == {
            k: v.to_dict() for k, v in baseline.results.items()
        }
        assert resumed.counters.as_dict() == baseline.counters.as_dict()
        assert resumed.device_counters.as_dict() == baseline.device_counters.as_dict()

    def test_resume_salvages_damaged_checkpoint(self, tmp_path):
        """A torn checkpoint no longer costs the whole sweep: resume
        salvages every digest-verified cell and re-runs only the rest,
        landing on the bit-identical merged outcome."""
        config, sim = make_small_config(), make_small_sim_config()
        plan = plan_cells(["YCSB-B"], ["simple", "dice", "baryon"], seed=1)
        baseline = run_plan(plan, config, sim, n_accesses=800, jobs=1)

        path = str(tmp_path / "sweep.json")
        clear_trace_cache()
        run_plan(plan, config, sim, n_accesses=800, jobs=1, checkpoint=path)
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        lines[-1] = lines[-1][: len(lines[-1]) // 2]  # tear the last record
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")

        clear_trace_cache()
        resumed = run_plan(plan, config, sim, n_accesses=800, jobs=1, resume=path)
        assert resumed.salvaged == len(plan) - 1
        assert resumed.resumed == len(plan) - 1
        assert not resumed.failed
        assert resumed.counters.as_dict() == baseline.counters.as_dict()
        orchestration = resumed.orchestration.as_dict()
        assert orchestration["checkpoint_salvaged_cells"] == len(plan) - 1
        assert orchestration["checkpoint_salvage_dropped"] >= 1

    def test_missing_resume_file_starts_fresh(self, tmp_path):
        config, sim = make_small_config(), make_small_sim_config()
        plan = plan_cells(["YCSB-B"], ["simple"], seed=1)
        outcome = run_plan(
            plan, config, sim, n_accesses=400, jobs=1,
            resume=str(tmp_path / "never-written.json"),
        )
        assert outcome.resumed == 0
        assert len(outcome.results) == 1


class TestTraceFileValidation:
    def test_corrupt_trace_line_raises(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"seq":1,"type":"access"}\n{"seq":2,"ty')  # truncated
        with pytest.raises(ConfigurationError):
            load_jsonl(path)

    def test_non_object_line_raises(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("[1,2,3]\n")
        with pytest.raises(ConfigurationError):
            load_jsonl(path)

    def test_valid_headerless_trace_loads(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"seq":1,"type":"access"}\n\n{"seq":2,"type":"fault"}\n')
        events = load_jsonl(path)
        assert [e["seq"] for e in events] == [1, 2]


class TestObservabilityExport:
    def test_fault_and_recovery_metrics_exported(self):
        from repro.obs import MetricsRegistry, collect_run_metrics

        config = faulty_config(
            p_read_transient=5e-3, p_table_corruption=2e-3,
            check_invariants=True,
        )
        _, controller = run_baryon(config)
        registry = collect_run_metrics(MetricsRegistry(), controller)
        text = registry.to_prometheus()
        assert 'repro_fault_total{kind="read_transient"}' in text
        assert "repro_recovery_total{" in text
        assert 'repro_checker_total{event="corruptions_detected"}' in text

    def test_fault_events_traced(self):
        from repro.obs import EventTracer, attach_observability
        from repro.core import BaryonController
        from repro.sim import SystemSimulator
        from repro.workloads import build_workload

        config = faulty_config(p_read_transient=5e-3, max_retries=8)
        controller = BaryonController(config, seed=1)
        tracer = EventTracer(capacity=1 << 16)
        attach_observability(controller, tracer)
        trace = build_workload(
            "YCSB-B", config.layout.fast_capacity,
            n_accesses=N_ACCESSES, seed=1,
        )
        SystemSimulator(controller, make_small_sim_config()).run(trace)
        counts = tracer.counts_by_type()
        assert counts.get("fault", 0) > 0
        assert counts.get("recovery", 0) > 0


class TestConfigGating:
    def test_resilience_off_leaves_controller_unwired(self):
        _, controller = run_baryon(make_small_config())
        assert controller.faults is None
        assert controller.recovery is None
        assert controller.checker is None

    def test_checker_without_faults(self):
        config = make_small_config(
            resilience=ResilienceConfig(enabled=True, check_invariants=True)
        )
        _, controller = run_baryon(config)
        assert controller.faults is None
        assert controller.checker is not None

    def test_disabled_resilience_config_is_inert(self):
        config = make_small_config(resilience=ResilienceConfig(enabled=False))
        _, controller = run_baryon(config)
        assert controller.faults is None
        assert controller.recovery is None
