"""Orchestration-layer chaos harness (repro.resilience.chaos) and the
hardened matrix-runner paths it exercises.

The contract under test mirrors the device-fault layer's: every injected
orchestration failure — killed or hung worker, dropped heartbeat, torn
or ENOSPC'd checkpoint, operator interrupt — is either *recovered* (the
merged sweep outcome stays bit-identical to a chaos-free run) or
surfaced as a counted, explicit degradation (a failed or quarantined
cell, a resumable interrupted checkpoint). Never a silent wrong result.
"""

from __future__ import annotations

import errno
import os

import pytest

from repro.analysis.experiments import run_matrix
from repro.common.errors import (
    CheckpointCorruptError,
    ConfigurationError,
    PoisonCellError,
)
from repro.common.fsio import durable_replace
from repro.obs import audit_manifest, load_manifest
from repro.parallel import (
    SweepTelemetry,
    clear_trace_cache,
    fork_available,
    plan_cells,
    run_plan,
)
from repro.parallel.runner import _Inflight, _RetryBudget
from repro.resilience import (
    CHAOS_SPEC_KEYS,
    ChaosInjector,
    ChaosPlan,
    WorkerChaos,
    load_checkpoint,
    parse_chaos_spec,
    plan_fingerprint,
    salvage_checkpoint,
    write_checkpoint,
)
from repro.resilience.chaos import (
    chaos_randint,
    chaos_uniform,
    write_effect_mutator,
)
from repro.resilience.recovery import requeue_backoff_s

from tests.conftest import make_small_config, make_small_sim_config

N_ACCESSES = 800
WORKLOADS = ["YCSB-B"]
DESIGNS = ["simple", "baryon"]


@pytest.fixture(autouse=True)
def _fresh_trace_cache():
    clear_trace_cache()
    yield
    clear_trace_cache()


def small_configs():
    return make_small_config(), make_small_sim_config()


def make_plan():
    return plan_cells(WORKLOADS, DESIGNS, seed=3)


# ------------------------------------------------------------ keyed draws
class TestChaosDraws:
    def test_uniform_is_pure_and_in_range(self):
        for coords in [(), (0,), (3, 1), (3, 1, 7)]:
            a = chaos_uniform(7, "worker.kill", *coords)
            b = chaos_uniform(7, "worker.kill", *coords)
            assert a == b
            assert 0.0 <= a < 1.0

    def test_uniform_depends_on_every_key_part(self):
        base = chaos_uniform(7, "worker.kill", 3, 1)
        assert chaos_uniform(8, "worker.kill", 3, 1) != base
        assert chaos_uniform(7, "worker.hang", 3, 1) != base
        assert chaos_uniform(7, "worker.kill", 4, 1) != base
        assert chaos_uniform(7, "worker.kill", 3, 2) != base

    def test_randint_bounds(self):
        for coord in range(64):
            value = chaos_randint(5, "worker.kill_at", 3, coord)
            assert 0 <= value < 3


# ------------------------------------------------------------- spec parse
class TestParseChaosSpec:
    def test_parses_every_short_key(self):
        spec = ",".join(f"{key}=0.25" for key in CHAOS_SPEC_KEYS)
        parsed = parse_chaos_spec(spec)
        assert parsed == {field: 0.25 for field in CHAOS_SPEC_KEYS.values()}
        # Every parsed name must be a real ChaosPlan field.
        ChaosPlan(**parsed)

    def test_kill_and_torn_map_to_plan_fields(self):
        assert parse_chaos_spec("kill=0.2, torn=0.3") == {
            "p_kill_worker": 0.2,
            "p_torn_checkpoint": 0.3,
        }

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown chaos kind"):
            parse_chaos_spec("kill=0.2,frobnicate=1.0")

    def test_missing_value_rejected(self):
        with pytest.raises(ConfigurationError, match="needs key=value"):
            parse_chaos_spec("kill")

    def test_bad_float_rejected(self):
        with pytest.raises(ConfigurationError, match="bad value"):
            parse_chaos_spec("kill=lots")

    def test_empty_spec_rejected(self):
        with pytest.raises(ConfigurationError, match="empty chaos spec"):
            parse_chaos_spec(" , ")


class TestChaosPlan:
    def test_worker_chaos_detection(self):
        assert ChaosPlan(p_kill_worker=0.1).wants_worker_chaos
        assert ChaosPlan(p_hang_worker=0.1).wants_worker_chaos
        assert ChaosPlan(p_drop_heartbeat=0.1).wants_worker_chaos
        assert ChaosPlan(p_stall_heartbeats=0.1).wants_worker_chaos
        assert ChaosPlan(poison_cells=(2,)).wants_worker_chaos
        assert not ChaosPlan(p_torn_checkpoint=0.5).wants_worker_chaos
        assert not ChaosPlan(p_enospc=0.5).wants_worker_chaos

    def test_active_covers_parent_side_chaos(self):
        assert not ChaosPlan().active
        assert ChaosPlan(p_torn_checkpoint=0.1).active
        assert ChaosPlan(p_flip_checkpoint=0.1).active
        assert ChaosPlan(p_enospc=0.1).active
        assert ChaosPlan(p_delay_drain=0.1).active
        assert ChaosPlan(interrupt_after_cells=3).active

    def test_describe_lists_only_armed_kinds(self):
        plan = ChaosPlan(
            p_kill_worker=0.2, poison_cells=(1, 2), interrupt_after_cells=4
        )
        described = plan.describe()
        assert described["p_kill_worker"] == 0.2
        assert described["poison_cells"] == 2
        assert described["interrupt_after_cells"] == 4
        assert "p_hang_worker" not in described


# ---------------------------------------------------------- worker chaos
class TestWorkerChaos:
    def test_poison_cell_killed_on_every_attempt(self):
        plan = ChaosPlan(seed=11, poison_cells=(4,))
        for attempt in range(1, 6):
            chaos = WorkerChaos(plan, 4, attempt)
            assert 1 <= chaos.kill_at <= WorkerChaos._EARLY_BEATS
        # Non-poison cells of the same plan are untouched.
        assert WorkerChaos(plan, 3, 1).kill_at == -1

    def test_kill_excludes_hang(self):
        plan = ChaosPlan(seed=11, p_kill_worker=1.0, p_hang_worker=1.0)
        chaos = WorkerChaos(plan, 0, 1)
        assert chaos.kill_at >= 1
        assert chaos.hang_at == -1

    def test_schedule_is_deterministic(self):
        plan = ChaosPlan(seed=9, p_kill_worker=0.5, p_hang_worker=0.5)
        for cell in range(8):
            first = WorkerChaos(plan, cell, 2)
            again = WorkerChaos(plan, cell, 2)
            assert (first.kill_at, first.hang_at) == (again.kill_at, again.hang_at)

    def test_clean_plan_forwards_beats(self):
        chaos = WorkerChaos(ChaosPlan(seed=1), 0, 1)
        seen = []
        for beat in range(5):
            chaos.on_beat(seen.append, {"done": beat})
        assert [event["done"] for event in seen] == list(range(5))

    def test_full_drop_swallows_every_beat(self):
        chaos = WorkerChaos(ChaosPlan(seed=1, p_drop_heartbeat=1.0), 0, 1)
        seen = []
        for beat in range(5):
            chaos.on_beat(seen.append, {"done": beat})
        assert seen == []

    def test_stall_drops_a_contiguous_window_then_resumes(self):
        plan = ChaosPlan(seed=2, p_stall_heartbeats=1.0, stall_beats=2)
        chaos = WorkerChaos(plan, 0, 1)
        start = chaos.stall_from
        assert 1 <= start <= WorkerChaos._EARLY_BEATS
        seen = []
        for beat in range(start + 4):
            chaos.on_beat(seen.append, {"done": beat})
        delivered = [event["done"] for event in seen]
        expected = [b for b in range(start + 4) if not start <= b < start + 2]
        assert delivered == expected


# --------------------------------------------------------- write effects
class TestWriteEffects:
    def test_none_effect_means_faithful_write(self):
        assert write_effect_mutator(None) is None

    def test_unknown_effect_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown write effect"):
            write_effect_mutator("gremlins")

    def test_torn_truncates_published_file(self, tmp_path):
        target = str(tmp_path / "data.bin")
        payload = b"x" * 30
        durable_replace(target, payload, mutate=write_effect_mutator("torn"))
        with open(target, "rb") as handle:
            assert handle.read() == payload[: (30 * 2) // 3]

    def test_flip_corrupts_one_bit_in_place(self, tmp_path):
        target = str(tmp_path / "data.bin")
        payload = bytes(range(32))
        durable_replace(target, payload, mutate=write_effect_mutator("flip"))
        with open(target, "rb") as handle:
            written = handle.read()
        assert len(written) == len(payload)
        assert written[16] == payload[16] ^ 0x01
        assert written[:16] == payload[:16] and written[17:] == payload[17:]

    def test_enospc_raises_and_leaves_target_intact(self, tmp_path):
        target = str(tmp_path / "data.bin")
        with open(target, "wb") as handle:
            handle.write(b"original")
        with pytest.raises(OSError) as excinfo:
            durable_replace(
                target, b"replacement", mutate=write_effect_mutator("enospc")
            )
        assert excinfo.value.errno == errno.ENOSPC
        with open(target, "rb") as handle:
            assert handle.read() == b"original"
        assert os.listdir(tmp_path) == ["data.bin"]  # no temp file left


# --------------------------------------------------------- parent chaos
class TestChaosInjector:
    def test_torn_applies_to_checkpoint_site_only(self):
        injector = ChaosInjector(ChaosPlan(p_torn_checkpoint=1.0))
        assert injector.write_effect("checkpoint") == "torn"
        assert injector.write_effect("manifest") is None
        assert injector.stats.as_dict() == {"injected_checkpoint_torn": 1}

    def test_enospc_hits_any_site_and_wins_precedence(self):
        injector = ChaosInjector(
            ChaosPlan(p_enospc=1.0, p_torn_checkpoint=1.0)
        )
        assert injector.write_effect("manifest") == "enospc"
        assert injector.write_effect("checkpoint") == "enospc"
        stats = injector.stats.as_dict()
        assert stats["injected_manifest_enospc"] == 1
        assert stats["injected_checkpoint_enospc"] == 1
        assert "injected_checkpoint_torn" not in stats

    def test_flip_drawn_after_torn_declines(self):
        injector = ChaosInjector(ChaosPlan(p_flip_checkpoint=1.0))
        assert injector.write_effect("checkpoint") == "flip"
        assert injector.stats.as_dict() == {"injected_checkpoint_flip": 1}

    def test_drain_delay(self):
        injector = ChaosInjector(ChaosPlan(p_delay_drain=1.0, drain_delay_s=0.25))
        assert injector.drain_delay() == 0.25
        assert injector.stats.as_dict()["injected_drain_delay"] == 1
        assert ChaosInjector(ChaosPlan()).drain_delay() == 0.0

    def test_interrupt_fires_exactly_once_at_threshold(self):
        injector = ChaosInjector(ChaosPlan(interrupt_after_cells=3))
        assert not injector.should_interrupt(2)
        assert injector.should_interrupt(3)
        assert not injector.should_interrupt(4)
        assert injector.stats.as_dict()["injected_interrupt"] == 1

    def test_injected_total_sums_everything(self):
        injector = ChaosInjector(
            ChaosPlan(p_torn_checkpoint=1.0, interrupt_after_cells=1)
        )
        injector.write_effect("checkpoint")
        injector.should_interrupt(1)
        assert injector.injected_total() == 2

    def test_draws_are_deterministic_across_injectors(self):
        plan = ChaosPlan(seed=42, p_torn_checkpoint=0.5)
        first = ChaosInjector(plan)
        second = ChaosInjector(plan)
        seq_a = [first.write_effect("checkpoint") for _ in range(10)]
        seq_b = [second.write_effect("checkpoint") for _ in range(10)]
        assert seq_a == seq_b
        assert "torn" in seq_a  # p=0.5 over 10 draws fires for seed 42


# -------------------------------------------------------------- backoff
class TestRequeueBackoff:
    def test_disabled_without_base_or_attempt(self):
        assert requeue_backoff_s(0.0, 3) == 0.0
        assert requeue_backoff_s(-1.0, 3) == 0.0
        assert requeue_backoff_s(0.5, 0) == 0.0

    def test_deterministic(self):
        assert requeue_backoff_s(0.1, 2, 5, 7) == requeue_backoff_s(0.1, 2, 5, 7)

    def test_exponential_with_bounded_jitter(self):
        for attempt in range(1, 5):
            delay = requeue_backoff_s(0.1, attempt, cell_index=3, seed=9)
            floor = 0.1 * 2.0 ** (attempt - 1)
            assert floor <= delay < floor * 1.5

    def test_jitter_desynchronizes_cells(self):
        delays = {requeue_backoff_s(0.1, 1, cell, 9) for cell in range(16)}
        assert len(delays) > 1


# ------------------------------------------------- runner bookkeeping
class TestRetryBudget:
    def test_unlimited_when_none(self):
        budget = _RetryBudget(None)
        assert all(budget.take() for _ in range(100))

    def test_exhausts_at_limit(self):
        budget = _RetryBudget(2)
        assert budget.take() and budget.take()
        assert not budget.take()
        assert budget.used == 2


class TestInflightDeadlines:
    def test_dead_vs_hung_are_distinct(self):
        entry = _Inflight(attempt=1, handle=None, now=0.0)
        # No beat at all: dead fires, hung never does (queue wait).
        assert entry.dead(10.0, 5.0)
        assert not entry.hung(10.0, 1.0)
        # Beating with advancing progress: neither fires.
        entry.note_beat({"attempt": 1, "done": 100, "total": 800}, 10.5)
        assert not entry.dead(11.0, 5.0)
        assert not entry.hung(11.0, 1.0)
        # Beating with frozen progress: hung fires, dead does not.
        entry.note_beat({"attempt": 1, "done": 100, "total": 800}, 12.0)
        assert entry.hung(12.5 + 1.0, 1.0) is False  # beats too old by then
        entry.note_beat({"attempt": 1, "done": 100, "total": 800}, 13.0)
        assert not entry.dead(13.5, 5.0)
        assert entry.hung(13.5, 1.0)

    def test_hung_requires_progress_timeout_armed(self):
        entry = _Inflight(attempt=1, handle=None, now=0.0)
        entry.note_beat({"attempt": 1, "done": 50, "total": 800}, 1.0)
        assert not entry.hung(100.0, None)


# --------------------------------------------- torn checkpoints, salvage
def _fake_payload(index: int, value: int) -> dict:
    return {
        "index": index,
        "result": {"value": value},
        "controller": {"hits": value},
    }


class TestChaoticCheckpoints:
    def test_torn_write_detected_then_salvaged(self, tmp_path):
        path = str(tmp_path / "sweep.ckpt")
        payloads = {i: _fake_payload(i, 100 + i) for i in range(6)}
        write_checkpoint(path, "fp", payloads, effect="torn")
        with pytest.raises(CheckpointCorruptError) as excinfo:
            load_checkpoint(path, "fp")
        assert excinfo.value.salvageable
        recovered, report = salvage_checkpoint(path, "fp")
        assert 0 < report["recovered"] < len(payloads)
        for index, payload in recovered.items():
            assert payload == payloads[index]
        assert report["dropped"] >= 1

    def test_flipped_write_detected_then_salvaged(self, tmp_path):
        path = str(tmp_path / "sweep.ckpt")
        payloads = {i: _fake_payload(i, 100 + i) for i in range(6)}
        write_checkpoint(path, "fp", payloads, effect="flip")
        with pytest.raises(CheckpointCorruptError):
            load_checkpoint(path, "fp")
        recovered, report = salvage_checkpoint(path, "fp")
        assert report["recovered"] >= len(payloads) - 2
        assert report["dropped"] >= 1
        for index, payload in recovered.items():
            assert payload == payloads[index]

    def test_salvage_still_verifies_the_header(self, tmp_path):
        path = str(tmp_path / "sweep.ckpt")
        write_checkpoint(path, "fp", {0: _fake_payload(0, 1)}, effect="torn")
        with pytest.raises(ConfigurationError, match="different sweep"):
            salvage_checkpoint(path, "other-fingerprint")

    def test_manifest_digests_drop_disagreeing_cells(self, tmp_path):
        from repro.obs.manifest import _result_digest

        path = str(tmp_path / "sweep.ckpt")
        payloads = {i: _fake_payload(i, 100 + i) for i in range(3)}
        write_checkpoint(path, "fp", payloads, effect="flip")
        expected = {
            i: _result_digest(payloads[i]["result"]) for i in payloads
        }
        survivors, _ = salvage_checkpoint(path, "fp")
        assert survivors  # at least one cell outlives the flip
        victim = sorted(survivors)[0]
        expected[victim] = "0" * 64
        recovered, report = salvage_checkpoint(path, "fp", expected)
        assert victim not in recovered
        assert report["manifest_mismatch"] == 1
        assert any("manifest result digest" in note for note in report["damage"])


# ------------------------------------------------ run_plan chaos wiring
class TestRunPlanChaosValidation:
    def test_worker_chaos_needs_a_pool(self):
        config, sim_config = small_configs()
        with pytest.raises(ConfigurationError, match="jobs >= 2"):
            run_plan(
                make_plan(), config, sim_config, n_accesses=N_ACCESSES,
                jobs=1, chaos=ChaosPlan(p_kill_worker=0.5),
            )

    def test_worker_chaos_needs_heartbeats(self):
        if not fork_available():
            pytest.skip("platform lacks fork")
        config, sim_config = small_configs()
        chaos = ChaosPlan(p_kill_worker=0.5)
        with pytest.raises(ConfigurationError, match="heartbeat"):
            run_plan(
                make_plan(), config, sim_config, n_accesses=N_ACCESSES,
                jobs=2, chaos=chaos,
            )
        with pytest.raises(ConfigurationError, match="heartbeat"):
            run_plan(
                make_plan(), config, sim_config, n_accesses=N_ACCESSES,
                jobs=2, chaos=chaos,
                telemetry=SweepTelemetry(heartbeat_every=0),
            )


class TestSerialChaosBitIdentity:
    def test_torn_checkpoints_never_taint_the_outcome(self, tmp_path):
        config, sim_config = small_configs()
        plan = make_plan()
        reference = run_plan(plan, config, sim_config, n_accesses=N_ACCESSES)
        assert not reference.failed

        ckpt = str(tmp_path / "sweep.ckpt")
        chaos = ChaosPlan(seed=7, p_torn_checkpoint=1.0)
        chaotic = run_plan(
            plan, config, sim_config, n_accesses=N_ACCESSES,
            checkpoint=ckpt, chaos=chaos,
        )
        assert not chaotic.failed and not chaotic.interrupted
        assert chaotic.counters.as_dict() == reference.counters.as_dict()
        assert chaotic.device_counters.as_dict() == (
            reference.device_counters.as_dict()
        )
        assert chaotic.orchestration.as_dict()["injected_checkpoint_torn"] >= 1
        assert chaotic.audit is not None and chaotic.audit["ok"]

        # Every checkpoint write was torn, so the file on disk is damaged…
        fingerprint = plan_fingerprint(plan, N_ACCESSES, config, sim_config)
        with pytest.raises(CheckpointCorruptError):
            load_checkpoint(ckpt, fingerprint)

        # …and a chaos-free resume salvages what it can, reruns the rest,
        # and still lands on the bit-identical merged outcome.
        resumed = run_plan(
            plan, config, sim_config, n_accesses=N_ACCESSES,
            checkpoint=ckpt, resume=ckpt,
        )
        assert not resumed.failed
        assert resumed.salvaged + resumed.retries >= 0  # smoke: fields exist
        assert resumed.counters.as_dict() == reference.counters.as_dict()
        salvage_counts = resumed.orchestration.as_dict()
        assert "checkpoint_salvaged_cells" in salvage_counts

    def test_enospc_checkpoint_writes_are_counted_not_fatal(self, tmp_path):
        config, sim_config = small_configs()
        plan = make_plan()
        reference = run_plan(plan, config, sim_config, n_accesses=N_ACCESSES)
        ckpt = str(tmp_path / "sweep.ckpt")
        chaotic = run_plan(
            plan, config, sim_config, n_accesses=N_ACCESSES,
            checkpoint=ckpt, chaos=ChaosPlan(seed=7, p_enospc=1.0),
        )
        assert not chaotic.failed
        assert chaotic.counters.as_dict() == reference.counters.as_dict()
        orchestration = chaotic.orchestration.as_dict()
        assert orchestration["checkpoint_write_errors"] >= 1
        assert orchestration["injected_checkpoint_enospc"] >= 1
        assert not os.path.exists(ckpt)  # nothing ever reached the disk


    def test_in_process_interrupt_stops_after_one_cell(self, tmp_path):
        # In process the dispatch window is one cell, so an interrupt
        # after the first finished cell leaves the other three unstarted.
        config, sim_config = small_configs()
        plan = plan_cells(WORKLOADS, DESIGNS, seeds=[1, 2])
        assert len(plan) == 4
        reference = run_plan(plan, config, sim_config, n_accesses=N_ACCESSES)
        ckpt = str(tmp_path / "sweep.ckpt")
        first = run_plan(
            plan, config, sim_config, n_accesses=N_ACCESSES, jobs=1,
            chaos=ChaosPlan(seed=7, interrupt_after_cells=1), checkpoint=ckpt,
        )
        assert first.interrupted and not first.failed
        assert len(first.results) == 1

        final = run_plan(
            plan, config, sim_config, n_accesses=N_ACCESSES, jobs=1,
            checkpoint=ckpt, resume=ckpt,
        )
        assert not final.interrupted and not final.failed
        assert final.resumed == 1
        assert {k: v.to_dict() for k, v in final.results.items()} == {
            k: v.to_dict() for k, v in reference.results.items()
        }
        assert final.counters.as_dict() == reference.counters.as_dict()


# ------------------------------------------------- pool chaos (fork only)
@pytest.mark.skipif(not fork_available(), reason="platform lacks fork")
class TestPoolChaos:
    TIMEOUT_S = 3.0

    def _pool_kwargs(self):
        return dict(
            n_accesses=N_ACCESSES, jobs=2, cell_timeout_s=self.TIMEOUT_S,
            telemetry=SweepTelemetry(heartbeat_every=100),
            backoff_base_s=0.01,
        )

    def test_poison_cell_is_quarantined_not_fatal(self):
        config, sim_config = small_configs()
        plan = make_plan()
        reference = run_plan(plan, config, sim_config, n_accesses=N_ACCESSES)
        chaos = ChaosPlan(seed=11, poison_cells=(0,))
        outcome = run_plan(
            plan, config, sim_config,
            chaos=chaos, max_attempts=5, quarantine_after=2,
            **self._pool_kwargs(),
        )
        assert not outcome.failed
        assert list(outcome.quarantined) == [plan[0].key]
        record = outcome.quarantined[plan[0].key]
        assert "consecutive worker" in record["message"]
        assert record["attempts"] == 2
        assert len(outcome.results) == len(plan) - 1
        # The healthy cells still fold bit-identically to their serial run.
        for cell in plan[1:]:
            assert (
                outcome.results[cell.key].to_dict()
                == reference.results[cell.key].to_dict()
            )
        orchestration = outcome.orchestration.as_dict()
        assert orchestration["quarantined"] == 1

    def test_poison_cell_exhausts_attempts_without_breaker(self):
        config, sim_config = small_configs()
        plan = make_plan()
        chaos = ChaosPlan(seed=11, poison_cells=(0,))
        outcome = run_plan(
            plan, config, sim_config,
            chaos=chaos, max_attempts=2,
            **self._pool_kwargs(),
        )
        assert list(outcome.failed) == [plan[0].key]
        assert "heartbeat" in outcome.failed[plan[0].key]["message"]
        assert outcome.retries >= 1
        assert outcome.orchestration.as_dict()["requeue_timeout"] >= 1

    def test_retry_budget_caps_requeues(self):
        config, sim_config = small_configs()
        plan = make_plan()
        chaos = ChaosPlan(seed=11, poison_cells=(0,))
        outcome = run_plan(
            plan, config, sim_config,
            chaos=chaos, max_attempts=10, retry_budget=1,
            **self._pool_kwargs(),
        )
        assert list(outcome.failed) == [plan[0].key]
        assert outcome.retries <= 1
        assert outcome.orchestration.as_dict()["retry_budget_exhausted"] >= 1

    def test_hung_worker_detected_distinctly_from_dead(self):
        config, sim_config = small_configs()
        plan = make_plan()
        # Every attempt freezes its progress for 1s while still beating;
        # progress_timeout_s=0.4 must flag that as *hung* (not dead) and
        # exhaust the per-cell attempts.
        chaos = ChaosPlan(seed=5, p_hang_worker=1.0, hang_s=1.0)
        outcome = run_plan(
            plan, config, sim_config,
            chaos=chaos, max_attempts=2, progress_timeout_s=0.4,
            **self._pool_kwargs(),
        )
        assert set(outcome.failed) == {cell.key for cell in plan}
        for error in outcome.failed.values():
            assert "stalled" in error["message"]
        assert outcome.orchestration.as_dict()["requeue_hung"] >= 1

    def test_injected_interrupt_leaves_a_resumable_checkpoint(self, tmp_path):
        config, sim_config = small_configs()
        # Six cells against a dispatch window of four (jobs=2): the
        # injected interrupt must catch some cells still queued, since
        # inflight cells are allowed to drain to completion.
        plan = plan_cells(WORKLOADS, DESIGNS, seeds=[1, 2, 3])
        reference = run_plan(plan, config, sim_config, n_accesses=N_ACCESSES)
        ckpt = str(tmp_path / "sweep.ckpt")
        first = run_plan(
            plan, config, sim_config,
            chaos=ChaosPlan(seed=7, interrupt_after_cells=1),
            checkpoint=ckpt, interrupt_grace_s=10.0,
            **self._pool_kwargs(),
        )
        assert first.interrupted
        assert not first.failed
        assert len(first.results) < len(plan)
        assert first.orchestration.as_dict()["injected_interrupt"] == 1

        final = run_plan(
            plan, config, sim_config,
            checkpoint=ckpt, resume=ckpt,
            **self._pool_kwargs(),
        )
        assert not final.interrupted and not final.failed
        assert final.resumed >= 1
        assert len(final.results) == len(plan)
        assert final.counters.as_dict() == reference.counters.as_dict()
        assert final.serve.hits == reference.serve.hits
        assert final.serve.total == reference.serve.total
        assert final.audit is not None and final.audit["ok"]


# ------------------------------------------------ matrix entry points
class TestMatrixChaosSurface:
    def test_run_matrix_raises_poison_cell_error(self, monkeypatch):
        import repro.parallel as parallel_pkg
        from repro.parallel.runner import MatrixOutcome

        outcome = MatrixOutcome()
        outcome.quarantined[("YCSB-B", "simple")] = {
            "message": "cell 0 took down 2 consecutive worker(s)",
            "attempts": 2,
            "reasons": ["timeout", "timeout"],
            "partial": {"done": 100, "total": 800},
        }
        monkeypatch.setattr(parallel_pkg, "run_plan", lambda *a, **k: outcome)
        config, sim_config = small_configs()
        with pytest.raises(PoisonCellError) as excinfo:
            run_matrix(
                WORKLOADS, ["simple"], config, sim_config, n_accesses=16
            )
        err = excinfo.value
        assert err.cell == ("YCSB-B", "simple")
        assert err.attempts == 2
        assert err.reasons == ("timeout", "timeout")
        assert err.partial == {"done": 100, "total": 800}


class TestManifestAudit:
    def test_audit_catches_tampering(self, tmp_path):
        config, sim_config = small_configs()
        plan = make_plan()
        manifest_path = str(tmp_path / "run.manifest.json")
        outcome = run_plan(
            plan, config, sim_config, n_accesses=N_ACCESSES,
            manifest=manifest_path,
        )
        assert outcome.audit is not None and outcome.audit["ok"]

        manifest = load_manifest(manifest_path)
        manifest["counter_digest"] = "0" * 64
        first_key = sorted(manifest["results"])[0]
        del manifest["results"][first_key]
        audit = audit_manifest(manifest, outcome, plan)
        assert not audit["ok"]
        assert any("counter_digest" in note for note in audit["mismatches"])
        assert any(
            "missing from manifest" in note for note in audit["mismatches"]
        )


# --------------------------------------------------------- CLI exit codes
class TestMatrixExitCodes:
    def _outcome(self, **overrides):
        import types

        base = dict(
            failed={}, quarantined={}, interrupted=False, audit={"ok": True}
        )
        base.update(overrides)
        return types.SimpleNamespace(**base)

    def test_precedence(self):
        from repro.__main__ import (
            EXIT_MATRIX_FAILED,
            EXIT_MATRIX_INTERRUPTED,
            EXIT_MATRIX_OK,
            EXIT_MATRIX_QUARANTINED,
            _matrix_exit_code,
        )

        assert _matrix_exit_code(self._outcome()) == EXIT_MATRIX_OK
        assert _matrix_exit_code(
            self._outcome(quarantined={("a",): {}})
        ) == EXIT_MATRIX_QUARANTINED
        assert _matrix_exit_code(
            self._outcome(interrupted=True, quarantined={("a",): {}})
        ) == EXIT_MATRIX_INTERRUPTED
        assert _matrix_exit_code(
            self._outcome(failed={("a",): {}}, interrupted=True)
        ) == EXIT_MATRIX_FAILED
        assert _matrix_exit_code(
            self._outcome(audit={"ok": False})
        ) == EXIT_MATRIX_FAILED
        assert _matrix_exit_code(self._outcome(audit=None)) == EXIT_MATRIX_OK
