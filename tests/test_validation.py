"""Tests for the differential-oracle validation subsystem."""

import math
import random

import pytest

from repro.common.errors import OracleViolation
from repro.core.events import AccessCase
from repro.validation import (
    ContentBackedController,
    GoldenReference,
    ddmin,
    emit_fixture,
    generate_trace,
    make_tiny_config,
    replay,
    run_case,
    run_differential,
    run_fixture,
    run_fuzz,
    sample_config_kwargs,
    selftest_case,
    variant_config,
)


def _clean_replay(config, trace, seed=1):
    controller = ContentBackedController(config, seed=seed)
    return replay(controller, trace)


class TestContentOracle:
    def test_read_your_writes_simple(self):
        config = make_tiny_config()
        trace = [(0, True), (0, False), (64, True), (64, False), (0, False)]
        controller = _clean_replay(config, trace)
        # Three reads, each seeing the last write: tokens 1, 2, 1.
        assert controller.served_reads == [1, 2, 1]

    def test_pristine_reads_serve_zero(self):
        config = make_tiny_config()
        controller = _clean_replay(config, [(4096, False), (8192, False)])
        assert controller.served_reads == [0, 0]

    def test_covers_every_access_flow_case(self):
        """One generated trace per scheme walks all Fig. 6 cases cleanly."""
        seen = set()
        for variant in ("cache", "flat", "fa", "64b"):
            config = variant_config(make_tiny_config(), variant)
            for seed in (1, 2, 3):
                trace = generate_trace(random.Random(seed), config, 700)
                controller = ContentBackedController(config, seed=seed)
                replay(controller, trace)
                seen |= {
                    key for key in controller.stats.as_dict()
                    if key.startswith("case_")
                }
        expected = {
            f"case_{case.value}"
            for case in (
                AccessCase.STAGE_HIT, AccessCase.COMMIT_HIT,
                AccessCase.STAGE_MISS, AccessCase.COMMIT_MISS,
                AccessCase.BLOCK_MISS, AccessCase.FAST_HOME,
            )
        }
        assert expected <= seen

    def test_no_stage_ablation_clean(self):
        config = make_tiny_config(stage_enabled=False)
        trace = generate_trace(random.Random(4), config, 500)
        _clean_replay(config, trace)

    def test_compression_disabled_clean(self):
        config = make_tiny_config(compression_enabled=False)
        trace = generate_trace(random.Random(5), config, 500)
        _clean_replay(config, trace)

    def test_conservation_checked_during_replay(self):
        config = make_tiny_config()
        trace = generate_trace(random.Random(6), config, 300)
        controller = _clean_replay(config, trace)
        assert controller.vstats.get("conservation_checks") > 0
        # Stage and committed-fast stores never hold the same line.
        assert not (controller.c_stage.keys() & controller.c_fast.keys())

    def test_unknown_bug_rejected(self):
        with pytest.raises(ValueError):
            ContentBackedController(make_tiny_config(), inject_bug="nope")

    @pytest.mark.parametrize("bug", ["drop_dirty_writeback", "commit_stale_data"])
    def test_injected_bug_caught(self, bug):
        kwargs, trace = selftest_case()
        if bug == "commit_stale_data":
            # commit_all forces commits so the stale-commit hook fires.
            kwargs = dict(kwargs, commit_all=True)
            trace = generate_trace(
                random.Random(8), make_tiny_config(**kwargs), 600
            )
        with pytest.raises(OracleViolation) as excinfo:
            run_case(kwargs, trace, seed=7, inject_bug=bug)
        assert excinfo.value.kind == "stale_read"
        assert excinfo.value.addr is not None

    def test_selftest_clean_without_injection(self):
        kwargs, trace = selftest_case()
        run_case(kwargs, trace, seed=7)


class TestDifferential:
    def test_all_designs_agree(self):
        config = make_tiny_config()
        trace = generate_trace(random.Random(10), config, 400)
        streams = run_differential(config, trace, seed=2)
        assert len(streams) == 8
        reference = next(iter(streams.values()))
        assert all(s == reference for s in streams.values())

    def test_golden_reference_serves_last_write(self):
        class Transparent:
            def access(self, addr, is_write, now=None):
                return None

        shim = GoldenReference(Transparent())
        for addr, is_write in [(0, True), (0, False), (64, False), (0, True), (0, False)]:
            shim.access(addr, is_write)
        assert shim.served_reads == [1, 0, 2]

    def test_differential_flags_injected_bug(self):
        kwargs, trace = selftest_case()
        config = make_tiny_config(**kwargs)
        with pytest.raises(OracleViolation):
            run_differential(config, trace, seed=7, inject_bug="drop_dirty_writeback")

    def test_variant_config_unknown(self):
        with pytest.raises(ValueError):
            variant_config(make_tiny_config(), "hbm")


class TestFuzz:
    def test_fuzz_clean_and_deterministic(self):
        a = run_fuzz(iterations=4, seed=21, n_accesses=250)
        b = run_fuzz(iterations=4, seed=21, n_accesses=250)
        assert a.ok and b.ok
        assert a.stats.as_dict() == b.stats.as_dict()

    def test_fuzz_batched_runs_every_seam_twin(self):
        """Every batched iteration replays Baryon's server, the simple
        seam, Hybrid2 (k = 0) on the server, and the Unison and DICE
        servers against scalar twins."""
        report = run_fuzz(iterations=3, seed=7, n_accesses=300, batched=True)
        assert report.ok
        for check in ("batched", "simple", "hybrid2", "unison", "dice"):
            assert report.stats.get(f"fuzz_{check}_checks") == 3

    def test_fuzz_collects_injected_failures(self):
        report = run_fuzz(
            iterations=6, seed=5, n_accesses=400, inject_bug="commit_stale_data"
        )
        assert report.failures
        failure = report.failures[0]
        assert failure.config_kwargs and failure.trace
        # The failure must replay from its recorded identity alone.
        with pytest.raises(OracleViolation):
            run_case(
                failure.config_kwargs, failure.trace, failure.seed,
                inject_bug="commit_stale_data",
            )

    def test_sampled_configs_constructible(self):
        for i in range(25):
            kwargs = sample_config_kwargs(random.Random(i))
            make_tiny_config(**kwargs)

    def test_sampler_spells_stability_only_as_infinite_k(self):
        """A stability-only draw sets ``k = inf``; no other kwarg names it."""
        drawn = [sample_config_kwargs(random.Random(i)) for i in range(40)]
        stability = [kw for kw in drawn if "k" in kw]
        assert stability, "40 seeds drew no stability-only case"
        for kwargs in stability:
            assert kwargs["k"] == math.inf and "commit_all" not in kwargs
            assert make_tiny_config(**kwargs).commit.k == math.inf


class TestMinimizeAndEmit:
    def test_ddmin_finds_minimal_pair(self):
        trace = [(i * 64, i % 3 == 0) for i in range(40)]

        def fails(t):
            records = set(t)
            return (0, True) in records and (12 * 64, True) in records

        minimal = ddmin(trace, fails)
        assert sorted(minimal) == [(0, True), (12 * 64, True)]

    def test_ddmin_requires_failing_input(self):
        with pytest.raises(ValueError):
            ddmin([(0, True)], lambda t: False)

    def test_selftest_minimizes_small(self):
        kwargs, trace = selftest_case()

        def fails(t):
            try:
                run_case(kwargs, list(t), seed=7, inject_bug="drop_dirty_writeback")
                return False
            except OracleViolation:
                return True

        minimal = ddmin(trace, fails)
        assert len(minimal) <= 20
        assert fails(minimal)

    @pytest.mark.parametrize("extra", [{}, {"k": math.inf}],
                             ids=["selective", "stability-only"])
    def test_emitted_fixture_reproduces(self, tmp_path, extra):
        """The emitted module execs and reproduces the violation, also
        when its ``CONFIG_KWARGS`` literal holds ``k = inf``."""
        kwargs, trace = selftest_case()
        kwargs = {**kwargs, **extra}
        fixture = emit_fixture(
            tmp_path / "test_regression_demo.py", trace, kwargs,
            seed=7, inject_bug="drop_dirty_writeback", tag="demo",
        )
        source = fixture.read_text()
        assert "pytest.raises(OracleViolation)" in source
        assert "make_tiny_config" in source
        run_fixture(fixture)  # raises if the fixture does not reproduce

    def test_run_fixture_rejects_testless_file(self, tmp_path):
        path = tmp_path / "test_empty.py"
        path.write_text("x = 1\n")
        with pytest.raises(ValueError):
            run_fixture(path)


class TestValidateCli:
    def test_validate_subcommand_passes(self, capsys):
        from repro.__main__ import main

        assert main(["validate", "--fuzz", "2", "--seed", "7",
                     "--accesses", "300"]) == 0
        out = capsys.readouterr().out
        assert "validation PASSED" in out
        assert "selftest" in out

    def test_validate_leaves_no_temporary_files(self, tmp_path):
        """Without --emit-dir the selftest's fixture directory is removed
        once the fixture has rerun, and no path to it is printed."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        scratch = tmp_path / "tmp"
        scratch.mkdir()
        src = str(Path(repro.__file__).resolve().parent.parent)
        env = dict(os.environ, TMPDIR=str(scratch), PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-m", "repro", "validate", "--fuzz", "1",
             "--seed", "7", "--accesses", "200"],
            env=env, capture_output=True, text=True, check=True,
        ).stdout
        assert "validation PASSED" in out
        assert "fixture at" not in out
        assert list(scratch.iterdir()) == []

    def test_validate_keeps_fixture_in_emit_dir(self, tmp_path, capsys):
        from repro.__main__ import main

        assert main(["validate", "--fuzz", "1", "--seed", "7",
                     "--accesses", "200", "--emit-dir", str(tmp_path)]) == 0
        fixture = tmp_path / "test_regression_drop_dirty_writeback.py"
        assert f"fixture at {fixture}" in capsys.readouterr().out
        assert fixture.is_file()

    def test_validate_metrics_export(self, capsys):
        from repro.__main__ import main

        assert main(["validate", "--fuzz", "1", "--seed", "3",
                     "--accesses", "200", "--skip-selftest",
                     "--metrics", "--format", "prometheus"]) == 0
        out = capsys.readouterr().out
        assert "repro_validation_total" in out

    def test_validate_rejects_bad_args(self):
        from repro.__main__ import main

        assert main(["validate", "--fuzz", "-1"]) == 2
