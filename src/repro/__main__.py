"""Command-line entry point: run one (workload, design) simulation.

Examples::

    python -m repro --list
    python -m repro YCSB-A baryon
    python -m repro pr.twitter dice --accesses 50000 --scale 128 --seed 3
    python -m repro 519.lbm_r baryon --flat
    python -m repro YCSB-A baryon --profile

Comma-separated workloads/designs (or ``all``) switch to matrix mode,
which shards the sweep across ``--jobs`` worker processes (see
docs/performance.md)::

    python -m repro YCSB-A,505.mcf_r simple,dice,baryon --jobs 4
    python -m repro all baryon,hybrid2 --jobs 8

Observability subcommands (see docs/observability.md)::

    python -m repro trace YCSB-A baryon --out trace.jsonl --accesses 5000
    python -m repro report YCSB-A baryon --metrics --format prometheus
    python -m repro report YCSB-A,YCSB-B simple,baryon --jobs 4 --metrics

Fault injection and crash-safe sweeps (see docs/resilience.md)::

    python -m repro YCSB-A baryon --faults read=1e-4,spike=1e-3
    python -m repro YCSB-A baryon --faults table=1e-4 --check-invariants
    python -m repro all baryon --jobs 8 --checkpoint sweep.json
    python -m repro all baryon --jobs 8 --resume sweep.json

Differential-oracle validation (see docs/validation.md)::

    python -m repro validate --fuzz 25 --seed 7
    python -m repro validate --fuzz 100 --seed 7 --minimize --metrics

Sweep telemetry and run manifests (see docs/observability.md)::

    python -m repro all baryon --jobs 8 --progress --trace-spans spans.jsonl
    python -m repro all baryon --jobs 8 --progress-out progress.jsonl
    python -m repro all baryon --jobs 8 --manifest run.manifest.json
    python -m repro manifest show run.manifest.json
    python -m repro manifest diff a.manifest.json b.manifest.json

Orchestration chaos and sweep hardening (see docs/resilience.md)::

    python -m repro all baryon --jobs 8 --chaos kill=0.2,torn=0.2 --progress
    python -m repro all baryon --jobs 8 --quarantine-after 3 --retry-budget 64
    python -m repro chaos-soak --cells 12 --chaos-seed 7

Simulation-as-a-service (see docs/serving.md)::

    python -m repro serve --port 8642 --jobs 4
    python examples/capacity_planning.py --server http://127.0.0.1:8642

Matrix-mode exit codes: 0 all cells clean; 3 completed but some cells
quarantined by the poison-cell circuit breaker; 4 cells failed or the
end-of-run manifest audit found a mismatch; 130 interrupted
(SIGINT/SIGTERM) with a resumable checkpoint.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from repro.analysis import (
    DESIGNS,
    format_matrix,
    run_cell,
    run_matrix_sharded,
)
from repro.common.errors import ConfigurationError
from repro.workloads import scaled_system
from repro.workloads.suite import WORKLOADS

#: Matrix-mode exit codes (documented in the module help above): clean,
#: quarantined cells in an otherwise complete sweep, failed cells or a
#: failed integrity audit, interrupted with a resumable checkpoint.
EXIT_MATRIX_OK = 0
EXIT_MATRIX_QUARANTINED = 3
EXIT_MATRIX_FAILED = 4
EXIT_MATRIX_INTERRUPTED = 130


def _add_resilience_args(parser: argparse.ArgumentParser) -> None:
    from repro.resilience import FAULT_SPEC_KEYS

    parser.add_argument("--faults", metavar="SPEC",
                        help="inject deterministic faults: comma-separated "
                        "key=probability pairs, keys "
                        f"{','.join(sorted(FAULT_SPEC_KEYS))} "
                        "(e.g. read=1e-4,spike=1e-3)")
    parser.add_argument("--fault-seed", type=int, default=0xBA51C,
                        help="seed of the counter-based fault sequence "
                        "(default 0xBA51C)")
    parser.add_argument("--check-invariants", action="store_true",
                        help="run the shadow-memory invariant checker "
                        "(R1-R4 + metadata round-trip on every commit)")


def _add_checkpoint_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--checkpoint", metavar="PATH",
                        help="matrix mode: atomically checkpoint finished "
                        "cells to this JSON file after each cell")
    parser.add_argument("--resume", metavar="PATH",
                        help="matrix mode: skip cells already finished in "
                        "this checkpoint file (missing file starts fresh)")
    parser.add_argument("--max-attempts", type=int, default=2,
                        help="attempts per matrix cell before it is reported "
                        "as failed (default 2)")
    parser.add_argument("--cell-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="per-cell deadline; a lapsed deadline requeues "
                        "the cell (dead-worker detection, default 600)")


def _add_chaos_args(parser: argparse.ArgumentParser) -> None:
    from repro.resilience import CHAOS_SPEC_KEYS

    parser.add_argument("--chaos", metavar="SPEC",
                        help="matrix mode: inject seeded orchestration chaos "
                        "(worker kills/hangs, heartbeat loss, torn/flipped/"
                        "ENOSPC checkpoint writes, delayed drains): "
                        "comma-separated key=value pairs, keys "
                        f"{','.join(sorted(CHAOS_SPEC_KEYS))} "
                        "(e.g. kill=0.2,hang=0.1,torn=0.2)")
    parser.add_argument("--chaos-seed", type=int, default=0xC7A05,
                        help="seed of the deterministic chaos schedule "
                        "(default 0xC7A05)")
    parser.add_argument("--progress-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="matrix mode: declare a worker hung (heartbeats "
                        "alive but no progress for this long) and requeue "
                        "its cell; needs heartbeats on (default: off)")
    parser.add_argument("--quarantine-after", type=int, default=None,
                        metavar="N",
                        help="matrix mode: poison-cell circuit breaker — a "
                        "cell killing N consecutive workers is quarantined "
                        "with a degraded partial result instead of being "
                        "retried forever (default: off)")
    parser.add_argument("--retry-budget", type=int, default=None, metavar="N",
                        help="matrix mode: global cap on requeued attempts "
                        "across all cells (default: unlimited)")
    parser.add_argument("--backoff-base", type=float, default=0.0,
                        metavar="SECONDS",
                        help="matrix mode: base of the exponential backoff "
                        "(with deterministic jitter) between a cell's "
                        "attempts (default 0 = requeue immediately)")


def _add_telemetry_args(parser: argparse.ArgumentParser) -> None:
    from repro.parallel.telemetry import DEFAULT_HEARTBEAT_EVERY

    parser.add_argument("--progress", action="store_true",
                        help="matrix mode: render a live status line on "
                        "stderr from worker heartbeats (cells done, "
                        "accesses/sec, ETA)")
    parser.add_argument("--progress-out", metavar="PATH",
                        help="matrix mode: mirror every heartbeat/cell "
                        "event to this JSONL file")
    parser.add_argument("--trace-spans", metavar="PATH",
                        help="matrix mode: record the sweep->cell->phase "
                        "span tree and write it to this JSONL file")
    parser.add_argument("--manifest", metavar="PATH",
                        help="matrix mode: write a run manifest (plan "
                        "fingerprint, git revision, counter digest, "
                        "timings) to this file; with --checkpoint one is "
                        "always written next to the checkpoint")
    parser.add_argument("--heartbeat-every", type=int,
                        default=DEFAULT_HEARTBEAT_EVERY, metavar="N",
                        help="simulated accesses between worker heartbeats "
                        f"(default {DEFAULT_HEARTBEAT_EVERY}; 0 disables "
                        "the heartbeat channel)")


def _add_run_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("workload",
                        help="workload name, comma-separated list, or 'all' "
                        "(see --list)")
    parser.add_argument("design", nargs="?", default="baryon",
                        help=f"one of {', '.join(DESIGNS)}, a comma-separated "
                        "list, or 'all' (default: baryon)")
    parser.add_argument("--accesses", type=int, default=30_000,
                        help="trace length (default 30000)")
    parser.add_argument("--scale", type=int, default=256,
                        help="capacity scale divisor vs Table I (default 256)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--flat", action="store_true",
                        help="use the flat scheme (75%% flat / 25%% cache split)")
    _add_resilience_args(parser)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Baryon (HPCA 2023) reproduction: simulate one workload "
        "on one hybrid-memory design at a scaled Table I configuration.",
    )
    parser.add_argument("workload", nargs="?",
                        help="workload name, comma-separated list, or 'all' "
                        "(see --list)")
    parser.add_argument("design", nargs="?", default="baryon",
                        help=f"one of {', '.join(DESIGNS)}, a comma-separated "
                        "list, or 'all' (default: baryon)")
    parser.add_argument("--accesses", type=int, default=30_000,
                        help="trace length (default 30000)")
    parser.add_argument("--scale", type=int, default=256,
                        help="capacity scale divisor vs Table I (default 256)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--flat", action="store_true",
                        help="use the flat scheme (75%% flat / 25%% cache split)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for matrix mode (default 1 = "
                        "in-process; matrix results are identical either way)")
    parser.add_argument("--profile", action="store_true",
                        help="time the simulator's phases and print a profile")
    parser.add_argument("--list", action="store_true",
                        help="list workloads and designs, then exit")
    _add_resilience_args(parser)
    _add_checkpoint_args(parser)
    _add_chaos_args(parser)
    _add_telemetry_args(parser)
    return parser


def build_trace_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro trace",
        description="Run one workload with the structured event tracer on "
        "and dump the JSONL event stream.",
    )
    _add_run_args(parser)
    parser.add_argument("--out", default="trace.jsonl",
                        help="JSONL output path (default trace.jsonl)")
    parser.add_argument("--sample-every", type=int, default=1,
                        help="keep 1 in N events (default 1 = everything)")
    parser.add_argument("--ring", type=int, default=1 << 20,
                        help="in-memory ring capacity (default 1Mi events)")
    return parser


def build_report_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro report",
        description="Run one workload with tracing on and summarize the "
        "event stream; --metrics adds the metrics-registry export.",
    )
    _add_run_args(parser)
    parser.add_argument("--metrics", action="store_true",
                        help="export the metrics registry as well")
    parser.add_argument("--format", choices=("text", "json", "prometheus"),
                        default="text", help="metrics export format")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes when reporting a matrix "
                        "(comma-separated workloads/designs)")
    parser.add_argument("--profile", action="store_true",
                        help="include the phase profile in the report")
    _add_checkpoint_args(parser)
    _add_chaos_args(parser)
    _add_telemetry_args(parser)
    return parser


def build_validate_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro validate",
        description="Differential-oracle validation: content-backed replay "
        "through every Baryon variant and baseline, seeded trace fuzzing, "
        "and a bug-injection selftest with delta-debugged fixture emission.",
    )
    parser.add_argument("--fuzz", type=int, default=25, metavar="N",
                        help="fuzz iterations (default 25; 0 skips fuzzing)")
    parser.add_argument("--seed", type=int, default=7,
                        help="base seed of the deterministic fuzz sequence "
                        "(default 7)")
    parser.add_argument("--accesses", type=int, default=600,
                        help="trace records per fuzz iteration (default 600)")
    parser.add_argument("--fuzz-batched", action="store_true",
                        help="additionally cross-check every fuzz case "
                        "across the controller's deferred-batch seam "
                        "(deferred server + access_batch vs per-op access; "
                        "fault injection off, oracle on)")
    parser.add_argument("--minimize", action="store_true",
                        help="delta-debug any fuzzer-found failure before "
                        "reporting it (the selftest is always minimized)")
    parser.add_argument("--emit-dir", metavar="DIR", default=None,
                        help="directory for emitted regression fixtures "
                        "(default: a fresh temporary directory)")
    parser.add_argument("--skip-selftest", action="store_true",
                        help="skip the injected-bug selftest (clean checks "
                        "only)")
    parser.add_argument("--metrics", action="store_true",
                        help="export validation counters as a metrics "
                        "registry")
    parser.add_argument("--format", choices=("text", "json", "prometheus"),
                        default="text", help="metrics export format")
    return parser


def cmd_validate(argv) -> int:
    """``python -m repro validate``: oracle + differential + fuzz + selftest.

    Exit status 0 requires BOTH directions of evidence: every clean check
    passes (differential agreement across designs, zero fuzz violations)
    AND the deliberately injected placement bug is caught, minimized and
    re-raised by its emitted regression fixture.
    """
    import tempfile
    from pathlib import Path

    from repro.common.errors import OracleViolation
    from repro.validation import (
        ddmin, emit_fixture, generate_trace, make_tiny_config, run_case,
        run_differential, run_fixture, run_fuzz, selftest_case,
    )

    args = build_validate_parser().parse_args(argv)
    if args.fuzz < 0 or args.accesses <= 0:
        print("--fuzz must be >= 0 and --accesses positive", file=sys.stderr)
        return 2
    ok = True
    stats = None

    # 1. Differential: one deterministic trace, every design, same data.
    import random

    config = make_tiny_config()
    trace = generate_trace(random.Random(args.seed), config, args.accesses)
    try:
        streams = run_differential(config, trace, seed=args.seed)
    except OracleViolation as err:
        print(f"differential check FAILED: {err}", file=sys.stderr)
        ok = False
    else:
        reads = len(next(iter(streams.values())))
        print(f"differential check: {len(streams)} designs agree on "
              f"{reads} served reads")

    # 2. Seeded fuzzing over random tiny configs and traces.
    if args.fuzz:
        report = run_fuzz(
            args.fuzz, args.seed, n_accesses=args.accesses,
            batched=args.fuzz_batched,
        )
        stats = report.stats
        batched_note = (
            f", {report.stats.get('fuzz_batched_checks')} batched-seam + "
            f"{report.stats.get('fuzz_simple_checks')} simple-seam + "
            f"{report.stats.get('fuzz_hybrid2_checks')} hybrid2-seam + "
            f"{report.stats.get('fuzz_unison_checks')} unison-seam + "
            f"{report.stats.get('fuzz_dice_checks')} dice-seam check(s)"
            if args.fuzz_batched else ""
        )
        print(f"fuzz: {report.iterations} iterations, {report.accesses} "
              f"accesses, {len(report.failures)} violation(s){batched_note}")
        for failure in report.failures:
            ok = False
            print(f"  iteration {failure.iteration}: {failure.error}",
                  file=sys.stderr)
            print(f"    config: {failure.config_kwargs}", file=sys.stderr)
            if args.minimize:
                def _fails(t, f=failure):
                    try:
                        run_case(f.config_kwargs, list(t), f.seed)
                        return False
                    except OracleViolation:
                        return True
                failure.minimized = ddmin(failure.trace, _fails)
                print(f"    minimized to {len(failure.minimized)} record(s): "
                      f"{failure.minimized}", file=sys.stderr)

    # 3. Selftest: an injected placement bug must be caught end to end.
    if not args.skip_selftest:
        bug = "drop_dirty_writeback"
        config_kwargs, selftest_trace = selftest_case()

        def _bug_fails(t):
            try:
                run_case(config_kwargs, list(t), args.seed, inject_bug=bug)
                return False
            except OracleViolation:
                return True

        if not _bug_fails(selftest_trace):
            print(f"selftest FAILED: injected bug {bug!r} was not caught",
                  file=sys.stderr)
            ok = False
        else:
            minimized = ddmin(selftest_trace, _bug_fails)
            emit_dir = Path(args.emit_dir or tempfile.mkdtemp(prefix="repro-validate-"))
            emit_dir.mkdir(parents=True, exist_ok=True)
            fixture = emit_fixture(
                emit_dir / f"test_regression_{bug}.py",
                minimized, config_kwargs, seed=args.seed, inject_bug=bug,
                tag=bug,
                command=f"python -m repro validate --seed {args.seed}",
            )
            try:
                run_fixture(fixture)
            except Exception as err:  # noqa: BLE001 - report any breakage
                print(f"selftest FAILED: emitted fixture did not reproduce: "
                      f"{err}", file=sys.stderr)
                ok = False
            else:
                print(f"selftest: injected bug {bug!r} caught, minimized to "
                      f"{len(minimized)} record(s), fixture at {fixture}")
            # The bug hook must not fire without injection.
            try:
                run_case(config_kwargs, selftest_trace, args.seed)
            except OracleViolation as err:
                print(f"selftest FAILED: clean replay violated the oracle: "
                      f"{err}", file=sys.stderr)
                ok = False

    if args.metrics and stats is not None:
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        registry.ingest_counter_group(
            "repro_validation_total", stats,
            help="validation-subsystem counters (fuzz + oracle)",
        )
        _print_registry(registry, args.format)
    print("validation " + ("PASSED" if ok else "FAILED"))
    return 0 if ok else 1


def _validate_workload(workload: str) -> bool:
    if workload not in WORKLOADS:
        print(f"unknown workload {workload!r}; use --list", file=sys.stderr)
        return False
    return True


def _parse_matrix(args):
    """Workload/design lists when the invocation is a matrix, else None.

    ``all`` or a comma in either argument selects matrix mode; a single
    (workload, design) pair keeps the original one-cell behaviour.
    """
    workloads = (sorted(WORKLOADS) if args.workload == "all"
                 else [w for w in args.workload.split(",") if w])
    designs = (list(DESIGNS) if args.design == "all"
               else [d for d in args.design.split(",") if d])
    if len(workloads) <= 1 and len(designs) <= 1:
        return None
    return workloads, designs


def _build_telemetry(args, n_cells: int):
    """``(SweepTelemetry, span tracer, progress sink)`` from CLI flags.

    Everything is ``None`` when no telemetry flag was given, so the
    untelemetered CLI path is exactly the pre-telemetry one.
    """
    from repro.obs import SpanTracer, make_cli_tracker
    from repro.parallel import SweepTelemetry
    from repro.parallel.telemetry import DEFAULT_HEARTBEAT_EVERY

    render = getattr(args, "progress", False)
    progress_out = getattr(args, "progress_out", None)
    spans_out = getattr(args, "trace_spans", None)
    collect_metrics = getattr(args, "metrics", False)
    if not (render or progress_out or spans_out or collect_metrics):
        return None, None, None
    spans = SpanTracer(origin="sweep") if spans_out else None
    sink = None
    tracker = None
    if render or progress_out:
        sink = (open(progress_out, "w", encoding="utf-8")
                if progress_out else None)
        tracker = make_cli_tracker(n_cells, render=render, sink=sink)
    telemetry = SweepTelemetry(
        spans=spans, progress=tracker, collect_metrics=collect_metrics,
        heartbeat_every=getattr(
            args, "heartbeat_every", DEFAULT_HEARTBEAT_EVERY
        ),
    )
    return telemetry, spans, sink


def _run_matrix_outcome(args, workloads, designs):
    """Validate, run the sharded matrix, and return the outcome (or None)."""
    for workload in workloads:
        if not _validate_workload(workload):
            return None
    for design in designs:
        if design not in DESIGNS:
            print(f"unknown design {design!r}; choose from {', '.join(DESIGNS)}",
                  file=sys.stderr)
            return None
    configs = _try_configs(args)
    if configs is None:
        return None
    config, sim_config = configs
    try:
        chaos = _chaos_plan(args)
    except ConfigurationError as err:
        print(str(err), file=sys.stderr)
        return None
    telemetry, spans, progress_sink = _build_telemetry(
        args, len(workloads) * len(designs)
    )
    if chaos is not None and chaos.wants_worker_chaos and telemetry is None:
        # Worker chaos (kills/hangs) is detected through heartbeats, so
        # a bare heartbeat channel is attached even without telemetry
        # flags; counters stay bit-identical either way.
        from repro.parallel import SweepTelemetry
        from repro.parallel.telemetry import DEFAULT_HEARTBEAT_EVERY

        telemetry = SweepTelemetry(heartbeat_every=getattr(
            args, "heartbeat_every", DEFAULT_HEARTBEAT_EVERY
        ))
    try:
        outcome = run_matrix_sharded(
            workloads, designs, config, sim_config,
            n_accesses=args.accesses, seed=args.seed, jobs=args.jobs,
            max_attempts=getattr(args, "max_attempts", 2),
            cell_timeout_s=getattr(args, "cell_timeout", None),
            checkpoint=getattr(args, "checkpoint", None),
            resume=getattr(args, "resume", None),
            telemetry=telemetry,
            manifest=getattr(args, "manifest", None),
            chaos=chaos,
            progress_timeout_s=getattr(args, "progress_timeout", None),
            quarantine_after=getattr(args, "quarantine_after", None),
            retry_budget=getattr(args, "retry_budget", None),
            backoff_base_s=getattr(args, "backoff_base", 0.0),
            handle_signals=True,
        )
    except ConfigurationError as err:
        # e.g. a resume checkpoint written by a different plan
        print(str(err), file=sys.stderr)
        return None
    finally:
        if telemetry is not None and telemetry.progress is not None:
            telemetry.progress.finish()
        if progress_sink is not None:
            progress_sink.close()
    if spans is not None:
        spans_out = getattr(args, "trace_spans", None)
        count = spans.dump_jsonl(spans_out)
        print(f"wrote {count} span(s) -> {spans_out}", file=sys.stderr)
    return outcome


def _chaos_plan(args):
    """A ChaosPlan from ``--chaos``/``--chaos-seed``, or None."""
    spec = getattr(args, "chaos", None)
    if not spec:
        return None
    from repro.resilience import ChaosPlan, parse_chaos_spec

    return ChaosPlan(
        seed=getattr(args, "chaos_seed", 0xC7A05), **parse_chaos_spec(spec)
    )


def _matrix_exit_code(outcome) -> int:
    """Map a MatrixOutcome onto the documented matrix exit codes."""
    if outcome.failed or (outcome.audit is not None and not outcome.audit["ok"]):
        return EXIT_MATRIX_FAILED
    if outcome.interrupted:
        return EXIT_MATRIX_INTERRUPTED
    if outcome.quarantined:
        return EXIT_MATRIX_QUARANTINED
    return EXIT_MATRIX_OK


def _print_matrix(outcome, workloads, designs, args) -> None:
    print(f"{len(workloads)}x{len(designs)} matrix "
          f"(1/{args.scale} scale, {args.accesses} accesses, "
          f"{outcome.jobs} job{'s' if outcome.jobs != 1 else ''}, "
          f"{outcome.elapsed_s:.2f}s, "
          f"{outcome.traces_generated}/{outcome.cells} traces generated)")
    print(format_matrix(outcome.results, workloads, designs,
                        metric="ipc", title="IPC"))
    print(format_matrix(outcome.results, workloads, designs,
                        metric="serve_rate", title="fast-memory serve rate"))
    print(f"merged serve rate: {outcome.serve.rate:.4f} "
          f"({outcome.serve.hits}/{outcome.serve.total})")
    if outcome.resumed:
        print(f"resumed {outcome.resumed} cell(s) from checkpoint")
    if outcome.salvaged:
        print(f"salvaged {outcome.salvaged} cell(s) from a damaged checkpoint")
    if outcome.retries:
        print(f"requeued {outcome.retries} cell attempt(s)")
    resilience = outcome.resilience_counters.as_dict()
    if resilience:
        print("resilience counters (merged):")
        for key, value in sorted(resilience.items()):
            print(f"  {key:<36} {value}")
    orchestration = outcome.orchestration.as_dict()
    if orchestration:
        print("orchestration counters:")
        for key, value in sorted(orchestration.items()):
            print(f"  {key:<36} {value}")
    if outcome.audit is not None:
        if outcome.audit["ok"]:
            print(f"manifest audit: ok ({outcome.audit['checked']} checks)")
        else:
            print(f"manifest audit: FAILED "
                  f"({len(outcome.audit['mismatches'])} mismatch(es)):",
                  file=sys.stderr)
            for mismatch in outcome.audit["mismatches"]:
                print(f"  {mismatch}", file=sys.stderr)
    if outcome.quarantined:
        print(f"QUARANTINED cells ({len(outcome.quarantined)}):",
              file=sys.stderr)
        for key, record in sorted(outcome.quarantined.items()):
            print(f"  {key}: {record['message']}", file=sys.stderr)
    if outcome.interrupted:
        print("interrupted: sweep stopped early; the checkpoint is "
              "resumable with --resume", file=sys.stderr)
    if outcome.failed:
        print(f"FAILED cells ({len(outcome.failed)}):", file=sys.stderr)
        for key, error in sorted(outcome.failed.items()):
            print(f"  {key}: {error['type']}: {error['message']} "
                  f"(after {error['attempt']} attempt(s))", file=sys.stderr)


def cmd_matrix(args, workloads, designs) -> int:
    """Matrix mode of the default command: sweep and print the tables.

    Exit codes: 0 clean, 3 completed-with-quarantined, 4 failed cells or
    failed audit, 130 interrupted with a resumable checkpoint.
    """
    outcome = _run_matrix_outcome(args, workloads, designs)
    if outcome is None:
        return 2
    _print_matrix(outcome, workloads, designs, args)
    return _matrix_exit_code(outcome)


def _resilience_config(args):
    """A ResilienceConfig from CLI flags, or None when none were given."""
    spec = getattr(args, "faults", None)
    check = getattr(args, "check_invariants", False)
    if not spec and not check:
        return None
    from repro.common.config import ResilienceConfig
    from repro.resilience import parse_fault_spec

    probs = parse_fault_spec(spec) if spec else {}
    # Table corruption is only survivable with the checker on; enabling
    # it implicitly beats rejecting the flag combination.
    check = check or probs.get("p_table_corruption", 0.0) > 0.0
    return ResilienceConfig(
        enabled=bool(probs) or check,
        fault_seed=getattr(args, "fault_seed", 0xBA51C),
        check_invariants=check,
        **probs,
    )


def _configs(args):
    config, sim_config = scaled_system(args.scale)
    if args.flat:
        layout = dataclasses.replace(config.layout, flat_fraction=0.75)
        config = dataclasses.replace(config, layout=layout)
    resilience = _resilience_config(args)
    if resilience is not None:
        config = dataclasses.replace(config, resilience=resilience)
    return config, sim_config


def _try_configs(args):
    try:
        return _configs(args)
    except ConfigurationError as err:
        print(str(err), file=sys.stderr)
        return None


def _observed_run(args, configs, tracer=None, metrics=None, profiler=None):
    """Run one cell with the given observers; returns its ``SimResult``."""
    config, sim_config = configs
    return run_cell(
        args.workload, args.design, config, sim_config,
        args.accesses, args.seed,
        tracer=tracer, metrics=metrics, profiler=profiler,
    )[0]


def _print_case_mix(case_counts) -> None:
    print("  case mix:")
    total = sum(case_counts.values()) or 1
    for case, count in sorted(case_counts.items(), key=lambda kv: -kv[1]):
        print(f"    {case:<12} {count / total:6.1%}")


def cmd_trace(argv) -> int:
    """``python -m repro trace``: dump a JSONL event stream."""
    from repro.obs import EventTracer

    args = build_trace_parser().parse_args(argv)
    if not _validate_workload(args.workload):
        return 2
    if args.sample_every <= 0 or args.ring <= 0:
        print("--sample-every and --ring must be positive", file=sys.stderr)
        return 2
    configs = _try_configs(args)
    if configs is None:
        return 2
    with open(args.out, "w", encoding="utf-8") as sink:
        tracer = EventTracer(
            capacity=args.ring, sample_every=args.sample_every, sink=sink
        )
        _observed_run(args, configs, tracer=tracer)
        tracer.close()
    print(f"{args.workload} on {args.design}: "
          f"{tracer.sampled} events ({tracer.emitted} emitted) -> {args.out}")
    for etype, count in sorted(tracer.counts_by_type().items()):
        print(f"  {etype:<16} {count}")
    return 0


def _print_registry(registry, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(registry.to_json(), indent=2, default=str))
        return
    if fmt == "prometheus":
        print(registry.to_prometheus(), end="")
        return
    for name in registry:
        metric = registry.get(name)
        if metric.kind == "histogram":
            print(f"  {name}: count={metric.total} mean={metric.mean:.1f} "
                  f"p50={metric.quantile(0.5):g} p95={metric.quantile(0.95):g}")
        elif metric.kind == "series":
            print(f"  {name}: {len(metric.points)} points, last={metric.last:.4f}")
        else:
            for labels, value in metric.series():
                print(f"  {name}{labels}: {value:g}")


def cmd_matrix_report(args, workloads, designs) -> int:
    """Matrix mode of ``report``: sweep, then export merged metric shards."""
    from repro.obs import MetricsRegistry

    outcome = _run_matrix_outcome(args, workloads, designs)
    if outcome is None:
        return 2
    _print_matrix(outcome, workloads, designs, args)
    if args.metrics:
        # Cross-shard worker registries (shard-labeled counters, folded
        # histograms) when the sweep collected them, plus the merged
        # matrix totals either way — one registry, one export.
        registry = (outcome.metrics if outcome.metrics is not None
                    else MetricsRegistry())
        registry.ingest_counter_group(
            "repro_matrix_controller_total", outcome.counters,
            help="controller counters merged across matrix cells",
        )
        registry.ingest_counter_group(
            "repro_matrix_device_total", outcome.device_counters,
            help="device counters merged across matrix cells",
        )
        if outcome.compression_counters.as_dict():
            registry.ingest_counter_group(
                "repro_matrix_compression_total", outcome.compression_counters,
                help="compression-engine counters merged across matrix cells",
            )
        _print_registry(registry, args.format)
    return 0


def cmd_report(argv) -> int:
    """``python -m repro report``: run, then summarize trace and metrics."""
    from repro.obs import EventTracer, MetricsRegistry, PhaseProfiler

    args = build_report_parser().parse_args(argv)
    matrix = _parse_matrix(args)
    if matrix is not None:
        return cmd_matrix_report(args, *matrix)
    if not _validate_workload(args.workload):
        return 2
    configs = _try_configs(args)
    if configs is None:
        return 2
    tracer = EventTracer(capacity=1 << 20)
    registry = MetricsRegistry() if args.metrics else None
    profiler = PhaseProfiler() if args.profile else None
    result = _observed_run(
        args, configs, tracer=tracer, metrics=registry, profiler=profiler
    )

    print(f"{args.workload} on {args.design} "
          f"(1/{args.scale} scale, {args.accesses} accesses)")
    for key, value in result.summary().items():
        print(f"  {key:<18} {value:.4f}")
    breakdown = tracer.case_breakdown()
    print("  access cases (from trace):")
    total = sum(breakdown.values()) or 1
    for case, count in sorted(breakdown.items(), key=lambda kv: -kv[1]):
        print(f"    {case:<12} {count:>8}  {count / total:6.1%}")
    print("  events by type:")
    for etype, count in sorted(tracer.counts_by_type().items()):
        print(f"    {etype:<16} {count}")

    if registry is not None:
        _print_registry(registry, args.format)
    if profiler is not None:
        print(profiler.format_report())
    return 0


def build_manifest_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro manifest",
        description="Inspect and compare run manifests written by matrix "
        "sweeps (--manifest / --checkpoint).",
    )
    sub = parser.add_subparsers(dest="action", required=True)
    show = sub.add_parser("show", help="print one manifest's summary")
    show.add_argument("path", help="manifest JSON file")
    diff = sub.add_parser(
        "diff",
        help="compare two manifests; exit 1 when identity fields "
        "(fingerprint, counter digest, results) differ",
    )
    diff.add_argument("a", help="first manifest")
    diff.add_argument("b", help="second manifest")
    return parser


def cmd_manifest(argv) -> int:
    """``python -m repro manifest``: show or diff run manifests."""
    from repro.obs import diff_manifests, format_diff, load_manifest

    args = build_manifest_parser().parse_args(argv)
    try:
        if args.action == "show":
            doc = load_manifest(args.path)
            print(f"manifest {args.path}")
            print(f"  fingerprint     {doc['fingerprint']}")
            print(f"  counter digest  {doc['counter_digest']}")
            print(f"  git revision    {doc.get('git_revision') or '(none)'}")
            packages = ", ".join(
                f"{name} {version}"
                for name, version in sorted(doc.get("packages", {}).items())
            )
            print(f"  packages        {packages}")
            print(f"  cells           {doc['cells']} "
                  f"({len(doc.get('failed', []))} failed, "
                  f"{doc.get('retries', 0)} retried, "
                  f"{doc.get('resumed', 0)} resumed)")
            print(f"  wall/cpu        {doc['wall_s']:.2f}s / "
                  + (f"{doc['cpu_s']:.2f}s" if doc.get("cpu_s") is not None
                     else "n/a"))
            for cell, entry in sorted(doc.get("results", {}).items()):
                print(f"  {cell:<28} ipc={entry['ipc']:.4f} "
                      f"digest={entry['digest'][:12]}")
            return 0
        diff = diff_manifests(load_manifest(args.a), load_manifest(args.b))
        print(format_diff(diff))
        return 1 if diff["identity"] else 0
    except ConfigurationError as err:
        print(str(err), file=sys.stderr)
        return 2


def build_chaos_soak_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro chaos-soak",
        description="Seeded orchestration-chaos soak: run a serial "
        "chaos-free reference sweep, then the same plan under injected "
        "chaos (worker kills and hangs, dropped heartbeats, torn "
        "checkpoint writes, one mid-sweep interrupt), resume it, and "
        "assert the merged counters are bit-identical to the reference "
        "and the end-of-run manifest audit passes. Exit codes: 0 soak "
        "passed; 3 passed with quarantined cells (--poison); 4 failed.",
    )
    parser.add_argument("--cells", type=int, default=12,
                        help="plan size: one cell per seed 1..N (default 12)")
    parser.add_argument("--chaos-seed", type=int, default=7,
                        help="chaos schedule seed (default 7)")
    parser.add_argument("--accesses", type=int, default=1500,
                        help="trace length per cell (default 1500)")
    parser.add_argument("--scale", type=int, default=256,
                        help="capacity scale divisor vs Table I (default 256)")
    parser.add_argument("--jobs", type=int, default=4,
                        help="worker processes for the chaos runs (default 4)")
    parser.add_argument("--workload", default="YCSB-B",
                        help="workload to soak (default YCSB-B)")
    parser.add_argument("--design", default="baryon",
                        help="design to soak (default baryon)")
    parser.add_argument("--chaos", metavar="SPEC",
                        default="kill=0.25,hang=0.2,hang_s=0.6,"
                        "drop=0.02,torn=0.5",
                        help="chaos spec for the soak runs "
                        "(default kill=0.25,hang=0.2,hang_s=0.6,"
                        "drop=0.02,torn=0.5)")
    parser.add_argument("--poison", type=int, default=None, metavar="CELL",
                        help="additionally poison plan cell CELL so the "
                        "circuit breaker quarantines it (expect exit 3)")
    parser.add_argument("--keep-dir", metavar="DIR", default=None,
                        help="directory for soak checkpoints/manifests "
                        "(default: a fresh temporary directory)")
    return parser


def cmd_chaos_soak(argv) -> int:
    """``python -m repro chaos-soak``: chaos the runner, prove bit-identity."""
    import os
    import tempfile

    from repro.parallel import SweepTelemetry, plan_cells, run_plan
    from repro.parallel.runner import _fold
    from repro.resilience import (
        ChaosPlan,
        load_checkpoint,
        parse_chaos_spec,
        plan_fingerprint,
    )

    args = build_chaos_soak_parser().parse_args(argv)
    if not _validate_workload(args.workload):
        return 2
    if args.design not in DESIGNS:
        print(f"unknown design {args.design!r}; choose from "
              f"{', '.join(DESIGNS)}", file=sys.stderr)
        return 2
    if args.cells < 2 or args.jobs < 2:
        print("--cells and --jobs must be >= 2 (worker chaos needs a pool)",
              file=sys.stderr)
        return 2
    try:
        probs = parse_chaos_spec(args.chaos)
        config, sim_config = scaled_system(args.scale)
    except ConfigurationError as err:
        print(str(err), file=sys.stderr)
        return 2
    plan = plan_cells(
        [args.workload], [args.design], seeds=range(1, args.cells + 1)
    )
    workdir = args.keep_dir or tempfile.mkdtemp(prefix="chaos-soak-")
    os.makedirs(workdir, exist_ok=True)
    ref_ckpt = os.path.join(workdir, "reference.ckpt")
    soak_ckpt = os.path.join(workdir, "soak.ckpt")

    print(f"[1/3] serial chaos-free reference ({len(plan)} cells, "
          f"{args.accesses} accesses each)")
    reference = run_plan(
        plan, config, sim_config, n_accesses=args.accesses, jobs=1,
        checkpoint=ref_ckpt,
    )
    if reference.failed:
        print(f"reference run failed: {reference.failed}", file=sys.stderr)
        return EXIT_MATRIX_FAILED

    poison = (args.poison,) if args.poison is not None else ()
    base = ChaosPlan(seed=args.chaos_seed, poison_cells=poison, **probs)
    first = dataclasses.replace(
        base, interrupt_after_cells=max(1, args.cells // 3)
    )
    common = dict(
        n_accesses=args.accesses, jobs=args.jobs, max_attempts=6,
        cell_timeout_s=5.0, progress_timeout_s=0.4, quarantine_after=5,
        retry_budget=10 * args.cells, backoff_base_s=0.01,
        checkpoint=soak_ckpt, handle_signals=True, interrupt_grace_s=10.0,
    )

    print(f"[2/3] chaos sweep ({base.describe()}; interrupt after "
          f"{first.interrupt_after_cells} cells)")
    first_out = run_plan(
        plan, config, sim_config, chaos=first,
        telemetry=SweepTelemetry(heartbeat_every=200), **common,
    )
    print(f"      {len(first_out.results)} done, "
          f"{first_out.retries} requeued, interrupted="
          f"{first_out.interrupted}, "
          f"chaos injected: {dict(sorted(first_out.orchestration.items()))}")

    print("[3/3] resumed chaos sweep (same chaos, no interrupt)")
    final = run_plan(
        plan, config, sim_config, chaos=base, resume=soak_ckpt,
        telemetry=SweepTelemetry(heartbeat_every=200), **common,
    )
    print(f"      {len(final.results)} done, {final.resumed} resumed, "
          f"{final.salvaged} salvaged, {final.retries} requeued, "
          f"{len(final.quarantined)} quarantined, "
          f"chaos injected: {dict(sorted(final.orchestration.items()))}")

    ok = True
    if final.failed:
        print(f"FAIL: {len(final.failed)} cell(s) failed: "
              f"{sorted(final.failed)}", file=sys.stderr)
        ok = False
    if final.interrupted:
        print("FAIL: resumed sweep still interrupted", file=sys.stderr)
        ok = False
    if final.audit is None or not final.audit["ok"]:
        print(f"FAIL: manifest audit did not pass: {final.audit}",
              file=sys.stderr)
        ok = False
    expected_quarantined = {
        key for key in final.quarantined
        if args.poison is not None and key == plan[args.poison].key
    } if final.quarantined else set()
    if set(final.quarantined) - expected_quarantined:
        print(f"FAIL: unexpected quarantined cells: "
              f"{sorted(set(final.quarantined) - expected_quarantined)}",
              file=sys.stderr)
        ok = False

    # Bit-identity: fold the *reference* payloads over exactly the cells
    # the chaos run completed (all of them, minus any poisoned cell) and
    # compare every merged counter group. Chaos may change which attempt
    # produced a payload — never the payload.
    fingerprint = plan_fingerprint(plan, args.accesses, config, sim_config)
    ref_payloads = load_checkpoint(ref_ckpt, fingerprint)
    completed = [
        index for index in sorted(ref_payloads)
        if plan[index].key in final.results
    ]
    if len(completed) != len(plan) - len(final.quarantined):
        print(f"FAIL: chaos run completed {len(completed)} of "
              f"{len(plan)} cells", file=sys.stderr)
        ok = False
    subset = _fold(plan, [ref_payloads[i] for i in completed], 1, 0.0)
    for attr in ("counters", "device_counters", "compression_counters",
                 "resilience_counters"):
        want = getattr(subset, attr).as_dict()
        got = getattr(final, attr).as_dict()
        if want != got:
            diff = {key: (want.get(key), got.get(key))
                    for key in set(want) | set(got)
                    if want.get(key) != got.get(key)}
            print(f"FAIL: merged {attr} differ from the chaos-free "
                  f"reference: {diff}", file=sys.stderr)
            ok = False
    if (subset.serve.hits, subset.serve.total) != (
            final.serve.hits, final.serve.total):
        print(f"FAIL: merged serve ratio differs: "
              f"{subset.serve.hits}/{subset.serve.total} vs "
              f"{final.serve.hits}/{final.serve.total}", file=sys.stderr)
        ok = False

    # Temp-file hygiene: every durable_replace temp must have been
    # promoted or unlinked, even on the poison/interrupt paths.
    stray = sorted(
        name for name in os.listdir(workdir) if name.endswith(".tmp")
    )
    if stray:
        print(f"FAIL: stray temp file(s) left behind: {stray}",
              file=sys.stderr)
        ok = False

    if not ok:
        return EXIT_MATRIX_FAILED
    print(f"chaos soak PASSED: merged counters bit-identical to the "
          f"chaos-free serial reference over {len(completed)} cell(s); "
          f"manifest audit ok")
    if final.quarantined:
        for key, record in sorted(final.quarantined.items()):
            print(f"quarantined (expected): {key}: {record['message']}")
        return EXIT_MATRIX_QUARANTINED
    return EXIT_MATRIX_OK


def build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description="Run the simulation job server: submit matrix jobs "
                    "over HTTP, results cached by config fingerprint "
                    "(see docs/serving.md).",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8642,
                        help="listen port (0 picks a free one; default "
                             "%(default)s)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes in the shared cell executor "
                             "(0 = all cores; default %(default)s)")
    parser.add_argument("--workdir", default=None,
                        help="directory for job checkpoints (default: a "
                             "fresh temp dir)")
    parser.add_argument("--cache-dir", default=None,
                        help="result cache directory (default: "
                             "<workdir>/cache)")
    parser.add_argument("--cache-entries", type=int, default=4096,
                        help="result cache capacity before mtime pruning")
    parser.add_argument("--queue-limit", type=int, default=8,
                        help="queued jobs before POST /jobs answers 503")
    parser.add_argument("--heartbeat-every", type=int, default=1000,
                        help="worker heartbeat cadence in accesses")
    return parser


def cmd_serve(argv) -> int:
    """``python -m repro serve``: the async job server (docs/serving.md)."""
    import asyncio

    from repro.serve import JobServer

    args = build_serve_parser().parse_args(argv)
    server = JobServer(
        host=args.host, port=args.port, jobs=args.jobs,
        workdir=args.workdir, cache_dir=args.cache_dir,
        cache_entries=args.cache_entries, queue_limit=args.queue_limit,
        heartbeat_every=args.heartbeat_every,
    )

    def announce(srv):
        print(f"serving on http://{srv.host}:{srv.port} "
              f"(workdir {srv.workdir}, cache {srv.cache.root}, "
              f"{srv.executor.workers} worker(s))", flush=True)

    asyncio.run(server.serve(on_ready=announce))
    print("drained cleanly")
    return 0


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "serve":
        return cmd_serve(argv[1:])
    if argv and argv[0] == "trace":
        return cmd_trace(argv[1:])
    if argv and argv[0] == "report":
        return cmd_report(argv[1:])
    if argv and argv[0] == "validate":
        return cmd_validate(argv[1:])
    if argv and argv[0] == "manifest":
        return cmd_manifest(argv[1:])
    if argv and argv[0] == "chaos-soak":
        return cmd_chaos_soak(argv[1:])

    args = build_parser().parse_args(argv)
    if args.list:
        print("designs  :", ", ".join(DESIGNS))
        print("workloads:")
        for name, spec in sorted(WORKLOADS.items()):
            print(f"  {name:<16} {spec.description}")
        return 0
    if not args.workload:
        build_parser().print_usage()
        return 2
    matrix = _parse_matrix(args)
    if matrix is not None:
        return cmd_matrix(args, *matrix)
    if not _validate_workload(args.workload):
        return 2

    configs = _try_configs(args)
    if configs is None:
        return 2
    profiler = None
    if args.profile:
        from repro.obs import PhaseProfiler

        profiler = PhaseProfiler()
    result = _observed_run(args, configs, profiler=profiler)
    print(f"{args.workload} on {args.design} "
          f"(1/{args.scale} scale, {args.accesses} accesses)")
    for key, value in result.summary().items():
        print(f"  {key:<18} {value:.4f}")
    _print_case_mix(result.case_counts)
    if profiler is not None:
        print(profiler.format_report())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
