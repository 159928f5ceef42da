"""Deterministic trace fuzzing for the content oracle.

Random traces through random tiny configurations exercise controller
paths no hand-written test reaches: stage overflow under every toggle
combination, commits racing home displacement, zero-block breaks in the
flat scheme, 64 B sub-blocking, the no-stage ablation. Everything is
seeded — an iteration is fully reproduced by ``(seed, iteration)`` — so
any violation the fuzzer finds can be replayed, delta-debugged
(:mod:`repro.validation.minimize`) and frozen as a pytest fixture
(:mod:`repro.validation.emit`).
"""

from __future__ import annotations

import dataclasses
import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.common.config import (
    BaryonConfig,
    CommitConfig,
    CompressionConfig,
    HybridLayout,
    StageConfig,
)
from repro.common.errors import OracleViolation
from repro.common.stats import CounterGroup
from repro.validation.content import ContentBackedController, replay

KB = 1024
TraceRecord = Tuple[int, bool]


def make_tiny_config(
    fast_kb: int = 64,
    ratio: int = 8,
    stage_kb: int = 4,
    stage_ways: int = 2,
    flat: float = 0.0,
    fully_associative: bool = False,
    stage_enabled: bool = True,
    sub_block_size: Optional[int] = None,
    compression_enabled: bool = True,
    compressed_writeback: bool = True,
    two_level_replacement: bool = True,
    share_physical_blocks: bool = True,
    cacheline_aligned: bool = True,
    zero_block_support: bool = True,
    commit_all: bool = False,
    k: float = 4.0,
    fast_replacement: str = "auto",
) -> BaryonConfig:
    """A deliberately tiny configuration for fast, stressful fuzzing.

    Small capacities force constant replacement/commit/swap traffic, so a
    few hundred accesses visit every movement path. All parameters are
    plain scalars so a sampled configuration round-trips through the
    emitted fixture's ``CONFIG_KWARGS`` literal (the fixture imports
    ``inf`` for a stability-only ``k``).
    """
    layout = HybridLayout(
        fast_capacity=fast_kb * KB,
        slow_capacity=ratio * fast_kb * KB,
        associativity=4,
        flat_fraction=flat,
        fully_associative=fully_associative,
    )
    stage = StageConfig(
        size_bytes=stage_kb * KB,
        ways=stage_ways,
        enabled=stage_enabled,
        aging_period_accesses=64,
    )
    compression = CompressionConfig(
        cacheline_aligned=cacheline_aligned,
        zero_block_support=zero_block_support,
    )
    commit = CommitConfig(k=k, commit_all=commit_all)
    config = dataclasses.replace(
        BaryonConfig(),
        layout=layout,
        stage=stage,
        compression=compression,
        commit=commit,
        compression_enabled=compression_enabled,
        compressed_writeback=compressed_writeback,
        two_level_replacement=two_level_replacement,
        share_physical_blocks=share_physical_blocks,
        fast_replacement=fast_replacement,
    )
    if sub_block_size is not None:
        config = config.with_sub_block_size(sub_block_size)
    return config


def sample_config_kwargs(rng: random.Random) -> Dict:
    """Draw one :func:`make_tiny_config` parameterization."""
    kwargs: Dict = {
        "fast_kb": rng.choice([64, 128, 256]),
        "ratio": rng.choice([4, 8]),
        "stage_kb": rng.choice([4, 8, 16]),
        "stage_ways": rng.choice([2, 4]),
        "flat": rng.choice([0.0, 0.0, 0.75, 1.0]),
        "stage_enabled": rng.random() > 0.15,
        "compression_enabled": rng.random() > 0.25,
        "compressed_writeback": rng.random() > 0.5,
        "two_level_replacement": rng.random() > 0.25,
        "share_physical_blocks": rng.random() > 0.25,
        "cacheline_aligned": rng.random() > 0.5,
        "zero_block_support": rng.random() > 0.5,
    }
    if kwargs["flat"] > 0 and rng.random() > 0.5:
        kwargs["fully_associative"] = True
    if rng.random() > 0.8:
        kwargs["sub_block_size"] = 64
    commit = rng.random()
    if commit > 0.85:
        kwargs["commit_all"] = True
    elif commit > 0.7:
        kwargs["k"] = math.inf  # stability only
    # stage blocks must divide evenly into ways
    if (kwargs["stage_kb"] * KB) // 2048 < kwargs["stage_ways"]:
        kwargs["stage_ways"] = 2
    return kwargs


def generate_trace(
    rng: random.Random, config: BaryonConfig, n_accesses: int = 600
) -> List[TraceRecord]:
    """A seeded workload with enough locality to stage and commit.

    Accesses concentrate on a small hot set of super-blocks (so stage
    phases complete and commits happen) with a cold tail (so evictions,
    swaps and zero-block fetches happen), mixing sequential bursts with
    random single accesses at a configurable write fraction.
    """
    g = config.geometry
    span_bytes = config.layout.fast_capacity + config.layout.slow_capacity
    n_supers = max(2, span_bytes // g.super_block_size)
    hot = rng.sample(range(n_supers), min(n_supers, rng.randint(4, 12)))
    write_fraction = rng.uniform(0.2, 0.6)
    trace: List[TraceRecord] = []
    while len(trace) < n_accesses:
        super_id = (
            rng.choice(hot) if rng.random() < 0.85 else rng.randrange(n_supers)
        )
        base = super_id * g.super_block_size
        offset = rng.randrange(g.super_block_size // g.cacheline_size)
        addr = base + offset * g.cacheline_size
        if rng.random() < 0.3:
            # Sequential burst: consecutive cachelines, one r/w mode.
            is_write = rng.random() < write_fraction
            for step in range(rng.randint(2, 8)):
                line_addr = addr + step * g.cacheline_size
                if line_addr >= base + g.super_block_size:
                    break
                trace.append((line_addr, is_write))
        else:
            trace.append((addr, rng.random() < write_fraction))
    return trace[:n_accesses]


@dataclass
class FuzzFailure:
    """One fuzzer-found violation, with everything needed to replay it."""

    iteration: int
    config_kwargs: Dict
    seed: int
    trace: List[TraceRecord]
    error: OracleViolation
    minimized: Optional[List[TraceRecord]] = None


@dataclass
class FuzzReport:
    iterations: int = 0
    accesses: int = 0
    failures: List[FuzzFailure] = field(default_factory=list)
    stats: CounterGroup = field(
        default_factory=lambda: CounterGroup("repro_validation")
    )

    @property
    def ok(self) -> bool:
        return not self.failures


def run_case(
    config_kwargs: Dict,
    trace: List[TraceRecord],
    seed: int,
    inject_bug: Optional[str] = None,
) -> ContentBackedController:
    """Replay one (config, trace) case content-backed; raises on violation."""
    controller = ContentBackedController(
        make_tiny_config(**config_kwargs), seed=seed, inject_bug=inject_bug
    )
    return replay(controller, trace)


def _group_dict(group) -> Dict:
    return group.as_dict() if hasattr(group, "as_dict") else dict(group)


def _scalar_replay(controller, trace: List[TraceRecord], mlp: float) -> float:
    """Plain ``access`` replay; returns the finishing clock."""
    cycles = 0.0
    for addr, is_write in trace:
        mem = controller.access(addr, is_write, cycles)
        if not is_write:
            cycles += mem.latency_cycles / mlp
    return cycles


def _assert_twin_match(scalar_ctrl, twin_ctrl, cycles: float,
                       twin_cycles: float, path: str) -> None:
    """Raise ``batched_divergence`` unless the twin matches bit-for-bit."""
    groups = [
        ("controller", scalar_ctrl.stats, twin_ctrl.stats),
        ("fast_device", scalar_ctrl.devices.fast.stats,
         twin_ctrl.devices.fast.stats),
        ("slow_device", scalar_ctrl.devices.slow.stats,
         twin_ctrl.devices.slow.stats),
    ]
    if hasattr(scalar_ctrl, "remap_cache"):
        groups.append(
            ("remap_cache", scalar_ctrl.remap_cache.stats,
             twin_ctrl.remap_cache.stats)
        )
    for name, scalar_group, twin_group in groups:
        scalar_counts = _group_dict(scalar_group)
        twin_counts = _group_dict(twin_group)
        if scalar_counts != twin_counts:
            key = next(
                k for k in sorted(set(scalar_counts) | set(twin_counts))
                if scalar_counts.get(k) != twin_counts.get(k)
            )
            raise OracleViolation(
                f"{path} seam diverged in {name} counter {key!r}: "
                f"{scalar_counts.get(key)} vs {twin_counts.get(key)}",
                kind="batched_divergence", location=f"{name}.{key}",
            )
    if twin_cycles != cycles:
        raise OracleViolation(
            f"{path} seam diverged in cycles: {cycles} vs {twin_cycles}",
            kind="batched_divergence", location="cycles",
        )
    for name in ("fast", "slow"):
        # Posted transfers add no latency, so only the channels show them.
        scalar_pool = getattr(scalar_ctrl.devices, name).pool
        twin_pool = getattr(twin_ctrl.devices, name).pool
        if (scalar_pool._busy_until, scalar_pool.total_busy_cycles) != (
            twin_pool._busy_until, twin_pool.total_busy_cycles
        ):
            raise OracleViolation(
                f"{path} seam diverged in {name} channel busy state",
                kind="batched_divergence", location=f"{name}_pool",
            )
    stage = getattr(twin_ctrl, "stage", None)
    if stage is not None:
        stage.verify()


def _seam_replay(
    serve, server_flush, batch, trace: List[TraceRecord], mlp: float,
    rng: Optional[random.Random],
) -> float:
    """Drive ``trace`` through one deferred seam as
    ``SystemSimulator._fast_span`` does; returns the finishing clock.

    Served ops queue for ``batch``. With an ``rng``, random span
    boundaries also force replay/flush points mid-run, the same
    write-back points progress chunking and the pending-run bound
    introduce.
    """
    n = len(trace)
    boundary = n + 1
    if rng is not None and rng.random() < 0.7:
        boundary = rng.randrange(1, n + 1)

    cycles = 0.0
    ops: List = []
    for i, (addr, is_write) in enumerate(trace):
        if i == boundary:
            if ops:
                cycles = batch(ops, cycles, mlp)
                ops.clear()
            server_flush()
            boundary += rng.randrange(1, max(2, n // 4))
        ops.append(serve(addr, is_write))
    if ops:
        cycles = batch(ops, cycles, mlp)
    server_flush()
    return cycles


def run_batched_case(
    config_kwargs: Dict,
    trace: List[TraceRecord],
    seed: int,
    rng: random.Random,
    controller_cls=None,
) -> None:
    """Replay one fuzz case across Baryon's deferred seam; raise on drift.

    Both controllers run the plain configuration (fault injection off,
    the synthetic compressibility oracle on, no event tracer). One
    controller replays the trace through plain ``access`` calls, each
    serve, flush and replay of one op; a twin replays it the way
    ``SystemSimulator._fast_span`` does — ``make_deferred_server``'s
    ``serve`` applies state eagerly in trace order and ``access_batch``
    replays the channel timing of a whole run — under adversarial
    scheduling: random span boundaries force batch-replay/flush points
    mid-run (:func:`_seam_replay`). The committed twin corpus in
    ``tests/golden_corpus.json`` pins the per-op replay itself. Both must
    finish with bit-identical counters (controller, devices, remap cache)
    and the same clock, and the twin's stage probe indices must verify
    against its tag array. Raises :class:`OracleViolation`
    (``kind="batched_divergence"``) otherwise.

    ``controller_cls`` swaps another ``BaryonController`` subclass into
    both twins; ``Hybrid2`` puts the k = 0 commit policy on the seam.
    """
    from repro.core import BaryonController

    controller_cls = controller_cls or BaryonController
    twin = controller_cls(make_tiny_config(**config_kwargs), seed=seed)
    server = twin.make_deferred_server()
    mlp = 4.0
    scalar_ctrl = controller_cls(make_tiny_config(**config_kwargs), seed=seed)
    cycles = _scalar_replay(scalar_ctrl, trace, mlp)
    b_cycles = _seam_replay(*server, trace, mlp, rng)

    path = getattr(controller_cls, "name", "batched")
    _assert_twin_match(scalar_ctrl, twin, cycles, b_cycles, path)


def run_baseline_case(
    config_kwargs: Dict,
    trace: List[TraceRecord],
    seed: int,
    baseline_cls=None,
    rng: Optional[random.Random] = None,
) -> None:
    """Drive a cache baseline's deferred seam against a per-op twin.

    ``baseline_cls`` is ``SimpleCache`` (the default), ``UnisonCache``
    or ``DiceCache`` (both twins' oracles seeded with ``seed``). One
    controller replays the trace through plain ``access`` calls; the
    twin is driven through its ``make_deferred_server``. Each design's
    ``access`` is itself serve, flush and replay of one op, so the check
    is per-op replay against batched replay under the forced boundaries
    an ``rng`` adds (:func:`_seam_replay`); the committed twin corpus in
    ``tests/golden_corpus.json`` pins the per-op replay itself.
    Counters, device traffic, the remap-cache stats of designs that
    have one, and the clock must be bit-identical.
    """
    from repro.baselines import DiceCache, SimpleCache

    baseline_cls = baseline_cls or SimpleCache
    kwargs = {"seed": seed} if issubclass(baseline_cls, DiceCache) else {}
    scalar_ctrl = baseline_cls(make_tiny_config(**config_kwargs), **kwargs)
    twin = baseline_cls(make_tiny_config(**config_kwargs), **kwargs)
    name = baseline_cls.name
    server = twin.make_deferred_server()
    mlp = 4.0
    cycles = _scalar_replay(scalar_ctrl, trace, mlp)
    b_cycles = _seam_replay(*server, trace, mlp, rng)

    _assert_twin_match(scalar_ctrl, twin, cycles, b_cycles, name)


def run_fuzz(
    iterations: int,
    seed: int,
    n_accesses: int = 600,
    inject_bug: Optional[str] = None,
    batched: bool = False,
) -> FuzzReport:
    """Run ``iterations`` seeded fuzz cases; collect (don't raise) failures.

    With ``batched=True`` every iteration additionally replays its trace
    across the deferred-batch seam five ways, each against a fresh
    per-op twin and under forced flush boundaries: Baryon's inline
    server (:func:`run_batched_case`), the ``simple`` baseline's server
    (:func:`run_baseline_case`), Hybrid2 — Baryon at k = 0 — on the
    same server (``run_batched_case`` with ``Hybrid2`` twins), and the
    Unison and DICE servers (``run_baseline_case`` with their classes).
    Every twin is per-op replay of the same server, pinned by the
    committed twin corpus. Each check draws its boundaries from the
    iteration's rng after the checks before it.
    """
    from repro.baselines import DiceCache, Hybrid2, UnisonCache

    report = FuzzReport()
    for iteration in range(iterations):
        rng = random.Random(f"{seed}:{iteration}")
        config_kwargs = sample_config_kwargs(rng)
        trace = generate_trace(rng, make_tiny_config(**config_kwargs), n_accesses)
        report.iterations += 1
        report.accesses += len(trace)
        report.stats.inc("fuzz_iterations")
        report.stats.inc("fuzz_accesses", len(trace))
        try:
            controller = run_case(config_kwargs, trace, seed, inject_bug)
            if batched:
                run_batched_case(config_kwargs, trace, seed, rng)
                report.stats.inc("fuzz_batched_checks")
                run_baseline_case(config_kwargs, trace, seed, rng=rng)
                report.stats.inc("fuzz_simple_checks")
                run_batched_case(config_kwargs, trace, seed, rng, Hybrid2)
                report.stats.inc("fuzz_hybrid2_checks")
                run_baseline_case(config_kwargs, trace, seed, UnisonCache, rng)
                report.stats.inc("fuzz_unison_checks")
                run_baseline_case(config_kwargs, trace, seed, DiceCache, rng)
                report.stats.inc("fuzz_dice_checks")
        except OracleViolation as error:
            report.stats.inc("fuzz_violations")
            report.failures.append(
                FuzzFailure(
                    iteration=iteration,
                    config_kwargs=config_kwargs,
                    seed=seed,
                    trace=trace,
                    error=error,
                )
            )
        else:
            report.stats.merge(controller.vstats)
    return report


def selftest_case() -> Tuple[Dict, List[TraceRecord]]:
    """A deterministic case where ``drop_dirty_writeback`` must be caught.

    Compression is disabled (single-sub staging, no zero blocks), the
    stage area is one set of two 2 kB ways. Writes fill one stage entry's
    eight slots, a ninth range insert FIFO-evicts the first (dirty) slot
    — the injected bug drops its writeback — and the final read of that
    sub-block observes the stale slow copy.
    """
    config_kwargs = {
        "fast_kb": 64,
        "stage_kb": 4,
        "stage_ways": 2,
        "compression_enabled": False,
    }
    block = 2048
    sub = 256
    trace: List[TraceRecord] = [(0 * block, True)]
    trace += [(b * block, True) for b in range(1, 8)]
    trace.append((0 * block + 1 * sub, True))
    trace.append((0 * block, False))
    return config_kwargs, trace
