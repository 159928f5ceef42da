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
    stability_only: bool = False,
) -> BaryonConfig:
    """A deliberately tiny configuration for fast, stressful fuzzing.

    Small capacities force constant replacement/commit/swap traffic, so a
    few hundred accesses visit every movement path. All parameters are
    plain scalars so a sampled configuration round-trips through the
    emitted fixture's ``CONFIG_KWARGS`` literal.
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
    commit = CommitConfig(commit_all=commit_all, stability_only=stability_only)
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
        kwargs["stability_only"] = True
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
    columnar = getattr(twin_ctrl, "columnar", None)
    if columnar is not None:
        columnar.verify()


def run_batched_case(config_kwargs: Dict, trace: List[TraceRecord], seed: int) -> None:
    """Replay one fuzz case across the deferred-batch seam; raise on drift.

    The batched controller configuration is *forced*: fault injection off,
    the synthetic compressibility oracle on — exactly the shape for which
    ``BaryonController.supports_batching`` holds. One controller replays
    the trace through plain ``access`` calls; a twin replays it the way
    the simulator's deferred span does — ``access_deferred`` applies state
    eagerly in trace order and ``access_batch`` replays the channel timing
    at every unsafe-access flush. Both must finish with bit-identical
    counters (controller, devices, remap cache) and the same clock, and
    the batched twin's columnar arena must verify against its object
    state. Raises :class:`OracleViolation` (``kind="batched_divergence"``)
    otherwise.
    """
    from repro.core import BaryonController

    config = make_tiny_config(**config_kwargs)
    scalar_ctrl = BaryonController(config, seed=seed)
    batched_ctrl = BaryonController(make_tiny_config(**config_kwargs), seed=seed)
    if not getattr(batched_ctrl, "supports_batching", False):
        raise OracleViolation(
            "forced batched configuration does not support batching",
            kind="batched_divergence", location="supports_batching",
        )
    mlp = 4.0
    cycles = _scalar_replay(scalar_ctrl, trace, mlp)

    b_cycles = 0.0
    ops: List = []
    deferred = batched_ctrl.access_deferred
    batch = batched_ctrl.access_batch
    for addr, is_write in trace:
        op = deferred(addr, is_write)
        if op is not None:
            ops.append(op)
            continue
        if ops:
            b_cycles = batch(ops, b_cycles, mlp)
            ops.clear()
        mem = batched_ctrl.access(addr, is_write, b_cycles)
        if not is_write:
            b_cycles += mem.latency_cycles / mlp
    if ops:
        b_cycles = batch(ops, b_cycles, mlp)

    _assert_twin_match(scalar_ctrl, batched_ctrl, cycles, b_cycles, "batched")


def run_classified_case(
    config_kwargs: Dict,
    trace: List[TraceRecord],
    seed: int,
    rng: random.Random,
) -> bool:
    """Replay one fuzz case through the vectorized classifier + server.

    This is the simulator's actual hot path (``make_run_classifier``
    gathers bulk verdicts, ``make_deferred_server`` serves them inline)
    driven the way ``SystemSimulator._fast_span`` drives it — but
    under adversarial scheduling: the gather chunk is randomized down to
    a single op (so chunk boundaries land on and around declines), and
    random span boundaries force batch-replay/flush points mid-run, the
    same write-back points progress chunking introduces. Counters,
    cycles and the columnar arena must still match the plain scalar
    replay bit for bit.

    Returns ``True`` when the twin check ran. Configurations for which
    the controller declines to build a server (e.g. a non-LRU fast
    area) are skipped with ``False`` — the simulator would fall back to
    the per-op seam there, which :func:`run_batched_case` covers.
    """
    import numpy as np

    from repro.core import BaryonController
    from repro.core.columnar import CLS_DECLINE_STAGING_FETCH, DECLINE_REASONS

    v_ctrl = BaryonController(make_tiny_config(**config_kwargs), seed=seed)
    if not getattr(v_ctrl, "supports_batching", False):
        raise OracleViolation(
            "forced batched configuration does not support batching",
            kind="batched_divergence", location="supports_batching",
        )
    addrs = np.asarray([addr for addr, _ in trace], dtype=np.int64)
    writes = np.asarray([w for _, w in trace], dtype=np.bool_)
    classifier = v_ctrl.make_run_classifier(addrs, writes)
    server = v_ctrl.make_deferred_server()
    if server is None:
        return False
    serve, server_flush, batch = server
    mlp = 4.0
    scalar_ctrl = BaryonController(make_tiny_config(**config_kwargs), seed=seed)
    cycles = _scalar_replay(scalar_ctrl, trace, mlp)
    if classifier is not None:
        # Tiny chunks force verdict boundaries onto (and right after)
        # decline sites; large ones exercise verdict staleness.
        classifier.chunk = rng.choice([1, 2, 3, 5, 8, 32, 4096])
        declines = v_ctrl.deferred_declines
        reason_of = DECLINE_REASONS
        sf_code = CLS_DECLINE_STAGING_FETCH
        dirty = classifier.dirty_blocks
        block_size = classifier.block_size
        chunk = classifier.chunk
        codes = auxes = None
    n = len(trace)
    # Forced replay boundaries, as progress chunking would place them.
    boundary = rng.randrange(1, n + 1) if rng.random() < 0.7 else n + 1

    v_cycles = 0.0
    ops: List = []
    cls_base = cls_end = 0
    for i, (addr, is_write) in enumerate(trace):
        if i == boundary:
            if ops:
                v_cycles = batch(ops, v_cycles, mlp)
                ops.clear()
            server_flush()
            cls_end = i  # span boundary: the next op re-gathers
            boundary += rng.randrange(1, max(2, n // 4))
        if classifier is None:
            op = serve(addr, is_write, 0, 0)
        else:
            if i >= cls_end:
                cls_base = i
                cls_end = min(n, i + chunk)
                codes, auxes = classifier.classify(cls_base, cls_end)
            code = codes[i - cls_base]
            if code > 0:
                op = serve(addr, is_write, code, auxes[i - cls_base])
            elif code == 0:
                op = serve(addr, is_write, 0, 0)
            elif code == sf_code or addr // block_size in dirty:
                op = serve(addr, is_write, 0, 0)
            else:
                declines[reason_of[code]] += 1
                op = None
        if op is not None:
            ops.append(op)
            continue
        if ops:
            v_cycles = batch(ops, v_cycles, mlp)
            ops.clear()
        server_flush()
        mem = v_ctrl.access(addr, is_write, v_cycles)
        if not is_write:
            v_cycles += mem.latency_cycles / mlp
    if ops:
        v_cycles = batch(ops, v_cycles, mlp)
    server_flush()

    _assert_twin_match(scalar_ctrl, v_ctrl, cycles, v_cycles, "classified")
    return True


def run_simple_case(
    config_kwargs: Dict, trace: List[TraceRecord], seed: int
) -> None:
    """Drive the ``simple`` baseline's deferred seam against its scalar twin.

    The simple design batches its commit-hit stream (block misses
    decline with no state applied), so the same twin-controller
    discipline applies: counters, device traffic, remap-cache stats and
    the clock must be bit-identical.
    """
    from repro.baselines.simple_cache import SimpleCache

    config = make_tiny_config(**config_kwargs)
    scalar_ctrl = SimpleCache(config)
    batched_ctrl = SimpleCache(make_tiny_config(**config_kwargs))
    if not getattr(batched_ctrl, "supports_batching", False):
        raise OracleViolation(
            "simple baseline unexpectedly declines batching",
            kind="batched_divergence", location="supports_batching",
        )
    mlp = 4.0
    cycles = _scalar_replay(scalar_ctrl, trace, mlp)

    b_cycles = 0.0
    ops: List = []
    deferred = batched_ctrl.access_deferred
    batch = batched_ctrl.access_batch
    for addr, is_write in trace:
        op = deferred(addr, is_write)
        if op is not None:
            ops.append(op)
            continue
        if ops:
            b_cycles = batch(ops, b_cycles, mlp)
            ops.clear()
        mem = batched_ctrl.access(addr, is_write, b_cycles)
        if not is_write:
            b_cycles += mem.latency_cycles / mlp
    if ops:
        b_cycles = batch(ops, b_cycles, mlp)

    _assert_twin_match(scalar_ctrl, batched_ctrl, cycles, b_cycles, "simple")


def run_fuzz(
    iterations: int,
    seed: int,
    n_accesses: int = 600,
    inject_bug: Optional[str] = None,
    batched: bool = False,
) -> FuzzReport:
    """Run ``iterations`` seeded fuzz cases; collect (don't raise) failures.

    With ``batched=True`` every iteration additionally replays its trace
    across the deferred-batch seam three ways, each against a fresh
    scalar twin: the per-op pair (:func:`run_batched_case`), the
    vectorized classifier + server under randomized chunk sizes and
    forced flush boundaries (:func:`run_classified_case`), and the
    ``simple`` baseline's seam (:func:`run_simple_case`).
    """
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
                run_batched_case(config_kwargs, trace, seed)
                report.stats.inc("fuzz_batched_checks")
                if run_classified_case(config_kwargs, trace, seed, rng):
                    report.stats.inc("fuzz_classifier_checks")
                run_simple_case(config_kwargs, trace, seed)
                report.stats.inc("fuzz_simple_checks")
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
