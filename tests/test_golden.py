"""Golden behaviour corpus: committed per-layer digests of SimResults.

Every cell runs one (workload, design) pair at 1/512 scale (3k accesses
unless its name ends in ``@<accesses>``) and hashes each SimResult field
group separately, so a mismatch names the layer that moved: core
timing, the SRAM hierarchy, the controller and its Fig. 6 case mix,
device traffic, or energy. The digests live in
``tests/golden_corpus.json``; a shared helper that changes every code
path the same way still fails here, which an
in-tree scalar-vs-fast comparison cannot catch.

The corpus also pins observation: profiled, metered, traced and
progress-plus-spans runs of every design must reproduce the unobserved
digests (the two span-traced ones must also record the simulator's
spans), and the exported latency histogram and serve-rate/IPC series
of every design's metered cell are pinned too. The ``events`` corpus
holds one SHA-256 per traced run over its JSONL event stream: every
design on YCSB-B, Baryon with faults and the checker armed, and Baryon
keeping one event in three.

Simple, Unison, DICE, Baryon and Hybrid2 are further pinned access by
access:
for the seed-7 fuzz cases ``repro validate --fuzz-batched`` draws, a
per-op ``access`` replay's final clock, counters, channel busy state and
per-access ``(case, latency, prefetched)`` stream are hashed into the
``twins`` corpus. Baryon is pinned that way under retry exhaustion,
write drops, stage-tag corruption, metadata repair, the phase tracker
and event tracing too.

Baryon-family cells (every Baryon, Baryon-64B, Baryon-FA and Hybrid2
cell, the variants included) are pinned on counters no SimResult field
carries: the ``counters`` corpus holds one SHA-256 per cell over the
counter groups of the controller, its commit policy, stage area, fast
area, remap cache and both devices, plus the remap table's final
entries (``fill_read_bytes``, ``sub_block_replacements`` and
``stage_dirty_writebacks`` live only there).

Every registered workload's trace is pinned byte for byte as well: the
``traces`` corpus holds one SHA-256 per (workload, seed, length) over the
trace's ``addrs``, ``writes``, ``igaps`` and ``cores`` arrays and their
dtypes, so a generator rewrite must keep every draw in place.

An intentional behaviour change re-baselines the corpus in its own
change::

    PYTHONPATH=src python -m tests.test_golden --regen
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib.util
import io
import json
import random
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.experiments import DESIGNS, run_cell
from repro.common.config import ResilienceConfig
from repro.core import BaryonController
from repro.obs import EventTracer, MetricsRegistry, SpanTracer
from repro.obs.manifest import _result_digest
from repro.serve import JobSpec, build_configs
from repro.sim import SystemSimulator
from repro.validation import ContentBackedController
from repro.validation.fuzz import (
    _scalar_replay,
    generate_trace,
    make_tiny_config,
    sample_config_kwargs,
)
from repro.workloads import WORKLOADS as REGISTERED_WORKLOADS
from repro.workloads import build_workload, scaled_system

GOLDEN_PATH = Path(__file__).with_name("golden_corpus.json")
CAPACITY_PLANNING = (
    Path(__file__).resolve().parent.parent / "examples" / "capacity_planning.py"
)

N_ACCESSES = 3000
SCALE = 512
SEED = 1
WORKLOADS = ("YCSB-B", "519.lbm_r")
#: Write-heavy YCSB-A (dirty L1 -> L2 -> LLC spills) and hierarchy-heavy
#: pr.twitter, pinned for the Fig. 9 cache-mode designs: the streams
#: whose LLC write-allocation order the private-cache walk re-sequences.
SPILL_WORKLOADS = ("YCSB-A", "pr.twitter")
CACHE_DESIGNS = DESIGNS[:5]

#: SimResult fields per layer (``extra`` entries flattened to
#: ``extra.<key>``); ``name`` and ``design`` are labels, not behaviour.
LAYERS = {
    "core": ("instructions", "cycles"),
    "hierarchy": ("llc_misses", "useful_bytes", "extra.llc_miss_rate"),
    "controller": (
        "memory_accesses", "served_fast", "case_counts", "extra.ctrl_commits",
    ),
    "devices": ("fast_traffic_bytes", "slow_traffic_bytes"),
    "energy": ("energy",),
}


def _with_resilience(**probs):
    resilience = ResilienceConfig(enabled=True, **probs)
    return lambda config: dataclasses.replace(config, resilience=resilience)


def _flat_layout(config):
    """The CLI's ``--flat``: 75% flat / 25% cache, set-associative."""
    layout = dataclasses.replace(config.layout, flat_fraction=0.75)
    return dataclasses.replace(config, layout=layout)


def _capacity_point(label):
    """``examples/capacity_planning.py``'s sweep point ``label`` (e.g.
    ``stage-64``) at the corpus scale: its overrides (associativity 4,
    aging 312, 64 kB-1 MB stage areas) applied to ``scaled_system(SCALE)``.
    """

    def transform(config):
        spec = importlib.util.spec_from_file_location(
            "capacity_planning", CAPACITY_PLANNING
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        for sweep, point, job in module.sweep_points(N_ACCESSES):
            if f"{sweep}-{point}" == label:
                return build_configs(JobSpec.from_dict({**job, "scale": SCALE}))[0]
        raise KeyError(label)

    return transform


#: Single-design Baryon variants: config transforms (fault injection,
#: the shadow checker, or the set-associative flat scheme), or ``None``
#: for the content oracle. Every variant runs on the deferred seam.
VARIANTS = {
    "faults": _with_resilience(p_read_transient=1e-2, p_latency_spike=1e-2),
    "checker": _with_resilience(check_invariants=True, p_table_corruption=2e-3),
    "flat": _flat_layout,
    "oracle": None,
    "stage-64": _capacity_point("stage-64"),
    "dram-2": _capacity_point("dram-2"),
}


def _fifo_replacement(config):
    return dataclasses.replace(config, fast_replacement="fifo")


def _no_stage(config):
    """The Fig. 13(c) ablation: no stage area."""
    return dataclasses.replace(
        config, stage=dataclasses.replace(config.stage, enabled=False)
    )


#: Variants pinned only by the cells named below.
LONG_VARIANTS = {"fifo": _fifo_replacement, "nostage": _no_stage}

#: Flat-scheme cells long enough to hit committed data hundreds of times
#: (at 3k accesses they record 1-26 commit hits), so the fast-area
#: committed-block lookup is pinned: the set-associative ``--flat``
#: Baryon cell and the fully-associative Fig. 10 pair.
FLAT_CELLS = (
    "YCSB-B/baryon+flat@10000",
    "YCSB-B/baryon-fa@10000",
    "YCSB-B/hybrid2@10000",
)
MIN_FLAT_COMMIT_HITS = 100

#: A set-associative Baryon cell under FIFO fast-area replacement, long
#: enough that commits evict committed blocks (392 at 20k accesses), so
#: the commit-victim choice is pinned for a policy that ignores touches.
FIFO_CELLS = ("519.lbm_r/baryon+fifo@20000",)

#: The no-stage ablation, whose block misses insert straight into the
#: committed area: the streaming cell re-sorts committed layouts and
#: evicts committed blocks (601 and 45 times at 3k accesses).
NOSTAGE_CELLS = ("YCSB-B/baryon+nostage", "519.lbm_r/baryon+nostage")

#: Designs whose observed runs must match their unobserved digests.
OBSERVED_DESIGNS = DESIGNS
OBSERVATIONS = ("profiled", "metered", "traced", "progress+spans")
#: Observations that attach a fresh span tracer (``profiled`` as
#: ``--profile`` does).
SPAN_OBSERVATIONS = ("profiled", "progress+spans")
METERED_SERIES = ("repro_mem_latency_cycles", "repro_serve_rate", "repro_ipc")
#: Designs whose metered exports (latency histogram, series) are pinned.
METERED_DESIGNS = DESIGNS


def _armed(config):
    """``repro trace --faults read=1e-2 --check-invariants``, so fault,
    recovery and checker events all join the stream."""
    return _with_resilience(p_read_transient=1e-2, check_invariants=True)(config)


#: Baryon traced-run variants: ``(config transform, sample_every)``.
EVENT_VARIANTS = {"armed": (_armed, 1), "sampled": (None, 3)}
#: Traced runs whose JSONL event stream is pinned.
EVENT_CELLS = (
    *(f"YCSB-B/{design}" for design in DESIGNS),
    *(f"YCSB-B/baryon+{variant}" for variant in EVENT_VARIANTS),
)

#: The twin corpus: ``run_fuzz``'s seed and the iterations whose
#: (config, trace) cases are replayed per design.
TWIN_SEED = 7
TWIN_ITERATIONS = 25
#: Baryon twin variants that arm the resilience layer, by their
#: ``ResilienceConfig`` knobs.
TWIN_RESILIENCE = {
    "exhaust": {"p_read_transient": 5e-3, "p_write_drop": 5e-3, "max_retries": 0},
    "writedrop": {"p_write_drop": 2e-2, "max_retries": 0},
    "stagetag": {"p_stage_tag_corruption": 2e-2},
    "checker": {
        "p_table_corruption": 2e-3, "p_remap_corruption": 3e-3,
        "check_invariants": True,
    },
}
TWIN_DESIGNS = (
    "simple", "unison", "dice", "baryon", "hybrid2",
    *(f"baryon+{variant}" for variant in TWIN_RESILIENCE),
    "baryon+tracker", "baryon+traced",
)


#: The trace corpus: seeds and lengths each registered workload is pinned
#: at. 255-257 straddle a 256-draw boundary, where a batched generator's
#: batch can end an episode.
TRACE_SEEDS = (1, 7)
TRACE_LENGTHS = (1, 255, 256, 257, 3000)
TRACE_FIELDS = ("addrs", "writes", "igaps", "cores")


def cell_names():
    names = [f"{wl}/{design}" for wl in WORKLOADS for design in DESIGNS]
    names += [f"{wl}/{d}" for wl in SPILL_WORKLOADS for d in CACHE_DESIGNS]
    names += [f"YCSB-B/baryon+{variant}" for variant in VARIANTS]
    return names + list(FLAT_CELLS) + list(FIFO_CELLS) + list(NOSTAGE_CELLS)


def layer_digests(result) -> dict:
    flat = result.to_dict()
    for key, value in flat.pop("extra").items():
        flat[f"extra.{key}"] = value
    return {
        layer: _result_digest({field: flat[field] for field in fields})
        for layer, fields in LAYERS.items()
    }


def counter_groups(ctrl) -> dict:
    """Every counter group of a Baryon-family controller, folded, plus
    the remap table's final entries (it keeps no counters)."""
    groups = {
        "controller": ctrl.stats,
        "policy": ctrl.policy.stats,
        "stage": ctrl.stage.stats,
        "fast_area": ctrl.fast_area.stats,
        "remap_cache": ctrl.remap_cache.stats,
        "fast": ctrl.devices.fast.stats,
        "slow": ctrl.devices.slow.stats,
    }
    payload = {name: group.as_dict() for name, group in groups.items()}
    table = ctrl.remap_table._entries
    payload["remap_table"] = [
        (block_id, e.remap, e.pointer, e.cf2, e.cf4, e.zero)
        for block_id, e in sorted(table.items())
    ]
    return payload


def _run_variant(workload: str, variant: str, n_accesses: int):
    """``(result, controller)`` of one Baryon variant cell."""
    config, sim_config = scaled_system(SCALE)
    if variant != "oracle":
        config = {**VARIANTS, **LONG_VARIANTS}[variant](config)
        return run_cell(workload, "baryon", config, sim_config, n_accesses, SEED)
    controller = ContentBackedController(config, seed=SEED)
    trace = build_workload(
        workload, config.layout.fast_capacity, n_accesses=n_accesses, seed=SEED
    )
    trace.apply_compressibility(controller.oracle)
    result = SystemSimulator(controller, sim_config).run(trace, workload, "baryon")
    return result, controller


@lru_cache(maxsize=None)
def run_golden_cell(cell: str, observation: str = "") -> tuple:
    """``(layer digests, metered-export digest or None, commit hits,
    counter groups or None, span names)`` for one cell; the counter
    groups (:func:`counter_groups`) are those of a Baryon-family
    controller, and the span names those an observation's span tracer
    recorded (none without one)."""
    workload, _, design = cell.partition("/")
    design, _, length = design.partition("@")
    n_accesses = int(length) if length else N_ACCESSES
    design, _, variant = design.partition("+")
    if variant:
        result, controller = _run_variant(workload, variant, n_accesses)
        return (
            layer_digests(result), None, result.case_counts.get("commit_hit", 0),
            counter_groups(controller), frozenset(),
        )
    config, sim_config = scaled_system(SCALE)
    kwargs = {}
    if observation == "profiled":
        kwargs["spans"] = SpanTracer()
    elif observation == "metered":
        kwargs["metrics"] = MetricsRegistry()
    elif observation == "traced":
        kwargs["tracer"] = EventTracer()
    elif observation == "progress+spans":
        kwargs["spans"] = SpanTracer()
        kwargs["progress"] = lambda done, total: None
        kwargs["progress_every"] = 256
    result, controller = run_cell(
        workload, design, config, sim_config, n_accesses, SEED, **kwargs
    )
    exported = None
    if observation == "metered":
        registry = kwargs["metrics"]
        exported = _result_digest(
            {name: registry.get(name).to_json() for name in METERED_SERIES}
        )
    counters = (
        counter_groups(controller)
        if isinstance(controller, BaryonController) else None
    )
    spans = kwargs.get("spans")
    finished = spans.finished if spans is not None else ()
    return (
        layer_digests(result), exported, result.case_counts.get("commit_hit", 0),
        counters, frozenset(span.name for span in finished),
    )


def counter_cells():
    """The Baryon-family cells whose counter groups are pinned."""
    family = ("baryon", "baryon-64b", "baryon-fa", "hybrid2")
    return [
        cell for cell in cell_names()
        if cell.partition("/")[2].partition("@")[0].partition("+")[0] in family
    ]


def counter_digest(cell: str) -> str:
    return _result_digest(run_golden_cell(cell)[3])


def event_digest(cell: str) -> str:
    """SHA-256 over the JSONL event stream of one traced run."""
    workload, _, design = cell.partition("/")
    design, _, variant = design.partition("+")
    transform, sample_every = EVENT_VARIANTS.get(variant, (None, 1))
    config, sim_config = scaled_system(SCALE)
    if transform is not None:
        config = transform(config)
    sink = io.StringIO()
    tracer = EventTracer(sample_every=sample_every, sink=sink)
    run_cell(
        workload, design, config, sim_config, N_ACCESSES, SEED, tracer=tracer
    )
    return hashlib.sha256(sink.getvalue().encode()).hexdigest()


def _twin_controller(design: str, config_kwargs: dict):
    """The controller one twin digest replays, built as ``run_fuzz``
    builds its per-op twins, plus the variant's observer."""
    from repro.baselines import DiceCache, Hybrid2, SimpleCache, UnisonCache
    from repro.core.tracking import StagePhaseTracker

    config = make_tiny_config(**config_kwargs)
    if design == "simple":
        return SimpleCache(config)
    if design == "dice":
        return DiceCache(config, seed=TWIN_SEED)
    if design == "unison":
        return UnisonCache(config)
    if design == "hybrid2":
        return Hybrid2(config, seed=TWIN_SEED)
    variant = design.partition("+")[2]
    if variant in TWIN_RESILIENCE:
        config = dataclasses.replace(
            config,
            resilience=ResilienceConfig(enabled=True, **TWIN_RESILIENCE[variant]),
        )
    return BaryonController(
        config, seed=TWIN_SEED,
        tracker=StagePhaseTracker() if variant == "tracker" else None,
        tracer=EventTracer() if variant == "traced" else None,
    )


def twin_digest(design: str, iteration: int) -> str:
    """Digest of one fuzz case replayed through ``design``'s per-op
    ``access``: the final clock, controller and device counters, channel
    busy state and the per-access ``(case, latency, prefetched)`` stream.
    The case is the one ``run_fuzz(iterations, TWIN_SEED)`` draws for
    ``iteration``.

    Designs with a remap cache (Simple and the Baryon family) also hash
    its counters. Baryon-family twins hash each access's
    ``write_overflow`` flag too, plus whichever of the resilience
    scoreboards, phase-tracker reports and traced events their variant
    attaches."""
    rng = random.Random(f"{TWIN_SEED}:{iteration}")
    config_kwargs = sample_config_kwargs(rng)
    trace = generate_trace(rng, make_tiny_config(**config_kwargs))
    ctrl = _twin_controller(design, config_kwargs)
    baryon = isinstance(ctrl, BaryonController)
    stream = []
    access = ctrl.access

    def recording_access(addr, is_write, now):
        mem = access(addr, is_write, now)
        record = (mem.case.value, mem.latency_cycles, list(mem.prefetched_lines))
        stream.append((*record, mem.write_overflow) if baryon else record)
        return mem

    ctrl.access = recording_access
    cycles = _scalar_replay(ctrl, trace, 4.0)
    devices = ctrl.devices
    payload = {
        "cycles": cycles,
        "controller": ctrl.stats.as_dict(),
        "fast": devices.fast.stats.as_dict(),
        "slow": devices.slow.stats.as_dict(),
        "channels": [
            (pool._busy_until, pool.total_busy_cycles)
            for pool in (devices.fast.pool, devices.slow.pool)
        ],
        "stream": stream,
    }
    remap_cache = getattr(ctrl, "remap_cache", None)
    if remap_cache is not None:
        payload["remap_cache"] = remap_cache.stats.as_dict()
    if baryon:
        for name in ("faults", "recovery", "checker"):
            component = getattr(ctrl, name)
            if component is not None:
                payload[name] = component.stats.as_dict()
        tracker = ctrl.tracker
        if tracker is not None:
            tracker.finalize()
            payload["tracker"] = {
                "mpki": tracker.mpki_distribution(),
                **{
                    category: [
                        tracker.breakdown_fractions(category),
                        tracker.miss_rate(category),
                        tracker.overflow_rate(category),
                    ]
                    for category in ("S", "C")
                },
            }
        if ctrl.obs.enabled:
            payload["events"] = list(ctrl.obs.ring)
    return _result_digest(payload)


def trace_digest(workload: str, seed: int, n_accesses: int) -> str:
    """SHA-256 over one generated trace's arrays and their dtypes."""
    config, _ = scaled_system(SCALE)
    trace = build_workload(
        workload, config.layout.fast_capacity, n_accesses=n_accesses, seed=seed
    )
    digest = hashlib.sha256()
    for field in TRACE_FIELDS:
        array = np.ascontiguousarray(getattr(trace, field))
        digest.update(f"{field}:{array.dtype.str}:{array.shape}".encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def trace_digests(workload: str) -> dict:
    return {
        f"{seed}/{n}": trace_digest(workload, seed, n)
        for seed in TRACE_SEEDS
        for n in TRACE_LENGTHS
    }


@lru_cache(maxsize=1)
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def test_layers_cover_every_result_field():
    """A new SimResult field must join a layer (and re-baseline)."""
    result = run_golden_cell("YCSB-B/simple")
    assert set(result[0]) == set(LAYERS)
    from repro.sim import SimResult

    flat = {k for k in SimResult().to_dict() if k != "extra"}
    flat |= {"extra.llc_miss_rate", "extra.ctrl_commits"}
    covered = {field for fields in LAYERS.values() for field in fields}
    assert flat - {"name", "design"} == covered


@pytest.mark.parametrize("cell", cell_names())
def test_cell_matches_golden(cell):
    want = golden()["cells"][cell]
    got = run_golden_cell(cell)[0]
    moved = [layer for layer in LAYERS if got[layer] != want[layer]]
    assert not moved, f"{cell}: layer digests moved: {moved}"


@pytest.mark.parametrize("cell", counter_cells())
def test_counters_match_golden(cell):
    """Counters no SimResult field carries (stage replacements, dirty
    writebacks, fill reads, allocations) must not move either."""
    assert counter_digest(cell) == golden()["counters"][cell]


#: Stage-replacement counters that some pinned cell must exercise, so the
#: counter pins cover every replacement shape.
EXERCISED_COUNTERS = (
    "sub_block_replacements", "block_level_replacements", "commits",
    "stage_evictions", "stage_regroup_moves", "multi_block_super_stages",
    "stage_dirty_writebacks",
)


def test_counter_cells_exercise_every_replacement_shape():
    idle = [
        name for name in EXERCISED_COUNTERS
        if not any(
            run_golden_cell(cell)[3]["controller"].get(name, 0) > 0
            for cell in counter_cells()
        )
    ]
    assert not idle, f"no pinned cell counts {idle}"


@pytest.mark.parametrize("cell", FLAT_CELLS)
def test_flat_cell_hits_committed_data(cell):
    """The flat cells must keep exercising the committed-block lookup."""
    assert run_golden_cell(cell)[2] >= MIN_FLAT_COMMIT_HITS


@pytest.mark.parametrize("cell", FIFO_CELLS)
def test_fifo_cell_evicts_committed_blocks(cell):
    """The FIFO cells must keep taking occupied ways for commits."""
    assert run_golden_cell(cell)[3]["controller"]["fast_block_evictions"] > 0


def test_no_stage_cell_resorts_and_evicts_committed_blocks():
    """The streaming no-stage cell must keep inserting into occupied
    committed blocks and evicting full ones."""
    counters = run_golden_cell("519.lbm_r/baryon+nostage")[3]["controller"]
    assert counters["layout_resorts"] > 0
    assert counters["fast_block_evictions"] > 0


@pytest.mark.parametrize("observation", OBSERVATIONS)
@pytest.mark.parametrize("design", OBSERVED_DESIGNS)
def test_observed_run_matches_unobserved(design, observation):
    cell = f"YCSB-B/{design}"
    digests, _, _, _, span_names = run_golden_cell(cell, observation)
    assert digests == golden()["cells"][cell]
    if observation in SPAN_OBSERVATIONS:
        # A fresh tracer must record the simulator's spans.
        assert {"sim.run", "sim.walk", "sim.warmup", "sim.measured"} <= span_names


@pytest.mark.parametrize("design", METERED_DESIGNS)
def test_metered_export_matches_golden(design):
    cell = f"YCSB-B/{design}"
    assert run_golden_cell(cell, "metered")[1] == golden()["metrics"][cell]


@pytest.mark.parametrize("cell", EVENT_CELLS)
def test_event_stream_matches_golden(cell):
    """Each traced run must emit its committed event stream byte for
    byte: the same events, fields and order."""
    assert event_digest(cell) == golden()["events"][cell]


@pytest.mark.parametrize("design", TWIN_DESIGNS)
def test_twin_replay_matches_golden(design):
    """Per-access pin of each design's access flow: every fuzz case's
    replay must hash to its committed digest."""
    want = golden()["twins"][design]
    got = [twin_digest(design, i) for i in range(TWIN_ITERATIONS)]
    moved = [i for i, (a, b) in enumerate(zip(got, want)) if a != b]
    assert len(want) == TWIN_ITERATIONS and not moved, (
        f"{design}: twin digests moved at fuzz iterations {moved}"
    )


@pytest.mark.parametrize("workload", sorted(REGISTERED_WORKLOADS))
def test_trace_matches_golden(workload):
    """Each generator must reproduce its committed traces byte for byte."""
    want = golden()["traces"][workload]
    got = trace_digests(workload)
    moved = sorted(key for key in want if got.get(key) != want[key])
    assert set(got) == set(want) and not moved, (
        f"{workload}: trace digests moved at seed/length {moved}"
    )


def regenerate() -> dict:
    return {
        "accesses": N_ACCESSES,
        "scale": SCALE,
        "seed": SEED,
        "cells": {cell: run_golden_cell(cell)[0] for cell in cell_names()},
        "metrics": {
            f"YCSB-B/{design}": run_golden_cell(f"YCSB-B/{design}", "metered")[1]
            for design in METERED_DESIGNS
        },
        "events": {cell: event_digest(cell) for cell in EVENT_CELLS},
        "counters": {cell: counter_digest(cell) for cell in counter_cells()},
        "twins": {
            design: [twin_digest(design, i) for i in range(TWIN_ITERATIONS)]
            for design in TWIN_DESIGNS
        },
        "traces": {
            workload: trace_digests(workload) for workload in REGISTERED_WORKLOADS
        },
    }


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        raise SystemExit("usage: python -m tests.test_golden --regen")
    GOLDEN_PATH.write_text(json.dumps(regenerate(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
