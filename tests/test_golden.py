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
progress-plus-spans runs must reproduce the unobserved digests, and the
exported latency histogram and serve-rate/IPC series of four metered
cells are pinned too.

Simple, Unison, DICE, Baryon and Hybrid2 are further pinned access by
access:
for the seed-7 fuzz cases ``repro validate --fuzz-batched`` draws, a
per-op ``access`` replay's final clock, counters, channel busy state and
per-access ``(case, latency, prefetched)`` stream are hashed into the
``twins`` corpus. Baryon is pinned that way under retry exhaustion,
stage-tag corruption, metadata repair, the phase tracker, event tracing
and row-buffer glitches too.

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
import json
import random
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.experiments import DESIGNS, run_cell
from repro.common.config import ResilienceConfig
from repro.obs import EventTracer, MetricsRegistry, PhaseProfiler
from repro.obs.manifest import _result_digest
from repro.obs.spans import SpanTracer
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


#: Single-design Baryon variants: config transforms (observers that keep
#: the run off the deferred seam, or the set-associative flat scheme), or
#: ``None`` for the content oracle.
VARIANTS = {
    "faults": _with_resilience(
        p_read_transient=1e-2, p_latency_spike=1e-2, p_row_glitch=1e-2,
    ),
    "checker": _with_resilience(check_invariants=True, p_table_corruption=2e-3),
    "flat": _flat_layout,
    "oracle": None,
}

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

#: Designs whose observed runs must match their unobserved digests.
OBSERVED_DESIGNS = ("baryon", "simple", "unison", "dice")
OBSERVATIONS = ("profiled", "metered", "traced", "progress+spans")
METERED_SERIES = ("repro_mem_latency_cycles", "repro_serve_rate", "repro_ipc")
#: Designs whose metered exports (latency histogram, series) are pinned.
METERED_DESIGNS = ("baryon", "simple", "unison", "dice")

#: The twin corpus: ``run_fuzz``'s seed and the iterations whose
#: (config, trace) cases are replayed per design.
TWIN_SEED = 7
TWIN_ITERATIONS = 25
#: Baryon twin variants that arm the resilience layer, by their
#: ``ResilienceConfig`` knobs (``rowbuf`` also models the row buffer).
TWIN_RESILIENCE = {
    "exhaust": {"p_read_transient": 5e-3, "p_write_drop": 5e-3, "max_retries": 0},
    "writedrop": {"p_write_drop": 2e-2, "max_retries": 0},
    "stagetag": {"p_stage_tag_corruption": 2e-2},
    "checker": {
        "p_table_corruption": 2e-3, "p_remap_corruption": 3e-3,
        "check_invariants": True,
    },
    "rowbuf": {"p_row_glitch": 1e-2},
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
    return names + list(FLAT_CELLS)


def layer_digests(result) -> dict:
    flat = result.to_dict()
    for key, value in flat.pop("extra").items():
        flat[f"extra.{key}"] = value
    return {
        layer: _result_digest({field: flat[field] for field in fields})
        for layer, fields in LAYERS.items()
    }


def _run_variant(workload: str, variant: str, n_accesses: int):
    config, sim_config = scaled_system(SCALE)
    if variant != "oracle":
        config = VARIANTS[variant](config)
        return run_cell(workload, "baryon", config, sim_config, n_accesses, SEED)[0]
    controller = ContentBackedController(config, seed=SEED)
    trace = build_workload(
        workload, config.layout.fast_capacity, n_accesses=n_accesses, seed=SEED
    )
    trace.apply_compressibility(controller.oracle)
    return SystemSimulator(controller, sim_config).run(trace, workload, "baryon")


@lru_cache(maxsize=None)
def run_golden_cell(cell: str, observation: str = "") -> tuple:
    """``(layer digests, metered-export digest or None, commit hits)``
    for one cell."""
    workload, _, design = cell.partition("/")
    design, _, length = design.partition("@")
    n_accesses = int(length) if length else N_ACCESSES
    design, _, variant = design.partition("+")
    if variant:
        result = _run_variant(workload, variant, n_accesses)
        return layer_digests(result), None, result.case_counts.get("commit_hit", 0)
    config, sim_config = scaled_system(SCALE)
    kwargs = {}
    if observation == "profiled":
        kwargs["profiler"] = PhaseProfiler()
    elif observation == "metered":
        kwargs["metrics"] = MetricsRegistry()
    elif observation == "traced":
        kwargs["tracer"] = EventTracer()
    elif observation == "progress+spans":
        kwargs["spans"] = SpanTracer()
        kwargs["progress"] = lambda done, total: None
        kwargs["progress_every"] = 256
    result, _ = run_cell(
        workload, design, config, sim_config, n_accesses, SEED, **kwargs
    )
    exported = None
    if observation == "metered":
        registry = kwargs["metrics"]
        exported = _result_digest(
            {name: registry.get(name).to_json() for name in METERED_SERIES}
        )
    return layer_digests(result), exported, result.case_counts.get("commit_hit", 0)


def _twin_controller(design: str, config_kwargs: dict):
    """The controller one twin digest replays, built as ``run_fuzz``
    builds its per-op twins, plus the variant's observer."""
    from repro.baselines import DiceCache, Hybrid2, SimpleCache, UnisonCache
    from repro.core import BaryonController
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
    if variant == "rowbuf":
        timings = dataclasses.replace(config.timings, model_row_buffer=True)
        config = dataclasses.replace(config, timings=timings)
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
    scoreboards, row-buffer counters, phase-tracker reports and traced
    events their variant attaches."""
    from repro.core import BaryonController

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
        if devices.fast.row_buffer is not None:
            payload["row_buffer"] = devices.fast.row_buffer.stats.as_dict()
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


@pytest.mark.parametrize("cell", FLAT_CELLS)
def test_flat_cell_hits_committed_data(cell):
    """The flat cells must keep exercising the committed-block lookup."""
    assert run_golden_cell(cell)[2] >= MIN_FLAT_COMMIT_HITS


@pytest.mark.parametrize("observation", OBSERVATIONS)
@pytest.mark.parametrize("design", OBSERVED_DESIGNS)
def test_observed_run_matches_unobserved(design, observation):
    cell = f"YCSB-B/{design}"
    assert run_golden_cell(cell, observation)[0] == golden()["cells"][cell]


@pytest.mark.parametrize("design", METERED_DESIGNS)
def test_metered_export_matches_golden(design):
    cell = f"YCSB-B/{design}"
    assert run_golden_cell(cell, "metered")[1] == golden()["metrics"][cell]


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
