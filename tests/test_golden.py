"""Golden behaviour corpus: committed per-layer digests of SimResults.

Every cell runs one (workload, design) pair at 1/512 scale (3k accesses
unless its name ends in ``@<accesses>``) and hashes each SimResult field
group separately, so a mismatch names the layer that moved: core
timing, the SRAM hierarchy, the controller and its Fig. 6 case mix,
device traffic, or energy. The digests live in
``tests/golden_corpus.json``; a shared helper that changes every code
path the same way still fails here, which an
in-tree scalar-vs-fast comparison cannot catch.

The corpus also pins observation: profiled, metered and
progress-plus-spans runs must reproduce the unobserved digests, and the
exported latency histogram and serve-rate/IPC series of two metered
cells are pinned too.

An intentional behaviour change re-baselines the corpus in its own
change::

    PYTHONPATH=src python -m tests.test_golden --regen
"""

from __future__ import annotations

import dataclasses
import json
import sys
from functools import lru_cache
from pathlib import Path

import pytest

from repro.analysis.experiments import DESIGNS, run_cell
from repro.common.config import ResilienceConfig
from repro.obs import MetricsRegistry, PhaseProfiler
from repro.obs.manifest import _result_digest
from repro.obs.spans import SpanTracer
from repro.sim import SystemSimulator
from repro.validation import ContentBackedController
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
OBSERVED_DESIGNS = ("baryon", "simple", "unison")
OBSERVATIONS = ("profiled", "metered", "progress+spans")
METERED_SERIES = ("repro_mem_latency_cycles", "repro_serve_rate", "repro_ipc")


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


@pytest.mark.parametrize("design", ("baryon", "simple"))
def test_metered_export_matches_golden(design):
    cell = f"YCSB-B/{design}"
    assert run_golden_cell(cell, "metered")[1] == golden()["metrics"][cell]


def regenerate() -> dict:
    return {
        "accesses": N_ACCESSES,
        "scale": SCALE,
        "seed": SEED,
        "cells": {cell: run_golden_cell(cell)[0] for cell in cell_names()},
        "metrics": {
            f"YCSB-B/{design}": run_golden_cell(f"YCSB-B/{design}", "metered")[1]
            for design in ("baryon", "simple")
        },
    }


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        raise SystemExit("usage: python -m tests.test_golden --regen")
    GOLDEN_PATH.write_text(json.dumps(regenerate(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
