"""Golden behaviour corpus: committed per-layer digests of SimResults.

Every cell runs one (workload, design) pair at 3k accesses and 1/512
scale and hashes each SimResult field group separately, so a mismatch
names the layer that moved: core timing, the SRAM hierarchy, the
controller and its Fig. 6 case mix, device traffic, or energy. The
digests live in ``tests/golden_corpus.json``; a shared helper that
changes every code path the same way still fails here, which an
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

#: Single-design Baryon variants whose observers keep the run off the
#: deferred seam.
VARIANTS = {
    "faults": ResilienceConfig(
        enabled=True, p_read_transient=1e-2, p_latency_spike=1e-2,
        p_row_glitch=1e-2,
    ),
    "checker": ResilienceConfig(
        enabled=True, check_invariants=True, p_table_corruption=2e-3,
    ),
    "oracle": None,
}

#: Designs whose observed runs must match their unobserved digests.
OBSERVED_DESIGNS = ("baryon", "simple", "unison")
OBSERVATIONS = ("profiled", "metered", "progress+spans")
METERED_SERIES = ("repro_mem_latency_cycles", "repro_serve_rate", "repro_ipc")


def cell_names():
    names = [f"{wl}/{design}" for wl in WORKLOADS for design in DESIGNS]
    names += [f"YCSB-B/baryon+{variant}" for variant in VARIANTS]
    return names


def layer_digests(result) -> dict:
    flat = result.to_dict()
    for key, value in flat.pop("extra").items():
        flat[f"extra.{key}"] = value
    return {
        layer: _result_digest({field: flat[field] for field in fields})
        for layer, fields in LAYERS.items()
    }


def _run_variant(workload: str, variant: str):
    config, sim_config = scaled_system(SCALE)
    if variant != "oracle":
        config = dataclasses.replace(config, resilience=VARIANTS[variant])
        return run_cell(workload, "baryon", config, sim_config, N_ACCESSES, SEED)[0]
    controller = ContentBackedController(config, seed=SEED)
    trace = build_workload(
        workload, config.layout.fast_capacity, n_accesses=N_ACCESSES, seed=SEED
    )
    trace.apply_compressibility(controller.oracle)
    return SystemSimulator(controller, sim_config).run(trace, workload, "baryon")


@lru_cache(maxsize=None)
def run_golden_cell(cell: str, observation: str = "") -> tuple:
    """``(layer digests, metered-export digest or None)`` for one cell."""
    workload, _, design = cell.partition("/")
    design, _, variant = design.partition("+")
    if variant:
        return layer_digests(_run_variant(workload, variant)), None
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
        workload, design, config, sim_config, N_ACCESSES, SEED, **kwargs
    )
    exported = None
    if observation == "metered":
        registry = kwargs["metrics"]
        exported = _result_digest(
            {name: registry.get(name).to_json() for name in METERED_SERIES}
        )
    return layer_digests(result), exported


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
