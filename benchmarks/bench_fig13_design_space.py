"""Fig. 13 — design-parameter exploration.

(a) two-level replacement on/off (paper: ~25% loss without block-level
    replacements);
(b) super-block size in blocks (paper: 8 sufficient, very large sizes can
    lose via conflict misses);
(c) stage-area size including the no-stage ablation (paper: 64 MB is
    generally sufficient; no stage loses 34.5% on average);
(d) selective-commit parameter k in {0, 1, 2, 4, inf} plus commit-all
    (paper: k slightly above 1 is best; insensitive among 1/2/4).
"""

import dataclasses
import math

from repro.analysis import run_one
from repro.analysis.report import format_series
from repro.common.config import CommitConfig, StageConfig
from repro.common.stats import geometric_mean

from common import N_ACCESSES, SCALE, bench_system, bench_workloads, emit

MB = 1 << 20


def geomean_ipc(config, sim_config, workloads):
    ipcs = [
        run_one(w, "baryon", config, sim_config, n_accesses=N_ACCESSES).ipc
        for w in workloads
    ]
    return geometric_mean(ipcs)


def run_fig13():
    config, sim_config = bench_system()
    workloads = bench_workloads()[:3]
    base_ipc = geomean_ipc(config, sim_config, workloads)
    sections = []

    # (a) two-level replacement.
    no_two_level = dataclasses.replace(config, two_level_replacement=False)
    sections.append(
        format_series(
            "Fig. 13a: two-level replacement (normalized to default)",
            [
                ("two-level (default)", 1.0),
                ("sub-block only", geomean_ipc(no_two_level, sim_config, workloads) / base_ipc),
            ],
        )
    )

    # (b) super-block size in blocks.
    points = []
    for blocks in (2, 4, 8, 16):
        geometry = dataclasses.replace(config.geometry, super_block_blocks=blocks)
        cfg = dataclasses.replace(config, geometry=geometry)
        points.append((f"{blocks} blocks", geomean_ipc(cfg, sim_config, workloads) / base_ipc))
    sections.append(format_series("Fig. 13b: super-block size", points))

    # (c) stage-area size (scaled) plus no-stage.
    points = []
    for size_mb in (8, 16, 32, 64, 128):
        scaled = max(64 * 1024, size_mb * MB // SCALE)
        stage = dataclasses.replace(config.stage, size_bytes=scaled)
        cfg = dataclasses.replace(config, stage=stage)
        points.append(
            (f"{size_mb} MB (~{scaled >> 10} kB)", geomean_ipc(cfg, sim_config, workloads) / base_ipc)
        )
    no_stage = dataclasses.replace(
        config, stage=dataclasses.replace(config.stage, enabled=False)
    )
    points.append(("no stage area", geomean_ipc(no_stage, sim_config, workloads) / base_ipc))
    sections.append(format_series("Fig. 13c: stage area size", points))

    # (d) commit policy parameter k.
    points = []
    for label, commit in [
        ("k = 0 (write cost only)", CommitConfig(k=0.0)),
        ("k = 1", CommitConfig(k=1.0)),
        ("k = 2", CommitConfig(k=2.0)),
        ("k = 4 (default)", CommitConfig(k=4.0)),
        ("k = inf (stability only)", CommitConfig(k=math.inf)),
        ("commit-all", CommitConfig(commit_all=True)),
    ]:
        cfg = dataclasses.replace(config, commit=commit)
        points.append((label, geomean_ipc(cfg, sim_config, workloads) / base_ipc))
    sections.append(format_series("Fig. 13d: selective commit parameter", points))

    return "\n\n".join(sections)


def test_fig13_design_space(benchmark):
    text = benchmark.pedantic(run_fig13, rounds=1, iterations=1)
    emit("fig13_design_space", text)
    assert "Fig. 13a" in text and "Fig. 13d" in text
