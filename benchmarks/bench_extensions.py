"""Extension studies beyond the paper's figures (Sec. III-E/III-F themes).

Two ablations the paper discusses qualitatively but does not plot:

* **Associativity** (Sec. III-F "Supporting high associativities"): Baryon
  at 1/2/4/8 fast ways per set (the paper picks 4 and argues higher
  associativities are easy because it already uses a forward remap table);
* **Fast-area eviction policy** (Sec. III-E: "LRU, LFU, CLOCK, and even
  random" are interchangeable): LRU against FIFO, the two policies the
  fast area models.
"""

import dataclasses

from repro.analysis import run_one
from repro.analysis.report import format_series
from repro.common.stats import geometric_mean

from common import N_ACCESSES, bench_system, bench_workloads, emit


def geomean_ipc(config, sim_config, workloads):
    return geometric_mean(
        [
            run_one(w, "baryon", config, sim_config, n_accesses=N_ACCESSES).ipc
            for w in workloads
        ]
    )


def run_extensions():
    config, sim_config = bench_system()
    workloads = bench_workloads()[:3]
    base = geomean_ipc(config, sim_config, workloads)
    sections = []

    points = []
    for assoc in (1, 2, 4, 8):
        layout = dataclasses.replace(config.layout, associativity=assoc)
        cfg = dataclasses.replace(config, layout=layout)
        points.append((f"{assoc}-way", geomean_ipc(cfg, sim_config, workloads) / base))
    sections.append(
        format_series("Associativity (normalized to the default 4-way)", points)
    )

    points = []
    for policy in ("lru", "fifo"):
        cfg = dataclasses.replace(config, fast_replacement=policy)
        points.append((policy, geomean_ipc(cfg, sim_config, workloads) / base))
    sections.append(
        format_series("Fast-area eviction policy (normalized to LRU)", points)
    )
    return "\n\n".join(sections)


def test_extension_studies(benchmark):
    text = benchmark.pedantic(run_extensions, rounds=1, iterations=1)
    emit("extensions", text)
    assert "Associativity" in text and "eviction policy" in text
