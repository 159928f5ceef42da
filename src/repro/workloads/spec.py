"""SPEC CPU2017 proxies: the paper's five memory-bound benchmarks plus two.

Each proxy mimics the published memory characterization of its benchmark
(footprint, locality, write mix) plus the compressibility the paper
reports for it (e.g. 549.fotonik3d_r's average CF of 2.42,
519.lbm_r's ~1.0):

=============== =========================================== =============
proxy           behaviour                                   profile
=============== =========================================== =============
505.mcf_r       pointer chasing over arc arrays + scans     medium
519.lbm_r       write-heavy fluid stencil streams           incompressible
520.omnetpp_r   Zipf-skewed event-queue/heap churn          medium
549.fotonik3d_r large streaming stencil, very compressible  high
557.xz_r        low-spatial-locality dictionary matching    low
503.bwaves_r    compressible blocked solver (extension)     high
554.roms_r      ocean-model stencils (extension)            medium
=============== =========================================== =============
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.common.errors import ConfigurationError
from repro.workloads.base import Trace, TraceGenerator
from repro.workloads.synthetic import EpisodeMixin

#: Per-benchmark behaviour knobs.
SPEC_PARAMS: Dict[str, Dict] = {
    "505.mcf_r": {
        "profile": "medium",
        "write_fraction": 0.15,
        "mix": {"chase": 0.55, "scan": 0.35, "hot": 0.10},
        "igap": (6, 30),
    },
    "519.lbm_r": {
        "profile": "incompressible",
        "write_fraction": 0.48,
        "mix": {"scan": 0.85, "hot": 0.15},
        "igap": (2, 10),
        "sweep_frac": 0.8,
    },
    "520.omnetpp_r": {
        "profile": "medium",
        "write_fraction": 0.35,
        "mix": {"zipf": 0.70, "scan": 0.10, "hot": 0.20},
        "igap": (4, 18),
    },
    "549.fotonik3d_r": {
        "profile": "high",
        "write_fraction": 0.30,
        # The solver re-sweeps field arrays whose working set sits between
        # the raw and the compressed fast-memory capacity — modelled as a
        # dense working-set region ("ws") straddling that band.
        "mix": {"scan": 0.25, "ws": 0.60, "hot": 0.15},
        "igap": (2, 9),
        "ws_frac": 0.55,
    },
    "557.xz_r": {
        "profile": "low",
        "write_fraction": 0.25,
        "mix": {"window": 0.75, "scan": 0.15, "hot": 0.10},
        "igap": (5, 25),
    },
    "503.bwaves_r": {
        "profile": "high",
        "write_fraction": 0.25,
        # Blocked implicit solver: dense working-set sweeps over very
        # compressible double-precision fields.
        "mix": {"scan": 0.30, "ws": 0.55, "hot": 0.15},
        "igap": (2, 10),
        "ws_frac": 0.6,
    },
    "554.roms_r": {
        "profile": "medium",
        "write_fraction": 0.35,
        # Ocean-model stencils: streaming with moderate reuse windows.
        "mix": {"scan": 0.45, "ws": 0.40, "hot": 0.15},
        "igap": (2, 10),
        "ws_frac": 0.5,
    },
}


class SpecProxyWorkload(EpisodeMixin, TraceGenerator):
    """Mixture-of-behaviours generator parameterized per benchmark.

    The hot/zipf components are *episode-based*: blocks expose persistent
    footprints that episodes revisit (see
    :func:`repro.workloads.synthetic.block_footprint`), which is how real
    programs behave at page granularity and what makes footprint caching
    and stage-and-commit meaningful. The chase/window components stay
    line-granular by design: that irregularity is exactly mcf's and xz's
    character.
    """

    def __init__(self, benchmark: str, footprint_bytes: int, seed: int = 1, **kwargs):
        if benchmark not in SPEC_PARAMS:
            raise ConfigurationError(
                f"unknown SPEC proxy {benchmark!r}; choose from {sorted(SPEC_PARAMS)}"
            )
        super().__init__(benchmark, footprint_bytes, seed, **kwargs)
        self.params = SPEC_PARAMS[benchmark]

    def generate(self, n_accesses: int) -> Trace:
        p = self.params
        rng = self.rng
        lines = self.footprint_bytes // 64
        blocks = max(1, self.footprint_bytes // self.geometry.block_size)
        behaviours = list(p["mix"].items())
        names = [b for b, _ in behaviours]
        weights = np.asarray([w for _, w in behaviours])
        weights = weights / weights.sum()
        choices = rng.choice(len(names), size=n_accesses, p=weights).tolist()

        # Pre-draw the streams each behaviour consumes. All three are drawn
        # even when the mix uses fewer: their draws advance the rng, so
        # skipping one would move every later chase/window, write, igap
        # and core draw.
        streams = {
            "hot": self._episode_addrs(
                n_accesses, max(1, blocks // 40), theta=0.6, coverage=0.5
            ),
            "zipf": self._episode_addrs(n_accesses, blocks, theta=0.95, coverage=0.45),
            # Dense, near-uniform working-set region (iterative kernels):
            # blocks are fully touched, popularity is flat, and the region
            # size (ws_frac * footprint) is what the capacity story hinges
            # on — compressible data fit it in fast memory, raw data don't.
            "ws": self._episode_addrs(
                n_accesses,
                max(1, int(blocks * p.get("ws_frac", 0.5))),
                theta=0.3,
                coverage=0.9,
            ),
        }
        episodic = {kind: iter(stream) for kind, stream in streams.items()}
        # Iterative solvers re-sweep their field arrays: the scan walks a
        # window of sweep_frac * footprint repeatedly (4 passes), then
        # shifts — giving the reuse-at-distance that makes compression's
        # capacity gain visible, as in the real multi-sweep kernels.
        sweep_frac = p.get("sweep_frac", 1.0)
        sweep_lines = max(1, int(lines * sweep_frac))
        sweep_passes = 4
        sweep_origin = 0
        scan_pos = 0
        window_base = 0
        window_lines = max(64, lines // 200)
        # mcf's arcs are ~192 B structs: each chase step reads 3
        # consecutive lines of a node. The network-simplex traversal
        # clusters visits within arc segments (tree-adjacent arcs), so
        # the chase works a ~64-arc segment before jumping — the source
        # of mcf's measurable page-footprint locality.
        chase_arcs = max(1, lines // 3)
        chase_segment = 64
        chase_seg_base = 0
        chase_visits_left = 0
        chase_run = 0
        chase_line = 0
        # xz's dictionary matches copy sequential runs inside the window.
        window_run = 0
        window_line = 0
        addrs = []
        emit = addrs.append
        for i, choice in enumerate(choices):
            kind = names[choice]
            if kind == "scan":
                emit(((sweep_origin + scan_pos % sweep_lines) % lines) * 64)
                scan_pos += 1
                if scan_pos >= sweep_lines * sweep_passes:
                    scan_pos = 0
                    sweep_origin = (sweep_origin + sweep_lines) % lines
            elif kind in episodic:
                emit(next(episodic[kind]))
            elif kind == "chase":
                if chase_run == 0:
                    if chase_visits_left == 0:
                        chase_seg_base = int(
                            rng.integers(0, max(1, chase_arcs - chase_segment))
                        )
                        chase_visits_left = int(rng.integers(16, 48))
                    arc = chase_seg_base + int(rng.integers(0, chase_segment))
                    chase_visits_left -= 1
                    chase_line = arc * 3
                    chase_run = 3
                emit((chase_line % lines) * 64)
                chase_line += 1
                chase_run -= 1
            elif kind == "window":
                if i % 256 == 0:
                    window_base = int(rng.integers(0, max(1, lines - window_lines)))
                if window_run == 0:
                    window_line = window_base + int(rng.integers(0, window_lines))
                    window_run = int(rng.integers(3, 14))
                emit((window_line % lines) * 64)
                window_line += 1
                window_run -= 1
            else:  # pragma: no cover - mix keys are validated above
                raise ConfigurationError(f"unknown behaviour {kind}")
        writes = rng.random(n_accesses) < p["write_fraction"]
        lo, hi = p["igap"]
        return Trace(
            name=self.name,
            addrs=np.asarray(addrs, dtype=np.uint64),
            writes=writes,
            igaps=rng.integers(lo, hi, n_accesses, dtype=np.uint32),
            cores=rng.integers(0, self.cores, n_accesses).astype(np.uint16),
            footprint_bytes=self.footprint_bytes,
            default_profile=p["profile"],
        )
