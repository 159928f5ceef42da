"""Baryon's core: the stage area, commit policy and memory controller.

The package composes the substrates into the paper's architecture:

* :class:`~repro.core.stage_area.StageArea` — the small fast-memory staging
  region with its on-chip tag array, two-level replacement state and the
  MissCnt/MRUMissCnt statistics that feed the commit cost model;
* :class:`~repro.core.commit.CommitPolicy` — the selective commit decision,
  Eq. 1 with parameter ``k``;
* :class:`~repro.core.fast_area.FastArea` — the committed cache/flat region
  organized as hybrid sets of fast block spaces;
* :class:`~repro.core.controller.BaryonController` — the access flow of
  Fig. 6 (cases 1-5), slow-to-stage prefetching, cacheline-aligned
  transfers, flat-scheme swapping and compressed writeback;
* :class:`~repro.core.columnar.ColumnarState` — O(1) probe indices over
  the stage tag array, read by the access flow and the deferred server.
"""

from repro.core.columnar import ColumnarState
from repro.core.commit import CommitDecision, CommitPolicy
from repro.core.controller import BaryonController
from repro.core.events import AccessCase, AccessResult
from repro.core.fast_area import FastArea, FastBlockState
from repro.core.stage_area import StageArea

__all__ = [
    "AccessCase",
    "AccessResult",
    "BaryonController",
    "ColumnarState",
    "CommitDecision",
    "CommitPolicy",
    "FastArea",
    "FastBlockState",
    "StageArea",
]
