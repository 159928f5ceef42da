"""The server's inline stage-insert shapes against the insert helpers.

Baryon's access server applies the common stage-miss inserts inline (a
free slot, a fresh way, a FIFO sub-block replacement) and hands the rest
to ``BaryonController._stage_insert``. A subclass that overrides
``_stage_insert`` gets every insert through the helpers instead. This
twin overrides it with a bare ``super()`` call, so it differs from the
plain controller only in which of the two paths runs, and must match it
in the SimResult and in every counter group. The content oracle copies
values at the stage area's ``insert_range`` instead, so it validates the
inline shapes themselves.
"""

from __future__ import annotations

import pytest

from repro.analysis.experiments import build_controller
from repro.core import BaryonController
from repro.sim import SystemSimulator
from repro.validation import ContentBackedController
from repro.workloads import build_workload, scaled_system
from tests.test_golden import counter_groups

SCALE = 512
N_ACCESSES = 4000
SEED = 1
WORKLOADS = ("YCSB-A", "519.lbm_r", "pr.twitter")
DESIGNS = ("baryon", "baryon-64b", "baryon-fa", "hybrid2")


class _HelperInserts:
    """Mixin: every stage insert goes through the helpers."""

    def _stage_insert(self, *args):
        return super()._stage_insert(*args)


def _run(workload: str, design: str, helpers: bool):
    config, sim_config = scaled_system(SCALE)
    controller = build_controller(design, config, seed=SEED)
    if helpers:
        # Swapped before the first access builds the server closures.
        base = type(controller)
        controller.__class__ = type(f"Helper{base.__name__}", (_HelperInserts, base), {})
    trace = build_workload(
        workload, config.layout.fast_capacity, n_accesses=N_ACCESSES, seed=SEED
    )
    trace.apply_compressibility(controller.oracle)
    result = SystemSimulator(controller, sim_config).run(trace, workload, design)
    return result.to_dict(), counter_groups(controller)


@pytest.mark.parametrize("design", DESIGNS)
@pytest.mark.parametrize("workload", WORKLOADS)
def test_helper_inserts_match_inline_server(workload, design):
    plain_result, plain_counters = _run(workload, design, helpers=False)
    twin_result, twin_counters = _run(workload, design, helpers=True)
    assert twin_result == plain_result
    assert twin_counters == plain_counters
    # The cell exercises the stage-replacement path at all.
    assert plain_counters["controller"].get("block_level_replacements", 0) > 0


def test_content_oracle_takes_the_inline_inserts(monkeypatch):
    """The content oracle runs the inserts production runs: it calls the
    insert helper exactly as often as the plain controller does."""
    calls = []
    helper = BaryonController._stage_insert

    def counting(self, *args):
        calls.append(type(self))
        return helper(self, *args)

    monkeypatch.setattr(BaryonController, "_stage_insert", counting)
    config, sim_config = scaled_system(SCALE)
    for controller in (
        build_controller("baryon", config, seed=SEED),
        ContentBackedController(config, seed=SEED),
    ):
        trace = build_workload(
            "519.lbm_r", config.layout.fast_capacity, n_accesses=N_ACCESSES,
            seed=SEED,
        )
        trace.apply_compressibility(controller.oracle)
        SystemSimulator(controller, sim_config).run(trace, "519.lbm_r", "baryon")
    plain = calls.count(BaryonController)
    assert 0 < plain == calls.count(ContentBackedController)
