"""Build controllers by name and run (workload x design) matrices."""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, Optional, Tuple

from repro.baselines import DiceCache, Hybrid2, SimpleCache, UnisonCache
from repro.common.config import BaryonConfig, SimulationConfig
from repro.common.errors import (
    CellExecutionError,
    ConfigurationError,
    PoisonCellError,
)
from repro.core import BaryonController
from repro.core.tracking import StagePhaseTracker
from repro.obs import attach_observability
from repro.sim import SimResult, SystemSimulator
from repro.workloads import build_workload

#: Cache-mode designs of Fig. 9 plus the flat-mode pair of Fig. 10.
DESIGNS = (
    "simple",
    "unison",
    "dice",
    "baryon-64b",
    "baryon",
    "hybrid2",
    "baryon-fa",
)


#: Designs that run :func:`flat_variant` of the configuration they get.
FLAT_DESIGNS = ("hybrid2", "baryon-fa")


def flat_variant(config: BaryonConfig) -> BaryonConfig:
    """The Fig. 10 flat organization, shared by Hybrid2 and Baryon-FA.

    Both designs statically provision a cache section next to the
    OS-visible flat space (Hybrid2 by construction — "Hybrid2 provisioned
    a fixed cache capacity" — and Baryon supports the same static
    combination), so commits land in cache ways and OS-resident blocks are
    displaced only by explicit migrations.
    """
    layout = dataclasses.replace(
        config.layout, flat_fraction=0.75, fully_associative=True
    )
    return dataclasses.replace(config, layout=layout)


def build_controller(
    design: str,
    config: BaryonConfig,
    seed: int = 1,
    tracker: Optional[StagePhaseTracker] = None,
):
    """Instantiate a controller by its Fig. 9/10 name.

    ``config`` is the cache-mode configuration; flat designs derive their
    fully-associative flat variant from it automatically.
    """
    if design == "simple":
        return SimpleCache(config)
    if design == "unison":
        return UnisonCache(config)
    if design == "dice":
        return DiceCache(config, seed=seed)
    if design == "baryon":
        return BaryonController(config, seed=seed, tracker=tracker)
    if design == "baryon-64b":
        return BaryonController(
            config.with_sub_block_size(64), seed=seed, tracker=tracker
        )
    if design == "hybrid2":
        return Hybrid2(flat_variant(config), seed=seed)
    if design == "baryon-fa":
        return BaryonController(flat_variant(config), seed=seed, tracker=tracker)
    raise ConfigurationError(f"unknown design {design!r}; choose from {DESIGNS}")


def run_cell(
    workload: str,
    design: str,
    config: BaryonConfig,
    sim_config: SimulationConfig,
    n_accesses: int = 50_000,
    seed: int = 1,
    tracker: Optional[StagePhaseTracker] = None,
    tracer=None,
    metrics=None,
    trace=None,
    spans=None,
    progress=None,
    progress_every: int = 2048,
):
    """Run one (workload, design) cell; return ``(result, controller)``.

    The controller is returned alongside the result so harnesses (the
    parallel matrix runner, metrics collection) can snapshot its counter
    state; plain callers use :func:`run_one`.

    ``trace`` injects a pre-generated stream (typically a
    :meth:`~repro.workloads.base.Trace.replay_view` shared across the
    designs of one workload); when absent the trace is generated from
    ``(workload, seed)`` exactly as before, so injected and generated
    streams are bit-identical for the same seed.

    ``spans``/``progress``/``progress_every`` feed the sweep-telemetry
    layer (see :mod:`repro.obs.spans` and :mod:`repro.obs.progress`):
    the simulator records ``sim.*`` phase spans into ``spans`` and calls
    ``progress(done, total)`` every ``progress_every`` accesses.
    """
    if trace is None:
        trace = build_workload(
            workload, config.layout.fast_capacity, n_accesses=n_accesses, seed=seed
        )
    controller = build_controller(design, config, seed=seed, tracker=tracker)
    if tracer is not None or metrics is not None:
        attach_observability(controller, tracer, metrics)
    if hasattr(controller, "oracle"):
        trace.apply_compressibility(controller.oracle)
    simulator = SystemSimulator(
        controller, sim_config, metrics=metrics, spans=spans,
        progress=progress, progress_every=progress_every,
    )
    result = simulator.run(trace, name=workload, design=design)
    if metrics is not None:
        from repro.obs import collect_run_metrics

        collect_run_metrics(metrics, controller, result=result)
    return result, controller


def run_one(
    workload: str,
    design: str,
    config: BaryonConfig,
    sim_config: SimulationConfig,
    n_accesses: int = 50_000,
    seed: int = 1,
    tracker: Optional[StagePhaseTracker] = None,
    tracer=None,
    metrics=None,
    trace=None,
    spans=None,
    progress=None,
) -> SimResult:
    """Run one (workload, design) cell and return its result.

    ``tracer``/``metrics``/``spans``/``progress`` attach the
    observability layer (see :mod:`repro.obs`) to the controller and
    simulator; all default to off and cost nothing when absent.
    """
    result, _ = run_cell(
        workload, design, config, sim_config, n_accesses, seed,
        tracker=tracker, tracer=tracer, metrics=metrics, trace=trace,
        spans=spans, progress=progress,
    )
    return result


def run_matrix(
    workloads: Iterable[str],
    designs: Iterable[str],
    config: BaryonConfig,
    sim_config: SimulationConfig,
    n_accesses: int = 50_000,
    seed: int = 1,
    jobs: int = 1,
    seeds: Optional[Iterable[int]] = None,
    max_attempts: int = 2,
    cell_timeout_s: Optional[float] = None,
    checkpoint: Optional[str] = None,
    resume: Optional[str] = None,
    telemetry=None,
    manifest: Optional[str] = None,
    **runner_kwargs,
) -> Dict[Tuple, SimResult]:
    """Run the full (workload × design × seed) cross product.

    Every design of a workload replays the *same* generated stream: the
    trace is built once per (workload, seed) and each cell receives an
    immutable replay view, which is both the identical-stream guarantee
    and the reason a sweep no longer pays trace generation per cell.

    ``jobs > 1`` shards the cells across a process pool (see
    :mod:`repro.parallel`); results are bit-identical to the serial run
    because each cell derives all randomness from its own deterministic
    seed. With ``seeds`` given, the matrix is keyed
    ``(workload, design, seed)``; otherwise the single ``seed`` is used
    and keys stay ``(workload, design)`` as before.

    Crashed or raising cells are retried up to ``max_attempts`` times
    each (see :func:`repro.parallel.run_plan`); a cell still failing
    after that raises :class:`~repro.common.errors.CellExecutionError`
    — callers wanting partial results use :func:`run_matrix_sharded`.
    ``checkpoint``/``resume`` name a checkpoint file so an interrupted
    sweep continues where it died. Extra keyword arguments (``chaos``,
    ``progress_timeout_s``, ``quarantine_after``, ``retry_budget``,
    ``backoff_base_s``, ``handle_signals``, ``interrupt_grace_s``) pass
    straight through to :func:`repro.parallel.run_plan`; a quarantined
    cell raises :class:`~repro.common.errors.PoisonCellError` here —
    callers wanting the degraded partial outcome use
    :func:`run_matrix_sharded`.
    """
    from repro.parallel import plan_cells, run_plan
    from repro.parallel.runner import DEFAULT_CELL_TIMEOUT_S

    plan = plan_cells(workloads, designs, seed=seed, seeds=seeds)
    outcome = run_plan(
        plan, config, sim_config, n_accesses=n_accesses, jobs=jobs,
        max_attempts=max_attempts,
        cell_timeout_s=(
            DEFAULT_CELL_TIMEOUT_S if cell_timeout_s is None else cell_timeout_s
        ),
        checkpoint=checkpoint, resume=resume,
        telemetry=telemetry, manifest=manifest,
        **runner_kwargs,
    )
    if outcome.quarantined:
        cell_key, record = next(iter(outcome.quarantined.items()))
        raise PoisonCellError(
            f"{len(outcome.quarantined)} matrix cell(s) quarantined; "
            f"first: {cell_key} ({record['message']})",
            cell=cell_key,
            attempts=record.get("attempts", max_attempts),
            reasons=record.get("reasons"),
            partial=record.get("partial"),
        )
    if outcome.failed:
        cell_key, error = next(iter(outcome.failed.items()))
        raise CellExecutionError(
            f"{len(outcome.failed)} matrix cell(s) failed; first: {cell_key} "
            f"({error['type']}: {error['message']})",
            cell=cell_key,
            attempts=error.get("attempt", max_attempts),
            traceback_text=error.get("traceback"),
        )
    return outcome.results


def run_matrix_sharded(
    workloads: Iterable[str],
    designs: Iterable[str],
    config: BaryonConfig,
    sim_config: SimulationConfig,
    n_accesses: int = 50_000,
    seed: int = 1,
    jobs: int = 1,
    seeds: Optional[Iterable[int]] = None,
    max_attempts: int = 2,
    cell_timeout_s: Optional[float] = None,
    checkpoint: Optional[str] = None,
    resume: Optional[str] = None,
    telemetry=None,
    manifest: Optional[str] = None,
    **runner_kwargs,
):
    """Like :func:`run_matrix` but returns the full
    :class:`~repro.parallel.MatrixOutcome` — per-cell results plus
    counter shards merged through the ``CounterGroup.merge`` /
    ``RatioStat.merge`` APIs and runner telemetry. Unlike
    :func:`run_matrix` this never raises on failed or quarantined cells:
    they are reported in ``MatrixOutcome.failed`` /
    ``MatrixOutcome.quarantined`` alongside the partial results.
    """
    from repro.parallel import plan_cells, run_plan
    from repro.parallel.runner import DEFAULT_CELL_TIMEOUT_S

    plan = plan_cells(workloads, designs, seed=seed, seeds=seeds)
    return run_plan(
        plan, config, sim_config, n_accesses=n_accesses, jobs=jobs,
        max_attempts=max_attempts,
        cell_timeout_s=(
            DEFAULT_CELL_TIMEOUT_S if cell_timeout_s is None else cell_timeout_s
        ),
        checkpoint=checkpoint, resume=resume,
        telemetry=telemetry, manifest=manifest,
        **runner_kwargs,
    )
