"""Job specs, config materialization, and job execution.

A *job* is one matrix request: workloads × designs (× seeds) at a given
access count against a scaled system configuration plus optional
sub-config overrides. :func:`build_configs` turns the spec into the
exact ``(BaryonConfig, SimulationConfig)`` pair a local run would use —
the capacity-planning example routes its *local* mode through the same
function, which is what makes server results bit-identical to cold
serial runs by construction.

:func:`run_job` is the transport-free execution path the HTTP server
calls from a worker thread: look every cell up in the
:class:`~repro.serve.cache.ResultCache`, write the hits into the job's
checkpoint as a preload, hand the plan to
:func:`~repro.parallel.runner.run_plan` (which resumes past the cached
cells and simulates only the misses on the shared
:class:`~repro.parallel.runner.CellExecutor`), then warm the cache with
the newly simulated cells.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass, field
from time import time as _wall
from typing import Any, Dict, List, Optional, Tuple

from repro.analysis.experiments import DESIGNS
from repro.common.config import BaryonConfig, SimulationConfig
from repro.common.errors import CheckpointCorruptError, ConfigurationError
from repro.obs.progress import ProgressTracker
from repro.parallel.plan import Cell, plan_cells
from repro.parallel.runner import CellExecutor, MatrixOutcome, run_plan
from repro.parallel.telemetry import SweepTelemetry
from repro.resilience.checkpoint import (
    cell_fingerprint,
    load_checkpoint,
    plan_fingerprint,
    salvage_checkpoint,
    write_checkpoint,
)
from repro.serve.cache import ResultCache
from repro.workloads import WORKLOADS, scaled_system

#: BaryonConfig fields that are themselves frozen dataclasses and may be
#: overridden field-by-field from a job spec.
_SUB_CONFIGS = (
    "geometry", "layout", "stage", "remap_cache",
    "compression", "commit", "timings",
)

#: Scalar BaryonConfig fields a spec may override directly.
_SCALAR_FIELDS = (
    "compressed_writeback", "two_level_replacement", "compression_enabled",
    "share_physical_blocks", "fast_replacement",
)

#: Job lifecycle states.
JOB_STATES = (
    "queued", "running", "done", "failed", "interrupted", "cancelled",
)


@dataclass(frozen=True)
class JobSpec:
    """One matrix request, JSON-shaped.

    ``overrides`` maps a :data:`_SUB_CONFIGS` name to a dict of field
    replacements (e.g. ``{"stage": {"size_bytes": 262144}}``) or a
    :data:`_SCALAR_FIELDS` name to its value; ``sim_overrides`` does the
    same for :class:`~repro.common.config.SimulationConfig` fields.
    """

    workloads: Tuple[str, ...]
    designs: Tuple[str, ...]
    n_accesses: int = 20_000
    seed: int = 1
    seeds: Optional[Tuple[int, ...]] = None
    scale: int = 256
    overrides: Tuple[Tuple[str, Any], ...] = ()
    sim_overrides: Tuple[Tuple[str, Any], ...] = ()

    @classmethod
    def from_dict(cls, raw: Dict[str, Any]) -> "JobSpec":
        """Validate and freeze a JSON job body."""
        if not isinstance(raw, dict):
            raise ConfigurationError("job spec must be a JSON object")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(raw) - known)
        if unknown:
            raise ConfigurationError(
                f"unknown job spec field(s): {', '.join(unknown)}"
            )
        workloads = tuple(raw.get("workloads") or ())
        designs = tuple(raw.get("designs") or ())
        if not workloads or not designs:
            raise ConfigurationError(
                "job spec needs non-empty 'workloads' and 'designs'"
            )
        for workload in workloads:
            if workload not in WORKLOADS:
                raise ConfigurationError(
                    f"unknown workload {workload!r}; choose from "
                    f"{', '.join(sorted(WORKLOADS))}"
                )
        for design in designs:
            if design not in DESIGNS:
                raise ConfigurationError(
                    f"unknown design {design!r}; choose from "
                    f"{', '.join(DESIGNS)}"
                )
        n_accesses = int(raw.get("n_accesses", 20_000))
        if n_accesses < 1:
            raise ConfigurationError("n_accesses must be >= 1")
        scale = int(raw.get("scale", 256))
        seeds = raw.get("seeds")
        overrides = _freeze(raw.get("overrides") or {})
        sim_overrides = _freeze(raw.get("sim_overrides") or {})
        return cls(
            workloads=workloads,
            designs=designs,
            n_accesses=n_accesses,
            seed=int(raw.get("seed", 1)),
            seeds=tuple(int(s) for s in seeds) if seeds else None,
            scale=scale,
            overrides=overrides,
            sim_overrides=sim_overrides,
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "workloads": list(self.workloads),
            "designs": list(self.designs),
            "n_accesses": self.n_accesses,
            "seed": self.seed,
            "seeds": list(self.seeds) if self.seeds is not None else None,
            "scale": self.scale,
            "overrides": _thaw(self.overrides),
            "sim_overrides": _thaw(self.sim_overrides),
        }


def _freeze(mapping: Dict[str, Any]) -> Tuple[Tuple[str, Any], ...]:
    """Hashable, deterministic form of a (possibly nested) override map."""
    if not isinstance(mapping, dict):
        raise ConfigurationError("overrides must be a JSON object")
    items: List[Tuple[str, Any]] = []
    for key in sorted(mapping):
        value = mapping[key]
        items.append((key, _freeze(value) if isinstance(value, dict) else value))
    return tuple(items)


def _thaw(frozen: Tuple[Tuple[str, Any], ...]) -> Dict[str, Any]:
    return {
        key: _thaw(value) if isinstance(value, tuple) else value
        for key, value in frozen
    }


def build_configs(spec: JobSpec) -> Tuple[BaryonConfig, SimulationConfig]:
    """Materialize the exact config pair this spec describes.

    Both the server and the capacity-planning example's local mode call
    this, so a given spec always simulates the identical system — the
    precondition for fingerprint-keyed caching.
    """
    config, sim_config = scaled_system(spec.scale)
    for name, value in _thaw(spec.overrides).items():
        if name in _SUB_CONFIGS:
            if not isinstance(value, dict):
                raise ConfigurationError(
                    f"override {name!r} must be an object of field values"
                )
            try:
                sub = dataclasses.replace(getattr(config, name), **value)
            except TypeError as err:
                raise ConfigurationError(
                    f"bad {name!r} override: {err}"
                ) from err
            config = dataclasses.replace(config, **{name: sub})
        elif name in _SCALAR_FIELDS:
            config = dataclasses.replace(config, **{name: value})
        else:
            raise ConfigurationError(
                f"unknown config override {name!r}; sub-configs: "
                f"{', '.join(_SUB_CONFIGS)}; scalars: "
                f"{', '.join(_SCALAR_FIELDS)}"
            )
    sim_updates = _thaw(spec.sim_overrides)
    if sim_updates:
        try:
            sim_config = dataclasses.replace(sim_config, **sim_updates)
        except TypeError as err:
            raise ConfigurationError(f"bad sim override: {err}") from err
    return config, sim_config


@dataclass
class Job:
    """One submitted job and everything its status endpoint reports."""

    id: str
    spec: JobSpec
    workdir: str
    state: str = "queued"
    submitted_ts: float = field(default_factory=_wall)
    started_ts: Optional[float] = None
    finished_ts: Optional[float] = None
    error: Optional[str] = None
    cache_hits: int = 0
    cells: int = 0
    plan: List[Cell] = field(default_factory=list)
    fingerprint: Optional[str] = None
    cell_keys: Dict[int, str] = field(default_factory=dict)
    tracker: Optional[ProgressTracker] = None
    outcome: Optional[MatrixOutcome] = None

    @property
    def checkpoint_path(self) -> str:
        return os.path.join(self.workdir, "job.ckpt")

    def status(self) -> Dict[str, Any]:
        """The JSON body of ``GET /jobs/<id>``."""
        body: Dict[str, Any] = {
            "id": self.id,
            "state": self.state,
            "cells": self.cells,
            "cache_hits": self.cache_hits,
            "submitted_ts": self.submitted_ts,
            "started_ts": self.started_ts,
            "finished_ts": self.finished_ts,
            "error": self.error,
            "spec": self.spec.to_dict(),
        }
        if self.tracker is not None:
            body["progress"] = self.tracker.snapshot()
        if self.outcome is not None:
            body["outcome"] = {
                "results": len(self.outcome.results),
                "failed": len(self.outcome.failed),
                "quarantined": len(self.outcome.quarantined),
                "interrupted": self.outcome.interrupted,
                "resumed": self.outcome.resumed,
                "retries": self.outcome.retries,
                "elapsed_s": self.outcome.elapsed_s,
                "audit_ok": (
                    self.outcome.audit["ok"]
                    if self.outcome.audit is not None else None
                ),
            }
        return body

    def result_records(self) -> List[Dict[str, Any]]:
        """Per-cell result lines available *right now* (JSONL stream).

        Reads the job's own checkpoint, so a running job streams each
        cell the moment it is durably recorded; damaged bytes (only
        possible mid-crash) degrade to the digest-verified subset.
        """
        if self.fingerprint is None or not os.path.exists(self.checkpoint_path):
            return []
        try:
            payloads = load_checkpoint(self.checkpoint_path, self.fingerprint)
        except CheckpointCorruptError:
            try:
                payloads, _ = salvage_checkpoint(
                    self.checkpoint_path, self.fingerprint
                )
            except ConfigurationError:
                return []
        except ConfigurationError:
            return []
        by_index = {cell.index: cell for cell in self.plan}
        records: List[Dict[str, Any]] = []
        for index in sorted(payloads):
            cell = by_index.get(index)
            if cell is None:
                continue
            payload = payloads[index]
            records.append({
                "index": index,
                "workload": cell.workload,
                "design": cell.design,
                "seed": cell.seed,
                "cached": index in self._preloaded,
                "result": payload.get("result", {}),
            })
        return records

    # indices served from the cache (set by run_job before simulation)
    _preloaded: frozenset = frozenset()


def run_job(
    job: Job,
    executor: CellExecutor,
    cache: ResultCache,
    stop_event,
    *,
    max_attempts: int = 2,
    heartbeat_every: int = 1000,
) -> MatrixOutcome:
    """Execute one job on the shared executor, cache-first.

    Every cell is first looked up by its
    :func:`~repro.resilience.checkpoint.cell_fingerprint`; hits are
    rewritten (index-adjusted) into the job's checkpoint, which
    ``run_plan`` then resumes — cached cells are never re-simulated, and
    a drain (``stop_event``) mid-job leaves that same checkpoint
    resumable. Newly simulated cells warm the cache afterwards.
    """
    spec = job.spec
    plan = plan_cells(
        spec.workloads, spec.designs, seed=spec.seed, seeds=spec.seeds,
    )
    config, sim_config = build_configs(spec)
    fingerprint = plan_fingerprint(plan, spec.n_accesses, config, sim_config)
    os.makedirs(job.workdir, exist_ok=True)
    job.plan = plan
    job.cells = len(plan)
    job.fingerprint = fingerprint

    preload: Dict[int, Dict[str, Any]] = {}
    for cell in plan:
        key = cell_fingerprint(
            cell.workload, cell.design, cell.seed,
            spec.n_accesses, config, sim_config,
        )
        job.cell_keys[cell.index] = key
        payload = cache.get(key)
        if payload is not None:
            hit = dict(payload)
            hit["index"] = cell.index
            preload[cell.index] = hit
    job.cache_hits = len(preload)
    job._preloaded = frozenset(preload)
    if preload:
        write_checkpoint(job.checkpoint_path, fingerprint, preload)

    job.tracker = ProgressTracker(total_cells=len(plan))
    telemetry = SweepTelemetry(
        progress=job.tracker, heartbeat_every=heartbeat_every,
    )
    outcome = run_plan(
        plan, config, sim_config, n_accesses=spec.n_accesses,
        max_attempts=max_attempts,
        checkpoint=job.checkpoint_path, resume=job.checkpoint_path,
        telemetry=telemetry,
        executor=executor, stop_event=stop_event,
    )
    job.outcome = outcome

    # Warm the cache with what this job had to simulate itself; a job
    # served wholly from the cache simulated nothing.
    if len(preload) == len(plan):
        return outcome
    try:
        payloads = load_checkpoint(job.checkpoint_path, fingerprint)
    except (CheckpointCorruptError, ConfigurationError):
        payloads = {}
    for index, payload in payloads.items():
        if index not in preload and index in job.cell_keys:
            cache.put(job.cell_keys[index], payload)
    return outcome
