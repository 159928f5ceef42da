"""Run manifests: provenance-stamped summaries of a sweep.

A manifest is one JSON document written next to a sweep's checkpoint or
result file answering "which config and code produced this, and what
came out": the plan fingerprint (reusing
:func:`repro.resilience.checkpoint.plan_fingerprint`, so a manifest and
a checkpoint of the same run agree by construction), the git revision,
package versions, a SHA-256 digest over every merged counter, per-cell
result digests, and wall/CPU time.

``python -m repro manifest diff A B`` compares two manifests and
classifies differences: **identity** (fingerprint, counters, results —
two runs of the same sweep must match here bit for bit),
**environment** (git revision, package versions), and **timing**
(wall/CPU, always expected to differ). The diff exits non-zero only on
identity differences.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import platform
import subprocess
from time import time as _wall
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

from repro.common.errors import ConfigurationError
from repro.common.fsio import durable_replace
from repro.common.stats import CounterGroup

MANIFEST_MAGIC = "repro-run-manifest"
MANIFEST_VERSION = 1

#: Manifest keys whose divergence means the runs are *different runs*
#: (as opposed to the same run re-executed elsewhere or at another time).
IDENTITY_KEYS = ("fingerprint", "counter_digest", "results")
ENVIRONMENT_KEYS = ("git_revision", "packages", "hostname")
TIMING_KEYS = ("wall_s", "cpu_s", "created_unix")


def git_revision(cwd: Optional[str] = None) -> Optional[str]:
    """The current ``git rev-parse HEAD``, or ``None`` outside a repo.

    Computed once per process for each resolved working directory: every
    checkpointed ``run_plan`` (so every serve job) builds a manifest, and
    spawning git for each cost most of a warm serve job.
    """
    try:
        directory = os.path.realpath(cwd if cwd is not None else os.getcwd())
    except OSError:
        return None
    return _git_revision_at(directory)


@functools.lru_cache(maxsize=None)
def _git_revision_at(directory: str) -> Optional[str]:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=directory, capture_output=True, text=True, timeout=5.0,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    revision = proc.stdout.strip()
    return revision if proc.returncode == 0 and revision else None


def package_versions() -> Dict[str, str]:
    """Versions of the interpreter and the packages results depend on."""
    versions = {"python": platform.python_version()}
    try:
        import numpy

        versions["numpy"] = numpy.__version__
    except ImportError:  # pragma: no cover - numpy is a hard dep in CI
        pass
    return versions


def counter_digest(groups: Mapping[str, CounterGroup]) -> str:
    """SHA-256 over every (group, counter, value) triple, order-free.

    The digest is computed over sorted lines, so two registries holding
    the same totals hash identically regardless of fold order.
    """
    digest = hashlib.sha256()
    for group_name in sorted(groups):
        for key, value in sorted(groups[group_name].as_dict().items()):
            digest.update(f"{group_name}.{key}={value}\n".encode("utf-8"))
    return digest.hexdigest()


def _result_digest(result_dict: Mapping[str, Any]) -> str:
    blob = json.dumps(result_dict, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _cpu_seconds() -> Optional[float]:
    """Self + children CPU seconds (workers included on fork platforms)."""
    try:
        import resource

        own = resource.getrusage(resource.RUSAGE_SELF)
        kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    except (ImportError, OSError):  # pragma: no cover - non-POSIX
        return None
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def build_manifest(
    fingerprint: str,
    outcome,
    plan: Sequence,
    cpu_s: Optional[float] = None,
) -> Dict[str, Any]:
    """Assemble the manifest for one finished matrix run.

    ``outcome`` is the :class:`~repro.parallel.MatrixOutcome`;
    ``fingerprint`` the plan fingerprint the checkpoint layer computed
    (shared, not recomputed, so the two artifacts cannot drift).
    """
    counters = {
        "controller": outcome.counters,
        "devices": outcome.device_counters,
        "compression": outcome.compression_counters,
        "resilience": outcome.resilience_counters,
    }
    results = {
        "/".join(str(part) for part in key): {
            "digest": _result_digest(result.to_dict()),
            "ipc": result.ipc,
            "serve_rate": result.serve_rate,
            "bandwidth_bloat": result.bandwidth_bloat,
        }
        for key, result in sorted(outcome.results.items())
    }
    return {
        "magic": MANIFEST_MAGIC,
        "version": MANIFEST_VERSION,
        "fingerprint": fingerprint,
        "git_revision": git_revision(),
        "packages": package_versions(),
        "hostname": platform.node(),
        "cells": outcome.cells,
        "jobs": outcome.jobs,
        "failed": sorted(
            "/".join(str(part) for part in key) for key in outcome.failed
        ),
        "quarantined": sorted(
            "/".join(str(part) for part in key)
            for key in getattr(outcome, "quarantined", {})
        ),
        "interrupted": bool(getattr(outcome, "interrupted", False)),
        "retries": outcome.retries,
        "resumed": outcome.resumed,
        "counter_digest": counter_digest(counters),
        "serve": {"hits": outcome.serve.hits, "total": outcome.serve.total},
        "results": results,
        "wall_s": outcome.elapsed_s,
        "cpu_s": _cpu_seconds() if cpu_s is None else cpu_s,
        "created_unix": _wall(),
    }


def result_digests(manifest: Mapping[str, Any], plan: Sequence) -> Dict[int, str]:
    """Per-cell result digests keyed by *plan index* instead of key
    string — the independent witness checkpoint salvage verifies
    against."""
    results = manifest.get("results")
    if not isinstance(results, dict):
        return {}
    digests: Dict[int, str] = {}
    for cell in plan:
        entry = results.get("/".join(str(part) for part in cell.key))
        if isinstance(entry, dict) and isinstance(entry.get("digest"), str):
            digests[cell.index] = entry["digest"]
    return digests


def audit_manifest(manifest: Mapping[str, Any], outcome, plan: Sequence) -> Dict[str, Any]:
    """End-of-run integrity audit: the manifest *on disk* vs a fresh fold.

    Re-computes the counter digest over the outcome's merged groups and
    every per-cell result digest, and compares them to what the manifest
    document records. A clean run trivially passes; a torn manifest
    write, a fold bug, or post-hoc tampering shows up as ``mismatches``.
    """
    counters = {
        "controller": outcome.counters,
        "devices": outcome.device_counters,
        "compression": outcome.compression_counters,
        "resilience": outcome.resilience_counters,
    }
    mismatches: List[str] = []
    checked = 1
    want = manifest.get("counter_digest")
    got = counter_digest(counters)
    if want != got:
        mismatches.append(f"counter_digest: manifest {want!r} != recomputed {got!r}")
    recorded = manifest.get("results")
    recorded = recorded if isinstance(recorded, dict) else {}
    for key, result in sorted(outcome.results.items()):
        checked += 1
        key_str = "/".join(str(part) for part in key)
        entry = recorded.get(key_str)
        if not isinstance(entry, dict):
            mismatches.append(f"results[{key_str}]: missing from manifest")
            continue
        digest = _result_digest(result.to_dict())
        if entry.get("digest") != digest:
            mismatches.append(
                f"results[{key_str}]: manifest {entry.get('digest')!r} "
                f"!= recomputed {digest!r}"
            )
    for key_str in recorded:
        if tuple(key_str.split("/")) not in {
            tuple(str(part) for part in key) for key in outcome.results
        }:
            checked += 1
            mismatches.append(f"results[{key_str}]: not in the merged outcome")
    return {"ok": not mismatches, "checked": checked, "mismatches": mismatches}


def write_manifest(
    path: str,
    manifest: Mapping[str, Any],
    mutate: Optional[Callable[[int, str], None]] = None,
) -> None:
    """Durably write the manifest (fsync + ``os.replace`` + dir fsync).

    ``mutate`` is forwarded to
    :func:`~repro.common.fsio.durable_replace` — the chaos injector's
    hook for simulating ENOSPC or torn writes on manifest emission
    (passed by the runner so this module never imports the resilience
    layer).
    """
    data = (
        json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    ).encode("utf-8")
    durable_replace(path, data, prefix=".manifest-", mutate=mutate)


def load_manifest(path: str) -> Dict[str, Any]:
    """Load and validate a manifest written by :func:`write_manifest`."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
    except OSError as err:
        raise ConfigurationError(f"cannot read manifest {path!r}: {err}") from err
    except json.JSONDecodeError as err:
        raise ConfigurationError(
            f"manifest {path!r} is not valid JSON: {err}"
        ) from err
    if not isinstance(document, dict) or document.get("magic") != MANIFEST_MAGIC:
        raise ConfigurationError(
            f"{path!r} is not a repro run manifest (missing magic)"
        )
    version = document.get("version")
    if version != MANIFEST_VERSION:
        raise ConfigurationError(
            f"manifest {path!r} has version {version!r}, this build reads "
            f"version {MANIFEST_VERSION}"
        )
    return document


def diff_manifests(
    a: Mapping[str, Any], b: Mapping[str, Any]
) -> Dict[str, List[str]]:
    """Classified differences between two manifests.

    Returns ``{"identity": [...], "environment": [...], "timing": [...]}``
    — empty ``identity`` means the two manifests describe the same sweep
    producing the same numbers.
    """
    diff: Dict[str, List[str]] = {"identity": [], "environment": [], "timing": []}

    def _compare(bucket: str, key: str) -> None:
        va, vb = a.get(key), b.get(key)
        if va == vb:
            return
        if key == "results" and isinstance(va, dict) and isinstance(vb, dict):
            for cell in sorted(set(va) | set(vb)):
                ra, rb = va.get(cell), vb.get(cell)
                if ra == rb:
                    continue
                if ra is None or rb is None:
                    diff[bucket].append(
                        f"results[{cell}]: only in {'B' if ra is None else 'A'}"
                    )
                else:
                    fields = ", ".join(
                        f"{f}: {ra.get(f)} != {rb.get(f)}"
                        for f in ("digest", "ipc", "serve_rate", "bandwidth_bloat")
                        if ra.get(f) != rb.get(f)
                    )
                    diff[bucket].append(f"results[{cell}]: {fields}")
            return
        diff[bucket].append(f"{key}: {va!r} != {vb!r}")

    for key in IDENTITY_KEYS + ("cells", "failed", "serve", "quarantined"):
        _compare("identity", key)
    for key in ENVIRONMENT_KEYS:
        _compare("environment", key)
    for key in TIMING_KEYS + ("jobs", "retries", "resumed", "interrupted"):
        _compare("timing", key)
    return diff


def format_diff(diff: Mapping[str, List[str]]) -> str:
    """Human-readable rendering of :func:`diff_manifests` output."""
    lines: List[str] = []
    for bucket in ("identity", "environment", "timing"):
        entries = diff.get(bucket, ())
        if not entries:
            continue
        lines.append(f"{bucket} differences:")
        lines.extend(f"  {entry}" for entry in entries)
    if not lines:
        return "manifests are identical"
    if not diff.get("identity"):
        lines.insert(0, "runs are equivalent (identity fields match)")
    return "\n".join(lines)
