"""The repository benchmark: host-time cost of the Baryon reproduction.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cache-read --seed 1 --seconds 20 --trace 0

Workloads (see ``README.md`` in this directory for why each exists):

* ``cache-read``, ``cache-write``, ``flat`` — ``repro.analysis``
  matrix sweeps (``run_matrix_sharded(..., jobs=1)``), each run in a
  fresh interpreter, repeated until ``--seconds`` is used up;
* ``serve`` — a ``python -m repro serve --jobs 1`` process fed the
  10-point capacity-planning mix by one closed-loop ``ServeClient``: one
  cold pass on an empty result cache, then warm repeats. The server is
  restarted (fresh cache) until ``--seconds`` is used up.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` makes one
untraced and one traced run (layer entry points wrapped by
``layers.LayerTracer``) and prints the per-layer metrics. Every run
checks its outputs: result digests agree across all runs of the
invocation (and, for serve, with a local ``run_one``), and every cell
meets the field invariants in ``checks.py``. The last stdout line is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; the exit
code is 0 only when the outputs are correct.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import selectors
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path
from statistics import median

import hostspeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXAMPLES = ROOT / "examples"
WORK = ROOT / ".perfbench"

SCALE = 256
CACHE_DESIGNS = ["simple", "unison", "dice", "baryon-64b", "baryon"]
FLAT_DESIGNS = ["hybrid2", "baryon-fa"]

#: Sweep workloads: the matrix each fresh-interpreter run simulates.
SWEEPS = {
    "cache-read": {"workloads": ["YCSB-B", "pr.twitter"],
                   "designs": CACHE_DESIGNS, "n_accesses": 20_000,
                   "trace_seeds": 2},
    "cache-write": {"workloads": ["YCSB-A", "519.lbm_r"],
                    "designs": CACHE_DESIGNS, "n_accesses": 12_000,
                    "trace_seeds": 2},
    "flat": {"workloads": ["YCSB-B", "519.lbm_r"],
             "designs": FLAT_DESIGNS, "n_accesses": 10_000,
             "trace_seeds": 3},
}
#: Accesses per capacity-planning query, and warm passes per server.
SERVE_ACCESSES = 16_000
WARM_PASSES = 15
#: Fewest sweeps or server lifetimes one run measures.
MIN_REPEATS = 3

END_TO_END = {
    "setup_s": "s",
    "accesses_per_s": "accesses/s",
    "cold_p50_s": "s",
    "warm_p50_s": "s",
    "peak_rss_mb": "MB",
}
#: Printed with the end-to-end metrics but not gated: its run-to-run
#: spread on a shared 2-vCPU guest (up to a third of its median on the
#: serve workload) exceeds any usable bound.
INFORMATIONAL = {"warm_p90_s": "s"}

IMPORT_PACKAGES = ("repro", "cli", "analysis", "baselines", "cache", "common",
                   "compression", "core", "devices", "metadata", "obs",
                   "parallel", "resilience", "serve", "sim", "workloads",
                   "numpy")
DECLINE_REASONS = ("z_break", "write_overflow", "staging_fetch", "no_stage",
                   "invariant", "block_fill")

PER_LAYER = {
    **{f"setup.import_s.{pkg}": "s" for pkg in IMPORT_PACKAGES},
    "workloads.generate_s": "s",
    "compression.apply_s": "s",
    "analysis.build_controller_s": "s",
    "analysis.cell_self_s": "s",
    "cache.access_s": "s",
    "cache.calls": "count",
    "cache.l1_hits": "count",
    "cache.l2_hits": "count",
    "cache.llc_hits": "count",
    "cache.llc_demand_misses": "count",
    "cache.llc_fills": "count",
    "cache.writebacks": "count",
    "core.classify_s": "s",
    "core.serve_s": "s",
    "core.replay_s": "s",
    "core.deferred_ops": "count",
    "core.deferred_share": "ratio",
    "core.fallback_s": "s",
    "core.fallback_calls": "count",
    **{f"core.declines.{reason}": "count" for reason in DECLINE_REASONS},
    "core.commits": "count",
    "core.evictions": "count",
    "core.fast_evictions": "count",
    "baselines.access_s": "s",
    "baselines.calls": "count",
    "sim.run_s": "s",
    "sim.self_s": "s",
    "parallel.run_plan_s": "s",
    "parallel.overhead_s": "s",
    "serve.run_job_s": "s",
    "serve.submit_s": "s",
    "serve.polls_per_query": "count",
    "serve.results_s": "s",
    "serve.cache_hits": "count",
    "serve.cache_misses": "count",
    "metadata.remap_cache_hit_ratio": "ratio",
    "metadata.stage_hit_ratio": "ratio",
    "devices.fast_bytes": "bytes",
    "devices.slow_bytes": "bytes",
    "devices.row_hit_ratio": "ratio",
    "host.calibration_s": "s",
    "trace.accesses_per_s": "accesses/s",
    "trace.untraced_accesses_per_s": "accesses/s",
}

#: Share of a traced sweep's wall time that may fall outside ``run_plan``.
COVERAGE_SLACK = 0.03
#: Least share of a traced server's summed query latency that its
#: ``run_job`` calls must cover.
SERVE_JOB_SHARE = 0.5

MODEL_NOTE = ("per-cell model outputs: simulated by this repository's model, "
              "not validated against hardware measurements")


class BenchError(RuntimeError):
    """A step of the benchmark could not run at all (no result is printed)."""


# -- statistics ----------------------------------------------------------------

def p90(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10)[-1]


# -- child processes -----------------------------------------------------------

#: The two vCPUs of a shared guest speed up and slow down independently,
#: so calibration only tracks the CPU it runs on: the measured program
#: (sweep child, server) runs on WORK_CPU and is calibrated there; this
#: process and its client run on CLIENT_CPU.
CPUS = sorted(os.sched_getaffinity(0))
WORK_CPU, CLIENT_CPU = CPUS[0], CPUS[-1]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(cmd, **kwargs) -> subprocess.Popen:
    """Start ``cmd`` from the repository root, placed on WORK_CPU."""
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), text=True, **kwargs)
    os.sched_setaffinity(proc.pid, {WORK_CPU})
    return proc


def calibrate_on(cpu: int) -> float:
    """One calibration reading taken on ``cpu``."""
    os.sched_setaffinity(0, {cpu})
    try:
        return hostspeed.calibrate()
    finally:
        os.sched_setaffinity(0, {CLIENT_CPU})


def spawn_sweep(name: str, seed: int, *, trace: bool = False,
                spans_path: str = "") -> dict:
    """One sweep in a fresh interpreter; returns its JSON report."""
    spec = {**SWEEPS[name], "scale": SCALE, "seed": seed, "trace": trace,
            "spans_path": spans_path, "spawned": time.monotonic()}
    proc = spawn([sys.executable, str(HERE / "sweep.py"), json.dumps(spec)],
                 stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        stdout, stderr = proc.communicate(timeout=170)
    except subprocess.TimeoutExpired as err:
        proc.kill()
        proc.communicate()
        raise BenchError(f"{name} sweep timed out") from err
    if proc.returncode != 0:
        raise BenchError(f"{name} sweep exited {proc.returncode}:\n"
                         f"{stderr[-2000:]}")
    return json.loads(stdout.strip().splitlines()[-1])


def import_times() -> dict:
    """Self import time per ``repro`` package and numpy (``-X importtime``)."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c",
         "import repro.__main__, repro.serve"],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise BenchError(f"import timing failed:\n{proc.stderr[-2000:]}")
    totals = defaultdict(float)
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        self_us, _, module = line[len("import time:"):].split("|")
        parts = module.strip().split(".")
        if parts[0] == "numpy":
            key = "numpy"
        elif parts[0] == "repro":
            key = "repro" if len(parts) == 1 else parts[1]
            key = "cli" if key == "__main__" else key
        else:
            continue
        totals[key] += int(self_us) / 1e6
    return {f"setup.import_s.{pkg}": totals[pkg] for pkg in IMPORT_PACKAGES}


# -- sweeps --------------------------------------------------------------------

def sweep_problems(reports) -> list:
    """Invariant breaks and digest disagreements across ``reports``."""
    from checks import compare_digests

    problems = []
    reference = {cell: c["digest"] for cell, c in reports[0]["cells"].items()}
    for index, report in enumerate(reports):
        for cell, outputs in report["cells"].items():
            problems += [f"{cell}: {p}" for p in outputs["problems"]]
        problems += compare_digests(
            reference, {cell: c["digest"] for cell, c in report["cells"].items()},
            f"run {index} vs run 0")
    return problems


def sweep_metrics(reports):
    """End-to-end metrics of a set of sweeps. Every sweep runs the same
    cells, so each cell's latency is first reduced to its median over
    the sweeps; the quantiles are then taken across cells."""
    latencies = defaultdict(list)
    for report in reports:
        for cell, outputs in report["cells"].items():
            latencies[cell, outputs["cold"]].append(outputs["latency_s"])
    cold = [median(v) for (_, is_cold), v in latencies.items() if is_cold]
    warm = [median(v) for (_, is_cold), v in latencies.items() if not is_cold]
    metrics = {
        "setup_s": median([r["setup_s"] for r in reports]),
        "accesses_per_s": (sum(r["accesses"] for r in reports)
                           / sum(r["sweep_s"] for r in reports)),
        "cold_p50_s": median(cold),
        "warm_p50_s": median(warm),
        "warm_p90_s": p90(warm),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in reports]),
    }
    samples = {"sweeps": len(reports), "cold_cells": len(cold),
               "warm_cells": len(warm)}
    return metrics, samples


def measure_sweeps(name: str, args):
    reports = []
    start = time.monotonic()
    while True:
        reports.append(spawn_sweep(name, args.seed))
        elapsed = time.monotonic() - start
        per_run = elapsed / len(reports)
        if len(reports) >= MIN_REPEATS and elapsed + per_run > args.seconds:
            break
    metrics, samples = sweep_metrics(reports)
    return {
        "metrics": metrics, "samples": samples,
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "problems": sweep_problems(reports),
        "cells": reports[0]["cells"],
    }


def trace_sweep(name: str, args):
    spans_path = WORK / f"spans-{name}-seed{args.seed}.jsonl"
    spans_path.unlink(missing_ok=True)
    untraced = spawn_sweep(name, args.seed)
    traced = spawn_sweep(name, args.seed, trace=True, spans_path=str(spans_path))
    problems = sweep_problems([untraced, traced])
    layers = traced["layers"]
    problems += coverage_problems(layers, "parallel.run_plan",
                                  low_s=(1 - COVERAGE_SLACK) * traced["wall_s"],
                                  high_s=traced["wall_s"])
    if name == "cache-read":
        for cell in traced["cells"]:
            design = cell.split("/")[1]
            if design in ("baryon", "simple") and not layers[
                    "deferred_by_trace"].get(cell):
                problems.append(f"{cell}: core.deferred_ops == 0 "
                                "(the deferred seam was bypassed)")
    metrics = layer_metrics(layers, traced["cells"].values())
    metrics["host.calibration_s"] = median(traced["calibration_s"])
    metrics["trace.accesses_per_s"] = traced["accesses"] / traced["sweep_s"]
    metrics["trace.untraced_accesses_per_s"] = (
        untraced["accesses"] / untraced["sweep_s"])
    return {
        "metrics": metrics, "samples": {"sweeps": 2},
        "attempted": untraced["attempted"] + traced["attempted"],
        "failed": untraced["failed"] + traced["failed"],
        "problems": problems, "cells": traced["cells"],
        "spans": str(spans_path),
    }


# -- layer metrics ---------------------------------------------------------------

def coverage_problems(layers, outer: str, low_s: float, high_s: float) -> list:
    """The outermost wrapped call must cover the measured time.

    Self times are a call's duration minus its wrapped children's, so the
    layers inside ``outer`` sum to ``outer``'s total by construction (the
    remainder of ``sim.run`` is ``sim.self_s``). What can go wrong is
    time spent outside ``outer`` (lower bound) or ``outer`` timed twice
    (upper bound), so ``outer``'s total must lie in ``[low_s, high_s]``.
    """
    outer_total = layers["total_s"].get(outer, 0.0)
    if low_s <= outer_total <= high_s:
        return []
    return [f"{outer} covers {outer_total:.4f}s, expected "
            f"{low_s:.4f}s to {high_s:.4f}s"]


def layer_metrics(layers, cells, client=None, http=None) -> dict:
    """Every per-layer metric from a tracer snapshot (0 where the
    workload never calls the layer)."""
    self_s, total_s = layers["self_s"], layers["total_s"]
    calls, counts = layers["calls"], layers["counts"]
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    metrics.update(import_times())
    metrics.update({
        "workloads.generate_s": self_s.get("workloads.generate", 0.0),
        "compression.apply_s": self_s.get("compression.apply", 0.0),
        "analysis.build_controller_s": self_s.get("analysis.build_controller", 0.0),
        "analysis.cell_self_s": self_s.get("analysis.run_cell", 0.0),
        "cache.access_s": self_s.get("cache.access", 0.0),
        "cache.calls": calls.get("cache.access", 0),
        "core.classify_s": self_s.get("core.classify", 0.0),
        "core.serve_s": self_s.get("core.serve", 0.0),
        "core.replay_s": self_s.get("core.replay", 0.0),
        "core.fallback_s": self_s.get("core.fallback", 0.0),
        "core.fallback_calls": calls.get("core.fallback", 0),
        "baselines.access_s": self_s.get("baselines.access", 0.0),
        "baselines.calls": calls.get("baselines.access", 0),
        "sim.run_s": total_s.get("sim.run", 0.0),
        "sim.self_s": self_s.get("sim.run", 0.0),
        "parallel.run_plan_s": total_s.get("parallel.run_plan", 0.0),
        "parallel.overhead_s": self_s.get("parallel.run_plan", 0.0),
        "serve.run_job_s": self_s.get("serve.run_job", 0.0),
    })
    for key in ("cache.l1_hits", "cache.l2_hits", "cache.llc_hits",
                "cache.llc_demand_misses", "cache.llc_fills",
                "cache.writebacks", "core.deferred_ops", "core.commits",
                "core.evictions", "core.fast_evictions", "devices.fast_bytes", "devices.slow_bytes"):
        metrics[key] = counts.get(key, 0)
    for reason in DECLINE_REASONS:
        metrics[f"core.declines.{reason}"] = counts.get(f"core.declines.{reason}", 0)
    metrics["core.deferred_share"] = ratio(
        counts.get("core.deferred_ops", 0), counts.get("core.seam_requests", 0))
    metrics["metadata.remap_cache_hit_ratio"] = ratio(
        counts.get("metadata.remap_hits", 0),
        counts.get("metadata.remap_hits", 0) + counts.get("metadata.remap_misses", 0))
    stage_hits = sum(c["case_counts"].get("stage_hit", 0) for c in cells)
    stage_misses = sum(c["case_counts"].get("stage_miss", 0) for c in cells)
    metrics["metadata.stage_hit_ratio"] = ratio(stage_hits, stage_hits + stage_misses)
    metrics["devices.row_hit_ratio"] = ratio(
        counts.get("devices.row_hits", 0),
        counts.get("devices.row_hits", 0) + counts.get("devices.row_misses", 0))
    if client is not None:
        queries = max(1, client["calls"].get("serve.submit", 0))
        metrics["serve.submit_s"] = client["self_s"].get("serve.submit", 0.0)
        metrics["serve.results_s"] = client["self_s"].get("serve.results", 0.0)
        metrics["serve.polls_per_query"] = client["calls"].get("serve.poll", 0) / queries
    if http is not None:
        metrics["serve.cache_hits"] = http.get("hit", 0)
        metrics["serve.cache_misses"] = http.get("miss", 0)
    return metrics


def ratio(part, whole) -> float:
    return part / whole if whole else 0.0


# -- serve -----------------------------------------------------------------------

def serve_points(seed: int):
    """The mix of ``examples/capacity_planning.py`` (YCSB-B on baryon: five
    DRAM sizes, five stage-area sizes) as ``(label, job spec)`` pairs."""
    from capacity_planning import sweep_points

    return [(f"{sweep}-{label}", {**spec, "seed": seed})
            for sweep, label, spec in sweep_points(SERVE_ACCESSES)]


class Server:
    """One job-server process on a free port with its own work directory."""

    def __init__(self, workdir: Path, snapshot: str = "") -> None:
        self.workdir = workdir
        workdir.mkdir(parents=True)
        serve_args = ["--port", "0", "--jobs", "1", "--workdir", str(workdir)]
        if snapshot:
            cmd = [sys.executable, str(HERE / "serve_host.py"), snapshot]
        else:
            cmd = [sys.executable, "-m", "repro", "serve"]
        self.log = open(workdir / "server.log", "w", encoding="utf-8")
        self.spawned = time.monotonic()
        self.proc = spawn(cmd + serve_args, stdout=subprocess.PIPE,
                          stderr=self.log)
        try:
            self.url = self._ready_url(deadline=self.spawned + 60)
            self.client = self._healthy(deadline=self.spawned + 60)
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.monotonic() - self.spawned

    def _ready_url(self, deadline: float) -> str:
        with selectors.DefaultSelector() as sel:
            sel.register(self.proc.stdout, selectors.EVENT_READ)
            while time.monotonic() < deadline:
                if sel.select(timeout=max(0.0, deadline - time.monotonic())):
                    line = self.proc.stdout.readline()
                    if not line:
                        break
                    match = re.search(r"serving on (http://\S+)", line)
                    if match:
                        return match.group(1)
        raise BenchError(f"server did not start: {self.tail()}")

    def _healthy(self, deadline: float):
        from repro.serve.client import ServeClient, ServeError

        client = ServeClient(self.url, timeout_s=60)
        while time.monotonic() < deadline:
            try:
                if client.healthz().get("ok"):
                    return client
            except ServeError:
                pass
            time.sleep(0.002)
        raise BenchError(f"server never became healthy: {self.tail()}")

    def tail(self) -> str:
        self.log.flush()
        return (self.workdir / "server.log").read_text()[-2000:]

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        return int(re.search(r"VmHWM:\s+(\d+)", status).group(1)) / 1024

    def cache_counts(self) -> dict:
        text = self.client.metrics()
        return {kind: int(float(value)) for kind, value in re.findall(
            r'repro_serve_cache_total\{[^}]*"(hit|miss)"\}\s+(\S+)', text)}

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.log.close()


def query(client, spec) -> dict:
    """Submit one job, wait for it and return its result record: the
    steps of ``ServeClient.run``, polling every 1-2 ms so the latency
    resolves the server's time rather than the default poll back-off."""
    from repro.serve.client import ServeError

    job_id = client.submit(spec)
    status = client.wait(job_id, timeout_s=150, poll_s=0.001, max_poll_s=0.002)
    if status["state"] != "done":
        raise ServeError(f"job {job_id} ended {status['state']}")
    return client.results(job_id)[0]


def serve_lifetime(args, index: int, warm_passes: int, snapshot: str = ""):
    """Start a server, run one cold pass and ``warm_passes`` warm passes,
    stop it. Returns the latencies, results and server figures.

    Both CPUs are calibrated after the server answers, after each
    cold-pass query and after each warm pass. A query's client CPU time
    is scaled by CLIENT_CPU's readings around it and the rest of its
    latency (the server's work) by WORK_CPU's (:func:`hostspeed.scaled`).
    """
    from repro.serve.client import ServeError

    workdir = WORK / f"serve-{os.getpid()}-{index}"
    shutil.rmtree(workdir, ignore_errors=True)
    server = Server(workdir, snapshot)
    work_cal, client_cal = [], []
    out = {"cold": [], "warm": [], "results": {}, "attempted": 0,
           "failed": 0, "problems": [], "calibration_s": work_cal,
           "raw_s": 0.0}
    measured = [("setup_s", server.setup_s, 0.0, 0)]
    pending = []

    def calibrate():
        work_cal.append(calibrate_on(WORK_CPU))
        client_cal.append(calibrate_on(CLIENT_CPU))
        measured.extend((*entry, len(work_cal) - 2) for entry in pending)
        pending.clear()

    calibrate()
    try:
        points = serve_points(args.seed)
        for pass_index in range(1 + warm_passes):
            warm = pass_index > 0
            for label, spec in points:
                out["attempted"] += 1
                start, start_cpu = time.monotonic(), time.process_time()
                try:
                    record = query(server.client, spec)
                except ServeError:
                    out["failed"] += 1
                    continue
                latency = time.monotonic() - start
                client_cpu = time.process_time() - start_cpu
                out["raw_s"] += latency
                if warm and not record["cached"]:
                    out["problems"].append(f"{label}: repeat query simulated "
                                           "again instead of hitting the cache")
                result = record["result"]
                # A cold-pass point whose spec repeats an earlier point
                # (stage-256 is dram-16) is a cache hit: it counts warm.
                bucket = "warm" if record["cached"] else "cold"
                pending.append((bucket, latency - client_cpu, client_cpu))
                out["results"].setdefault(label, []).append(result)
                if not warm:
                    calibrate()
            calibrate()
        out["http"] = server.cache_counts()
        out["peak_rss_mb"] = server.peak_rss_mb()
    finally:
        server.stop()
        shutil.rmtree(workdir, ignore_errors=True)
    for bucket, work_s, client_s, at in measured:
        value = (hostspeed.scaled(work_s, work_cal, at)
                 + hostspeed.scaled(client_s, client_cal, at))
        if bucket == "setup_s":
            out["setup_s"] = value
        else:
            out[bucket].append(value)
    return out


def serve_problems(lifetimes, seed: int) -> list:
    """Every served result equals the local run of its spec (the
    example's local mode), bit for bit."""
    from capacity_planning import run_local
    from checks import digest, invariant_problems

    problems = [p for life in lifetimes for p in life["problems"]]
    specs = dict(serve_points(seed))
    local = {}
    for index, life in enumerate(lifetimes):
        for label, results in life["results"].items():
            if label not in local:
                local[label] = digest(run_local(specs[label]))
            for result in results:
                if digest(result) != local[label]:
                    problems.append(f"server {index}: {label} differs from "
                                    "its local run_one")
                problems += [f"{label}: {p}" for p in invariant_problems(result)]
    return problems


def served_cells(lifetime) -> dict:
    from checks import model_outputs

    return {label: {**model_outputs(results[0]),
                    "case_counts": results[0]["case_counts"]}
            for label, results in lifetime["results"].items()}


def serve_figures(lifetimes) -> tuple:
    cold = [x for life in lifetimes for x in life["cold"]]
    warm = [x for life in lifetimes for x in life["warm"]]
    metrics = {
        "setup_s": median([life["setup_s"] for life in lifetimes]),
        "accesses_per_s": len(cold) * SERVE_ACCESSES / sum(cold),
        "cold_p50_s": median(cold),
        "warm_p50_s": median(warm),
        "warm_p90_s": p90(warm),
        "peak_rss_mb": median([life["peak_rss_mb"] for life in lifetimes]),
    }
    samples = {"servers": len(lifetimes), "cold_queries": len(cold),
               "warm_queries": len(warm)}
    return metrics, samples


def measure_serve(args):
    lifetimes = []
    start = time.monotonic()
    while True:
        lifetimes.append(serve_lifetime(args, len(lifetimes), WARM_PASSES))
        elapsed = time.monotonic() - start
        per_life = elapsed / len(lifetimes)
        if len(lifetimes) >= MIN_REPEATS and elapsed + per_life > args.seconds:
            break
    metrics, samples = serve_figures(lifetimes)
    return {
        "metrics": metrics, "samples": samples,
        "attempted": sum(life["attempted"] for life in lifetimes),
        "failed": sum(life["failed"] for life in lifetimes),
        "problems": serve_problems(lifetimes, args.seed),
        "cells": served_cells(lifetimes[0]),
    }


def trace_serve(args):
    from layers import LayerTracer

    untraced = serve_lifetime(args, 0, WARM_PASSES)
    snapshot = WORK / f"serve-layers-seed{args.seed}.json"
    spans_path = WORK / f"spans-serve-seed{args.seed}.jsonl"
    spans_path.unlink(missing_ok=True)
    Path(f"{snapshot}.spans.jsonl").unlink(missing_ok=True)
    client = LayerTracer()
    client.install_client()
    traced = serve_lifetime(args, 1, WARM_PASSES, snapshot=str(snapshot))
    layers = json.loads(snapshot.read_text())
    Path(f"{snapshot}.spans.jsonl").replace(spans_path)
    client.dump(str(spans_path), "client")
    problems = serve_problems([untraced, traced], args.seed)
    # Queries run one after another and each job runs inside its query's
    # submit-to-result window; a cold query's job is most of its latency.
    problems += coverage_problems(layers, "serve.run_job",
                                  low_s=SERVE_JOB_SHARE * traced["raw_s"],
                                  high_s=traced["raw_s"])
    cells = served_cells(traced)
    metrics = layer_metrics(layers, cells.values(),
                            client=client.snapshot(), http=traced["http"])
    metrics["host.calibration_s"] = median(traced["calibration_s"])
    metrics["trace.accesses_per_s"] = serve_figures([traced])[0]["accesses_per_s"]
    metrics["trace.untraced_accesses_per_s"] = (
        serve_figures([untraced])[0]["accesses_per_s"])
    return {
        "metrics": metrics, "samples": {"servers": 2},
        "attempted": untraced["attempted"] + traced["attempted"],
        "failed": untraced["failed"] + traced["failed"],
        "problems": problems, "cells": cells, "spans": str(spans_path),
    }


# -- entry point -----------------------------------------------------------------

WORKLOADS = ("cache-read", "cache-write", "flat", "serve")


def run(args) -> dict:
    if args.workload == "serve":
        return trace_serve(args) if args.trace else measure_serve(args)
    return trace_sweep(args.workload, args) if args.trace else measure_sweeps(
        args.workload, args)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}; run from a "
              "repository checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(EXAMPLES)]
    WORK.mkdir(exist_ok=True)
    os.sched_setaffinity(0, {CLIENT_CPU})
    try:
        outcome = run(args)
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 3

    names = PER_LAYER if args.trace else END_TO_END
    metrics = {name: {"value": outcome["metrics"][name], "unit": unit}
               for name, unit in names.items()}
    attempted, failed = outcome["attempted"], outcome["failed"]
    problems = outcome["problems"]
    for name, entry in metrics.items():
        print(f"{name} = {entry['value']:.6g} {entry['unit']}")
    if not args.trace:
        for name, unit in INFORMATIONAL.items():
            print(f"{name} = {outcome['metrics'][name]:.6g} {unit} "
                  "(informational, not gated)")
    print("samples: " + ", ".join(f"{k}={v}" for k, v in outcome["samples"].items()))
    print(f"error_rate = {ratio(failed, attempted):.4f} ratio "
          f"({failed} failed of {attempted} attempted)")
    print(MODEL_NOTE + ":")
    for cell, outputs in outcome["cells"].items():
        print(f"  {cell:<24} ipc={outputs['ipc']:.4f} "
              f"serve_rate={outputs['serve_rate']:.4f} "
              f"bloat={outputs['bandwidth_bloat']:.4f} "
              f"digest={outputs['digest'][:16]}")
    if "spans" in outcome:
        print(f"spans: {outcome['spans']}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "metrics": metrics, "samples": outcome["samples"],
        "error_rate": ratio(failed, attempted), "problems": problems,
        "model_outputs_note": MODEL_NOTE, "cells": outcome["cells"],
    }
    report_path = WORK / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=2, sort_keys=True))
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if not problems else 1


if __name__ == "__main__":
    raise SystemExit(main())
