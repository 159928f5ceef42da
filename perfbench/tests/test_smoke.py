"""Seconds-long smoke runs of every benchmark workload.

Run from the repository root::

    python -m pytest perfbench/tests -q

Each run shrinks the workloads (few accesses, two repeats, one warm
pass) through ``run``'s module constants and calls ``run.main`` in
process, so the whole file takes about a minute.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

WORKLOADS = list(run.WORKLOADS)


@pytest.fixture
def small(monkeypatch):
    """Shrink every workload so one run takes a few seconds."""
    sweeps = {name: {**plan, "n_accesses": 2000, "trace_seeds": 1}
              for name, plan in run.SWEEPS.items()}
    monkeypatch.setattr(run, "SWEEPS", sweeps)
    monkeypatch.setattr(run, "SERVE_ACCESSES", 2000)
    monkeypatch.setattr(run, "WARM_PASSES", 1)
    monkeypatch.setattr(run, "MIN_REPEATS", 2)
    affinity = os.sched_getaffinity(0)
    yield
    os.sched_setaffinity(0, affinity)


def bench(capsys, workload, trace=0):
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)])
    out = capsys.readouterr().out
    return code, out, json.loads(out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(small, capsys, workload):
    code, out, result = bench(capsys, workload)
    assert code == 0 and result["correct"]
    assert result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == set(run.END_TO_END)
    for name, unit in run.END_TO_END.items():
        assert result["metrics"][name]["unit"] == unit
        assert result["metrics"][name]["value"] > 0
        assert f"{name} = " in out and out.split(f"{name} = ")[1].split("\n")[0].endswith(unit)
    assert "warm_p90_s = " in out
    assert "error_rate = 0.0000 ratio" in out


#: Layers whose spans each traced workload must record.
SWEEP_LAYERS = {"parallel.run_plan", "workloads.generate", "compression.apply",
                "analysis.run_cell", "analysis.build_controller", "sim.run",
                "cache.access", "baselines.access"}
TRACED_LAYERS = {
    "cache-read": SWEEP_LAYERS | {"core.classify", "core.serve", "core.replay",
                                  "core.fallback"},
    "cache-write": SWEEP_LAYERS | {"core.serve", "core.replay", "core.fallback"},
    "flat": SWEEP_LAYERS | {"core.serve", "core.fallback"},
    "serve": (SWEEP_LAYERS - {"baselines.access"})
    | {"serve.run_job", "serve.submit", "serve.poll", "serve.results",
       "core.serve", "core.replay"},
}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_records_every_layer(small, capsys, workload):
    code, out, result = bench(capsys, workload, trace=1)
    assert code == 0 and result["correct"]
    assert set(result["metrics"]) == set(run.PER_LAYER)
    spans_path = out.split("spans: ")[1].split("\n")[0]
    spans = [json.loads(line) for line in Path(spans_path).read_text().splitlines()]
    assert TRACED_LAYERS[workload] <= {span["name"] for span in spans}
    assert all(span["end"] >= span["start"] for span in spans)
    assert all(span["trace_id"] for span in spans if span["name"] == "sim.run")
    metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    assert metrics["cache.llc_fills"] >= metrics["cache.llc_demand_misses"] > 0
    if workload == "cache-read":
        assert metrics["core.deferred_ops"] > 0


def inject_failure(monkeypatch, workload):
    """Add a cell (sweep) or query (serve) that names no design."""
    if workload == "serve":
        points = run.serve_points

        def with_bad_point(seed):
            good = points(seed)
            return good + [("bad", {**good[0][1], "designs": ["no-such-design"]})]

        monkeypatch.setattr(run, "serve_points", with_bad_point)
    else:
        plan = run.SWEEPS[workload]
        monkeypatch.setitem(run.SWEEPS, workload, {
            **plan, "designs": plan["designs"] + ["no-such-design"]})


def inject_mismatch(monkeypatch, workload):
    """Alter one result the program returned, after it left the program."""
    if workload == "serve":
        query, answered = run.query, []

        def tampered(client, spec):
            record = query(client, spec)
            answered.append(spec)
            if len(answered) == 3:
                result = record["result"]
                record = {**record, "result": {**result,
                                               "cycles": result["cycles"] + 1.0}}
            return record

        monkeypatch.setattr(run, "query", tampered)
    else:
        spawn_sweep, reports = run.spawn_sweep, []

        def tampered(*args, **kwargs):
            report = spawn_sweep(*args, **kwargs)
            reports.append(report)
            if len(reports) == 2:
                next(iter(report["cells"].values()))["digest"] = "0" * 64
            return report

        monkeypatch.setattr(run, "spawn_sweep", tampered)


@pytest.mark.parametrize("workload", ["cache-read", "serve"])
def test_injected_failure_raises_error_rate(small, capsys, monkeypatch, workload):
    inject_failure(monkeypatch, workload)
    code, out, result = bench(capsys, workload)
    assert result["failed"] > 0 and result["correct"]
    rate = float(out.split("error_rate = ")[1].split()[0])
    assert rate == pytest.approx(result["failed"] / result["attempted"], abs=1e-4)
    assert rate > 0


@pytest.mark.parametrize("workload", ["cache-read", "serve"])
def test_injected_mismatch_fails_the_run(small, capsys, monkeypatch, workload):
    inject_mismatch(monkeypatch, workload)
    code, _, result = bench(capsys, workload)
    assert code != 0 and not result["correct"]


def test_benchmark_json_matches_the_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == WORKLOADS
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cache-read",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
