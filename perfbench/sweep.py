"""One matrix sweep in a fresh interpreter.

Run by ``run.py`` as ``python perfbench/sweep.py '<spec json>'``; prints
one JSON object on its last stdout line. The spec names the matrix
(``workloads``, ``designs``, ``n_accesses``, ``scale``, and the trace
seeds ``seed + SEED_STRIDE * i`` for ``i < trace_seeds``), the
monotonic time the parent spawned this process (``spawned``) and whether
to trace (``trace``, spans go to ``spans_path``).
"""

import json
import resource
import sys
import time

#: Distance between the trace seeds of one sweep.
SEED_STRIDE = 1000


def main() -> int:
    spec = json.loads(sys.argv[1])
    import repro.analysis.experiments as experiments
    from repro.analysis import run_matrix_sharded
    from repro.workloads import scaled_system

    import checks
    import hostspeed

    tracer = None
    if spec["trace"]:
        from layers import LayerTracer

        tracer = LayerTracer()
        tracer.install()
    config, sim_config = scaled_system(spec["scale"])
    setup = time.monotonic() - spec["spawned"]

    # Cell clock: each cell's latency is the time from the previous
    # result (or the sweep's start) to its own, which covers trace
    # generation for the first cell of each trace ("cold") and replays
    # of the cached trace ("warm"). A host-speed calibration runs after
    # every result; its time is left out of the latencies, and the
    # readings around each cell scale it (hostspeed.scaled).
    calibrate = hostspeed.calibrate
    if tracer is not None:
        calibrate = tracer.wrap("host.calibrate", calibrate)
    seeds = [spec["seed"] + SEED_STRIDE * i for i in range(spec["trace_seeds"])]
    calibrations = [hostspeed.calibrate()]  # before the sweep: untraced
    finished = []
    run_cell = experiments.run_cell

    def clocked_cell(workload, design, *args, **kwargs):
        out = run_cell(workload, design, *args, **kwargs)
        finished.append(((workload, design, kwargs["seed"]), time.monotonic()))
        calibrations.append(calibrate())
        resumed.append(time.monotonic())
        return out

    experiments.run_cell = clocked_cell
    start = time.monotonic()
    resumed = [start]
    outcome = run_matrix_sharded(
        spec["workloads"], spec["designs"], config, sim_config,
        n_accesses=spec["n_accesses"], seeds=seeds, jobs=1,
    )
    end = time.monotonic()

    cells = {}
    traces_seen = set()
    for index, ((workload, design, seed), stamp) in enumerate(finished):
        result = outcome.results[(workload, design, seed)].to_dict()
        latency = stamp - resumed[index]
        cells[f"{workload}/{design}/{seed}"] = {
            **checks.model_outputs(result),
            "problems": checks.invariant_problems(result),
            "latency_s": hostspeed.scaled(latency, calibrations, index),
            "raw_latency_s": latency,
            "cold": (workload, seed) not in traces_seen,
            "case_counts": result["case_counts"],
        }
        traces_seen.add((workload, seed))
    tail = end - resumed[-1]
    sweep = (sum(c["latency_s"] for c in cells.values())
             + hostspeed.scaled(tail, calibrations, len(calibrations) - 1))
    report = {
        "setup_s": hostspeed.scaled(setup, calibrations, 0),
        "sweep_s": sweep,
        "wall_s": end - start,
        "calibration_s": calibrations,
        "accesses": len(outcome.results) * spec["n_accesses"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": len(outcome.results) + len(outcome.failed),
        "failed": len(outcome.failed),
        "cells": cells,
    }
    if tracer is not None:
        report["layers"] = tracer.snapshot()
        tracer.dump(spec["spans_path"], "sweep")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
