"""Output checks: result digests and the field invariants every cell meets."""

from __future__ import annotations

from repro.resilience.checkpoint import payload_digest as digest


def model_outputs(result: dict) -> dict:
    """The per-cell model outputs the report records (simulated, not
    validated against hardware)."""
    cycles = result["cycles"]
    accesses = result["memory_accesses"]
    useful = result["useful_bytes"]
    return {
        "ipc": result["instructions"] / cycles if cycles else 0.0,
        "serve_rate": result["served_fast"] / accesses if accesses else 0.0,
        "bandwidth_bloat": result["fast_traffic_bytes"] / useful if useful else 0.0,
        "digest": digest(result),
    }


def invariant_problems(result: dict) -> list:
    """Names of the invariants ``result`` breaks (empty when sound)."""
    accesses = result["memory_accesses"]
    energy = result.get("energy") or {}
    rules = {
        "cycles > 0": result["cycles"] > 0,
        "instructions > 0": result["instructions"] > 0,
        "memory_accesses > 0": accesses > 0,
        "served_fast <= memory_accesses": 0 <= result["served_fast"] <= accesses,
        "case counts sum to memory_accesses":
            sum(result["case_counts"].values()) == accesses,
        "useful_bytes > 0": result["useful_bytes"] > 0,
        "traffic >= 0": min(result["fast_traffic_bytes"],
                            result["slow_traffic_bytes"]) >= 0,
        "energy > 0": sum(v for v in energy.values()
                          if isinstance(v, (int, float))) > 0,
    }
    return [name for name, ok in rules.items() if not ok]


def compare_digests(reference: dict, other: dict, label: str) -> list:
    """Problems where two ``{cell: digest}`` maps disagree."""
    problems = []
    for cell in sorted(set(reference) | set(other)):
        if reference.get(cell) != other.get(cell):
            problems.append(f"{label}: {cell} digest differs")
    return problems
