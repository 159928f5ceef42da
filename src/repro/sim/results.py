"""Simulation result container and derived metrics."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Dict

from repro.devices.energy import EnergyReport


@dataclass
class SimResult:
    """Measured outcome of one simulation run (post-warmup window).

    ``bandwidth_bloat`` is Fig. 11's metric: total fast-memory traffic
    (fills, writebacks, migrations, metadata) divided by the useful demand
    traffic delivered to the LLC. ``serve_rate`` is the fraction of
    memory-level accesses answered by the fast memory.
    """

    name: str = ""
    design: str = ""
    instructions: int = 0
    cycles: float = 0.0
    memory_accesses: int = 0
    llc_misses: int = 0
    served_fast: int = 0
    fast_traffic_bytes: int = 0
    slow_traffic_bytes: int = 0
    useful_bytes: int = 0
    case_counts: Dict[str, int] = field(default_factory=dict)
    energy: EnergyReport | None = None
    extra: Dict[str, float] = field(default_factory=dict)

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def serve_rate(self) -> float:
        if not self.memory_accesses:
            return 0.0
        return self.served_fast / self.memory_accesses

    @property
    def bandwidth_bloat(self) -> float:
        if not self.useful_bytes:
            return 0.0
        return self.fast_traffic_bytes / self.useful_bytes

    def speedup_over(self, other: "SimResult") -> float:
        """IPC ratio of this run over ``other`` (same trace assumed)."""
        if other.ipc == 0.0:
            return 0.0
        return self.ipc / other.ipc

    # -- serialization -------------------------------------------------------
    # The parallel matrix runner moves results across process boundaries as
    # plain dicts (JSON-compatible, independent of pickle implementation
    # details), so a result survives any transport a sweep harness uses.

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-compatible snapshot; inverse of :meth:`from_dict`."""
        payload = asdict(self)
        payload["energy"] = asdict(self.energy) if self.energy else None
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "SimResult":
        """Rebuild a result serialized with :meth:`to_dict`."""
        data = dict(payload)
        energy = data.pop("energy", None)
        return cls(
            energy=EnergyReport(**energy) if energy else None,
            **data,
        )

    def summary(self) -> Dict[str, float]:
        return {
            "ipc": self.ipc,
            "serve_rate": self.serve_rate,
            "bandwidth_bloat": self.bandwidth_bloat,
            "fast_traffic_mb": self.fast_traffic_bytes / (1 << 20),
            "slow_traffic_mb": self.slow_traffic_bytes / (1 << 20),
            "energy_j": self.energy.total_j if self.energy else 0.0,
        }
