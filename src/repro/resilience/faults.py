"""Deterministic seeded fault injection.

A :class:`FaultPlan` is a frozen value object naming the fault kinds and
their per-draw probabilities; a :class:`FaultInjector` evaluates it with
counter-based SplitMix64 hashing (the same generator family the synthetic
compressibility oracle uses), so the *n*-th draw at a given site is a
pure function of ``(fault_seed, site, n)``:

* two runs with the same plan inject bit-identical fault sequences;
* draws at one site never perturb another site's stream, so adding a new
  hook point does not reshuffle existing injections.

Injection sites live in the component models (``devices/memory.py``,
``metadata/remap_cache.py``, ``core/stage_area.py``) and fire *before* any traffic or statistics
accounting, so a retried operation leaves no trace of its failed
attempts — a fully recovered run differs from the fault-free run only in
latency. The injector can be ``paused`` while the controller executes a
recovery path, guaranteeing recovery itself terminates.
"""

from __future__ import annotations

import dataclasses
import zlib
from dataclasses import dataclass
from typing import Dict

from repro.common.config import ResilienceConfig
from repro.common.errors import ConfigurationError, TransientDeviceError
from repro.common.stats import CounterGroup
from repro.obs.tracer import NULL_TRACER

#: Short CLI spec keys (``--faults "read=0.01,write=0.005"``) mapped to
#: :class:`~repro.common.config.ResilienceConfig` field names.
FAULT_SPEC_KEYS: Dict[str, str] = {
    "read": "p_read_transient",
    "write": "p_write_drop",
    "remap": "p_remap_corruption",
    "stage": "p_stage_tag_corruption",
    "table": "p_table_corruption",
    "spike": "p_latency_spike",
}

_MASK64 = (1 << 64) - 1


def _mix64(value: int) -> int:
    """SplitMix64 finalizer: a high-quality 64-bit bijective hash."""
    value = (value + 0x9E3779B97F4A7C15) & _MASK64
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _MASK64
    return value ^ (value >> 31)


def parse_fault_spec(spec: str) -> Dict[str, float]:
    """Parse ``"read=0.01,write=0.005"`` into ResilienceConfig kwargs."""
    out: Dict[str, float] = {}
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        key, sep, value = part.partition("=")
        key = key.strip()
        if key not in FAULT_SPEC_KEYS:
            raise ConfigurationError(
                f"unknown fault kind {key!r}; choose from "
                f"{', '.join(sorted(FAULT_SPEC_KEYS))}"
            )
        if not sep:
            raise ConfigurationError(f"fault spec entry {part!r} needs key=probability")
        try:
            probability = float(value)
        except ValueError as err:
            raise ConfigurationError(f"bad probability in fault spec: {part!r}") from err
        out[FAULT_SPEC_KEYS[key]] = probability
    if not out:
        raise ConfigurationError("empty fault spec")
    return out


@dataclass(frozen=True)
class FaultPlan:
    """The seeded fault schedule: kinds, probabilities, magnitudes."""

    seed: int = 0xBA51C
    p_read_transient: float = 0.0
    p_write_drop: float = 0.0
    p_remap_corruption: float = 0.0
    p_stage_tag_corruption: float = 0.0
    p_table_corruption: float = 0.0
    p_latency_spike: float = 0.0
    latency_spike_cycles: int = 500

    @staticmethod
    def from_config(config: ResilienceConfig) -> "FaultPlan":
        return FaultPlan(
            seed=config.fault_seed,
            p_read_transient=config.p_read_transient,
            p_write_drop=config.p_write_drop,
            p_remap_corruption=config.p_remap_corruption,
            p_stage_tag_corruption=config.p_stage_tag_corruption,
            p_table_corruption=config.p_table_corruption,
            p_latency_spike=config.p_latency_spike,
            latency_spike_cycles=config.latency_spike_cycles,
        )

    def describe(self) -> Dict[str, float]:
        """Non-zero probabilities by config field name (for reporting)."""
        return {
            field.name: getattr(self, field.name)
            for field in dataclasses.fields(self)
            if field.name.startswith("p_") and getattr(self, field.name) > 0.0
        }


class FaultInjector:
    """Evaluates a :class:`FaultPlan` with per-site deterministic draws.

    Each injection site (e.g. ``"slow.read"``) owns an independent draw
    counter; the decision for draw *n* is ``hash(seed, site, n) < p``.
    ``paused`` suspends injection (recovery paths must not fault), and a
    paused call neither draws nor advances any counter, so the schedule
    of a site is a function of how often the *normal* path reaches it.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.paused = False
        self.stats = CounterGroup("faults")
        #: Observability hook point; see :mod:`repro.obs`.
        self.obs = NULL_TRACER
        self._counts: Dict[str, int] = {}
        self._site_seeds: Dict[str, int] = {}

    @property
    def active(self) -> bool:
        return not self.paused

    def _uniform(self, site: str) -> float:
        """The next deterministic U[0,1) draw of ``site``."""
        base = self._site_seeds.get(site)
        if base is None:
            base = _mix64((self.plan.seed << 1) ^ zlib.crc32(site.encode("ascii")))
            self._site_seeds[site] = base
        n = self._counts.get(site, 0)
        self._counts[site] = n + 1
        return _mix64(base + n) / 2.0 ** 64

    def _fire(self, site: str, kind: str) -> None:
        self.stats.inc(f"injected_{kind}")
        if self.obs.enabled:
            self.obs.emit("fault", site=site, kind=kind)

    # -- device hooks -------------------------------------------------------
    def on_read(self, device_name: str) -> float:
        """Device read hook: may raise a transient fault; returns the
        latency-spike penalty in cycles (0.0 almost always)."""
        if self.paused:
            return 0.0
        site = f"{device_name}.read"
        if self.plan.p_read_transient > 0.0 and (
            self._uniform(site) < self.plan.p_read_transient
        ):
            self._fire(site, "read_transient")
            raise TransientDeviceError(f"transient read failure on {device_name}", site=site)
        if device_name == "slow" and self.plan.p_latency_spike > 0.0 and (
            self._uniform(f"{site}.spike") < self.plan.p_latency_spike
        ):
            self._fire(site, "latency_spike")
            return float(self.plan.latency_spike_cycles)
        return 0.0

    def on_write(self, device_name: str) -> None:
        """Device write hook: may drop the writeback (raises, retryable)."""
        if self.paused:
            return
        site = f"{device_name}.write"
        if self.plan.p_write_drop > 0.0 and (
            self._uniform(site) < self.plan.p_write_drop
        ):
            self._fire(site, "write_drop")
            raise TransientDeviceError(f"dropped writeback on {device_name}", site=site)

    # -- metadata hooks -----------------------------------------------------
    def remap_corruption(self) -> bool:
        if self.paused or self.plan.p_remap_corruption <= 0.0:
            return False
        if self._uniform("remap_cache") < self.plan.p_remap_corruption:
            self._fire("remap_cache", "remap_corruption")
            return True
        return False

    def stage_corruption(self) -> bool:
        if self.paused or self.plan.p_stage_tag_corruption <= 0.0:
            return False
        if self._uniform("stage_tag") < self.plan.p_stage_tag_corruption:
            self._fire("stage_tag", "stage_tag_corruption")
            return True
        return False

    def table_corruption(self) -> bool:
        if self.paused or self.plan.p_table_corruption <= 0.0:
            return False
        if self._uniform("remap_table") < self.plan.p_table_corruption:
            self._fire("remap_table", "table_corruption")
            return True
        return False

    # -- accounting ---------------------------------------------------------
    def injected_total(self) -> int:
        return sum(self.stats.as_dict().values())
