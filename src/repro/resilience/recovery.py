"""Bounded-retry recovery for transient device faults.

:class:`RecoveryManager` wraps the controller's device accesses. When a
:class:`~repro.common.errors.TransientDeviceError` fires it retries up to
``max_retries`` times with exponential backoff, charging the backoff as
extra latency on the eventually-successful access. Because the injection
hooks fire *before* device traffic/statistics accounting, the retried
attempts leave no accounting trace: a recovered run carries identical
traffic and energy to the fault-free run, differing only in cycles.

Recovery-side actions that the controller performs itself (quarantine,
metadata repair, stage flush) are counted here too, so the controller's
own :class:`~repro.common.stats.CounterGroup` stays bit-identical
between a recovered and a fault-free run.
"""

from __future__ import annotations

from repro.common.config import ResilienceConfig
from repro.common.errors import TransientDeviceError
from repro.common.stats import CounterGroup
from repro.obs.tracer import NULL_TRACER
from repro.resilience.faults import _MASK64, _mix64


def requeue_backoff_s(
    base_s: float, attempt: int, cell_index: int = 0, seed: int = 0
) -> float:
    """Orchestration-level requeue delay: exponential + deterministic jitter.

    Attempt *n* (1-based, the attempt that just failed) waits
    ``base_s * 2**(n-1)`` scaled by a jitter factor in ``[1.0, 1.5)``
    drawn from a keyed SplitMix64 hash of ``(seed, cell, attempt)`` — so
    a thundering herd of requeues de-synchronizes, yet two runs of the
    same sweep back off identically (no wall-clock or PRNG state
    involved). ``base_s <= 0`` disables backoff entirely.
    """
    if base_s <= 0.0 or attempt < 1:
        return 0.0
    key = ((seed << 1) ^ 0x51EE9) & _MASK64
    jitter = _mix64(_mix64(key + cell_index) + attempt) / 2.0 ** 64
    return base_s * (2.0 ** (attempt - 1)) * (1.0 + 0.5 * jitter)


class RecoveryManager:
    """Retry/backoff engine plus the recovery-action scoreboard."""

    def __init__(self, config: ResilienceConfig) -> None:
        self.max_retries = config.max_retries
        self.backoff_base_cycles = config.backoff_base_cycles
        self.stats = CounterGroup("recovery")
        #: Observability hook point; see :mod:`repro.obs`.
        self.obs = NULL_TRACER

    def record(self, action: str, **context) -> None:
        """Count a controller-side recovery action (quarantine, repair...)."""
        self.stats.inc(action)
        if self.obs.enabled:
            self.obs.emit("recovery", action=action, **context)

    def _backoff(self, attempt: int) -> float:
        return float(self.backoff_base_cycles * (2 ** attempt))

    def retry_read(self, device, now: float, nbytes: int, *, demand: bool = True):
        """``device.read`` with bounded retry; backoff lands in latency."""
        penalty = 0.0
        for attempt in range(self.max_retries + 1):
            try:
                access = device.read(now + penalty, nbytes, demand=demand)
            except TransientDeviceError:
                if attempt >= self.max_retries:
                    self.record("retry_exhausted", site=f"{device.name}.read",
                                attempt=attempt + 1)
                    raise
                self.stats.inc("retries")
                penalty += self._backoff(attempt)
                continue
            if penalty > 0.0:
                self.record("retried_read", site=f"{device.name}.read")
                access = access._replace(
                    latency_cycles=access.latency_cycles + penalty
                )
            return access
        raise AssertionError("unreachable")  # pragma: no cover

    def retry_write(self, device, now: float, nbytes: int):
        """``device.write`` with bounded retry; backoff lands in latency."""
        penalty = 0.0
        for attempt in range(self.max_retries + 1):
            try:
                access = device.write(now + penalty, nbytes)
            except TransientDeviceError:
                if attempt >= self.max_retries:
                    self.record("retry_exhausted", site=f"{device.name}.write",
                                attempt=attempt + 1)
                    raise
                self.stats.inc("retries")
                penalty += self._backoff(attempt)
                continue
            if penalty > 0.0:
                self.record("retried_write", site=f"{device.name}.write")
                access = access._replace(
                    latency_cycles=access.latency_cycles + penalty
                )
            return access
        raise AssertionError("unreachable")  # pragma: no cover
