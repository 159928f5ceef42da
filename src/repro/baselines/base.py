"""Common scaffolding for baseline controllers.

Each baseline owns the same :class:`~repro.devices.memory.HybridMemoryDevices`
pair as Baryon and returns :class:`~repro.core.events.AccessResult` objects,
so the system simulator and the analysis code treat all designs uniformly.
Hybrid2 is the exception: it subclasses ``BaryonController`` directly.
:class:`InlineServedBaseline` adds the deferred-seam contract for designs
whose state never depends on the clock (Unison, DICE).
"""

from __future__ import annotations

import abc
from typing import Dict, Optional

from repro.common.config import BaryonConfig
from repro.common.stats import CounterGroup
from repro.core.events import CASE_COUNTER_KEYS, FAST_CASES, AccessResult
from repro.devices.memory import HybridMemoryDevices
from repro.obs.tracer import NULL_TRACER


class BaselineController(abc.ABC):
    """Base class: devices, stats, clock, and the access() contract."""

    name = "baseline"

    #: May the simulator drive this controller through the deferred batch
    #: fast path (``make_deferred_server`` or ``access_deferred``, plus
    #: ``access_batch``)? False here; each subclass shadows it with a
    #: property that is true while no event tracer is attached —
    #: ``SimpleCache`` directly, Unison and DICE through
    #: :class:`InlineServedBaseline`.
    supports_batching = False

    def __init__(
        self,
        config: Optional[BaryonConfig] = None,
        devices: Optional[HybridMemoryDevices] = None,
    ) -> None:
        self.config = config or BaryonConfig()
        self.geometry = self.config.geometry
        self.devices = devices or HybridMemoryDevices(self.config.timings)
        self.stats = CounterGroup(self.name)
        #: Observability hook point; see :mod:`repro.obs`.
        self.obs = NULL_TRACER
        self._now = 0.0

    def _advance(self, now: Optional[float]) -> float:
        if now is not None:
            self._now = now
        else:
            self._now += 1.0
        return self._now

    @abc.abstractmethod
    def access(self, addr: int, is_write: bool, now: Optional[float] = None) -> AccessResult:
        """Serve one 64 B memory-level access."""

    def _count(
        self, result: AccessResult, is_write: bool, addr: Optional[int] = None
    ) -> AccessResult:
        stats = self.stats
        stats.inc("accesses")
        stats.inc("writes" if is_write else "reads")
        fast = result.case in FAST_CASES
        if fast:
            stats.inc("served_fast")
        stats.inc(CASE_COUNTER_KEYS[result.case])
        if self.obs.enabled:
            self.obs.emit(
                "access", t=self._now, addr=addr,
                block=None if addr is None else self.geometry.block_id(addr),
                case=result.case.value, write=is_write,
                latency=result.latency_cycles, fast=fast,
                overflow=result.write_overflow,
            )
        return result

    def serve_rate(self) -> float:
        accesses = self.stats.get("accesses")
        return self.stats.get("served_fast") / accesses if accesses else 0.0


class InlineServedBaseline(BaselineController):
    """A baseline whose deferred seam serves every access.

    Subclasses keep no clock-dependent state: LRU order, predictors,
    footprint history and compression state all evolve in trace order.
    So ``make_deferred_server``'s ``serve`` applies every access's state
    eagerly and never declines, and ``access_batch`` replays the channel
    transfers each op recorded, at the op's clock and in the scalar
    order. The scalar :meth:`access` stays the reference, and the path
    for traced runs.
    """

    def __init__(
        self,
        config: Optional[BaryonConfig] = None,
        devices: Optional[HybridMemoryDevices] = None,
    ) -> None:
        super().__init__(config, devices)
        #: Per-reason decline counters, as on Baryon and ``simple``;
        #: always empty, since no access needs the scalar path.
        self.deferred_declines: Dict[str, int] = {}

    @property
    def supports_batching(self) -> bool:
        """The seam applies whenever per-access event tracing is off."""
        return not self.obs.enabled

    def access_deferred(self, addr: int, is_write: bool = False):
        """Serve one access through a fresh server and flush its tallies.

        Returns the op tuple for :meth:`access_batch`, or ``None`` while
        the seam is vetoed. The simulator drives the server directly;
        this entry point serves per-op callers such as benchmark hooks.
        """
        server = self.make_deferred_server()
        if server is None:
            return None
        serve, flush, _ = server
        op = serve(addr, is_write)
        flush()
        return op

    @abc.abstractmethod
    def make_deferred_server(self):
        """``(serve, flush, self.access_batch)``, or ``None`` while
        :attr:`supports_batching` is false. ``serve(addr, is_write)``
        returns one fixed-shape 7-slot op tuple whose slot 6 holds the
        prefetched cacheline addresses (or ``None``); ``flush()``
        scatters the closure's counter tallies into ``stats`` and the
        devices."""

    @abc.abstractmethod
    def access_batch(self, ops, cycles: float, mlp: float) -> float:
        """Replay ``ops`` (op tuples interleaved with float cycle
        increments) against the channel pools; return the new clock."""
