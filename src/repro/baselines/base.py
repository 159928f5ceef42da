"""Common scaffolding for baseline controllers.

Each baseline owns the same :class:`~repro.devices.memory.HybridMemoryDevices`
pair as Baryon and returns :class:`~repro.core.events.AccessResult` objects,
so the system simulator and the analysis code treat all designs uniformly.
Hybrid2 is the exception: it subclasses ``BaryonController`` directly.
:class:`InlineServedBaseline` is the whole access flow of designs whose
state never depends on the clock (Unison, DICE): one inline server plus
one transfer replay, shared by ``access`` and the deferred seam.
"""

from __future__ import annotations

import abc
from typing import Dict, Optional, Tuple

from repro.common.config import BaryonConfig
from repro.common.stats import CounterGroup
from repro.core.events import CASE_COUNTER_KEYS, FAST_CASES, AccessCase, AccessResult
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
    So each design is two closures, built once per controller:

    * ``serve(addr, is_write)`` (from :meth:`_build_server`, with its
      ``flush``) applies every state effect eagerly and never declines.
      It returns one fixed-shape 7-slot op: slot 0 indexes
      :attr:`_CASES`, slot 1 is ``is_write``, slot 6 holds the
      prefetched cacheline addresses (or ``None``). ``flush()`` scatters
      the counter tallies into ``stats`` and the devices.
    * ``replay(op, now)`` (from :meth:`_build_replay`) runs the op's
      channel transfers at ``now`` in the design's order and returns the
      access's latency, writes included; each device total is
      ``((latency + 0.0) + queue) + transfer`` as in ``MemoryDevice``.

    :meth:`access` is serve, flush and replay of one op;
    :meth:`access_batch` loops ``replay`` over a deferred run. The
    closures hold no reference to the controller (a cycle would keep it
    alive until the cyclic collector ran).
    """

    #: ``AccessResult.case`` per op kind (slot 0 of an op).
    _CASES: Tuple[AccessCase, ...] = ()

    def __init__(
        self,
        config: Optional[BaryonConfig] = None,
        devices: Optional[HybridMemoryDevices] = None,
    ) -> None:
        super().__init__(config, devices)
        #: Per-reason decline counters, as on Baryon and ``simple``;
        #: always empty, since no access needs a fallback.
        self.deferred_declines: Dict[str, int] = {}
        self._closures = None

    @property
    def supports_batching(self) -> bool:
        """The seam applies whenever per-access event tracing is off."""
        return not self.obs.enabled

    def _bind(self):
        """``(serve, flush, replay)``, built on first use (the subclass
        state they close over exists only after ``__init__``)."""
        if self._closures is None:
            self._closures = (*self._build_server(), self._build_replay())
        return self._closures

    def access(self, addr: int, is_write: bool, now: Optional[float] = None) -> AccessResult:
        now = self._advance(now)
        serve, flush, replay = self._closures or self._bind()
        op = serve(addr, is_write)
        flush()
        case = self._CASES[op[0]]
        result = AccessResult(case, replay(op, now), is_write, False, op[6] or [])
        if self.obs.enabled:
            self.obs.emit(
                "access", t=now, addr=addr, block=self.geometry.block_id(addr),
                case=case.value, write=is_write, latency=result.latency_cycles,
                fast=case in FAST_CASES, overflow=False,
            )
        return result

    def access_deferred(self, addr: int, is_write: bool = False):
        """Serve one access and flush its tallies.

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

    def make_deferred_server(self):
        """``(serve, flush, self.access_batch)``, or ``None`` while
        :attr:`supports_batching` is false."""
        if not self.supports_batching:
            return None
        serve, flush, _ = self._bind()
        return serve, flush, self.access_batch

    def access_batch(self, ops, cycles: float, mlp: float) -> float:
        """Replay ``ops`` (op tuples interleaved with float cycle
        increments) against the channel pools; return the new clock.

        Each op replays at the clock the accumulator has reached — the
        ``now`` the scalar loop passes to :meth:`access` — and a read's
        latency stalls the core by ``latency / mlp``, so the channel busy
        state and ``cycles`` match per-op :meth:`access` bit for bit.
        """
        replay = self._bind()[2]
        now = self._now
        for op in ops:
            if op.__class__ is float:
                cycles += op
                continue
            now = cycles
            latency = replay(op, now)
            if not op[1]:
                # Writes are posted; only read latency stalls the core.
                cycles += latency / mlp
        self._now = now
        return cycles

    @abc.abstractmethod
    def _build_server(self):
        """``(serve, flush)`` closures over the design's state."""

    @abc.abstractmethod
    def _build_replay(self):
        """``replay(op, now) -> latency`` over the channel pools."""
