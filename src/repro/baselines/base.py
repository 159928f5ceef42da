"""Common scaffolding for baseline controllers.

Each baseline owns the same :class:`~repro.devices.memory.HybridMemoryDevices`
pair as Baryon and returns :class:`~repro.core.events.AccessResult` objects,
so the system simulator and the analysis code treat all designs uniformly.
Hybrid2 is the exception: it subclasses ``BaryonController`` directly.
:class:`BaselineController` is the whole access flow of designs whose
state never depends on the clock (Simple, Unison, DICE): one inline
server plus one transfer replay, shared by ``access`` and the deferred
seam.
"""

from __future__ import annotations

import abc
from typing import Dict, Optional, Tuple

from repro.common.config import BaryonConfig
from repro.common.stats import CounterGroup
from repro.core.events import AccessCase
from repro.core.seam import ServedSeam
from repro.devices.memory import HybridMemoryDevices


class BaselineController(ServedSeam, abc.ABC):
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

    :class:`~repro.core.seam.ServedSeam` builds ``access`` (serve, flush
    and replay of one op) and the batch replay of a deferred run.
    """

    name = "baseline"

    #: ``AccessResult.case`` per op kind (slot 0 of an op).
    _CASES: Tuple[AccessCase, ...] = ()

    def __init__(
        self,
        config: Optional[BaryonConfig] = None,
        devices: Optional[HybridMemoryDevices] = None,
    ) -> None:
        self.config = config or BaryonConfig()
        self.geometry = self.config.geometry
        self.devices = devices or HybridMemoryDevices(self.config.timings)
        self.stats = CounterGroup(self.name)
        self._now = 0.0
        #: Always empty: ``serve`` never declines (read by perfbench).
        self.deferred_declines: Dict[str, int] = {}

    @classmethod
    def _outcome(cls, op):
        """An op's ``(case, write_overflow)``; baselines never overflow."""
        return cls._CASES[op[0]], False

    def serve_rate(self) -> float:
        accesses = self.stats.get("accesses")
        return self.stats.get("served_fast") / accesses if accesses else 0.0

    @abc.abstractmethod
    def _build_server(self):
        """``(serve, flush)`` closures over the design's state."""

    @abc.abstractmethod
    def _build_replay(self):
        """``replay(op, now) -> latency`` over the channel pools."""
