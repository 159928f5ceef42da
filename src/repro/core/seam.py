"""The deferred seam shared by every controller whose access is one op.

A design whose state never depends on the clock (Baryon, Hybrid2,
Simple, Unison, DICE) is two closures, built once per controller: ``serve``
applies an access's state now and returns an op, and ``replay(op, now)``
runs the op's channel transfers at ``now`` and returns its latency.
Per-op ``access`` is serve, flush and replay of one op;
:class:`ServedSeam` adds the batch side the simulator's fast loop
drives. With an event tracer attached, each op emits its ``access``
event when it replays, on every path.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from repro.core.events import AccessResult
from repro.obs.tracer import NULL_TRACER


def _traced(serve, replay, emit, block_id, outcome):
    """``(serve, replay)`` that emit each op's ``access`` event at replay.

    Ops replay in the order they were served, so ``serve`` queues each
    op's address and ``replay`` takes it from the queue's head.
    """
    addrs = deque()
    push = addrs.append
    pop = addrs.popleft

    def traced_serve(addr, is_write):
        op = serve(addr, is_write)
        push(addr)
        return op

    def traced_replay(op, now):
        latency = replay(op, now)
        addr = pop()
        case, overflow = outcome(op)
        emit(
            "access", t=now, addr=addr, block=block_id(addr), case=case.value,
            write=op[1], latency=latency, fast=case.fast, overflow=overflow,
        )
        return latency

    return traced_serve, traced_replay


class ServedSeam:
    """``access``, ``make_deferred_server`` and ``access_batch`` over a
    subclass's closures.

    Subclasses provide ``geometry``, ``_build_server() -> (serve,
    flush)``, ``_build_replay() -> replay`` and ``_outcome(op) -> (case,
    write_overflow)`` (a static or class method), reset ``_closures`` to
    ``None`` when state the closures bind is swapped, and keep an op's
    ``is_write`` in slot 1 and its prefetched cacheline addresses (or
    ``None``) in slot 6, where the simulator reads them. The closures
    must not reference the controller: a cycle would keep a finished
    cell's controller, and all its state, alive until the cyclic
    collector ran. They reach it through a ``weakref.proxy`` and look
    its methods up at call time; binding ``proxy.<method>`` once yields
    a bound method that holds the controller and closes the cycle.

    Every observer runs on the seam: faults, recovery, the shadow
    checker, the phase tracker and quarantined super-blocks inside
    ``serve``, event tracing in the wrapped closures, and the
    simulator's metrics through ``access_batch``'s ``observe``.
    """

    _closures = None
    _obs = NULL_TRACER

    #: Every access takes the seam. Kept, with ``access_deferred`` and
    #: each design's empty ``deferred_declines``, only because the
    #: benchmark harness (``perfbench/layers.py``) reads them.
    supports_batching = True

    @property
    def obs(self):
        """Observability hook point; see :mod:`repro.obs`. Attached here
        and on every instrumented sub-component by
        :func:`repro.obs.attach_observability`."""
        return self._obs

    @obs.setter
    def obs(self, tracer) -> None:
        self._obs = tracer
        self._closures = None

    def _bind(self):
        """``(serve, flush, replay)``, built on first use (they bind
        state that exists only after ``__init__``)."""
        if self._closures is None:
            serve, flush = self._build_server()
            replay = self._build_replay()
            if self._obs.enabled:
                serve, replay = _traced(
                    serve, replay, self._obs.emit, self.geometry.block_id,
                    self._outcome,
                )
            self._closures = (serve, flush, replay)
        return self._closures

    def access(self, addr: int, is_write: bool, now: Optional[float] = None) -> AccessResult:
        """Serve one 64 B memory-level access at ``now`` (or one cycle
        after the last access): serve, flush and replay of one op."""
        if now is not None:
            self._now = now
        else:
            self._now += 1.0
        now = self._now
        serve, flush, replay = self._closures or self._bind()
        op = serve(addr, is_write)
        flush()
        case, overflow = self._outcome(op)
        return AccessResult(case, replay(op, now), is_write, overflow, op[6] or [])

    def make_deferred_server(self):
        """``(serve, flush, self.access_batch)``, the triple the
        simulator's fast loop drives."""
        serve, flush, _ = self._bind()
        return serve, flush, self.access_batch

    def access_deferred(self, addr: int, is_write: bool = False):
        """Serve one access, flush its tallies and return its op for
        :meth:`access_batch`; the simulator drives the server directly."""
        serve, flush, _ = self._bind()
        op = serve(addr, is_write)
        flush()
        return op

    def access_batch(self, ops, cycles: float, mlp: float, observe=None) -> float:
        """Replay ``ops`` (op tuples interleaved with float cycle
        increments) against the channel pools; return the new clock.

        Each op replays at the clock the accumulator has reached — the
        ``now`` the scalar loop passes to ``access`` — and a read's
        latency stalls the core by ``latency / mlp``, so the channel busy
        state and ``cycles`` match per-op ``access`` bit for bit.
        ``observe(case, latency)``, if given, sees every op as it
        replays, in trace order.
        """
        replay = self._bind()[2]
        outcome = self._outcome
        now = self._now
        for op in ops:
            if op.__class__ is float:
                cycles += op
                continue
            now = cycles
            latency = replay(op, now)
            if observe is not None:
                observe(outcome(op)[0], latency)
            if not op[1]:
                # Writes are posted; only read latency stalls the core.
                cycles += latency / mlp
        self._now = now
        return cycles
