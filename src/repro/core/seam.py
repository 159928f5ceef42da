"""The deferred seam shared by every controller whose access is one op.

A design whose state never depends on the clock (Baryon, Hybrid2,
Simple, Unison, DICE) is two closures, built once per controller: ``serve``
applies an access's state now and returns an op, and ``replay(op, now)``
runs the op's channel transfers at ``now`` and returns its latency.
Per-op ``access`` is serve, flush and replay of one op;
:class:`ServedSeam` adds the batch side the simulator's fast loop
drives.
"""

from __future__ import annotations


class ServedSeam:
    """``make_deferred_server``, ``access_deferred`` and ``access_batch``
    over a subclass's closures.

    Subclasses provide ``obs``, ``_build_server() -> (serve, flush)``
    and ``_build_replay() -> replay``, reset ``_closures`` to ``None``
    when state the closures bind is swapped, and keep an op's
    ``is_write`` in slot 1 and its prefetched cacheline addresses (or
    ``None``) in slot 6, where the simulator reads them. The closures
    must not reference the controller: a cycle would keep a finished
    cell's controller, and all its state, alive until the cyclic
    collector ran.
    """

    _closures = None

    @property
    def supports_batching(self) -> bool:
        """May the simulator drive this controller through the seam?

        Every controller-level observer (faults, recovery, the shadow
        checker, the phase tracker, quarantined super-blocks) runs inside
        ``serve``, so only per-access event tracing, which stamps each
        access with its replay latency, keeps a run off it. A subclass
        that overrides ``access`` (the content oracle) sets this
        ``False``.
        """
        return not self.obs.enabled

    def _bind(self):
        """``(serve, flush, replay)``, built on first use (they bind
        state that exists only after ``__init__``)."""
        if self._closures is None:
            self._closures = (*self._build_server(), self._build_replay())
        return self._closures

    def make_deferred_server(self):
        """``(serve, flush, self.access_batch)``, or ``None`` while
        ``supports_batching`` is false."""
        if not self.supports_batching:
            return None
        serve, flush, _ = self._bind()
        return serve, flush, self.access_batch

    def access_deferred(self, addr: int, is_write: bool = False):
        """Serve one access and flush its tallies.

        Returns the op tuple for :meth:`access_batch`, or ``None`` while
        the seam is vetoed. The simulator drives the server directly;
        this entry point serves per-op callers such as tests and
        benchmark hooks.
        """
        server = self.make_deferred_server()
        if server is None:
            return None
        serve, flush, _ = server
        op = serve(addr, is_write)
        flush()
        return op

    def access_batch(self, ops, cycles: float, mlp: float) -> float:
        """Replay ``ops`` (op tuples interleaved with float cycle
        increments) against the channel pools; return the new clock.

        Each op replays at the clock the accumulator has reached — the
        ``now`` the scalar loop passes to ``access`` — and a read's
        latency stalls the core by ``latency / mlp``, so the channel busy
        state and ``cycles`` match per-op ``access`` bit for bit.
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
