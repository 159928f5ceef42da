"""Fast/slow memory device models built on the channel pool.

:class:`MemoryDevice` combines a fixed array-access latency with queued
channel transfers and traffic counters. :class:`HybridMemoryDevices` is the
pair every hybrid-memory controller design in this repository drives; it is
deliberately dumb — placement, remapping and migration policy all live in
the controllers, mirroring the paper's split between the memory media and
the (modified) memory controller.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.common.config import MemoryTimings
from repro.common.stats import CounterGroup


class DeviceAccess(NamedTuple):
    """Timing outcome of one device access.

    A NamedTuple rather than a frozen dataclass: one is created per device
    operation, and tuple construction is measurably cheaper than the
    ``object.__setattr__`` path frozen dataclasses pay per field.
    """

    latency_cycles: float
    queue_cycles: float
    transfer_cycles: float

    @property
    def total_cycles(self) -> float:
        return self.latency_cycles + self.queue_cycles + self.transfer_cycles


class MemoryDevice:
    """One memory medium: fixed access latency + queued channels + counters.

    ``critical`` transfers (demand reads) and background transfers (fills,
    writebacks, migrations) share the channels — background traffic delays
    demand reads, which is how bandwidth bloat turns into lost performance.
    """

    #: No device models a row buffer. perfbench's ``_count_run``
    #: (``perfbench/layers.py``) still reads this attribute; the constant
    #: goes when that benchmark change lands (ROADMAP item 3).
    row_buffer = None

    def __init__(
        self,
        name: str,
        read_latency: float,
        write_latency: float,
        channels: int,
        cycles_per_byte: float,
    ) -> None:
        from repro.devices.channel import ChannelPool

        self.name = name
        self.read_latency = read_latency
        self.write_latency = write_latency
        self.pool = ChannelPool(channels, cycles_per_byte)
        self._stats = CounterGroup(name)
        # Deferred traffic counters, folded into ``stats`` on read.
        self._n_reads = 0
        self._n_read_bytes = 0
        self._n_demand_read_bytes = 0
        self._n_fill_read_bytes = 0
        self._n_writes = 0
        self._n_write_bytes = 0
        #: Optional :class:`~repro.resilience.faults.FaultInjector`. Faults
        #: fire *before* any traffic/statistics accounting so a retried
        #: access leaves no accounting trace of its failed attempts.
        self.faults = None

    @property
    def stats(self) -> CounterGroup:
        """Counter group with all pending hot-path counts folded in."""
        if self._n_reads:
            self._stats.inc("reads", self._n_reads)
            self._n_reads = 0
        if self._n_read_bytes:
            self._stats.inc("read_bytes", self._n_read_bytes)
            self._n_read_bytes = 0
        if self._n_demand_read_bytes:
            self._stats.inc("demand_read_bytes", self._n_demand_read_bytes)
            self._n_demand_read_bytes = 0
        if self._n_fill_read_bytes:
            self._stats.inc("fill_read_bytes", self._n_fill_read_bytes)
            self._n_fill_read_bytes = 0
        if self._n_writes:
            self._stats.inc("writes", self._n_writes)
            self._n_writes = 0
        if self._n_write_bytes:
            self._stats.inc("write_bytes", self._n_write_bytes)
            self._n_write_bytes = 0
        return self._stats

    def read(self, now: float, nbytes: int, *, demand: bool = True) -> DeviceAccess:
        """Read ``nbytes``; demand reads are the latency-critical ones and
        are prioritized by the channel scheduler (FR-FCFS-style)."""
        spike = 0.0
        if self.faults is not None and self.faults.active:
            spike = self.faults.on_read(self.name)
        queue, transfer = self.pool.transfer(now, nbytes, priority=demand)
        self._n_read_bytes += nbytes
        self._n_reads += 1
        if demand:
            self._n_demand_read_bytes += nbytes
        else:
            self._n_fill_read_bytes += nbytes
        return DeviceAccess(self.read_latency + spike, queue, transfer)

    def write(self, now: float, nbytes: int) -> DeviceAccess:
        """Write ``nbytes``; writes are posted (off the critical path) but
        still occupy channel bandwidth."""
        if self.faults is not None and self.faults.active:
            self.faults.on_write(self.name)
        queue, transfer = self.pool.transfer(now, nbytes)
        self._n_write_bytes += nbytes
        self._n_writes += 1
        return DeviceAccess(self.write_latency, queue, transfer)

    def credit_traffic(
        self,
        demand_reads: int,
        demand_bytes: int,
        fill_reads: int,
        fill_bytes: int,
        writes: int,
        write_bytes: int,
    ) -> None:
        """Count traffic whose transfers a deferred server replays itself:
        the totals per-access :meth:`read` and :meth:`write` calls would
        have added, folded in one update."""
        self._n_reads += demand_reads + fill_reads
        self._n_read_bytes += demand_bytes + fill_bytes
        self._n_demand_read_bytes += demand_bytes
        self._n_fill_read_bytes += fill_bytes
        self._n_writes += writes
        self._n_write_bytes += write_bytes

    @property
    def total_bytes(self) -> int:
        stats = self.stats  # flushes pending counts
        return stats.get("read_bytes") + stats.get("write_bytes")

    def reset(self) -> None:
        self.pool.reset()
        self._stats.reset()
        self._n_reads = 0
        self._n_read_bytes = 0
        self._n_demand_read_bytes = 0
        self._n_fill_read_bytes = 0
        self._n_writes = 0
        self._n_write_bytes = 0


class HybridMemoryDevices:
    """The DDR4 + NVM pair of Table I.

    Constructed from :class:`~repro.common.config.MemoryTimings`; exposes
    ``fast`` and ``slow`` :class:`MemoryDevice` objects and convenience
    traffic totals used by the bandwidth-bloat metric of Fig. 11.
    """

    def __init__(self, timings: MemoryTimings | None = None) -> None:
        self.timings = timings or MemoryTimings()
        t = self.timings
        self.fast = MemoryDevice(
            "fast",
            read_latency=t.fast_read_latency_cycles,
            write_latency=t.fast_write_latency_cycles,
            channels=t.fast_channels,
            cycles_per_byte=t.fast_cycles_per_byte() / 1.0,
        )
        self.slow = MemoryDevice(
            "slow",
            read_latency=t.slow_read_latency_cycles,
            write_latency=t.slow_write_latency_cycles,
            channels=t.slow_channels,
            cycles_per_byte=t.slow_cycles_per_byte() / 1.0,
        )

    def fast_traffic_bytes(self) -> int:
        return self.fast.total_bytes

    def slow_traffic_bytes(self) -> int:
        return self.slow.total_bytes

    def reset(self) -> None:
        self.fast.reset()
        self.slow.reset()
