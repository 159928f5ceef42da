"""Device models: channel queueing, latency, traffic, and energy."""

import pytest

from repro.common.config import MemoryTimings
from repro.common.errors import ConfigurationError
from repro.devices import ChannelPool, EnergyModel, HybridMemoryDevices, MemoryDevice


class TestChannelPool:
    def test_idle_transfer_has_no_queue(self):
        pool = ChannelPool(1, 0.5)
        queue, duration = pool.transfer(now=0.0, nbytes=100)
        assert queue == 0.0
        assert duration == 50.0

    def test_back_to_back_queues(self):
        pool = ChannelPool(1, 1.0)
        pool.transfer(0.0, 100)
        queue, _ = pool.transfer(0.0, 100)
        assert queue == pytest.approx(100.0)

    def test_multiple_channels_parallel(self):
        pool = ChannelPool(2, 1.0)
        pool.transfer(0.0, 100)
        queue, _ = pool.transfer(0.0, 100)
        assert queue == 0.0  # second channel is free

    def test_priority_discount(self):
        pool = ChannelPool(1, 1.0, priority_discount=0.25)
        pool.transfer(0.0, 100)
        queue, _ = pool.transfer(0.0, 100, priority=True)
        assert queue == pytest.approx(25.0)

    def test_priority_still_consumes_bandwidth(self):
        pool = ChannelPool(1, 1.0)
        pool.transfer(0.0, 100, priority=True)
        queue, _ = pool.transfer(0.0, 100)
        assert queue == pytest.approx(100.0)

    def test_zero_bytes_free(self):
        pool = ChannelPool(1, 1.0)
        assert pool.transfer(0.0, 0) == (0.0, 0.0)

    def test_utilization(self):
        pool = ChannelPool(2, 1.0)
        pool.transfer(0.0, 100)
        assert pool.utilization(100.0) == pytest.approx(0.5)
        assert pool.utilization(0.0) == 0.0

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ChannelPool(0, 1.0)
        with pytest.raises(ConfigurationError):
            ChannelPool(1, -1.0)
        with pytest.raises(ConfigurationError):
            ChannelPool(1, 1.0, priority_discount=2.0)

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            ChannelPool(1, 1.0).transfer(0.0, -1)


class TestMemoryDevice:
    def make(self):
        return MemoryDevice("t", read_latency=40, write_latency=40, channels=2, cycles_per_byte=0.1)

    def test_read_latency_components(self):
        dev = self.make()
        access = dev.read(0.0, 64)
        assert access.latency_cycles == 40
        assert access.transfer_cycles == pytest.approx(6.4)
        assert access.total_cycles == pytest.approx(46.4)

    def test_traffic_counters(self):
        dev = self.make()
        dev.read(0.0, 64)
        dev.read(0.0, 128, demand=False)
        dev.write(0.0, 256)
        assert dev.stats.get("read_bytes") == 192
        assert dev.stats.get("demand_read_bytes") == 64
        assert dev.stats.get("fill_read_bytes") == 128
        assert dev.stats.get("write_bytes") == 256
        assert dev.total_bytes == 448

    def test_reset(self):
        dev = self.make()
        dev.read(0.0, 64)
        dev.reset()
        assert dev.total_bytes == 0

    def test_array_latency_is_fixed(self):
        """No open-page state: repeated and interleaved accesses all pay
        the fixed array latency."""
        dev = self.make()
        assert dev.row_buffer is None
        for now in (0.0, 100.0, 200.0):
            assert dev.read(now, 64).latency_cycles == 40
            assert dev.write(now, 64).latency_cycles == 40
            assert dev.read(now, 64, demand=False).latency_cycles == 40


class TestHybridDevices:
    def test_table1_asymmetry(self):
        devices = HybridMemoryDevices()
        fast = devices.fast.read(0.0, 64)
        slow = devices.slow.read(0.0, 64)
        assert slow.latency_cycles > 5 * fast.latency_cycles
        assert slow.transfer_cycles > fast.transfer_cycles

    def test_write_latencies(self):
        devices = HybridMemoryDevices()
        assert devices.slow.write_latency > devices.slow.read_latency


class TestEnergyModel:
    def test_energy_tracks_traffic(self):
        devices = HybridMemoryDevices()
        model = EnergyModel(devices.timings)
        before = model.report(devices.fast, devices.slow).total_j
        devices.slow.write(0.0, 1 << 20)
        after = model.report(devices.fast, devices.slow).total_j
        assert after > before

    def test_slow_writes_cost_most_per_bit(self):
        t = MemoryTimings()
        devices_a = HybridMemoryDevices(t)
        devices_b = HybridMemoryDevices(t)
        model = EnergyModel(t)
        devices_a.slow.write(0.0, 1 << 20)
        devices_b.fast.write(0.0, 1 << 20)
        a = model.report(devices_a.fast, devices_a.slow).total_j
        b = model.report(devices_b.fast, devices_b.slow).total_j
        assert a > b

    def test_report_fields(self):
        devices = HybridMemoryDevices()
        devices.fast.read(0.0, 4096)
        report = EnergyModel(devices.timings).report(devices.fast, devices.slow)
        assert report.fast_dynamic_j > 0
        assert report.fast_act_pre_j > 0
        assert report.slow_dynamic_j == 0
        assert report.total_j == pytest.approx(
            report.fast_dynamic_j + report.fast_act_pre_j
        )
