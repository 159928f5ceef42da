"""Micro-benchmarks of the hot code paths (true pytest-benchmark timing).

These complement the figure benchmarks: they time the real FPC/BDI
implementations, the metadata encode/decode paths, and the controller's
per-access cost, so performance regressions in the library itself are
visible. End-to-end and per-layer timing of whole sweeps lives in
``perfbench/``.
"""

import random
import struct

from repro.compression import BdiCompressor, CompressionEngine, FpcCompressor
from repro.core import BaryonController
from repro.metadata.remap import RemapEntry, locate_sub_block
from repro.metadata.stage_tag import RangeSlot, StageTagEntry

from common import bench_system


def _patterned_block(n=256):
    base = 1 << 40
    return b"".join(
        struct.pack(">q", base + (i % 50) - 25) for i in range(n // 8)
    )


def test_fpc_compress_256b(benchmark):
    fpc = FpcCompressor()
    data = _patterned_block()
    result = benchmark(fpc.compress, data)
    assert fpc.decompress(result) == data


def test_bdi_compress_256b(benchmark):
    bdi = BdiCompressor()
    data = _patterned_block()
    result = benchmark(bdi.compress, data)
    assert bdi.decompress(result) == data


def test_stage_tag_entry_roundtrip(benchmark):
    entry = StageTagEntry(
        tag=0x1FFFF,
        valid=True,
        slots=[RangeSlot(cf=2, blk_off=i % 8, sub_start=(i % 4) * 2) for i in range(8)],
        miss_count=77,
    )

    def roundtrip():
        return StageTagEntry.decode(entry.encode())

    decoded = benchmark(roundtrip)
    assert decoded.tag == entry.tag


def test_remap_position_lookup(benchmark):
    entries = [
        RemapEntry(remap=0xF0, pointer=1, cf4=0b10),
        RemapEntry(remap=0x0F, pointer=1, cf2=0b0011),
        RemapEntry(remap=0xFF, pointer=1, cf2=0b1100, cf4=0b01),
    ] + [RemapEntry()] * 5

    def locate():
        return locate_sub_block(entries, 2, 6)

    position = benchmark(locate)
    assert position is not None


def test_compression_memo_hot_fits(benchmark):
    """fits() on a recurring byte range: one dict probe after the first
    FPC+BDI evaluation (the content-keyed memo's hot path)."""
    engine = CompressionEngine()
    data = _patterned_block(512)
    engine.fits(data)  # warm the memo
    fits = benchmark(engine.fits, data)
    assert fits
    assert engine.stats.get("memo_hits") > 0


def test_controller_access_throughput(benchmark):
    config, _ = bench_system()
    ctrl = BaryonController(config, seed=1)
    rng = random.Random(7)
    footprint = 2 * config.layout.fast_capacity
    addrs = [(rng.randrange(footprint) // 64) * 64 for _ in range(2048)]
    index = 0

    def one_access():
        nonlocal index
        ctrl.access(addrs[index % len(addrs)], index % 4 == 0)
        index += 1

    benchmark(one_access)
    assert ctrl.stats.get("accesses") > 0

