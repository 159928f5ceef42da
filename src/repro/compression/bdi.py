"""Base-Delta-Immediate (BDI) compression.

Implements Pekhimenko et al.'s BDI scheme (PACT 2012), the second of
Baryon's hardware compressors. A block is viewed as equal-size granules of
``k`` bytes (k in {2, 4, 8}); each granule is stored as a small signed delta
of ``d < k`` bytes from either one arbitrary *base* (the first granule that
needs it) or the implicit *zero base*, selected per granule by a one-bit
mask — the "immediate" part that captures mixtures of pointers and small
integers in one block.

All six (k, d) configurations of the paper are tried, plus the two special
cases (all-zero block, repeated 8-byte value); the smallest valid encoding
wins. A 4-bit header records the chosen configuration so the encoded form
round-trips exactly.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.compression.base import CompressionResult, Compressor
from repro.compression.bitstream import BitReader, BitWriter, sign_extend

# Header codes for the encoding variants.
_ZEROS = 0b0000
_REPEAT8 = 0b0001
_RAW = 0b1111
#: (header, base_bytes, delta_bytes) for the six base-delta configurations.
_BD_CONFIGS: Tuple[Tuple[int, int, int], ...] = (
    (0b0010, 8, 1),
    (0b0011, 8, 2),
    (0b0100, 8, 4),
    (0b0101, 4, 1),
    (0b0110, 4, 2),
    (0b0111, 2, 1),
)
_HEADER_BITS = 4


def _try_base_delta(
    data: bytes, base_bytes: int, delta_bytes: int
) -> Optional[Tuple[int, List[bool], List[int]]]:
    """Attempt one (k, d) configuration.

    Returns ``(base, zero_mask, deltas)`` on success — ``zero_mask[i]`` is
    True when granule ``i`` is a delta from the zero base — or ``None`` when
    some granule fits neither base.

    Vectorized over the whole line with one ``numpy.frombuffer`` view. The
    delta-range test runs in exact unsigned arithmetic (``value >= base``
    split), so 8-byte granules classify identically to the arbitrary-
    precision scalar check — modular uint64 wrap-around can never turn a
    huge true delta into a small accepted one.
    """
    if len(data) % base_bytes != 0:
        return None
    values = np.frombuffer(data, dtype=f">u{base_bytes}").astype(np.uint64)
    bits = base_bytes * 8
    delta_bits = delta_bytes * 8
    half = 1 << (delta_bits - 1)
    hi = half - 1
    # Zero base: the sign-extended granule must fit delta_bits, i.e. the
    # unsigned value is tiny or sits in the top `half` of the bits-range.
    zero_fits = (values <= hi) | (values >= (1 << bits) - half)
    nonzero = ~zero_fits
    if not nonzero.any():
        base = 0
        deltas = values & np.uint64((1 << delta_bits) - 1)
    else:
        base = values[int(np.argmax(nonzero))]
        ge = values >= base
        # Exact |value - base| tests on the unsigned split; the wrapped
        # differences are only used on the side where they are exact.
        pos_ok = (values - base) <= np.uint64(hi)
        neg_ok = (base - values) <= np.uint64(half)
        ok = zero_fits | (ge & pos_ok) | (~ge & neg_ok)
        if not ok.all():
            return None
        origins = np.where(zero_fits, np.uint64(0), base)
        deltas = (values - origins) & np.uint64((1 << delta_bits) - 1)
        base = int(base)
    return base, zero_fits.tolist(), deltas.tolist()


class BdiCompressor(Compressor):
    """Base-Delta-Immediate compression with a zero base and one live base."""

    name = "bdi"

    def compress(self, data: bytes) -> CompressionResult:
        if len(data) == 0 or len(data) % 8 != 0:
            raise ValueError("BDI input must be a non-empty multiple of 8 bytes")
        best = self._encode_raw(data)

        if data.count(0) == len(data):
            writer = BitWriter()
            writer.write(_ZEROS, _HEADER_BITS)
            best = self._result(data, writer)
        else:
            first8 = data[:8]
            if data == first8 * (len(data) // 8):
                writer = BitWriter()
                writer.write(_REPEAT8, _HEADER_BITS)
                writer.write(int.from_bytes(first8, "big"), 64)
                candidate = self._result(data, writer)
                if candidate.compressed_bits < best.compressed_bits:
                    best = candidate
            for header, base_bytes, delta_bytes in _BD_CONFIGS:
                attempt = _try_base_delta(data, base_bytes, delta_bytes)
                if attempt is None:
                    continue
                base, zero_mask, deltas = attempt
                writer = BitWriter()
                writer.write(header, _HEADER_BITS)
                writer.write(base, base_bytes * 8)
                # Pack the mask bits and all deltas with one write each;
                # the emitted bit stream is identical to per-field writes.
                mask_word = 0
                for is_zero in zero_mask:
                    mask_word = (mask_word << 1) | (1 if is_zero else 0)
                writer.write(mask_word, len(zero_mask))
                delta_bits = delta_bytes * 8
                delta_word = 0
                for delta in deltas:
                    delta_word = (delta_word << delta_bits) | delta
                writer.write(delta_word, delta_bits * len(deltas))
                candidate = self._result(data, writer)
                if candidate.compressed_bits < best.compressed_bits:
                    best = candidate
        return best

    def decompress(self, result: CompressionResult) -> bytes:
        if result.encoded is None:
            raise ValueError("result has no encoded payload")
        reader = BitReader(result.encoded)
        header = reader.read(_HEADER_BITS)
        size = result.original_size
        if header == _ZEROS:
            return bytes(size)
        if header == _REPEAT8:
            value = reader.read(64).to_bytes(8, "big")
            return value * (size // 8)
        if header == _RAW:
            return reader.read(size * 8).to_bytes(size, "big")
        for code, base_bytes, delta_bytes in _BD_CONFIGS:
            if header == code:
                return self._decode_base_delta(reader, size, base_bytes, delta_bytes)
        raise ValueError(f"unknown BDI header {header:#06b}")

    # -- helpers ---------------------------------------------------------
    @staticmethod
    def _decode_base_delta(
        reader: BitReader, size: int, base_bytes: int, delta_bytes: int
    ) -> bytes:
        count = size // base_bytes
        base = reader.read(base_bytes * 8)
        zero_mask = [bool(reader.read(1)) for _ in range(count)]
        out = bytearray()
        mask = (1 << (base_bytes * 8)) - 1
        for is_zero in zero_mask:
            delta = sign_extend(reader.read(delta_bytes * 8), delta_bytes * 8)
            origin = 0 if is_zero else base
            out += ((origin + delta) & mask).to_bytes(base_bytes, "big")
        return bytes(out)

    def _encode_raw(self, data: bytes) -> CompressionResult:
        writer = BitWriter()
        writer.write(_RAW, _HEADER_BITS)
        writer.write(int.from_bytes(data, "big"), len(data) * 8)
        return self._result(data, writer)

    def _result(self, data: bytes, writer: BitWriter) -> CompressionResult:
        return CompressionResult(
            algorithm=self.name,
            original_size=len(data),
            compressed_bits=writer.bit_length,
            encoded=writer.getvalue(),
        )
