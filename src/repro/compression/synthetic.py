"""Content-free compressibility model for large simulations.

Running real FPC/BDI over every fetched range is exact but slow, and the
controller only ever consumes the *quantized* outcome: "does this aligned
range of ``n`` sub-blocks fit one slot?" and "is it all zero?". This module
answers those questions from a statistical profile instead of real bytes,
deterministically — the same (block, range, version) always gives the same
answer, and answers are *monotonic* (if a 4-range fits, both its 2-ranges
fit), matching the physical reality that compressing less data into
proportionally less space is never harder under FPC/BDI's linear encodings.

Profiles are calibrated so the headline numbers of the paper hold: typical
average CFs of 1.5-2.0, the cacheline-aligned restriction costing roughly
1.78 -> 1.63 in CF, and write-induced overflows being rare for stable
blocks. Workload generators attach a profile per address region, so e.g. a
fotonik3d-like proxy can be highly compressible (CF 2.42) while an lbm-like
proxy is incompressible (CF ~1.0).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.common.errors import ConfigurationError

_GOLDEN64 = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1
#: Hash state before the first part.
_HASH_INIT = 0x243F6A8885A308D3


def _mix64(value: int) -> int:
    """SplitMix64 finalizer: a fast, well-distributed 64-bit hash."""
    value = (value + _GOLDEN64) & _MASK64
    value ^= value >> 30
    value = (value * 0xBF58476D1CE4E5B9) & _MASK64
    value ^= value >> 27
    value = (value * 0x94D049BB133111EB) & _MASK64
    value ^= value >> 31
    return value


def _hash_unit5(a: int, b: int, c: int, d: int, e: int) -> float:
    """Deterministic uniform value in [0, 1) from five integer parts.

    The reference definition of every oracle draw: the oracle hashes
    ``(seed, block, part, version, kind)`` and the tests compare its
    verdicts against this function. Each part is folded into the state
    by one SplitMix64 round (:func:`_mix64`, inlined).
    """
    acc = _HASH_INIT
    for part in (a, b, c, d, e):
        v = (acc ^ (part & _MASK64)) + _GOLDEN64 & _MASK64
        v ^= v >> 30
        v = (v * 0xBF58476D1CE4E5B9) & _MASK64
        v ^= v >> 27
        v = (v * 0x94D049BB133111EB) & _MASK64
        acc = v ^ (v >> 31)
    return acc / 18446744073709551616.0


def _hash_tail3(acc: int, c: int, d: int, e: int) -> float:
    """The last three rounds of :func:`_hash_unit5`.

    ``acc`` is the hash state after the first two parts (seed and block),
    which the oracle memoizes per block, so
    ``_hash_tail3(state(a, b), c, d, e) == _hash_unit5(a, b, c, d, e)``.
    This is the oracle's only hash on the simulation path.
    """
    for part in (c, d, e):
        v = (acc ^ (part & _MASK64)) + _GOLDEN64 & _MASK64
        v ^= v >> 30
        v = (v * 0xBF58476D1CE4E5B9) & _MASK64
        v ^= v >> 27
        v = (v * 0x94D049BB133111EB) & _MASK64
        acc = v ^ (v >> 31)
    return acc / 18446744073709551616.0


@dataclass(frozen=True)
class CompressibilityProfile:
    """Statistical description of one address region's compressibility.

    ``p_cf4`` / ``p_cf2`` are the probabilities that an aligned 4-range /
    2-range compresses into one sub-block slot (without the cacheline-
    aligned restriction); ``ca_penalty`` multiplies both when the stricter
    per-64 B-chunk restriction of Fig. 7 is enabled. ``p_zero`` is the
    fraction of all-zero ranges, and ``write_instability`` the probability
    that a write changes the data enough to re-roll its compressibility —
    the source of write overflows in the controller.
    """

    name: str = "default"
    p_cf4: float = 0.25
    p_cf2: float = 0.55
    p_zero: float = 0.05
    ca_penalty: float = 0.92
    write_instability: float = 0.02

    def __post_init__(self) -> None:
        for field_name in ("p_cf4", "p_cf2", "p_zero", "ca_penalty", "write_instability"):
            value = getattr(self, field_name)
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(f"{field_name} must be in [0, 1], got {value}")
        if self.p_cf4 > self.p_cf2:
            raise ConfigurationError("p_cf4 cannot exceed p_cf2 (monotonicity)")

    def effective_p(self, cf: int, cacheline_aligned: bool) -> float:
        """Probability that an aligned ``cf``-range fits one slot."""
        if cf == 1:
            return 1.0
        base = self.p_cf4 if cf == 4 else self.p_cf2
        return base * self.ca_penalty if cacheline_aligned else base

    def expected_cf(self, cacheline_aligned: bool = True) -> float:
        """Closed-form expected quantized CF under this profile.

        Evaluated over aligned 4-ranges: with probability p4 the whole
        range has CF 4; otherwise each half independently has CF 2 with
        (conditional) probability p2', else CF 1.
        """
        p4 = self.effective_p(4, cacheline_aligned)
        p2 = self.effective_p(2, cacheline_aligned)
        # Conditional probability a 2-range fits given its 4-range did not.
        p2_given_not4 = min(1.0, (p2 - p4) / (1.0 - p4)) if p4 < 1.0 else 1.0
        return p4 * 4.0 + (1.0 - p4) * (p2_given_not4 * 2.0 + (1.0 - p2_given_not4) * 1.0)


#: Ready-made profiles used by the workload proxies; the CF targets come
#: from the per-workload commentary in the paper's evaluation.
PROFILE_LIBRARY: Dict[str, CompressibilityProfile] = {
    "incompressible": CompressibilityProfile(
        "incompressible", p_cf4=0.0, p_cf2=0.03, p_zero=0.0, write_instability=0.05
    ),
    "low": CompressibilityProfile(
        "low", p_cf4=0.05, p_cf2=0.25, p_zero=0.02, write_instability=0.03
    ),
    "medium": CompressibilityProfile(
        "medium", p_cf4=0.25, p_cf2=0.55, p_zero=0.05, write_instability=0.02
    ),
    "high": CompressibilityProfile(
        "high", p_cf4=0.55, p_cf2=0.85, p_zero=0.08, write_instability=0.01
    ),
    "zero_heavy": CompressibilityProfile(
        "zero_heavy", p_cf4=0.45, p_cf2=0.70, p_zero=0.30, write_instability=0.01
    ),
}


class SyntheticCompressibility:
    """Deterministic compressibility oracle backed by profiles.

    One region = one profile over a contiguous block-id range. Per-block
    *versions* advance on destabilizing writes, re-rolling the hashes so a
    previously fitting range can overflow — exactly the event the stage
    area exists to absorb.

    Every draw is ``_hash_unit5(seed, block, part, version, kind)``. The
    hash state after the seed round is computed once per oracle and the
    state after the block round once per block, so a draw mixes only the
    last three rounds (:func:`_hash_tail3`).
    """

    def __init__(self, seed: int = 1, cf_boost: float = 1.0) -> None:
        self.seed = seed
        #: Multiplier on every range's fit probability. Values above 1
        #: model the idealized metadata without the same-CF restriction
        #: (the "w/o same-CF" comparison point of Fig. 12).
        self.cf_boost = cf_boost
        self._regions: List[Tuple[int, int, CompressibilityProfile]] = []
        self._default = PROFILE_LIBRARY["medium"]
        self._versions: Dict[int, int] = {}
        self._write_counts: Dict[int, int] = {}
        self._seed_state = _mix64(_HASH_INIT ^ (seed & _MASK64))
        #: Hash state after the (seed, block) rounds, per block.
        self._block_states: Dict[int, int] = {}
        # The CF level (4, 2 or 1) of each aligned quad, keyed by (block,
        # quad, version, cacheline_aligned): one uniform per quad decides
        # both CF levels, so a quad's 4-range and 2-range verdicts share
        # one entry. Keys carry the version, so a version bump naturally
        # misses; the memo only needs clearing when profiles change.
        self._levels: Dict[Tuple[int, int, int, bool], int] = {}
        # Region resolution is a linear scan; every oracle query starts
        # with it, so the block -> profile answer is memoized alongside.
        self._profile_cache: Dict[int, CompressibilityProfile] = {}
        # Last ``peek_write`` draw: the deferred path probes a write's
        # stability verdict before committing it, so the paired
        # ``note_write`` can reuse the identical (block, sub, count) draw
        # instead of hashing twice.
        self._peek_memo: Tuple[int, int, int, float] | None = None

    def set_default_profile(self, profile: CompressibilityProfile) -> None:
        self._default = profile
        self._levels.clear()
        self._profile_cache.clear()

    def add_region(
        self, first_block: int, last_block: int, profile: CompressibilityProfile
    ) -> None:
        """Attach ``profile`` to block ids in ``[first_block, last_block]``."""
        if first_block > last_block:
            raise ConfigurationError("region bounds out of order")
        self._regions.append((first_block, last_block, profile))
        self._levels.clear()
        self._profile_cache.clear()

    def profile_of(self, block_id: int) -> CompressibilityProfile:
        cached = self._profile_cache.get(block_id)
        if cached is not None:
            return cached
        result = self._default
        for first, last, profile in self._regions:
            if first <= block_id <= last:
                result = profile
                break
        self._profile_cache[block_id] = result
        return result

    def _block_state(self, block_id: int) -> int:
        """Hash state after the seed and block rounds (memoized)."""
        state = self._block_states.get(block_id)
        if state is None:
            state = _mix64(self._seed_state ^ (block_id & _MASK64))
            self._block_states[block_id] = state
        return state

    def _draw_level(
        self, block_id: int, quad_start: int, version: int, cacheline_aligned: bool
    ) -> int:
        """Draw one aligned quad's CF level and memoize it.

        One comonotone uniform ``u`` per quad decides both CF levels:
        the 4-range fits when ``u < p4`` and its 2-ranges when
        ``u < p2``. Since ``p4 <= p2``, a fitting 4-range implies fitting
        2-ranges (monotonicity) while both marginal probabilities stay
        exactly at the profile's values.
        """
        u = _hash_tail3(self._block_state(block_id), quad_start, version, 4)
        profile = self.profile_of(block_id)
        boost = self.cf_boost
        if u < min(1.0, profile.effective_p(4, cacheline_aligned) * boost):
            level = 4
        elif u < min(1.0, profile.effective_p(2, cacheline_aligned) * boost):
            level = 2
        else:
            level = 1
        self._levels[(block_id, quad_start, version, cacheline_aligned)] = level
        return level

    # -- oracle interface used by the controller -------------------------
    def fits(
        self,
        block_id: int,
        start_sub: int,
        n_sub: int,
        cacheline_aligned: bool = True,
    ) -> bool:
        """Does the aligned ``n_sub``-range compress into one slot?

        The range's quad draws one uniform for both CF levels (see
        :meth:`_draw_level`).
        """
        return self.fits_at(
            block_id,
            start_sub,
            n_sub,
            cacheline_aligned,
            self._versions.get(block_id, 0),
        )

    def fits_at(
        self,
        block_id: int,
        start_sub: int,
        n_sub: int,
        cacheline_aligned: bool,
        version: int,
    ) -> bool:
        """:meth:`fits` evaluated at an explicit layout ``version`` (pure).

        The deferred access path uses this to test the post-write verdict
        (current version + 1) *before* committing a write's state effects;
        it shares the level memo, so the later real query is a hit.
        """
        if n_sub == 1:
            return True
        quad_start = (start_sub // 4) * 4
        level = self._levels.get((block_id, quad_start, version, cacheline_aligned))
        if level is None:
            level = self._draw_level(block_id, quad_start, version, cacheline_aligned)
        # As in effective_p, every CF other than 1 and 4 takes p2.
        return level == 4 if n_sub == 4 else level >= 2

    def is_zero(self, block_id: int, start_sub: int, n_sub: int) -> bool:
        """Z-bit oracle for the aligned range."""
        profile = self.profile_of(block_id)
        version = self._versions.get(block_id, 0)
        u = _hash_tail3(self._block_state(block_id), start_sub, version, 0)
        return u < profile.p_zero

    def max_cf(
        self, block_id: int, sub_index: int, cacheline_aligned: bool = True
    ) -> int:
        """Largest CF of an aligned range containing ``sub_index``: its
        quad's CF level, one draw for both levels."""
        quad_start = (sub_index // 4) * 4
        version = self._versions.get(block_id, 0)
        level = self._levels.get((block_id, quad_start, version, cacheline_aligned))
        if level is None:
            level = self._draw_level(block_id, quad_start, version, cacheline_aligned)
        return level

    def note_write(self, block_id: int, sub_index: int) -> bool:
        """Record a write; returns True when the block's content 'changed'
        enough to re-roll compressibility (a potential overflow source).

        Every write carries a fresh value, so each draws independently
        (keyed by a per-block write counter, not the layout version).
        """
        profile = self.profile_of(block_id)
        count = self._write_counts.get(block_id, 0)
        self._write_counts[block_id] = count + 1
        memo = self._peek_memo
        if (
            memo is not None
            and memo[0] == block_id
            and memo[1] == sub_index
            and memo[2] == count
        ):
            u = memo[3]
        else:
            u = _hash_tail3(self._block_state(block_id), sub_index, count, 7)
        if u < profile.write_instability:
            self._versions[block_id] = self._versions.get(block_id, 0) + 1
            return True
        return False

    def peek_write(self, block_id: int, sub_index: int) -> bool:
        """Would :meth:`note_write` report a destabilizing change? Pure —
        it draws the same write-count-keyed sample without recording the
        write, so the deferred path can rule out overflow before applying
        any state."""
        profile = self.profile_of(block_id)
        count = self._write_counts.get(block_id, 0)
        u = _hash_tail3(self._block_state(block_id), sub_index, count, 7)
        self._peek_memo = (block_id, sub_index, count, u)
        return u < profile.write_instability

    def version_of(self, block_id: int) -> int:
        return self._versions.get(block_id, 0)


class NullCompressibility:
    """Oracle for compression-free designs: everything has CF 1.

    Drop-in replacement for :class:`SyntheticCompressibility` used when
    ``compression_enabled`` is off (e.g. the Hybrid2 baseline): ranges
    never compress, nothing is zero, and writes never overflow.
    """

    def fits(
        self, block_id: int, start_sub: int, n_sub: int, cacheline_aligned: bool = True
    ) -> bool:
        return n_sub == 1

    def fits_at(
        self,
        block_id: int,
        start_sub: int,
        n_sub: int,
        cacheline_aligned: bool,
        version: int,
    ) -> bool:
        return n_sub == 1

    def is_zero(self, block_id: int, start_sub: int, n_sub: int) -> bool:
        return False

    def max_cf(
        self, block_id: int, sub_index: int, cacheline_aligned: bool = True
    ) -> int:
        return 1

    def note_write(self, block_id: int, sub_index: int) -> bool:
        return False

    def peek_write(self, block_id: int, sub_index: int) -> bool:
        return False

    def version_of(self, block_id: int) -> int:
        return 0
