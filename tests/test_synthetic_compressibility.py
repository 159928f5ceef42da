"""Synthetic compressibility oracle: determinism, monotonicity, profiles."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import ConfigurationError
from repro.compression import synthetic
from repro.compression.synthetic import (
    PROFILE_LIBRARY,
    CompressibilityProfile,
    NullCompressibility,
    SyntheticCompressibility,
    _hash_unit5,
)


class TestProfile:
    def test_validation_bounds(self):
        with pytest.raises(ConfigurationError):
            CompressibilityProfile(p_cf4=1.5)
        with pytest.raises(ConfigurationError):
            CompressibilityProfile(p_cf4=0.8, p_cf2=0.5)

    def test_effective_p_monotone_in_cf(self):
        profile = PROFILE_LIBRARY["medium"]
        assert profile.effective_p(4, False) <= profile.effective_p(2, False)
        assert profile.effective_p(1, False) == 1.0

    def test_cacheline_alignment_penalty(self):
        profile = PROFILE_LIBRARY["medium"]
        assert profile.effective_p(2, True) < profile.effective_p(2, False)

    def test_expected_cf_ordering_across_profiles(self):
        cfs = {name: p.expected_cf() for name, p in PROFILE_LIBRARY.items()}
        assert cfs["incompressible"] < cfs["low"] < cfs["medium"] < cfs["high"]
        assert cfs["incompressible"] < 1.15
        assert 1.5 < cfs["medium"] < 2.5

    def test_expected_cf_in_range(self):
        for profile in PROFILE_LIBRARY.values():
            assert 1.0 <= profile.expected_cf() <= 4.0


class TestOracle:
    def test_deterministic(self):
        a = SyntheticCompressibility(seed=7)
        b = SyntheticCompressibility(seed=7)
        for block in range(50):
            assert a.max_cf(block, 3) == b.max_cf(block, 3)
            assert a.is_zero(block, 0, 8) == b.is_zero(block, 0, 8)

    def test_seeds_differ(self):
        a = SyntheticCompressibility(seed=1)
        b = SyntheticCompressibility(seed=2)
        diffs = sum(a.max_cf(i, 0) != b.max_cf(i, 0) for i in range(200))
        assert diffs > 0

    @given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=0, max_value=7))
    @settings(max_examples=200, deadline=None)
    def test_monotonicity(self, block, sub):
        """A fitting 4-range implies its containing 2-range fits."""
        oracle = SyntheticCompressibility(seed=3)
        quad = (sub // 4) * 4
        pair = (sub // 2) * 2
        if oracle.fits(block, quad, 4):
            assert oracle.fits(block, pair, 2)

    def test_cf1_always_fits(self):
        oracle = SyntheticCompressibility()
        assert oracle.fits(1, 3, 1)

    def test_max_cf_consistent_with_fits(self):
        oracle = SyntheticCompressibility(seed=11)
        for block in range(100):
            for sub in range(8):
                cf = oracle.max_cf(block, sub)
                start = (sub // cf) * cf
                assert oracle.fits(block, start, cf)

    def test_regions_override_default(self):
        oracle = SyntheticCompressibility(seed=5)
        oracle.set_default_profile(PROFILE_LIBRARY["incompressible"])
        oracle.add_region(100, 200, PROFILE_LIBRARY["high"])
        assert oracle.profile_of(150).name == "high"
        assert oracle.profile_of(50).name == "incompressible"

    def test_region_bounds_validated(self):
        oracle = SyntheticCompressibility()
        with pytest.raises(ConfigurationError):
            oracle.add_region(10, 5, PROFILE_LIBRARY["high"])

    def test_note_write_bumps_version_eventually(self):
        oracle = SyntheticCompressibility(seed=9)
        oracle.set_default_profile(
            CompressibilityProfile("writey", write_instability=0.5)
        )
        changed = [oracle.note_write(42, i % 8) for i in range(64)]
        assert any(changed)
        assert oracle.version_of(42) == sum(changed)

    def test_version_changes_rerolls(self):
        oracle = SyntheticCompressibility(seed=13)
        oracle.set_default_profile(
            CompressibilityProfile("flip", p_cf4=0.5, p_cf2=0.75, write_instability=1.0)
        )
        before = [oracle.max_cf(7, s) for s in range(8)]
        for _ in range(8):
            oracle.note_write(7, 0)
        after = [oracle.max_cf(7, s) for s in range(8)]
        # With 8 version bumps at 50% fit probability, some range changed.
        assert before != after

    def test_empirical_rate_tracks_profile(self):
        oracle = SyntheticCompressibility(seed=21)
        profile = PROFILE_LIBRARY["medium"]
        hits = sum(oracle.fits(b, 0, 4, cacheline_aligned=False) for b in range(4000))
        assert abs(hits / 4000 - profile.p_cf4) < 0.05


class _ReferenceOracle:
    """The oracle's verdicts written straight from ``_hash_unit5``: no
    memo and no shared draw, every question hashes its own five parts."""

    def __init__(self, seed, cf_boost, default):
        self.seed = seed
        self.cf_boost = cf_boost
        self.default = default
        self.regions = []
        self.versions = {}
        self.write_counts = {}

    def profile_of(self, block):
        for first, last, profile in self.regions:
            if first <= block <= last:
                return profile
        return self.default

    def fits_at(self, block, start, n_sub, ca, version):
        if n_sub == 1:
            return True
        u = _hash_unit5(self.seed, block, (start // 4) * 4, version, 4)
        p = self.profile_of(block).effective_p(n_sub, ca) * self.cf_boost
        return u < min(1.0, p)

    def fits(self, block, start, n_sub, ca):
        return self.fits_at(block, start, n_sub, ca, self.versions.get(block, 0))

    def max_cf(self, block, sub, ca):
        if self.fits(block, (sub // 4) * 4, 4, ca):
            return 4
        if self.fits(block, (sub // 2) * 2, 2, ca):
            return 2
        return 1

    def is_zero(self, block, start, n_sub):
        u = _hash_unit5(self.seed, block, start, self.versions.get(block, 0), 0)
        return u < self.profile_of(block).p_zero

    def peek_write(self, block, sub):
        count = self.write_counts.get(block, 0)
        u = _hash_unit5(self.seed, block, sub, count, 7)
        return u < self.profile_of(block).write_instability

    def note_write(self, block, sub):
        changed = self.peek_write(block, sub)
        self.write_counts[block] = self.write_counts.get(block, 0) + 1
        if changed:
            self.versions[block] = self.versions.get(block, 0) + 1
        return changed

    def add_region(self, first, last, profile):
        self.regions.append((first, last, profile))

    def set_default_profile(self, profile):
        self.default = profile


#: Write-unstable profiles keep versions moving, so memo keys go stale.
_PROFILES = [
    CompressibilityProfile("unstable", p_cf4=0.3, p_cf2=0.6, p_zero=0.2,
                           write_instability=0.6),
    *PROFILE_LIBRARY.values(),
    CompressibilityProfile("all-fit", p_cf4=1.0, p_cf2=1.0, write_instability=0.3),
]
_BLOCK = st.integers(min_value=0, max_value=11)
_SUB = st.integers(min_value=0, max_value=31)
_CA = st.booleans()
_PROFILE = st.integers(min_value=0, max_value=len(_PROFILES) - 1)
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("max_cf"), _BLOCK, _SUB, _CA),
        st.tuples(st.just("fits"), _BLOCK, _SUB, st.sampled_from([1, 2, 4, 8]), _CA),
        st.tuples(
            st.just("fits_at"), _BLOCK, _SUB, st.sampled_from([1, 2, 4]), _CA,
            st.integers(min_value=0, max_value=3),
        ),
        st.tuples(st.just("is_zero"), _BLOCK, _SUB, st.just(8)),
        st.tuples(st.just("note_write"), _BLOCK, _SUB),
        st.tuples(st.just("peek_write"), _BLOCK, _SUB),
        st.tuples(st.just("add_region"), _BLOCK, st.integers(0, 4), _PROFILE),
        st.tuples(st.just("set_default_profile"), _PROFILE),
    ),
    max_size=150,
)


class TestAgainstReference:
    """The memoized oracle (per-quad CF level, per-block hash state)
    must give exactly the verdicts of the unmemoized reference."""

    @given(
        seed=st.integers(min_value=-(1 << 65), max_value=1 << 65),
        cf_boost=st.sampled_from([1.0, 1.25, 0.5]),
        ops=_OPS,
    )
    @settings(max_examples=300, deadline=None)
    def test_verdicts_match_hash_unit5(self, seed, cf_boost, ops):
        oracle = SyntheticCompressibility(seed=seed, cf_boost=cf_boost)
        oracle.set_default_profile(_PROFILES[0])
        ref = _ReferenceOracle(seed, cf_boost, _PROFILES[0])
        for op, *args in ops:
            if op == "add_region":
                first, width, profile = args
                args = [first, first + width, _PROFILES[profile]]
            elif op == "set_default_profile":
                args = [_PROFILES[args[0]]]
            got = getattr(oracle, op)(*args)
            assert got == getattr(ref, op)(*args), (op, args)
        for block in range(12):
            assert oracle.version_of(block) == ref.versions.get(block, 0)

    def test_max_cf_draws_once_per_quad(self, monkeypatch):
        """A quad whose 4-range misses costs one draw for both CF levels,
        and the memo answers every later question about the quad."""
        probe = SyntheticCompressibility(seed=5)
        block = next(b for b in range(1000) if probe.max_cf(b, 1) < 4)
        draws = []
        real = synthetic._hash_tail3

        def counting(*args):
            draws.append(args)
            return real(*args)

        monkeypatch.setattr(synthetic, "_hash_tail3", counting)
        oracle = SyntheticCompressibility(seed=5)
        assert oracle.max_cf(block, 1) == probe.max_cf(block, 1)
        assert len(draws) == 1
        oracle.max_cf(block, 3)
        oracle.fits(block, 0, 4)
        oracle.fits(block, 2, 2)
        assert len(draws) == 1


class TestNullOracle:
    def test_everything_cf1(self):
        oracle = NullCompressibility()
        assert oracle.max_cf(5, 3) == 1
        assert oracle.fits(5, 0, 1)
        assert not oracle.fits(5, 0, 2)
        assert not oracle.is_zero(5, 0, 8)
        assert not oracle.note_write(5, 0)
        assert oracle.version_of(5) == 0
