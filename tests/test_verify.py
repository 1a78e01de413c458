import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from mixcenter import cauchy_mix
from mixcenter.cauchy_mix import ConstructiveMixer, MixerConfig, build_mixer
from mixcenter.discrete_mix import zero_one_couplings
from mixcenter.distributions import Cauchy, PowerTwoGeometric
from mixcenter.errors import DomainError
from mixcenter.verify import (
    COUPLING_INVARIANTS,
    EXPLICIT_MIXER_INVARIANTS,
    MIXER_INVARIANTS,
    InvariantResult,
    ks_distance,
    ks_threshold,
    ks_two_sample,
    max_pairwise_ks,
    run_invariant_suite,
    sum_stats,
)


@pytest.fixture(scope="module")
def mixer():
    # build_mixer draws (3, 0.15) explicitly; the slice mixer's suite is built directly
    with mock.patch.object(cauchy_mix, "T_GRID", 512):
        return ConstructiveMixer(MixerConfig(n=3, c=0.15, seed=7))


class TestKsDistance:
    def test_self_samples_within_99_threshold(self):
        c = Cauchy()
        rng = np.random.default_rng(0)
        samples = c.quantile(rng.random(100_000))
        assert ks_distance(samples, c.cdf) <= 0.0065

    def test_all_samples_at_median(self):
        c = Cauchy()
        assert ks_distance(np.zeros(1000), c.cdf) == pytest.approx(0.5)

    def test_single_sample_at_median(self):
        c = Cauchy()
        assert ks_distance(np.array([0.0]), c.cdf) == pytest.approx(0.5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ks_distance(np.array([]), Cauchy().cdf)

    def test_sorted_and_shuffled_agree(self):
        # sorted input is read as it is, any other order is sorted first
        c = Cauchy()
        rng = np.random.default_rng(3)
        s = np.sort(c.quantile(rng.random(10_000)))
        shuffled = rng.permutation(s)
        assert ks_distance(s, c.cdf) == ks_distance(shuffled, c.cdf)

    def test_threshold_levels(self):
        assert_allclose(ks_threshold(100_000), 1.628 / np.sqrt(100_000))

    def test_two_sample_identical(self):
        a = np.arange(100.0)
        assert ks_two_sample(a, a) == 0.0

    def test_two_sample_disjoint(self):
        assert ks_two_sample(np.zeros(10), np.ones(10)) == 1.0

    @settings(max_examples=60, deadline=None)
    @given(na=st.integers(1, 300), nb=st.integers(1, 300), levels=st.integers(1, 50),
           presort=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_two_sample_matches_pooled_searchsorted(self, na, nb, levels, presort, seed):
        # few distinct levels give long runs of ties across both samples
        rng = np.random.default_rng(seed)
        a = rng.integers(0, levels, na) * 0.1 - 1.0
        b = rng.integers(0, levels, nb) * 0.1 - 1.0
        if presort:
            a, b = np.sort(a), np.sort(b)
        sa, sb = np.sort(a), np.sort(b)
        pooled = np.concatenate([sa, sb])
        fa = np.searchsorted(sa, pooled, side="right") / sa.size
        fb = np.searchsorted(sb, pooled, side="right") / sb.size
        assert ks_two_sample(a, b) == float(np.abs(fa - fb).max())


class TestMaxPairwiseKs:
    """The pairs are compared in two halves through ``two_halves``."""

    @pytest.mark.parametrize("apart", ["first", "last"])
    @pytest.mark.parametrize("k", [2, 3, 10])
    def test_equals_largest_pair_bit_for_bit(self, k, apart):
        # tie-heavy rows, as coupling rows are: about half of each row sits
        # on three atoms. One pair is pulled apart, so the largest statistic
        # is the first pair's or the last pair's, in one half or the other
        rng = np.random.default_rng(k)
        on_atom = rng.random((k, 1000)) < 0.5
        rows = np.where(on_atom, rng.choice([-1.5, 0.25, 2.0], (k, 1000)),
                        rng.standard_cauchy((k, 1000)))
        i = 0 if apart == "first" else k - 2
        rows[i] -= 0.5
        rows[i + 1] += 0.5
        rows.sort(axis=1)
        threads = threading.active_count()
        got = max_pairwise_ks(rows)
        assert threading.active_count() == threads
        pairs = [ks_two_sample(rows[a], rows[b]) for a in range(k) for b in range(a + 1, k)]
        assert pairs.index(max(pairs)) == (0 if apart == "first" else len(pairs) - 1)
        assert got == max(pairs)

    def test_fewer_than_two_rows(self):
        assert max_pairwise_ks(np.zeros((1, 5))) == 0.0
        assert max_pairwise_ks(np.zeros((0, 5))) == 0.0


class TestSumStats:
    def test_zero_matrix(self):
        stats = sum_stats(np.zeros((10, 3)), 0.0)
        assert stats.mean_dev == 0.0
        assert stats.max_abs_dev == 0.0

    def test_exact_rows(self):
        rows = np.array([[0.1, 0.2, 0.15], [0.05, 0.3, 0.1]])
        stats = sum_stats(rows, 0.45)
        assert stats.max_abs_dev == pytest.approx(0.0, abs=1e-15)

    def test_per_branch_breakdown(self):
        rows = np.array([[1.0, 0.0], [0.0, 0.5]])
        stats = sum_stats(rows, 1.0, branch=np.array([1, 2]))
        assert stats.per_branch[1]["max_abs_dev"] == pytest.approx(0.0)
        assert stats.per_branch[2]["max_abs_dev"] == pytest.approx(0.5)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            sum_stats(np.zeros((0, 3)), 0.0)


class TestInvariantSuite:
    def test_mixer_everything_passes(self, mixer):
        rows = run_invariant_suite(mixer)
        assert all(r.passed for r in rows)

    def test_suite_coverage_matches_manifest(self, mixer):
        rows = run_invariant_suite(mixer)
        assert tuple(r.name for r in rows) == MIXER_INVARIANTS

    def test_each_invariant_appears_once(self, mixer):
        names = [r.name for r in run_invariant_suite(mixer)]
        assert len(names) == len(set(names))

    def test_symmetric_manifest(self):
        # c = 0 is drawn by the explicit mixer, with no table
        rows = run_invariant_suite(build_mixer(MixerConfig(n=3, c=0.0, seed=1)))
        assert tuple(r.name for r in rows) == EXPLICIT_MIXER_INVARIANTS
        assert rows[0].measured == 0.0
        assert all(r.passed for r in rows)

    def test_explicit_manifest(self):
        rows = run_invariant_suite(build_mixer(MixerConfig(n=3, c=0.1, seed=1)))
        assert tuple(r.name for r in rows) == EXPLICIT_MIXER_INVARIANTS
        assert all(r.passed for r in rows)

    def test_reflected_unwraps(self):
        # (3, 0.1) is drawn by the explicit mixer
        reflected = build_mixer(MixerConfig(n=3, c=-0.1, seed=2))
        rows = run_invariant_suite(reflected)
        assert tuple(r.name for r in rows) == EXPLICIT_MIXER_INVARIANTS
        assert all(r.passed for r in rows)
        assert rows == run_invariant_suite(reflected.base)

    def test_coupling_suite(self):
        mix_x, _ = zero_one_couplings(12)
        nu = PowerTwoGeometric("positive", 12).truncated()
        gamma = PowerTwoGeometric("negative", 12).truncated()
        rows = run_invariant_suite(mix_x, marginals=[nu, nu, gamma], center=0)
        assert tuple(r.name for r in rows) == COUPLING_INVARIANTS
        assert all(r.passed for r in rows)

    def test_rejected_config_never_reaches_suite(self):
        with pytest.raises(DomainError):
            run_invariant_suite(build_mixer(MixerConfig(n=3, c=0.3)))

    def test_unknown_target(self):
        with pytest.raises(TypeError):
            run_invariant_suite(42)

    def test_suite_determinism(self):
        cfg = MixerConfig(n=3, c=0.12, seed=3)
        rows_a = [r.to_dict() for r in run_invariant_suite(build_mixer(cfg))]
        rows_b = [r.to_dict() for r in run_invariant_suite(build_mixer(cfg))]
        assert rows_a == rows_b

    def test_row_dict_shape(self, mixer):
        rows = run_invariant_suite(mixer)
        assert all(isinstance(r, InvariantResult) for r in rows)
        for r in rows:
            assert set(r.to_dict()) == {"name", "passed", "measured", "threshold"}
