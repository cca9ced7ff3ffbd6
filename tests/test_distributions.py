"""Tests for repro.governance.uncertainty.distributions."""

import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._validation import trapezoid
from repro.governance.uncertainty import GaussianMixture, Histogram
from tests.oracles import histogram_reference


class TestHistogramConstruction:
    def test_from_samples_moments(self):
        rng = np.random.default_rng(0)
        samples = rng.normal(10.0, 2.0, 5000)
        histogram = Histogram.from_samples(samples, n_bins=50)
        assert histogram.mean() == pytest.approx(10.0, abs=0.15)
        assert histogram.std() == pytest.approx(2.0, abs=0.15)

    def test_from_samples_bounds(self):
        histogram = Histogram.from_samples([1.0, 2.0, 3.0], n_bins=4,
                                           bounds=(0.0, 4.0))
        assert histogram.min() >= 0.0
        assert histogram.max() <= 4.0

    def test_from_samples_identical_values(self):
        histogram = Histogram.from_samples([5.0, 5.0, 5.0])
        assert histogram.mean() == pytest.approx(5.0, abs=1e-6)
        assert histogram.std() == pytest.approx(0.0, abs=1e-6)

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            Histogram.from_samples([1.0, 2.0], bounds=(3.0, 1.0))

    def test_out_of_bounds_samples(self):
        with pytest.raises(ValueError):
            Histogram.from_samples([10.0], bounds=(0.0, 1.0))

    def test_point_mass(self):
        point = Histogram.point_mass(3.0)
        assert point.mean() == pytest.approx(3.0)
        assert point.std() == pytest.approx(0.0, abs=1e-6)

    def test_negative_probabilities_rejected(self):
        with pytest.raises(ValueError):
            Histogram(0.0, 1.0, [-0.5, 1.5])

    def test_probabilities_normalized(self):
        histogram = Histogram(0.0, 1.0, [2.0, 2.0])
        assert histogram.probabilities.sum() == pytest.approx(1.0)


class TestHistogramQueries:
    @pytest.fixture
    def uniform(self):
        return Histogram(0.0, 1.0, np.ones(10) / 10)

    def test_cdf_monotone(self, uniform):
        grid = np.linspace(-1, 10, 50)
        cdf = uniform.cdf(grid)
        assert np.all(np.diff(cdf) >= -1e-12)
        assert cdf[0] == 0.0
        assert cdf[-1] == pytest.approx(1.0)

    def test_cdf_scalar(self, uniform):
        assert uniform.cdf(4.5) == pytest.approx(0.5)

    def test_sf_complement(self, uniform):
        assert uniform.sf(4.5) == pytest.approx(1 - uniform.cdf(4.5))

    def test_quantile_inverts_cdf(self, uniform):
        for q in (0.1, 0.5, 0.9):
            value = uniform.quantile(q)
            assert uniform.cdf(value) >= q - 1e-9

    def test_quantile_bounds(self, uniform):
        assert uniform.quantile(0.0) == uniform.support[0]
        assert uniform.quantile(1.0) == uniform.support[-1]

    def test_quantile_invalid(self, uniform):
        with pytest.raises(ValueError):
            uniform.quantile(1.5)

    def test_expectation_of_identity_is_mean(self, uniform):
        assert uniform.expectation(lambda x: x) == pytest.approx(
            uniform.mean())

    def test_sampling_matches_distribution(self, uniform):
        samples = uniform.sample(20000, rng=np.random.default_rng(1))
        assert samples.mean() == pytest.approx(uniform.mean(), abs=0.1)

    def test_min_max_ignore_zero_mass(self):
        histogram = Histogram(0.0, 1.0, [0.0, 1.0, 0.0])
        assert histogram.min() == 1.0
        assert histogram.max() == 1.0


class TestHistogramAlgebra:
    def test_convolution_moments_add(self):
        rng = np.random.default_rng(2)
        a = Histogram.from_samples(rng.normal(3, 1, 4000), n_bins=40)
        b = Histogram.from_samples(rng.normal(5, 2, 4000), n_bins=40)
        total = a.convolve(b)
        assert total.mean() == pytest.approx(a.mean() + b.mean(), rel=0.02)
        assert total.variance() == pytest.approx(
            a.variance() + b.variance(), rel=0.1)

    def test_convolve_point_mass_shifts(self):
        a = Histogram(0.0, 1.0, [0.5, 0.5])
        shifted = a.convolve(Histogram.point_mass(10.0))
        assert shifted.mean() == pytest.approx(a.mean() + 10.0, abs=0.01)

    def test_convolve_type_check(self):
        with pytest.raises(TypeError):
            Histogram(0.0, 1.0, [1.0]).convolve("no")

    def test_shift(self):
        a = Histogram(0.0, 1.0, [0.25, 0.75])
        assert a.shift(5.0).mean() == pytest.approx(a.mean() + 5.0)

    def test_rebin_preserves_mass_and_mean(self):
        rng = np.random.default_rng(3)
        a = Histogram.from_samples(rng.gamma(3, 2, 3000), n_bins=60)
        coarse = a.rebinned(a.width * 3)
        assert coarse.probabilities.sum() == pytest.approx(1.0)
        assert coarse.mean() == pytest.approx(a.mean(), abs=2 * a.width)

    def test_mixture_mean(self):
        a = Histogram.point_mass(0.0, width=0.5)
        b = Histogram.point_mass(10.0, width=0.5)
        mixed = Histogram.mixture([a, b], [0.25, 0.75])
        assert mixed.mean() == pytest.approx(7.5, abs=0.3)

    def test_mixture_validation(self):
        with pytest.raises(ValueError):
            Histogram.mixture([Histogram.point_mass(0.0)], [0.5, 0.5])
        with pytest.raises(ValueError):
            Histogram.mixture([], [])

    def test_truncated_support(self):
        uniform = Histogram(0.0, 1.0, np.ones(10) / 10)
        clipped = uniform.truncated(low=3.0, high=6.0)
        assert clipped.min() >= 3.0
        assert clipped.max() <= 6.0
        assert clipped.probabilities.sum() == pytest.approx(1.0)

    def test_truncated_empty(self):
        uniform = Histogram(0.0, 1.0, np.ones(10) / 10)
        with pytest.raises(ValueError):
            uniform.truncated(low=100.0)


class TestGaussianMixture:
    def test_fit_recovers_two_modes(self):
        rng = np.random.default_rng(4)
        samples = np.concatenate([
            rng.normal(0.0, 1.0, 1000), rng.normal(10.0, 1.0, 1000)
        ])
        mixture = GaussianMixture.fit(samples, 2, rng=rng)
        means = np.sort(mixture.means)
        assert means[0] == pytest.approx(0.0, abs=0.5)
        assert means[1] == pytest.approx(10.0, abs=0.5)
        assert mixture.weights == pytest.approx([0.5, 0.5], abs=0.08)

    def test_single_component_matches_moments(self):
        rng = np.random.default_rng(5)
        samples = rng.normal(3.0, 2.0, 2000)
        mixture = GaussianMixture.fit(samples, 1, rng=rng)
        assert mixture.mean() == pytest.approx(3.0, abs=0.2)
        assert mixture.std() == pytest.approx(2.0, abs=0.2)

    def test_cdf_and_quantile_consistent(self):
        mixture = GaussianMixture([0.0, 4.0], [1.0, 1.0], [0.5, 0.5])
        median = mixture.quantile(0.5)
        assert mixture.cdf(median) == pytest.approx(0.5, abs=1e-6)
        assert median == pytest.approx(2.0, abs=1e-4)

    def test_pdf_integrates_to_one(self):
        mixture = GaussianMixture([0.0, 3.0], [0.5, 1.5], [0.3, 0.7])
        grid = np.linspace(-10, 15, 4000)
        integral = trapezoid(mixture.pdf(grid), grid)
        assert integral == pytest.approx(1.0, abs=1e-4)

    def test_sampling_moments(self):
        mixture = GaussianMixture([0.0, 8.0], [1.0, 2.0], [0.6, 0.4])
        samples = mixture.sample(30000, rng=np.random.default_rng(6))
        assert samples.mean() == pytest.approx(mixture.mean(), abs=0.1)
        assert samples.std() == pytest.approx(mixture.std(), abs=0.1)

    def test_to_histogram_preserves_moments(self):
        mixture = GaussianMixture([2.0], [1.0], [1.0])
        histogram = mixture.to_histogram(n_bins=120)
        assert histogram.mean() == pytest.approx(2.0, abs=0.05)
        assert histogram.std() == pytest.approx(1.0, abs=0.05)

    def test_validation(self):
        with pytest.raises(ValueError):
            GaussianMixture([0.0], [0.0], [1.0])
        with pytest.raises(ValueError):
            GaussianMixture([0.0, 1.0], [1.0], [1.0])
        with pytest.raises(ValueError):
            GaussianMixture.fit([1.0], 2)


@settings(deadline=None, max_examples=25)
@given(
    mean_a=st.floats(-20, 20), mean_b=st.floats(-20, 20),
    seed=st.integers(0, 100),
)
def test_convolution_mean_additivity_property(mean_a, mean_b, seed):
    """E[A + B] = E[A] + E[B] holds for histogram convolution."""
    rng = np.random.default_rng(seed)
    a = Histogram.from_samples(rng.normal(mean_a, 1.0, 400), n_bins=25)
    b = Histogram.from_samples(rng.normal(mean_b, 2.0, 400), n_bins=25)
    total = a.convolve(b)
    tolerance = 2 * max(a.width, b.width)
    assert abs(total.mean() - (a.mean() + b.mean())) < tolerance


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 1000))
def test_cdf_is_valid_distribution_property(seed):
    """Any sampled histogram has a monotone CDF ending at 1."""
    rng = np.random.default_rng(seed)
    histogram = Histogram.from_samples(rng.exponential(2.0, 200), n_bins=15)
    grid = np.linspace(histogram.min() - 1, histogram.max() + 1, 64)
    cdf = histogram.cdf(grid)
    assert np.all(np.diff(cdf) >= -1e-12)
    assert cdf[-1] == pytest.approx(1.0)


def _assert_bitwise(histogram, reference):
    assert histogram.start == reference.start
    assert histogram.width == reference.width
    assert histogram.probabilities.tobytes() == \
        reference.probabilities.tobytes()


# Values drawn from a coarse grid tie on bin edges; the 1e10 offsets
# make a single sample's padded range empty, taking numpy's +-0.5 path.
_sample_groups = st.lists(
    st.one_of(
        st.lists(st.integers(0, 40).map(lambda k: k * 0.25),
                 min_size=1, max_size=30),
        st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=30),
        st.floats(-1e3, 1e3).map(lambda v: [v] * 5),
        st.lists(st.integers(0, 2).map(lambda k: 1e10 + k),
                 min_size=1, max_size=4),
        st.just([1e10]),
    ),
    min_size=1, max_size=12,
)


class TestSampleGroupsKernel:
    """``from_sample_groups`` is bitwise ``numpy.histogram`` per group."""

    @settings(deadline=None, max_examples=200)
    @given(groups=_sample_groups,
           n_bins=st.sampled_from([1, 2, 3, 8, 9, 25, 30]))
    def test_matches_reference_bitwise(self, groups, n_bins):
        histograms = Histogram.from_sample_groups(groups, n_bins)
        assert len(histograms) == len(groups)
        for group, histogram in zip(groups, histograms):
            _assert_bitwise(histogram,
                            histogram_reference(group, n_bins))

    @settings(deadline=None, max_examples=100)
    @given(groups=st.lists(
        st.lists(st.integers(-8, 48).map(lambda k: k * 0.25),
                 min_size=1, max_size=30).filter(
            lambda group: any(0.0 <= v <= 10.0 for v in group)),
        min_size=1, max_size=8),
        n_bins=st.sampled_from([1, 4, 10, 25]))
    def test_matches_reference_with_bounds(self, groups, n_bins):
        histograms = Histogram.from_sample_groups(groups, n_bins,
                                                  bounds=(0.0, 10.0))
        for group, histogram in zip(groups, histograms):
            _assert_bitwise(histogram, histogram_reference(
                group, n_bins, bounds=(0.0, 10.0)))

    @pytest.mark.parametrize("samples, n_bins", [
        # The scaled offset rounds one bin too high (numpy decrements).
        ([19.06, 62.22, 47.83333334771999], 3),
        # A sample exactly on an inner edge rounds one bin too low.
        ([63.7, 77.26, 65.63714284745714], 7),
    ])
    def test_index_corrections_at_bin_edges(self, samples, n_bins):
        histogram, = Histogram.from_sample_groups([samples], n_bins)
        _assert_bitwise(histogram, histogram_reference(samples, n_bins))

    def test_from_samples_is_one_group(self):
        samples = np.random.default_rng(3).gamma(2.0, 3.0, 97)
        _assert_bitwise(Histogram.from_samples(samples, n_bins=17),
                        Histogram.from_sample_groups([samples], 17)[0])

    def test_no_groups(self):
        assert Histogram.from_sample_groups([], 10) == []

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_any_bad_group_raises(self, bad):
        with pytest.raises(ValueError, match="samples must be finite"):
            Histogram.from_sample_groups([[1.0, 2.0], [3.0, bad]], 5)
        with pytest.raises(ValueError, match="must not be empty"):
            Histogram.from_sample_groups([[1.0, 2.0], []], 5)
        with pytest.raises(ValueError, match="no samples fall inside"):
            Histogram.from_sample_groups([[1.0], [9.0]], 5,
                                         bounds=(0.0, 2.0))


class TestDegenerateSamples:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_samples_rejected(self, bad):
        with pytest.raises(ValueError, match="samples must be finite"):
            Histogram.from_samples([1.0, bad, 2.0])
        with pytest.raises(ValueError, match="samples must be finite"):
            Histogram.from_samples([1.0, bad], bounds=(0.0, 2.0))

    def test_empty_samples_rejected(self):
        with pytest.raises(ValueError, match="must not be empty"):
            Histogram.from_samples([])

    def test_two_dimensional_samples_rejected(self):
        with pytest.raises(ValueError, match="1-dimensional"):
            Histogram.from_samples([[1.0, 2.0], [3.0, 4.0]])

    @pytest.mark.parametrize("samples", [[7.5], [7.5, 7.5, 7.5], [1e10]])
    def test_point_like_histogram(self, samples):
        histogram = Histogram.from_samples(samples, n_bins=10)
        assert len(histogram) == 10
        assert histogram.probabilities.max() == 1.0
        assert histogram.mean() == pytest.approx(samples[0], rel=1e-9)
        assert histogram.std() <= histogram.width

    def test_too_many_bins_for_range(self):
        with pytest.raises(ValueError, match="Too many bins"):
            Histogram.from_samples([1e16], n_bins=25)
        with pytest.raises(ValueError, match="Too many bins"):
            Histogram.from_samples([1.0], n_bins=30, bounds=(0.0, 1e-322))

    def test_bounds_excluding_every_sample(self):
        with pytest.raises(ValueError, match="no samples fall inside"):
            Histogram.from_samples([5.0, 6.0], bounds=(0.0, 1.0))

    def test_inverted_bounds(self):
        with pytest.raises(ValueError, match="low < high"):
            Histogram.from_samples([5.0], bounds=(1.0, 1.0))


class TestHistogramValue:
    def test_probabilities_read_only(self):
        histogram = Histogram.from_samples([1.0, 2.0, 2.5], n_bins=4)
        with pytest.raises(ValueError):
            histogram.probabilities[0] = 1.0
        with pytest.raises(AttributeError):
            histogram.start = 0.0

    def test_read_only_after_pickle_round_trip(self):
        histogram = Histogram(0.0, 1.0, [1.0, 3.0])
        restored = pickle.loads(pickle.dumps(histogram))
        assert restored.probabilities.tobytes() == \
            histogram.probabilities.tobytes()
        with pytest.raises(ValueError):
            restored.probabilities[0] = 0.5

    def test_copies_share_the_value(self):
        histogram = Histogram(0.0, 1.0, [1.0, 3.0])
        assert copy.copy(histogram) is histogram
        assert copy.deepcopy(histogram) is histogram

    def test_constructor_input_stays_writeable(self):
        weights = np.array([1.0, 1.0])
        Histogram(0.0, 1.0, weights)
        weights[0] = 2.0
