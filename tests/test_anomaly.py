"""Tests for the anomaly-detection family."""

import numpy as np
import pytest

from repro import TimeSeries
from repro.datasets import inject_anomalies, seasonal_series
from repro.analytics.anomaly import (
    AutoencoderDetector,
    DiversityDrivenEnsembleDetector,
    RandomizedEnsembleDetector,
    RobustAutoencoderDetector,
    SpectralResidualDetector,
)
from repro.analytics.metrics import point_adjusted_scores, roc_auc


@pytest.fixture(scope="module")
def workload():
    train = seasonal_series(1200, rng=np.random.default_rng(0))
    test_clean = seasonal_series(600, rng=np.random.default_rng(1))
    test, labels = inject_anomalies(test_clean, 0.05,
                                    rng=np.random.default_rng(2))
    return train, test, labels


def detector_auc(detector, train, test, labels):
    detector.fit(train)
    scores = point_adjusted_scores(labels, detector.score(test))
    return roc_auc(labels, scores)


class TestAutoencoderDetector:
    def test_detects_injected_anomalies(self, workload):
        train, test, labels = workload
        auc = detector_auc(
            AutoencoderDetector(window=24, n_epochs=40,
                                rng=np.random.default_rng(3)),
            train, test, labels)
        assert auc > 0.85

    def test_spike_localization(self):
        rng = np.random.default_rng(4)
        values = np.sin(2 * np.pi * np.arange(600) / 96)
        values += 0.05 * rng.normal(size=600)
        train = TimeSeries(values.copy())
        spiked = values.copy()
        spiked[300] += 5.0
        detector = AutoencoderDetector(window=24, n_epochs=40,
                                       rng=np.random.default_rng(5))
        detector.fit(train)
        scores = detector.score(TimeSeries(spiked))
        assert np.argmax(scores) == 300

    def test_score_length_matches_series(self, workload):
        train, test, _ = workload
        detector = AutoencoderDetector(window=16, n_epochs=10,
                                       rng=np.random.default_rng(6))
        detector.fit(train)
        assert detector.score(test).shape == (len(test),)

    def test_feature_errors_shape(self, workload):
        train, test, _ = workload
        detector = AutoencoderDetector(window=16, n_epochs=10,
                                       rng=np.random.default_rng(7))
        detector.fit(train)
        errors = detector.feature_errors(test)
        assert errors.shape == (len(test), test.n_channels)
        assert np.all(errors >= 0)

    def test_requires_fit(self, workload):
        _, test, _ = workload
        with pytest.raises(RuntimeError):
            AutoencoderDetector().score(test)

    def test_rejects_incomplete(self):
        gappy = TimeSeries(np.concatenate([[np.nan], np.zeros(100)]))
        with pytest.raises(ValueError):
            AutoencoderDetector(window=8).fit(gappy)

    def test_rejects_short_series(self):
        with pytest.raises(ValueError):
            AutoencoderDetector(window=50).fit(TimeSeries(np.zeros(20)))

    def test_training_loss_decreases(self, workload):
        train, _, _ = workload
        detector = AutoencoderDetector(window=24, n_epochs=30,
                                       rng=np.random.default_rng(8))
        detector.fit(train)
        losses = detector._network.training_losses
        assert losses[-1] < losses[0]


class TestRobustDetector:
    def test_robust_survives_contaminated_training(self):
        """E11's claim: trimmed training stays effective when the
        training data is contaminated (aggregated over seeds - single
        draws are noisy)."""
        kwargs = dict(window=24, n_hidden=48, n_latent=12, n_epochs=60,
                      learning_rate=0.01)
        vanilla_scores, robust_scores = [], []
        for seed in (9, 30, 50):
            clean = seasonal_series(1000, rng=np.random.default_rng(seed))
            dirty, _ = inject_anomalies(
                clean, 0.1, rng=np.random.default_rng(seed + 1))
            test_clean = seasonal_series(
                500, rng=np.random.default_rng(seed + 2))
            test, labels = inject_anomalies(
                test_clean, 0.05, rng=np.random.default_rng(seed + 3))
            vanilla_scores.append(detector_auc(
                AutoencoderDetector(rng=np.random.default_rng(seed + 4),
                                    **kwargs),
                dirty, test, labels))
            robust_scores.append(detector_auc(
                RobustAutoencoderDetector(
                    trim_fraction=0.3, rng=np.random.default_rng(seed + 4),
                    **kwargs),
                dirty, test, labels))
        assert np.mean(robust_scores) >= np.mean(vanilla_scores) - 0.01

    def test_trimming_noop_on_clean_data(self):
        """The MAD criterion barely trims when training data is clean,
        so the robust detector matches the vanilla one there."""
        clean = seasonal_series(800, rng=np.random.default_rng(40))
        detector = RobustAutoencoderDetector(
            window=16, trim_fraction=0.3, warmup_epochs=0, n_epochs=5,
            rng=np.random.default_rng(41))
        detector.fit(clean)
        flat = detector._standardize(detector._window_matrix(clean, 1))
        weights = detector._sample_weights(flat, epoch=10)
        assert weights.mean() > 0.9

    def test_trimming_weights_zero_out_outliers(self):
        rng = np.random.default_rng(14)
        detector = RobustAutoencoderDetector(
            window=8, trim_fraction=0.2, warmup_epochs=0, n_epochs=5,
            rng=rng)
        clean = seasonal_series(400, rng=np.random.default_rng(15))
        detector.fit(clean)
        flat = detector._window_matrix(clean, 1)
        standardized = detector._standardize(flat)
        weights = detector._sample_weights(standardized, epoch=10)
        assert (weights == 0).sum() > 0
        assert (weights == 1).sum() > 0

    def test_soft_mode_downweights(self):
        detector = RobustAutoencoderDetector(
            window=8, trim_fraction=0.2, warmup_epochs=0, soft=True,
            soft_weight=0.25, n_epochs=3, rng=np.random.default_rng(16))
        clean = seasonal_series(300, rng=np.random.default_rng(17))
        detector.fit(clean)
        flat = detector._standardize(detector._window_matrix(clean, 1))
        weights = detector._sample_weights(flat, epoch=10)
        assert set(np.unique(weights)) <= {0.25, 1.0}

    def test_validation(self):
        with pytest.raises(ValueError):
            RobustAutoencoderDetector(trim_fraction=1.0)


class TestEnsembles:
    def test_randomized_ensemble_detects(self, workload):
        train, test, labels = workload
        auc = detector_auc(
            RandomizedEnsembleDetector(n_members=5, window=24,
                                       n_epochs=20,
                                       rng=np.random.default_rng(18)),
            train, test, labels)
        assert auc > 0.8

    def test_members_are_diverse(self, workload):
        train, _, _ = workload
        ensemble = RandomizedEnsembleDetector(
            n_members=4, window=24, n_epochs=5,
            rng=np.random.default_rng(19))
        ensemble.fit(train)
        latents = {m.n_latent for m in ensemble.members}
        masks = {tuple(m._mask) for m in ensemble.members}
        assert len(masks) == 4 or len(latents) > 1

    def test_diversity_selection_prefers_uncorrelated(self, workload):
        train, _, _ = workload
        ensemble = DiversityDrivenEnsembleDetector(
            n_members=3, pool_size=6, window=24, n_epochs=5,
            rng=np.random.default_rng(20))
        ensemble.fit(train)
        assert len(ensemble.members) == 3
        assert len(set(ensemble.selected_indices_)) == 3

    def test_pool_size_validation(self):
        with pytest.raises(ValueError):
            DiversityDrivenEnsembleDetector(n_members=5, pool_size=3)

    def test_score_requires_fit(self, workload):
        _, test, _ = workload
        with pytest.raises(RuntimeError):
            RandomizedEnsembleDetector().score(test)


class TestSpectralResidual:
    def test_detects_spike(self):
        rng = np.random.default_rng(21)
        values = np.sin(2 * np.pi * np.arange(500) / 50)
        values += 0.05 * rng.normal(size=500)
        values[250] += 4.0
        scores = SpectralResidualDetector().score(TimeSeries(values))
        assert abs(int(np.argmax(scores)) - 250) <= 2

    def test_training_free_fit_is_noop(self):
        detector = SpectralResidualDetector()
        assert detector.fit(None) is detector

    def test_multichannel_max_aggregation(self):
        rng = np.random.default_rng(22)
        values = rng.normal(0, 0.1, size=(300, 2))
        values[100, 1] += 5.0
        scores = SpectralResidualDetector().score(TimeSeries(values))
        assert abs(int(np.argmax(scores)) - 100) <= 2

    def test_rejects_incomplete(self):
        with pytest.raises(ValueError):
            SpectralResidualDetector().score(
                TimeSeries([1.0, np.nan, 2.0]))

    def test_constant_series_scores_zero(self):
        scores = SpectralResidualDetector().score(
            TimeSeries(np.full(200, 3.5)))
        assert np.array_equal(scores, np.zeros(200))

    def test_constant_channel_leaves_spiky_channel_unchanged(self):
        rng = np.random.default_rng(23)
        spiky = rng.normal(0, 0.1, size=300)
        spiky[120] += 5.0
        detector = SpectralResidualDetector()
        alone = detector.score(TimeSeries(spiky))
        paired = detector.score(TimeSeries(
            np.column_stack([np.full(300, -2.0), spiky])))
        assert np.array_equal(paired, alone)
