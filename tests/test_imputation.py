"""Tests for temporal, spatial and spatio-temporal imputation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import RoadNetwork, TimeSeries
from repro.datasets import seasonal_series
from repro.governance.imputation import (
    GcnCompleter,
    KalmanImputer,
    LabelPropagationCompleter,
    ODMatrixCompleter,
    backcast,
    impute_linear,
    impute_locf,
    impute_seasonal,
    line_graph_adjacency,
)


def corrupted_seasonal(missing=0.3, seed=0):
    clean = seasonal_series(600, rng=np.random.default_rng(seed))
    gappy = clean.corrupt(missing, np.random.default_rng(seed + 1))
    return clean, gappy


def mae_on_missing(clean, gappy, filled):
    holes = ~gappy.mask
    return np.abs(filled.values[holes] - clean.values[holes]).mean()


class TestTemporalImputation:
    def test_all_methods_complete(self):
        _, gappy = corrupted_seasonal()
        for filled in (
            impute_locf(gappy),
            impute_linear(gappy),
            impute_seasonal(gappy, 96),
            KalmanImputer(5).impute(gappy),
        ):
            assert filled.is_complete()

    def test_observed_entries_untouched(self):
        clean, gappy = corrupted_seasonal()
        for filled in (impute_locf(gappy), impute_linear(gappy),
                       impute_seasonal(gappy, 96),
                       KalmanImputer(5).impute(gappy)):
            observed = gappy.mask
            assert np.allclose(filled.values[observed],
                               gappy.values[observed])

    def test_linear_exact_on_linear_signal(self):
        clean = TimeSeries(np.arange(50, dtype=float))
        gappy = clean.corrupt(0.4, np.random.default_rng(2))
        filled = impute_linear(gappy)
        # Interior points are exactly recovered; endpoints may be flat.
        interior = np.zeros(50, dtype=bool)
        observed = np.flatnonzero(gappy.mask[:, 0])
        interior[observed[0]:observed[-1] + 1] = True
        holes = ~gappy.mask[:, 0] & interior
        assert np.allclose(filled.values[holes, 0],
                           clean.values[holes, 0])

    def test_locf_carries_forward(self):
        gappy = TimeSeries([1.0, np.nan, np.nan, 4.0])
        filled = impute_locf(gappy)
        assert np.allclose(filled.values[:, 0], [1.0, 1.0, 1.0, 4.0])

    def test_locf_backfills_leading_gap(self):
        gappy = TimeSeries([np.nan, 2.0, 3.0])
        filled = impute_locf(gappy)
        assert filled.values[0, 0] == 2.0

    def test_seasonal_beats_linear_on_long_gaps(self):
        clean = seasonal_series(960, noise_scale=0.05,
                                rng=np.random.default_rng(3))
        gappy = clean.corrupt(0.25, np.random.default_rng(4),
                              block_length=24)
        linear_err = mae_on_missing(clean, gappy, impute_linear(gappy))
        seasonal_err = mae_on_missing(clean, gappy,
                                      impute_seasonal(gappy, 96))
        assert seasonal_err < linear_err

    def test_kalman_beats_locf(self):
        clean, gappy = corrupted_seasonal(missing=0.4, seed=5)
        locf_err = mae_on_missing(clean, gappy, impute_locf(gappy))
        kalman_err = mae_on_missing(clean, gappy,
                                    KalmanImputer(8).impute(gappy))
        assert kalman_err < locf_err

    def test_kalman_handles_all_missing_channel(self):
        values = np.column_stack([np.full(20, np.nan), np.arange(20.0)])
        filled = KalmanImputer(3).impute(TimeSeries(values))
        assert filled.is_complete()

    def test_kalman_type_check(self):
        with pytest.raises(TypeError):
            KalmanImputer().impute([1, 2, 3])
        values = np.arange(12.0).reshape(6, 2)
        for impute in (impute_locf, impute_linear,
                       lambda s: impute_seasonal(s, 3),
                       KalmanImputer().impute):
            with pytest.raises(TypeError,
                               match="expected a TimeSeries, got ndarray"):
                impute(values)

    def test_backcast_shapes(self):
        clean, _ = corrupted_seasonal()
        result = backcast(clean, 10)
        assert result.shape == (10, clean.n_channels)

    def test_backcast_seasonal_uses_profile(self):
        clean = seasonal_series(480, noise_scale=0.0,
                                rng=np.random.default_rng(6))
        result = backcast(clean, 96, period=96)
        # Backcasting exactly one period should reproduce the profile.
        assert np.allclose(result[:, 0], clean.values[:96, 0], atol=0.15)

    def test_backcast_trend(self):
        clean = TimeSeries(np.arange(100, dtype=float))
        result = backcast(clean, 5)
        assert np.allclose(result[:, 0], [-5, -4, -3, -2, -1], atol=1e-6)


class TestSpatialCompletion:
    @pytest.fixture
    def network_and_truth(self):
        network = RoadNetwork.grid(6, 6)
        rng = np.random.default_rng(7)
        truth = {}
        for u, v in network.edges():
            (x1, y1), (x2, y2) = network.edge_endpoints(u, v)
            # Smooth spatial field: weight varies with location.
            truth[(u, v)] = 10.0 + 3.0 * np.sin(0.5 * (x1 + x2)) + \
                2.0 * np.cos(0.5 * (y1 + y2)) + rng.normal(0, 0.1)
        return network, truth

    def observe(self, truth, fraction, seed=8):
        rng = np.random.default_rng(seed)
        edges = list(truth)
        n_observed = max(1, int(fraction * len(edges)))
        chosen = rng.choice(len(edges), size=n_observed, replace=False)
        return {edges[i]: truth[edges[i]] for i in chosen}

    def test_line_graph_symmetric(self):
        network = RoadNetwork.grid(3, 3)
        _, adjacency = line_graph_adjacency(network)
        assert np.allclose(adjacency, adjacency.T)
        assert np.all(np.diag(adjacency) == 0)

    def test_label_propagation_completes_all(self, network_and_truth):
        network, truth = network_and_truth
        observed = self.observe(truth, 0.5)
        completed = LabelPropagationCompleter().complete(network, observed)
        assert set(completed) == set(network.edges())

    def test_label_propagation_clamps_observed(self, network_and_truth):
        network, truth = network_and_truth
        observed = self.observe(truth, 0.5)
        completed = LabelPropagationCompleter().complete(network, observed)
        for edge, weight in observed.items():
            assert completed[edge] == pytest.approx(weight)

    def test_label_propagation_beats_mean(self, network_and_truth):
        network, truth = network_and_truth
        observed = self.observe(truth, 0.4)
        completed = LabelPropagationCompleter().complete(network, observed)
        mean = np.mean(list(observed.values()))
        hidden = [e for e in truth if e not in observed]
        lp_error = np.mean([abs(completed[e] - truth[e]) for e in hidden])
        mean_error = np.mean([abs(mean - truth[e]) for e in hidden])
        assert lp_error < mean_error

    def test_gcn_beats_mean(self, network_and_truth):
        network, truth = network_and_truth
        observed = self.observe(truth, 0.4)
        completer = GcnCompleter(rng=np.random.default_rng(9))
        completed = completer.complete(network, observed)
        mean = np.mean(list(observed.values()))
        hidden = [e for e in truth if e not in observed]
        gcn_error = np.mean([abs(completed[e] - truth[e]) for e in hidden])
        mean_error = np.mean([abs(mean - truth[e]) for e in hidden])
        assert gcn_error < mean_error

    def test_gcn_loss_decreases(self, network_and_truth):
        network, truth = network_and_truth
        observed = self.observe(truth, 0.5)
        completer = GcnCompleter(n_iterations=200,
                                 rng=np.random.default_rng(10))
        completer.complete(network, observed)
        losses = completer.training_losses
        assert losses[-1] < losses[0]

    def test_empty_observations_rejected(self, network_and_truth):
        network, _ = network_and_truth
        with pytest.raises(ValueError):
            LabelPropagationCompleter().complete(network, {})
        with pytest.raises(ValueError):
            GcnCompleter().complete(network, {})

    def test_unknown_edge_rejected(self, network_and_truth):
        network, _ = network_and_truth
        with pytest.raises(KeyError):
            LabelPropagationCompleter().complete(network, {("x", "y"): 1.0})


class TestODCompletion:
    def make_frames(self, n_frames=24, n_regions=8, seed=11):
        rng = np.random.default_rng(seed)
        attraction = rng.uniform(0.5, 2.0, n_regions)
        production = rng.uniform(0.5, 2.0, n_regions)
        base = np.outer(production, attraction) * 10.0
        time_factor = 1.0 + 0.5 * np.sin(
            2 * np.pi * np.arange(n_frames) / 24)
        frames = base[None] * time_factor[:, None, None]
        frames += rng.normal(0, 0.3, frames.shape)
        return np.clip(frames, 0, None)

    def test_complete_fills_everything(self):
        frames = self.make_frames()
        rng = np.random.default_rng(12)
        mask = rng.random(frames.shape) > 0.4
        completed = ODMatrixCompleter().complete(
            np.where(mask, frames, np.nan))
        assert not np.isnan(completed).any()

    def test_observed_passthrough(self):
        frames = self.make_frames()
        rng = np.random.default_rng(13)
        mask = rng.random(frames.shape) > 0.4
        gappy = np.where(mask, frames, np.nan)
        completed = ODMatrixCompleter().complete(gappy)
        assert np.allclose(completed[mask], frames[mask])

    def test_estimates_nonnegative(self):
        frames = self.make_frames()
        rng = np.random.default_rng(14)
        mask = rng.random(frames.shape) > 0.5
        completed = ODMatrixCompleter().complete(
            np.where(mask, frames, np.nan))
        assert np.all(completed >= 0)

    def test_beats_global_mean(self):
        frames = self.make_frames()
        rng = np.random.default_rng(15)
        mask = rng.random(frames.shape) > 0.4
        gappy = np.where(mask, frames, np.nan)
        completed = ODMatrixCompleter().complete(gappy)
        mean = frames[mask].mean()
        model_error = np.abs(completed[~mask] - frames[~mask]).mean()
        mean_error = np.abs(mean - frames[~mask]).mean()
        assert model_error < mean_error

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            ODMatrixCompleter().complete(np.zeros((3, 3)))
        with pytest.raises(ValueError):
            ODMatrixCompleter().complete(np.full((2, 2, 2), np.nan))
        with pytest.raises(ValueError):
            ODMatrixCompleter().complete(np.zeros((2, 2, 2)),
                                         mask=np.ones((1, 2, 2), dtype=bool))


@settings(deadline=None, max_examples=15)
@given(missing=st.floats(min_value=0.05, max_value=0.5),
       seed=st.integers(0, 50))
def test_imputers_idempotent_on_complete_series(missing, seed):
    """Imputing a complete series changes nothing."""
    rng = np.random.default_rng(seed)
    series = TimeSeries(rng.normal(size=(40, 2)))
    assert np.allclose(impute_linear(series).values, series.values)
    assert np.allclose(impute_locf(series).values, series.values)
    assert np.allclose(impute_seasonal(series, 8).values, series.values)
