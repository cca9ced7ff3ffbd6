"""Forecaster interface and evaluation utilities.

Every forecaster in the library follows the same two-step contract:

* ``fit(series)`` — learn from a (complete) :class:`TimeSeries`;
* ``predict(horizon)`` — forecast the ``horizon`` steps following the
  training window, returning an array of shape ``(horizon, C)``.

``forecast(series, horizon)`` composes the two.  The module also
implements rolling-origin evaluation — the standard backtesting
protocol used by every forecasting experiment and the benchmarking
harness.
"""

from __future__ import annotations

import abc

import numpy as np

from ..._validation import check_positive, check_timeseries

__all__ = ["Forecaster", "rolling_origin_evaluation"]


class Forecaster(abc.ABC):
    """Abstract base for point forecasters."""

    #: Set by fit();
    _fitted = False

    @abc.abstractmethod
    def fit(self, series):
        """Learn from ``series``; returns ``self``."""

    @abc.abstractmethod
    def predict(self, horizon):
        """Forecast ``horizon`` steps past the training window.

        Returns an array of shape ``(horizon, C)``.
        """

    def forecast(self, series, horizon):
        """Fit on ``series`` and predict ``horizon`` steps."""
        return self.fit(series).predict(horizon)

    # -- shared helpers for subclasses -----------------------------------

    @staticmethod
    def _validate_series(series):
        if not check_timeseries(series).is_complete():
            raise ValueError(
                "forecasters require complete data; run governance "
                "imputation first (this is the pipeline's job)"
            )
        return series

    @staticmethod
    def _validate_horizon(horizon):
        check_positive(horizon, "horizon")
        return int(horizon)

    def _check_fitted(self):
        if not self._fitted:
            raise RuntimeError(
                f"{type(self).__name__} must be fit before predicting"
            )


def rolling_origin_evaluation(forecaster_factory, series, *, horizon=12,
                              n_origins=5, min_train_fraction=0.5,
                              metric=None):
    """Backtest a forecaster with expanding training windows.

    Parameters
    ----------
    forecaster_factory:
        Zero-argument callable returning a fresh forecaster (so state
        never leaks between origins).
    series:
        The full evaluation series.
    horizon:
        Forecast length at each origin.
    n_origins:
        Number of evenly spaced forecast origins.
    min_train_fraction:
        Earliest origin, as a fraction of the series length.
    metric:
        Callable ``metric(y_true, y_pred) -> float``; defaults to MAE.

    Returns
    -------
    dict
        ``{"score": mean metric, "per_origin": list, "horizon": horizon}``.
    """
    from ..metrics import mae

    if metric is None:
        metric = mae
    check_positive(horizon, "horizon")
    check_positive(n_origins, "n_origins")
    horizon = int(horizon)
    n_origins = int(n_origins)

    length = len(series)
    first = int(min_train_fraction * length)
    last = length - horizon
    if last <= first:
        raise ValueError(
            f"series too short: length {length} cannot host {n_origins} "
            f"origins with horizon {horizon}"
        )
    origins = np.unique(
        np.linspace(first, last, n_origins).astype(int)
    )

    scores = []
    for origin in origins:
        train = series.slice(0, int(origin))
        actual = series.slice(int(origin), int(origin) + horizon).values
        model = forecaster_factory()
        predicted = model.forecast(train, horizon)
        predicted = np.asarray(predicted, dtype=float)
        if predicted.shape != actual.shape:
            raise ValueError(
                f"forecaster returned shape {predicted.shape}, "
                f"expected {actual.shape}"
            )
        scores.append(float(metric(actual, predicted)))
    return {
        "score": float(np.mean(scores)),
        "per_origin": scores,
        "horizon": horizon,
    }
