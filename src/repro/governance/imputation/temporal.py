"""Temporal missing-value imputation (paper §II-B).

Sensor streams lose values to malfunctions and network outages; the
paper prescribes time series imputation and *backcast* techniques for
completing them temporally.  The module provides four estimators of
increasing sophistication — all sharing the same signature
``impute(series) -> TimeSeries``:

* :func:`impute_locf` — last observation carried forward (the naive
  baseline the learned methods must beat),
* :func:`impute_linear` — per-channel linear interpolation,
* :func:`impute_seasonal` — seasonal decomposition: fill with the
  per-phase seasonal mean plus an interpolated residual,
* :class:`KalmanImputer` — a local-level state-space model whose
  parameters are estimated by expectation-maximization, the classical
  counterpart of the RNN imputation/backcast of [13].

:func:`backcast` reconstructs values *before* the observed window, the
"postdiction" task of [13].

:class:`StreamingImputer` is the *online* variant for incremental
pipelines (see ``docs/STREAMING.md``): it carries O(C) recursive
state across arriving chunks, so a windowed governance stage can
impute each tick's observations without re-reading history.
"""

from __future__ import annotations

import numpy as np

from ..._validation import check_positive, check_timeseries
from ...datatypes import TimeSeries

__all__ = [
    "impute_locf",
    "impute_linear",
    "impute_seasonal",
    "KalmanImputer",
    "StreamingImputer",
    "backcast",
]


def _column_interpolate(values, mask, timestamps):
    """Linear interpolation of one channel; extrapolates flat at ends."""
    result = values.copy()
    observed = np.flatnonzero(mask)
    if observed.size == 0:
        result[:] = 0.0
        return result
    missing = np.flatnonzero(~mask)
    result[missing] = np.interp(
        timestamps[missing], timestamps[observed], values[observed]
    )
    return result


def impute_locf(series):
    """Last observation carried forward (first value carried backward)."""
    values = check_timeseries(series).values
    mask = series.mask
    filled = values.copy()
    for column in range(values.shape[1]):
        observed = np.flatnonzero(mask[:, column])
        if observed.size == 0:
            filled[:, column] = 0.0
            continue
        last = values[observed[0], column]
        for row in range(values.shape[0]):
            if mask[row, column]:
                last = values[row, column]
            else:
                filled[row, column] = last
    return series.with_values(filled)


def impute_linear(series):
    """Per-channel linear interpolation over the time axis."""
    values = check_timeseries(series).values
    mask = series.mask
    timestamps = series.timestamps
    filled = values.copy()
    for column in range(values.shape[1]):
        filled[:, column] = _column_interpolate(
            values[:, column], mask[:, column], timestamps
        )
    return series.with_values(filled)


def impute_seasonal(series, period):
    """Seasonal-mean imputation with interpolated residuals.

    The value at time ``t`` is estimated as ``seasonal_mean[t % period]``
    plus the linear interpolation of the de-seasonalized residual, so
    both the periodic shape and local level shifts are respected.
    """
    check_positive(period, "period")
    period = int(period)
    values = check_timeseries(series).values
    mask = series.mask
    timestamps = series.timestamps
    n_rows, n_cols = values.shape
    phases = np.arange(n_rows) % period
    filled = values.copy()
    for column in range(n_cols):
        seasonal = np.zeros(period)
        for phase in range(period):
            rows = (phases == phase) & mask[:, column]
            if rows.any():
                seasonal[phase] = values[rows, column].mean()
            else:
                general = mask[:, column]
                seasonal[phase] = (
                    values[general, column].mean() if general.any() else 0.0
                )
        residual = values[:, column] - seasonal[phases]
        residual_filled = _column_interpolate(
            residual, mask[:, column], timestamps
        )
        estimate = seasonal[phases] + residual_filled
        column_filled = values[:, column].copy()
        column_filled[~mask[:, column]] = estimate[~mask[:, column]]
        filled[:, column] = column_filled
    return series.with_values(filled)


class KalmanImputer:
    """Local-level state-space imputation with EM-estimated noise levels.

    Model per channel: ``state_t = state_{t-1} + w_t``,
    ``obs_t = state_t + v_t`` with ``w ~ N(0, q)``, ``v ~ N(0, r)``.
    Missing observations simply skip the update step; the RTS smoother
    then produces the minimum-mean-squared-error reconstruction, and EM
    re-estimates ``(q, r)`` from the smoothed moments.

    This is the classical analogue of the recurrent imputation networks
    in [13]: a learned temporal dynamic filling gaps in both directions.
    """

    def __init__(self, n_iterations=15):
        check_positive(n_iterations, "n_iterations")
        self.n_iterations = int(n_iterations)

    def _smooth_column(self, values, mask):
        observed = values[mask]
        if observed.size == 0:
            return np.zeros_like(values)
        if observed.size == 1:
            return np.full_like(values, observed[0])
        scale = observed.var() if observed.var() > 0 else 1.0
        q, r = 0.1 * scale, 0.5 * scale
        n = len(values)
        for _ in range(self.n_iterations):
            # Forward filter.
            means = np.zeros(n)
            variances = np.zeros(n)
            predicted_means = np.zeros(n)
            predicted_variances = np.zeros(n)
            mean, variance = observed[0], scale
            for t in range(n):
                if t > 0:
                    mean, variance = mean, variance + q
                predicted_means[t], predicted_variances[t] = mean, variance
                if mask[t]:
                    gain = variance / (variance + r)
                    mean = mean + gain * (values[t] - mean)
                    variance = (1 - gain) * variance
                means[t], variances[t] = mean, variance
            # RTS smoother.
            smoothed = np.zeros(n)
            smoothed_var = np.zeros(n)
            lag_cov = np.zeros(n)  # Cov(x_t, x_{t-1} | all data)
            smoothed[-1], smoothed_var[-1] = means[-1], variances[-1]
            for t in range(n - 2, -1, -1):
                gain = variances[t] / predicted_variances[t + 1]
                smoothed[t] = means[t] + gain * (
                    smoothed[t + 1] - predicted_means[t + 1]
                )
                smoothed_var[t] = variances[t] + gain ** 2 * (
                    smoothed_var[t + 1] - predicted_variances[t + 1]
                )
                lag_cov[t + 1] = gain * smoothed_var[t + 1]
            # EM update of q and r.
            diffs = np.diff(smoothed)
            q = float(np.mean(
                diffs ** 2
                + smoothed_var[1:] + smoothed_var[:-1] - 2 * lag_cov[1:]
            ))
            residual = values[mask] - smoothed[mask]
            r = float(np.mean(residual ** 2 + smoothed_var[mask]))
            q = max(q, 1e-10 * scale)
            r = max(r, 1e-10 * scale)
        return smoothed

    def impute(self, series):
        """Return a completed copy of ``series``."""
        values = check_timeseries(series).values
        mask = series.mask
        filled = values.copy()
        for column in range(values.shape[1]):
            smoothed = self._smooth_column(
                np.nan_to_num(values[:, column]), mask[:, column]
            )
            missing = ~mask[:, column]
            filled[missing, column] = smoothed[missing]
        return series.with_values(filled)


class StreamingImputer:
    """Recursive imputation over arriving chunks, O(C) carried state.

    The online counterpart of the batch imputers above for streaming
    pipelines: feed observation chunks in arrival order with
    :meth:`push` and each call returns the chunk completed, using
    only state carried from earlier chunks — no history re-read, no
    lookahead.

    Parameters
    ----------
    method:
        ``"locf"`` (default) carries the last observed value of each
        channel forward across chunk boundaries.  Once a channel has
        been observed at least once, the chunked output is *exactly*
        the rows batch :func:`impute_locf` produces on the
        concatenation of all chunks — the equivalence the streaming
        test suite pins.  Rows before a channel's first observation
        are filled with 0.0 (an online method cannot carry a future
        first observation backward the way the batch code does; use
        :func:`backcast` or a batch pass for postdiction).
        ``"ewma"`` fills gaps with an exponentially weighted moving
        average of the observed values, a smoother recursive
        estimate for noisy feeds.
    alpha:
        EWMA smoothing factor in (0, 1]; ignored for ``"locf"``.
    """

    def __init__(self, method="locf", *, alpha=0.3):
        if method not in ("locf", "ewma"):
            raise ValueError(
                f"method must be 'locf' or 'ewma', got {method!r}")
        alpha = float(alpha)
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        self.method = method
        self.alpha = alpha
        self._carry = None  # (C,) last carried estimate per channel
        self._seen = None   # (C,) bool: channel observed at least once
        self.rows_seen = 0

    def reset(self):
        """Forget all carried state (a fresh stream)."""
        self._carry = None
        self._seen = None
        self.rows_seen = 0

    @property
    def carry(self):
        """The carried per-channel estimate (copy), or ``None``."""
        return None if self._carry is None else self._carry.copy()

    def _ensure_state(self, n_channels):
        if self._carry is None:
            self._carry = np.zeros(n_channels)
            self._seen = np.zeros(n_channels, dtype=bool)
        elif len(self._carry) != n_channels:
            raise ValueError(
                f"chunk has {n_channels} channels, stream carried "
                f"{len(self._carry)}")

    def push(self, chunk):
        """Complete one chunk; returns the same type it was given.

        ``chunk`` is a :class:`~repro.datatypes.TimeSeries` (missing
        entries per its mask) or an array-like of shape ``(M,)`` or
        ``(M, C)`` with ``nan`` marking missing entries.
        """
        if isinstance(chunk, TimeSeries):
            filled = self._fill(chunk.values, chunk.mask)
            return chunk.with_values(filled)
        values = np.asarray(chunk, dtype=float)
        squeeze = values.ndim == 1
        if squeeze:
            values = values[:, None]
        filled = self._fill(values.copy(), ~np.isnan(values))
        return filled[:, 0] if squeeze else filled

    def _fill(self, values, mask):
        n_rows, n_channels = values.shape
        self._ensure_state(n_channels)
        for column in range(n_channels):
            carry = self._carry[column]
            seen = self._seen[column]
            for row in range(n_rows):
                if mask[row, column]:
                    observed = values[row, column]
                    if self.method == "ewma" and seen:
                        carry += self.alpha * (observed - carry)
                    else:
                        carry = observed
                    seen = True
                else:
                    values[row, column] = carry if seen else 0.0
            self._carry[column] = carry
            self._seen[column] = seen
        self.rows_seen += n_rows
        return values


def backcast(series, n_steps, *, period=None):
    """Reconstruct ``n_steps`` values *before* the observed window.

    Uses the seasonal profile when ``period`` is given, otherwise a
    linear trend fit on the earliest quarter of the data — the
    "data postdiction" task of [13].

    Returns an array of shape ``(n_steps, C)``.
    """
    check_positive(n_steps, "n_steps")
    n_steps = int(n_steps)
    complete = impute_linear(series)
    values = complete.values
    n_rows, n_cols = values.shape
    result = np.zeros((n_steps, n_cols))
    if period is not None:
        period = int(check_positive(period, "period"))
        for column in range(n_cols):
            for step in range(n_steps):
                # position of the backcast point in the seasonal cycle
                phase = (-(n_steps - step)) % period
                rows = np.arange(n_rows) % period == phase
                result[step, column] = (
                    values[rows, column].mean() if rows.any()
                    else values[:, column].mean()
                )
        return result
    head = values[: max(2, n_rows // 4)]
    x = np.arange(len(head))
    for column in range(n_cols):
        slope, intercept = np.polyfit(x, head[:, column], 1)
        steps = np.arange(-n_steps, 0)
        result[:, column] = intercept + slope * steps
    return result
