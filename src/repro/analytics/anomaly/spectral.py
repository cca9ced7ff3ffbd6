"""Spectral-residual anomaly detection (the fast classical baseline).

A training-free detector used as the reference point in the detection
experiments: the log-amplitude spectrum of the series is compared to its
local average; what remains (the *spectral residual*) highlights salient
— i.e. anomalous — time points after transforming back.
"""

from __future__ import annotations

import numpy as np

from ..._validation import check_positive
from ...datatypes import TimeSeries

__all__ = ["SpectralResidualDetector"]


class SpectralResidualDetector:
    """Saliency scores via the spectral-residual transform.

    Parameters
    ----------
    window:
        Width of the moving average applied to the log spectrum.
    score_window:
        Width of the local mean used to normalize output saliency.
    """

    def __init__(self, window=21, score_window=21):
        self.window = int(check_positive(window, "window"))
        self.score_window = int(check_positive(score_window,
                                               "score_window"))

    def _saliency(self, values):
        n = len(values)
        spectrum = np.fft.fft(values)
        amplitude = np.abs(spectrum)
        amplitude[amplitude == 0] = 1e-12
        log_amplitude = np.log(amplitude)
        kernel = np.ones(self.window) / self.window
        averaged = np.convolve(log_amplitude, kernel, mode="same")
        residual = log_amplitude - averaged
        phase = spectrum / amplitude
        saliency = np.abs(np.fft.ifft(np.exp(residual) * phase))
        return saliency[:n]

    def score(self, series):
        """Per-timestep saliency, max-aggregated over channels.

        A constant (zero-variance) channel has no salient points and
        contributes a score of 0 everywhere.
        """
        if not isinstance(series, TimeSeries):
            raise TypeError("series must be a TimeSeries")
        if not series.is_complete():
            raise ValueError("detector requires complete data")
        values = series.values
        scores = np.zeros(len(series))
        for channel in range(values.shape[1]):
            column = values[:, channel]
            if np.all(column == column[0]):
                continue
            saliency = self._saliency(column)
            kernel = np.ones(self.score_window) / self.score_window
            local_mean = np.convolve(saliency, kernel, mode="same")
            local_mean[local_mean == 0] = 1e-12
            normalized = (saliency - local_mean) / local_mean
            scores = np.maximum(scores, normalized)
        return scores

    def fit(self, series):
        """No-op (training-free); present for API symmetry."""
        return self
