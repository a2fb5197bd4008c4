"""Frequency-band decomposition of position series.

Bands are brick-wall partitions of the discrete Fourier spectrum: every
bin lands in exactly one of low/mid/high, so the three components sum
back to the original signal and are mutually orthogonal. BandSpec.edges
is the one statement of which bins a band holds.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .signal import PositionSeries, _frozen

BAND_NAMES = ("low", "mid", "high")


@dataclass(frozen=True)
class BandSpec:
    """Cutoff pair splitting the spectrum into low/mid/high bands.

    Both cutoffs must lie strictly inside (0, Nyquist) of the series they
    are applied to; edges says which bins each band holds.
    """

    low_cutoff: float  # Hz
    high_cutoff: float  # Hz

    def __post_init__(self):
        if not (0.0 < self.low_cutoff < self.high_cutoff):
            raise ValueError(
                f"cutoffs must satisfy 0 < low < high, got "
                f"({self.low_cutoff}, {self.high_cutoff})"
            )

    def edges(self, band: str) -> tuple[float, float]:
        """The band's (lo, hi) in Hz: it holds every rfft bin with lo < f <= hi.

        The cuts are (-inf, low_cutoff, high_cutoff, inf), taken in
        BAND_NAMES order, so a bin exactly on a cutoff belongs to the
        lower band.
        """
        cuts = (-math.inf, self.low_cutoff, self.high_cutoff, math.inf)
        i = BAND_NAMES.index(band)
        return cuts[i], cuts[i + 1]


@dataclass(frozen=True)
class BandComponent:
    """One band of a decomposed series.

    It stays only because the benchmark's band-sum check reads .series;
    decompose is to return the bare series once that check no longer does.
    """

    series: PositionSeries


def decompose(series: PositionSeries, spec: BandSpec) -> tuple[BandComponent, ...]:
    """Split a series into its (low, mid, high) components, in BAND_NAMES order.

    Operates on the half spectrum (rfft) per component; conjugate symmetry
    of the inverse transform keeps every band real-valued. The three bands
    sum to the input within floating-point error.
    """
    if len(series) < 2:
        raise ValueError("band decomposition needs at least two samples")
    if not spec.high_cutoff < series.nyquist:
        raise ValueError(f"cutoffs ({spec.low_cutoff}, {spec.high_cutoff}) Hz must lie strictly "
                         f"inside (0, {series.nyquist}) Hz for this series")
    n = len(series)
    coeffs = np.fft.rfft(series.samples, axis=0)
    freqs = np.fft.rfftfreq(n, d=series.dt)
    parts = []
    for band in BAND_NAMES:
        lo, hi = spec.edges(band)
        mask = (freqs > lo) & (freqs <= hi)
        samples = _frozen(np.fft.irfft(coeffs * mask[:, None], n=n, axis=0))
        parts.append(BandComponent(PositionSeries(series.timestamps, samples)))
    return tuple(parts)


def select_band(series: PositionSeries, band: str, spec: BandSpec) -> BandComponent:
    """Return exactly the named component of decompose(series, spec)."""
    if band not in BAND_NAMES:
        raise ValueError(f"band must be one of {BAND_NAMES}, got '{band}'")
    return decompose(series, spec)[BAND_NAMES.index(band)]
