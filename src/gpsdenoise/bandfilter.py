"""Frequency-band decomposition of position series.

Bands are brick-wall partitions of the discrete Fourier spectrum: every
bin lands in exactly one of low/mid/high, so the three components sum
back to the original signal and are mutually orthogonal.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .signal import PositionSeries, _frozen

BAND_NAMES = ("low", "mid", "high")


@dataclass(frozen=True)
class BandSpec:
    """Cutoff pair splitting the spectrum into low/mid/high bands.

    Bin assignment: f <= low_cutoff -> low, low_cutoff < f <= high_cutoff
    -> mid, f > high_cutoff -> high. Both cutoffs must lie strictly inside
    (0, Nyquist) of the series they are applied to.
    """

    low_cutoff: float  # Hz
    high_cutoff: float  # Hz

    def __post_init__(self):
        if not (0.0 < self.low_cutoff < self.high_cutoff):
            raise ValueError(
                f"cutoffs must satisfy 0 < low < high, got "
                f"({self.low_cutoff}, {self.high_cutoff})"
            )


@dataclass(frozen=True)
class BandComponent:
    """One band of a decomposed series, tagged with the cutoffs that made it."""

    band: str
    spec: BandSpec
    series: PositionSeries

    def __post_init__(self):
        if self.band not in BAND_NAMES:
            raise ValueError(f"band must be one of {BAND_NAMES}, got '{self.band}'")


class BandDecomposition(NamedTuple):
    low: BandComponent
    mid: BandComponent
    high: BandComponent


def _validate(series: PositionSeries, spec: BandSpec) -> None:
    if len(series) < 2:
        raise ValueError("band decomposition needs at least two samples")
    nyq = series.nyquist
    if not (0.0 < spec.low_cutoff < spec.high_cutoff < nyq):
        raise ValueError(
            f"cutoffs ({spec.low_cutoff}, {spec.high_cutoff}) Hz must lie strictly "
            f"inside (0, {nyq}) Hz for this series"
        )


def decompose(series: PositionSeries, spec: BandSpec) -> BandDecomposition:
    """Split a series into low, mid and high frequency components.

    Operates on the half spectrum (rfft) per component; conjugate symmetry
    of the inverse transform keeps every band real-valued. The three bands
    sum to the input within floating-point error.
    """
    _validate(series, spec)
    n = len(series)
    coeffs = np.fft.rfft(series.samples, axis=0)
    freqs = np.fft.rfftfreq(n, d=series.dt)
    masks = (
        freqs <= spec.low_cutoff,
        (freqs > spec.low_cutoff) & (freqs <= spec.high_cutoff),
        freqs > spec.high_cutoff,
    )
    parts = []
    for band, mask in zip(BAND_NAMES, masks):
        samples = _frozen(np.fft.irfft(coeffs * mask[:, None], n=n, axis=0))
        parts.append(BandComponent(band, spec, PositionSeries(series.timestamps, samples)))
    return BandDecomposition(*parts)


def select_band(series: PositionSeries, band: str, spec: BandSpec) -> BandComponent:
    """Return exactly the named component of decompose(series, spec)."""
    if band not in BAND_NAMES:
        raise ValueError(f"band must be one of {BAND_NAMES}, got '{band}'")
    return getattr(decompose(series, spec), band)
