"""Tests for the brick-wall frequency-band decomposition."""
import numpy as np
import pytest

from gpsdenoise.bandfilter import (
    BandComponent,
    BandSpec,
    decompose,
    select_band,
)
from gpsdenoise.signal import PositionSeries


def _series(samples, dt=1.0):
    samples = np.asarray(samples, dtype=float)
    return PositionSeries(np.arange(samples.shape[0]) * dt, samples)


def _random_series(seed, n, dt=1.0):
    rng = np.random.default_rng(seed)
    return _series(rng.normal(0.0, 1.0, (n, 3)), dt=dt)


def _energy(series):
    return float(np.sum(series.samples ** 2))


class TestBandSpec:
    def test_rejects_inverted_cutoffs(self):
        with pytest.raises(ValueError):
            BandSpec(0.3, 0.2)

    def test_rejects_zero_low(self):
        with pytest.raises(ValueError):
            BandSpec(0.0, 0.2)

    def test_cutoff_must_be_below_nyquist_of_series(self):
        s = _random_series(1, 32, dt=1.0)
        with pytest.raises(ValueError, match="Nyquist|inside"):
            decompose(s, BandSpec(0.1, 0.6))

    def test_needs_two_samples(self):
        s = PositionSeries([0.0], [[1.0, 2.0, 3.0]])
        with pytest.raises(ValueError):
            decompose(s, BandSpec(0.1, 0.2))


class TestDecompose:
    def test_constant_series_is_all_low(self):
        s = _series(np.tile([4.0, -1.0, 7.5], (24, 1)))
        low, mid, high = decompose(s, BandSpec(0.05, 0.2))
        assert np.max(np.abs(low.series.samples - s.samples)) < 1e-9
        assert np.max(np.abs(mid.series.samples)) < 1e-9
        assert np.max(np.abs(high.series.samples)) < 1e-9

    def test_single_bin_sinusoid_lands_in_mid(self):
        n, dt = 64, 1.0
        f = 8 / (n * dt)  # exactly bin 8
        t = np.arange(n) * dt
        x = np.sin(2 * np.pi * f * t)
        s = _series(np.column_stack([x, x, x]))
        low, mid, high = decompose(s, BandSpec(0.05, 0.2))
        assert np.max(np.abs(mid.series.samples - s.samples)) < 1e-9
        assert np.max(np.abs(low.series.samples)) < 1e-9
        assert np.max(np.abs(high.series.samples)) < 1e-9

    @pytest.mark.parametrize("n", [7, 8, 33, 64, 129, 256])
    def test_perfect_reconstruction(self, n):
        s = _random_series(n, n, dt=0.5)
        low, mid, high = decompose(s, BandSpec(0.1, 0.6))
        total = low.series.samples + mid.series.samples + high.series.samples
        scale = np.max(np.abs(s.samples))
        assert np.max(np.abs(total - s.samples)) <= 1e-9 * scale

    def test_parseval_energy_split(self):
        s = _random_series(42, 200, dt=0.25)
        parts = decompose(s, BandSpec(0.2, 1.1))
        band_sum = sum(_energy(p.series) for p in parts)
        assert abs(band_sum - _energy(s)) <= 1e-6 * _energy(s)

    def test_bands_are_orthogonal(self):
        s = _random_series(7, 128)
        low, mid, high = decompose(s, BandSpec(0.05, 0.2))
        e = _energy(s)
        for a, b in ((low, mid), (low, high), (mid, high)):
            inner = float(np.sum(a.series.samples * b.series.samples))
            assert abs(inner) <= 1e-6 * e

    def test_linearity(self):
        a = _random_series(10, 60)
        b = _random_series(11, 60)
        spec = BandSpec(0.08, 0.3)
        summed = PositionSeries(a.timestamps, a.samples + b.samples)
        dec_sum = decompose(summed, spec)
        dec_a = decompose(a, spec)
        dec_b = decompose(b, spec)
        for band in range(3):
            combined = dec_a[band].series.samples + dec_b[band].series.samples
            assert np.max(np.abs(dec_sum[band].series.samples - combined)) <= 1e-9

    def test_timestamps_preserved(self):
        s = _random_series(3, 50, dt=2.0)
        for part in decompose(s, BandSpec(0.01, 0.1)):
            assert np.array_equal(part.series.timestamps, s.timestamps)

    def test_eight_point_dft_oracle(self):
        # 8 samples at dt=1: rfft bins at 0, 0.125, 0.25, 0.375, 0.5 Hz.
        # With cutoffs (0.15, 0.3): low gets bins {0, 1}, mid gets bin {2},
        # high gets bins {3, 4}. Verified against an explicit O(n^2) DFT.
        x = np.array([3.0, 1.0, -2.0, 4.0, 0.5, -1.5, 2.5, -0.5])
        s = _series(np.column_stack([x, np.zeros(8), np.zeros(8)]))
        spec = BandSpec(0.15, 0.3)
        n = 8
        k = np.arange(n)
        dft = np.array([np.sum(x * np.exp(-2j * np.pi * kk * k / n)) for kk in range(n)])
        freqs = np.minimum(k, n - k) / n  # |f| of each full-spectrum bin
        expected = {}
        for band, mask in (
            ("low", freqs <= 0.15),
            ("mid", (freqs > 0.15) & (freqs <= 0.3)),
            ("high", freqs > 0.3),
        ):
            back = np.array(
                [np.sum(dft[mask] * np.exp(2j * np.pi * k[mask] * i / n)) for i in range(n)]
            ) / n
            expected[band] = back.real
        parts = decompose(s, spec)
        for band, comp in zip(("low", "mid", "high"), parts):
            assert np.max(np.abs(comp.series.samples[:, 0] - expected[band])) < 1e-9


class TestSelectBand:
    def test_equals_decompose_output(self):
        s = _random_series(20, 96)
        spec = BandSpec(0.07, 0.25)
        parts = decompose(s, spec)
        for band, part in zip(("low", "mid", "high"), parts):
            sel = select_band(s, band, spec)
            assert np.array_equal(sel.series.samples, part.series.samples)
            assert sel.band == band

    def test_idempotent(self):
        s = _random_series(21, 80)
        spec = BandSpec(0.1, 0.3)
        once = select_band(s, "mid", spec)
        twice = select_band(once.series, "mid", spec)
        scale = max(1.0, np.max(np.abs(once.series.samples)))
        assert np.max(np.abs(twice.series.samples - once.series.samples)) <= 1e-9 * scale

    def test_unknown_band(self):
        s = _random_series(22, 16)
        with pytest.raises(ValueError, match="band"):
            select_band(s, "ultra", BandSpec(0.1, 0.2))


class TestComponentIO:
    def test_invalid_band_component(self):
        s = _random_series(32, 8)
        with pytest.raises(ValueError, match="band"):
            BandComponent("weird", BandSpec(0.1, 0.2), s)
