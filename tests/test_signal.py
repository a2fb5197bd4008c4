"""Tests for trajectory synthesis, noise injection, metrics and series I/O."""
import math

import numpy as np
import pytest

from gpsdenoise.signal import (
    NoiseConfig,
    PositionSeries,
    SeriesFormatError,
    Sinusoid,
    TrajectoryConfig,
    add_noise,
    generate_trajectory,
    mse,
    read_series,
    write_series,
)


def _random_series(seed, n=64, dt=0.5):
    rng = np.random.default_rng(seed)
    return PositionSeries(np.arange(n) * dt, rng.normal(0.0, 3.0, (n, 3)))


class TestPositionSeries:
    def test_basic_construction(self):
        s = PositionSeries([0.0, 1.0, 2.0], np.zeros((3, 3)))
        assert len(s) == 3
        assert s.dt == 1.0
        assert s.nyquist == 0.5

    def test_single_sample_allowed_but_no_dt(self):
        s = PositionSeries([0.0], [[1.0, 2.0, 3.0]])
        assert len(s) == 1
        with pytest.raises(ValueError):
            _ = s.dt

    def test_rejects_non_uniform_steps(self):
        with pytest.raises(ValueError, match="constant step"):
            PositionSeries([0.0, 1.0, 2.5], np.zeros((3, 3)))

    def test_rejects_decreasing_timestamps(self):
        with pytest.raises(ValueError):
            PositionSeries([0.0, -1.0, -2.0], np.zeros((3, 3)))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            PositionSeries([0.0, 1.0], np.zeros((3, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            PositionSeries([0.0, 1.0], [[0.0, np.nan, 0.0], [0.0, 0.0, 0.0]])

    def test_rejects_wrong_column_count(self):
        with pytest.raises(ValueError, match="n, 3"):
            PositionSeries([0.0, 1.0], np.zeros((2, 2)))

    def test_arrays_are_read_only(self):
        s = _random_series(0)
        with pytest.raises(ValueError):
            s.samples[0, 0] = 99.0

    def test_writeable_inputs_are_copied_and_stay_writeable(self):
        t, x = np.arange(4.0), np.zeros((4, 3))
        s = PositionSeries(t, x)
        assert t.flags.writeable and x.flags.writeable
        t[0], x[0, 0] = -1.0, 99.0
        assert s.timestamps[0] == 0.0 and s.samples[0, 0] == 0.0

    def test_read_only_inputs_are_shared(self):
        s = _random_series(0)
        assert add_noise(s, NoiseConfig(sigma=0.1, seed=3)).timestamps is s.timestamps


class TestTrajectoryConfig:
    def test_rejects_single_sample(self):
        with pytest.raises(ValueError, match="n_samples"):
            TrajectoryConfig(n_samples=1, dt=1.0)

    def test_rejects_frequency_at_nyquist(self):
        with pytest.raises(ValueError, match="Nyquist"):
            TrajectoryConfig(
                n_samples=16, dt=1.0,
                sinusoids=((Sinusoid(1.0, 0.5),), (), ()),
            )

    def test_rejects_bad_dt(self):
        with pytest.raises(ValueError, match="dt"):
            TrajectoryConfig(n_samples=16, dt=0.0)

    def test_requires_three_component_groups(self):
        with pytest.raises(ValueError, match="per component"):
            TrajectoryConfig(n_samples=16, dt=1.0, sinusoids=((), ()))


class TestGenerateTrajectory:
    def test_constant_case(self):
        cfg = TrajectoryConfig(n_samples=10, dt=1.0, offset=(5.0, 0.0, 0.0))
        s = generate_trajectory(cfg)
        assert np.array_equal(s.samples, np.tile([5.0, 0.0, 0.0], (10, 1)))

    def test_quarter_period_sine(self):
        cfg = TrajectoryConfig(
            n_samples=32, dt=1.0,
            sinusoids=((Sinusoid(1.0, 0.01, 0.0),), (), ()),
        )
        s = generate_trajectory(cfg)
        # t = 25 s is a quarter period of the 0.01 Hz sine
        assert s.samples[25, 0] == pytest.approx(1.0, abs=1e-12)
        assert np.all(s.samples[:, 1:] == 0.0)

    def test_matches_direct_formula_oracle(self):
        cfg = TrajectoryConfig(
            n_samples=97, dt=0.25,
            sinusoids=(
                (Sinusoid(1.2, 0.013, 0.4), Sinusoid(0.7, 0.21, 1.0), Sinusoid(0.1, 1.7, 2.2)),
                (Sinusoid(0.9, 0.044, 5.1), Sinusoid(0.33, 0.8, 0.0), Sinusoid(0.05, 1.99, 3.3)),
                (Sinusoid(2.0, 0.001, 0.9), Sinusoid(0.5, 0.35, 2.8), Sinusoid(0.21, 1.01, 4.4)),
            ),
            drift=(0.01, -0.02, 0.005), offset=(100.0, -50.0, 7.0),
        )
        s = generate_trajectory(cfg)
        # independent element-by-element evaluation of the sum formula
        for i in range(cfg.n_samples):
            t = np.float64(i) * cfg.dt
            for c in range(3):
                v = cfg.offset[c] + cfg.drift[c] * t
                for sn in cfg.sinusoids[c]:
                    v = v + sn.amplitude * np.sin(2.0 * math.pi * sn.frequency * t + sn.phase)
                assert v == s.samples[i, c]

    def test_deterministic(self):
        cfg = TrajectoryConfig(
            n_samples=50, dt=0.5,
            sinusoids=((Sinusoid(1.0, 0.05, 0.1),), (), (Sinusoid(0.3, 0.2, 2.0),)),
        )
        a, b = generate_trajectory(cfg), generate_trajectory(cfg)
        assert np.array_equal(a.samples, b.samples)
        assert np.array_equal(a.timestamps, b.timestamps)


class TestAddNoise:
    def test_zero_sigma_is_identity(self):
        s = _random_series(1)
        out = add_noise(s, NoiseConfig(sigma=0.0, seed=9))
        assert np.array_equal(out.samples, s.samples)

    def test_same_seed_identical(self):
        s = _random_series(2)
        a = add_noise(s, NoiseConfig(sigma=0.7, seed=123))
        b = add_noise(s, NoiseConfig(sigma=0.7, seed=123))
        assert np.array_equal(a.samples, b.samples)

    def test_different_seed_differs(self):
        s = _random_series(3)
        a = add_noise(s, NoiseConfig(sigma=0.7, seed=1))
        b = add_noise(s, NoiseConfig(sigma=0.7, seed=2))
        assert not np.array_equal(a.samples, b.samples)

    def test_empirical_std(self):
        n = 10000
        s = PositionSeries(np.arange(n, dtype=float), np.zeros((n, 3)))
        out = add_noise(s, NoiseConfig(sigma=1.0, seed=77))
        stds = (out.samples - s.samples).std(axis=0)
        assert np.all(np.abs(stds - 1.0) < 0.05)

    def test_rejects_negative_sigma(self):
        with pytest.raises(ValueError):
            NoiseConfig(sigma=-0.1, seed=0)


class TestMse:
    def test_identity_is_zero(self):
        s = _random_series(4)
        assert mse(s, s) == 0.0

    def test_unit_offset(self):
        n = 17
        a = PositionSeries(np.arange(n, dtype=float), np.zeros((n, 3)))
        b = PositionSeries(np.arange(n, dtype=float), np.ones((n, 3)))
        assert mse(a, b) == 1.0

    def test_matches_bruteforce_oracle(self):
        a, b = _random_series(5), _random_series(6)
        total = 0.0
        for i in range(len(a)):
            for c in range(3):
                total += (a.samples[i, c] - b.samples[i, c]) ** 2
        assert mse(a, b) == pytest.approx(total / (len(a) * 3), rel=1e-12)

    def test_symmetric(self):
        a, b = _random_series(7), _random_series(8)
        assert mse(a, b) == mse(b, a)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            mse(_random_series(9, n=10), _random_series(9, n=11))


class TestSeriesIO:
    def test_roundtrip(self, tmp_path):
        s = _random_series(10, n=40, dt=0.125)
        path = tmp_path / "s.csv"
        write_series(s, path)
        out = read_series(path)
        assert np.max(np.abs(out.samples - s.samples)) <= 1e-12
        assert np.max(np.abs(out.timestamps - s.timestamps)) <= 1e-12

    def test_exact_text(self, tmp_path):
        # every value is written as the shortest repr that reads back bit for bit
        s = PositionSeries([0.0, 0.5, 1.0], [[1e-300, -0.0, 12345678901234567.0],
                                             [0.1, -2.5, 3.0],
                                             [1.0 / 3.0, 1e16, -7.0]])
        path = tmp_path / "s.csv"
        write_series(s, path)
        assert path.read_text() == (
            "t,north,east,alt\n"
            "0.0,1e-300,-0.0,1.2345678901234568e+16\n"
            "0.5,0.1,-2.5,3.0\n"
            "1.0,0.3333333333333333,1e+16,-7.0\n"
        )
        out = read_series(path)
        assert np.array_equal(out.samples, s.samples)
        assert np.signbit(out.samples[0, 1])

    def test_header_line(self, tmp_path):
        path = tmp_path / "s.csv"
        write_series(_random_series(11, n=4), path)
        assert path.read_text().splitlines()[0] == "t,north,east,alt"

    def test_hand_written_fixture(self, tmp_path):
        path = tmp_path / "fixture.csv"
        path.write_text(
            "t,north,east,alt\n"
            "0.0,1.5,-2.25,10.0\n"
            "0.5,1.25,-2.0,10.5\n"
            "1.0,1.0,-1.75,11.0\n"
        )
        s = read_series(path)
        assert np.array_equal(s.timestamps, [0.0, 0.5, 1.0])
        assert np.array_equal(s.samples, [[1.5, -2.25, 10.0], [1.25, -2.0, 10.5], [1.0, -1.75, 11.0]])

    def test_missing_column_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,north,east,alt\n0.0,1.0,2.0,3.0\n1.0,1.0,2.0\n")
        with pytest.raises(SeriesFormatError, match="line 3") as exc:
            read_series(path)
        assert exc.value.line == 3

    def test_non_numeric_cell_names_line_and_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,north,east,alt\n0.0,1.0,oops,3.0\n")
        with pytest.raises(SeriesFormatError, match="line 2, column east"):
            read_series(path)

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time,n,e,a\n0.0,1.0,2.0,3.0\n")
        with pytest.raises(SeriesFormatError, match="header"):
            read_series(path)

    def test_non_uniform_timestamps(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,north,east,alt\n0.0,0,0,0\n1.0,0,0,0\n2.5,0,0,0\n")
        with pytest.raises(SeriesFormatError):
            read_series(path)

    def test_comment_lines_skipped(self, tmp_path):
        path = tmp_path / "s.csv"
        path.write_text("# band=low low_cutoff=0.1 high_cutoff=0.2\nt,north,east,alt\n0.0,1,2,3\n1.0,4,5,6\n")
        s = read_series(path)
        assert len(s) == 2

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(SeriesFormatError):
            read_series(path)
