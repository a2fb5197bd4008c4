"""Tests for trajectory synthesis, noise injection, metrics and series I/O."""
import math
import tracemalloc

import numpy as np
import pytest

from gpsdenoise.signal import (
    _CSV_BLOCK,
    NoiseConfig,
    PositionSeries,
    SeriesFormatError,
    Sinusoid,
    TrajectoryConfig,
    add_noise,
    generate_trajectory,
    mse,
    read_series,
    write_csv,
    write_series,
)


def _random_series(seed, n=64, dt=0.5):
    rng = np.random.default_rng(seed)
    return PositionSeries(np.arange(n) * dt, rng.normal(0.0, 3.0, (n, 3)))


def repr_families(rng, n=200_000):
    """About n float64 values, shuffled, from every family whose text the CSV
    writer must print exactly as repr does: random 64-bit patterns (NaN,
    infinities and subnormals among them), normal draws at five scales,
    values rounded to 0-9 decimals and their float neighbours, integers up
    to 1e15, values spread evenly in log over the range the writer prints
    in fixed notation, the powers of ten from 1e-5 to 1e16 with their
    neighbours, and the powers of two around that range."""
    m = n // 12 + 1
    rounded = np.concatenate([np.round(rng.uniform(-1e4, 1e4, m // 10), d) for d in range(10)])
    tens = np.array([float(f"1e{k}") for k in range(-5, 17)])
    values = np.concatenate([
        rng.integers(0, 2 ** 64, 2 * m, dtype=np.uint64).view(np.float64),
        *(rng.normal(0.0, scale, m) for scale in (1e-3, 1.0, 1e3, 1e6, 1e12)),
        rounded, np.nextafter(rounded, np.inf), np.nextafter(rounded, -np.inf),
        rng.integers(-10 ** 15, 10 ** 15, m).astype(np.float64),
        10.0 ** rng.uniform(-4, 16, m),
        tens, np.nextafter(tens, 0.0), np.nextafter(tens, np.inf),
        np.ldexp(1.0, np.arange(-16, 56)),
    ])
    rng.shuffle(values)
    return values


def repr_mismatches(values, path):
    """The lines of write_csv's file of values, in rows of five, that differ
    from the rows of repr texts, as (written, repr) pairs."""
    table = values[:values.size // 5 * 5].reshape(-1, 5)
    write_csv(path, "a,b,c,d,e", (table[:, 0], table[:, 1:]))
    written = path.read_text().split("\n")
    expected = ["a,b,c,d,e"] + [",".join(map(repr, row)) for row in table.tolist()] + [""]
    if len(written) != len(expected):
        return [(f"{len(written)} lines", f"{len(expected)} lines")]
    return [(w, e) for w, e in zip(written, expected) if w != e]


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

    def test_builders_hand_constructors_frozen_arrays(self, monkeypatch, tmp_path):
        # every array the library builds for a PositionSeries or an RbfNetwork
        # reaches _readonly already read-only, so the constructor shares it
        from gpsdenoise import rbf, signal
        from gpsdenoise.bandfilter import BandSpec, decompose

        passed, readonly = [], signal._readonly

        def recording(a):
            passed.append(a.flags.writeable)
            return readonly(a)

        monkeypatch.setattr(signal, "_readonly", recording)
        monkeypatch.setattr(rbf, "_readonly", recording)
        callers = {}

        def record(name, build):
            start = len(passed)
            out = build()
            callers[name] = passed[start:]
            return out

        config = TrajectoryConfig(n_samples=64, dt=0.5, sinusoids=((Sinusoid(1.0, 0.05),), (), ()))
        clean = record("generate_trajectory", lambda: generate_trajectory(config))
        noisy = record("add_noise", lambda: add_noise(clean, NoiseConfig(sigma=0.1, seed=3)))
        write_series(noisy, tmp_path / "s.csv")
        record("read_series", lambda: read_series(tmp_path / "s.csv"))
        record("decompose", lambda: decompose(noisy, BandSpec(0.1, 0.5)))
        net, trace = record("train", lambda: rbf.train(noisy.timestamps[:, None], noisy.samples,
                                                        rbf.TrainConfig(0.0, 6, 2.0)))
        record("stage_network", lambda: rbf.stage_network(net, trace, 3))
        assert all(callers.values()) and not any(passed), callers


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
        x = _random_series(4).samples
        assert mse(x, x) == 0.0

    def test_unit_offset(self):
        n = 17
        assert mse(np.zeros((n, 3)), np.ones((n, 3))) == 1.0

    def test_matches_bruteforce_oracle(self):
        a, b = _random_series(5).samples, _random_series(6).samples
        total = 0.0
        for i in range(a.shape[0]):
            for c in range(3):
                total += (a[i, c] - b[i, c]) ** 2
        assert mse(a, b) == pytest.approx(total / (a.shape[0] * 3), rel=1e-12)

    def test_symmetric(self):
        a, b = _random_series(7).samples, _random_series(8).samples
        assert mse(a, b) == mse(b, a)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            mse(_random_series(9, n=10).samples, _random_series(9, n=11).samples)


class TestSeriesIO:
    def test_roundtrip(self, tmp_path):
        # past a write block's edge, every value still reads back bit for bit
        s = _random_series(10, n=2500, dt=0.125)
        path = tmp_path / "s.csv"
        write_series(s, path)
        out = read_series(path)
        assert np.array_equal(out.samples, s.samples)
        assert np.array_equal(out.timestamps, s.timestamps)

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

    @pytest.mark.parametrize("n", [_CSV_BLOCK - 1, _CSV_BLOCK, _CSV_BLOCK + 1, 2500])
    def test_blocks_join_as_one_text(self, tmp_path, n):
        # the text is the one-shot join of every row, whatever the block edges
        specials = [-0.0, 5e-324, 1e16, 1e-5, 0.1 + 0.2]
        table = np.random.default_rng(n).normal(0.0, 1e3, (n, len(specials)))
        for edge in range(_CSV_BLOCK, n + _CSV_BLOCK, _CSV_BLOCK):
            table[min(edge, n) - 1] = specials  # a block's last row, or the file's
            if edge < n:
                table[edge] = np.roll(specials, 2)
        header = "a,b,c,d,e"
        path = tmp_path / "t.csv"
        write_csv(path, header, (table[:, 0], table[:, 1:]))
        expected = "\n".join([header] + [",".join(map(repr, row)) for row in table.tolist()])
        assert path.read_text() == expected + "\n"

    @pytest.mark.parametrize("first", [np.arange(9.0)], ids=["array"])
    def test_columns_of_other_lengths_are_rejected(self, tmp_path, first):
        # the check runs before the file is opened, so no partial file is left
        path = tmp_path / "t.csv"
        with pytest.raises(ValueError, match="number of rows"):
            write_csv(path, "a,b,c", (first, np.ones((10, 2))))
        assert not path.exists()

    @pytest.mark.parametrize("rows", [
        pytest.param(rows, id=str(rows)) for rows in (_CSV_BLOCK - 1, _CSV_BLOCK, _CSV_BLOCK + 1)
    ] + [pytest.param(None, id="all")])
    def test_every_value_is_written_as_its_repr(self, tmp_path, rows):
        # repr is the oracle: files of every family's values that end at a
        # write block's edge, and one of 2e5 values over many blocks
        values = repr_families(np.random.default_rng(39))
        if rows is not None:
            values = values[:5 * rows]
        assert values.size >= (2e5 if rows is None else 5 * rows)
        assert repr_mismatches(values, tmp_path / "t.csv")[:5] == []

    @pytest.mark.parametrize("value, text", [
        (0.1 + 0.2, "0.30000000000000004"),
        (9.999999999999998, "9.999999999999998"),
        (99.99999999999999, "99.99999999999999"),
        (1e-4, "0.0001"),
        (np.nextafter(1e-4, 0.0), "9.999999999999999e-05"),
        (1e16, "1e+16"),
        (np.nextafter(1e16, 0.0), "9999999999999998.0"),
        (2.0 ** -20, "9.5367431640625e-07"),
        (5e-324, "5e-324"),
        (-0.0, "-0.0"),
        (math.nan, "nan"),
        (math.inf, "inf"),
        (-math.inf, "-inf"),
        (1.7976931348623157e308, "1.7976931348623157e+308"),
    ])
    def test_pinned_value_text(self, tmp_path, value, text):
        # each edge of the writer's own formatting, and values only repr formats
        path = tmp_path / "v.csv"
        write_csv(path, "v,w", (np.array([value, 1.5]), np.array([2.5, value])))
        assert path.read_text() == f"v,w\n{text},2.5\n1.5,{text}\n"

    def test_write_holds_one_row_block(self, tmp_path):
        # a 50 000 x 4 table of 17-digit values: its Python objects would
        # take 14 times the float64 table; one row block of them takes less
        n = 50_000
        rng = np.random.default_rng(4)
        columns = (np.arange(n) * 0.1, rng.normal(0.0, 3e3, (n, 3)))
        table_bytes = 4 * n * 8
        tracemalloc.start()
        try:
            write_csv(tmp_path / "big.csv", "t,north,east,alt", columns)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * table_bytes

    def test_read_holds_the_table_not_its_rows(self, tmp_path):
        # parsed row by row into Python floats, 20 000 rows took eight times
        # their float64 table; one flat buffer and the series' own arrays fit
        # in three
        n = 20_000
        path = tmp_path / "big.csv"
        write_series(_random_series(12, n=n, dt=0.125), path)
        tracemalloc.start()
        try:
            series = read_series(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(series) == n
        assert peak < 3 * (4 * n * 8)

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
