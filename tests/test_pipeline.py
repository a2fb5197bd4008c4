"""Tests for the conventional-vs-improved benchmark pipeline."""
from dataclasses import replace

import numpy as np
import pytest

from gpsdenoise import pipeline
from gpsdenoise.bandfilter import BandSpec, select_band
from gpsdenoise.pipeline import (
    DEFAULT_BAND_SPEC,
    DEFAULT_NOISE,
    DEFAULT_TRAJECTORY,
    FILTERS,
    PLOT_HEADER,
    REPORT_HEADER,
    MethodConfig,
    build_grid,
    emit_plot_data,
    run_method,
    run_table,
    write_plot_data,
    write_report,
)
from gpsdenoise.rbf import TrainConfig, cut_run, forward, stage_network, train
from gpsdenoise.signal import (
    NoiseConfig,
    Sinusoid,
    TrajectoryConfig,
    _value_slots,
    add_noise,
    generate_trajectory,
)

# small, fast stand-in for the default benchmark signal: 256 samples over
# 128 s, one on-bin sinusoid per band per component
_T = 128.0
SMALL_TRAJECTORY = TrajectoryConfig(
    n_samples=256, dt=0.5,
    sinusoids=(
        (Sinusoid(0.1, 2 / _T, 0.4), Sinusoid(0.6, 16 / _T, 1.1), Sinusoid(0.3, 80 / _T, 0.2)),
        (Sinusoid(0.1, 3 / _T, 2.0), Sinusoid(0.5, 20 / _T, 0.7), Sinusoid(0.2, 96 / _T, 3.1)),
        (Sinusoid(0.1, 2 / _T, 5.1), Sinusoid(0.7, 18 / _T, 2.9), Sinusoid(0.25, 88 / _T, 1.7)),
    ),
    offset=(50.0, -20.0, 300.0),
)
SMALL_SPEC = BandSpec(low_cutoff=0.03, high_cutoff=0.4)
SMALL_NOISE = NoiseConfig(sigma=0.05, seed=424242)


def _pair(sse_goal=1e-6, max_neurons=24, spread=10.0, band="low"):
    """The (conventional, improved) configs of one one-cell grid."""
    return build_grid([max_neurons], [spread], [sse_goal], [band],
                      SMALL_SPEC, SMALL_NOISE, SMALL_TRAJECTORY)


class TestMethodConfig:
    @pytest.mark.parametrize("band", ["ultra", None, "LOW"])
    def test_unknown_band(self, band):
        with pytest.raises(ValueError, match="band"):
            MethodConfig(band=band, train=TrainConfig(0.0, 4, 1.0),
                         noise=SMALL_NOISE, trajectory=SMALL_TRAJECTORY)

    def test_method_follows_band(self):
        config = MethodConfig(train=TrainConfig(0.0, 4, 1.0), noise=SMALL_NOISE,
                              trajectory=SMALL_TRAJECTORY)
        assert config.band == "none"
        assert config.method == "conventional"
        for band in FILTERS[1:]:
            assert replace(config, band=band).method == "improved"


# Noise seeds at which the comparable-accuracy check misses its 2x bound, with
# their improved/conventional MSE ratio: the improved fit scores 5.9e-3 to
# 6.4e-3 at every seed, but here the conventional one reaches 1.6e-3 to 1.7e-3.
_LOW_BAND_MISSES = {1: 3.66, 6: 3.86, 9: 3.75}


class TestRunMethod:
    def test_noiseless_interpolation(self):
        traj = TrajectoryConfig(
            n_samples=48, dt=1.0,
            sinusoids=((Sinusoid(1.0, 0.02, 0.3),), (Sinusoid(0.8, 0.04, 1.2),),
                       (Sinusoid(0.5, 0.01, 2.0),)),
            offset=(3.0, -2.0, 10.0),
        )
        cfg = MethodConfig(
            train=TrainConfig(sse_goal=0.0, max_neurons=48, spread=3.0),
            noise=NoiseConfig(sigma=0.0, seed=5),
            trajectory=traj, band_spec=BandSpec(0.01, 0.2),
        )
        result = run_method(cfg)
        assert result.output_mse <= 1e-8

    @pytest.mark.parametrize("seed", [
        pytest.param(seed, marks=pytest.mark.xfail(strict=True, reason=(
            f"ROADMAP items 5 and 6: improved/conventional MSE is {_LOW_BAND_MISSES[seed]}")))
        if seed in _LOW_BAND_MISSES else seed for seed in (77, *range(1, 11))])
    def test_all_energy_in_low_band_comparable_accuracy(self, seed):
        # clean signal entirely below the low cutoff: filtering must not
        # change the achievable accuracy by more than a factor of two
        traj = TrajectoryConfig(
            n_samples=256, dt=0.5,
            sinusoids=((Sinusoid(1.0, 2 / _T, 0.4),), (Sinusoid(0.8, 4 / _T, 1.5),),
                       (Sinusoid(0.9, 5 / _T, 3.0),)),
            offset=(10.0, -5.0, 30.0),
        )
        tc = TrainConfig(sse_goal=0.0, max_neurons=12, spread=12.0)
        noise = NoiseConfig(sigma=0.02, seed=seed)
        spec = BandSpec(0.05, 0.3)
        conv = MethodConfig(train=tc, noise=noise, trajectory=traj, band_spec=spec)
        impr = MethodConfig(band="low", train=tc, noise=noise, trajectory=traj, band_spec=spec)
        rc, ri = run_method(conv), run_method(impr)
        assert ri.output_mse <= 2.0 * rc.output_mse
        assert rc.output_mse <= 2.0 * ri.output_mse

    def test_result_fields(self):
        conv, impr = _pair()
        rc, ri = run_method(conv), run_method(impr)
        assert rc.elapsed_train_seconds >= 0.0
        assert rc.filter_seconds == 0.0
        assert ri.filter_seconds > 0.0
        assert rc.network.n_centers == len(rc.trace.selected_indices)
        assert rc.output_mse >= 0.0

    def test_rejects_bad_repeats(self):
        conv, _ = _pair()
        with pytest.raises(ValueError, match="repeats"):
            run_method(conv, repeats=0)

    def test_repeats_use_median(self):
        conv, _ = _pair(max_neurons=6)
        r = run_method(conv, repeats=3)
        assert r.elapsed_train_seconds > 0.0

    @pytest.mark.parametrize("band", ["mid", "high"])
    def test_other_bands_run_clean(self, band):
        _, impr = _pair(max_neurons=16, band=band)
        r = run_method(impr)
        assert r.output_mse >= 0.0
        assert np.all(np.diff(r.trace.sse_history) <= 0)
        assert r.config.band == band


def _default(band, max_neurons, n_samples=4096, spread=50.0, sse_goal=1e-6):
    """A config of the default signal at another length."""
    return MethodConfig(train=TrainConfig(sse_goal, max_neurons, spread), noise=DEFAULT_NOISE,
                        trajectory=replace(DEFAULT_TRAJECTORY, n_samples=n_samples), band=band)


def _fft_interpolate(coarse, n):
    """The n-sample series whose spectrum is that of `coarse` zero-padded:
    exact for a coarse grid of n / M samples whose band stays below its
    Nyquist frequency."""
    spectrum = np.zeros((n // 2 + 1, coarse.shape[1]), dtype=complex)
    short = np.fft.rfft(coarse, axis=0)
    spectrum[:short.shape[0]] = short
    return np.fft.irfft(spectrum, n=n, axis=0) * (n / coarse.shape[0])


class TestDecimation:
    """The improved method trains on its band decimated by MethodConfig.decimation."""

    @pytest.mark.parametrize("band, max_neurons, n_samples, expected", [
        ("none", 100, 4096, 1), ("high", 100, 4096, 1),
        ("low", 100, 4096, 16), ("low", 50, 4096, 32), ("mid", 100, 4096, 4),
        ("low", 50, 8192, 64),
        ("low", 10, 512, 16), ("mid", 10, 512, 4), ("high", 10, 512, 1),
        # 2 * max_neurons samples are out of reach at any M
        ("low", 300, 512, 1),
    ])
    def test_the_rule_on_the_benchmark_configs(self, band, max_neurons, n_samples, expected):
        assert _default(band, max_neurons, n_samples).decimation == expected

    def test_the_largest_admissible_power_of_two(self):
        # low_cutoff 0.03 Hz at dt 0.5 allows M <= 1 / (4 * 0.03 * 0.5) = 16.7,
        # and 256 samples keep ceil(256 / M) >= 2 * budget up to M = 256 / (2 * budget)
        for budget, expected in ((1, 16), (8, 16), (9, 8), (16, 8), (17, 4), (64, 2), (65, 1)):
            config = replace(_pair()[1], train=TrainConfig(0.0, budget, 10.0))
            assert config.decimation == expected, budget

    @pytest.mark.parametrize("band, max_neurons", [("low", 100), ("low", 50), ("mid", 100)])
    def test_an_admissible_decimation_loses_nothing(self, band, max_neurons):
        config = _default(band, max_neurons)
        m = config.decimation
        noisy = add_noise(generate_trajectory(config.trajectory), config.noise)
        samples = select_band(noisy, band, DEFAULT_BAND_SPEC).series.samples
        scale = np.abs(samples).max()
        n = samples.shape[0]
        assert np.abs(_fft_interpolate(samples[::m], n) - samples).max() <= 1e-12 * scale
        if band == "mid":
            # four times as coarse, the noise above the grid's Nyquist frequency aliases
            assert np.abs(_fft_interpolate(samples[::4 * m], n) - samples).max() > 1e-3 * scale

    def test_training_reads_every_mth_sample_with_the_goal_scaled(self, monkeypatch):
        seen = []

        def recording(inputs, targets, config):
            seen.append((inputs.shape[0], config.sse_goal))
            return train(inputs, targets, config)

        monkeypatch.setattr(pipeline, "train", recording)
        _, impr = _pair(sse_goal=1e-3, max_neurons=6)
        result = run_method(impr)
        assert impr.decimation == 16
        assert seen == [(16, 1e-3 / 16)]
        assert result.trace.n_inputs == 16
        # scored on the full-rate reference
        assert result.outputs.shape == (SMALL_TRAJECTORY.n_samples, 3)
        assert result.final_sse == 16 * result.trace.sse_history[-1]

    @pytest.mark.parametrize("config", [
        *(c for c in build_grid([50, 100], [30.0, 50.0, 100.0], [1e-6], ["low"])
          if c.band == "low"),
        _default("low", 50, n_samples=8192, sse_goal=0.0),
    ], ids=lambda c: f"{c.trajectory.n_samples}-{c.train.max_neurons}-{c.train.spread:g}")
    def test_matched_accuracy_against_a_full_rate_training(self, config):
        # the band MSE on the full grid stays within 1% of training on every sample
        target, reference, _ = pipeline._prepare(config, *pipeline._signal(config))
        net, _ = train(target.timestamps[:, None], target.samples, config.train)
        full_rate = float(np.mean((forward(net, reference.timestamps[:, None])
                                   - reference.samples) ** 2))
        result = run_method(config)
        assert config.decimation > 1
        assert result.output_mse == pytest.approx(full_rate, rel=0.01)

    # The improved Table-1 trainings on the decimated low band, pinned so a
    # change to the trainer or the decimation rule shows which picks it moves.
    # Every one stops on its goal with no in-span stage.
    TABLE1_PICKS = {
        (50, 30.0): [69, 50, 88, 33, 105, 57, 78, 16, 47, 94, 117, 21, 82, 35, 20, 124, 63,
                     13, 89, 40, 127, 126, 4, 104, 1, 68, 125],
        (50, 50.0): [69, 44, 94, 20, 2, 47, 83, 127, 45, 126, 125, 124, 56, 29, 88, 13, 123],
        (50, 100.0): [69, 39, 96, 0, 1, 124, 2, 3, 127, 4, 6, 11],
        (100, 30.0): [137, 175, 99, 210, 65, 113, 154, 31, 94, 189, 234, 40, 160, 75, 39, 247,
                      123, 29, 176, 255, 252, 16, 76, 192, 8, 254, 253],
        (100, 50.0): [137, 188, 87, 40, 174, 219, 119, 49, 173, 0, 19, 169, 240, 1, 114, 2, 255,
                      3],
        (100, 100.0): [138, 78, 192, 0, 1, 248, 2, 11, 255, 254, 16],
    }

    @pytest.mark.parametrize("config", [
        c for c in build_grid([50, 100], [30.0, 50.0, 100.0], [1e-6], ["low"])
        if c.method == "improved"
    ], ids=lambda c: f"{c.train.max_neurons}-{c.train.spread:g}")
    def test_table_one_improved_picks(self, config):
        trace = run_method(config).trace
        assert trace.stop_reason == "sse_goal"
        assert not any(trace.in_span)
        assert trace.selected_indices == self.TABLE1_PICKS[
            config.train.max_neurons, config.train.spread]


# A drift of the kind every real GPS track has; the default signal has none.
DRIFT = (0.05, -0.02, 0.01)  # meters/second


class TestDrift:
    """A drift is slow, so it belongs to the low band and must leave the
    mid and high bands, and the fits to them, as they are without it."""

    @pytest.mark.parametrize("band, max_neurons, spread, sse_goal", [
        ("low", 100, 50.0, 1e-6),
        pytest.param("mid", 200, 5.0, 0.0, marks=pytest.mark.xfail(
            strict=True, reason="ROADMAP item 3")),
    ])
    def test_drift_leaves_the_band_fit_within_twice_its_mse(self, band, max_neurons, spread,
                                                            sse_goal):
        config = _default(band, max_neurons, spread=spread, sse_goal=sse_goal)
        drifting = replace(config, trajectory=replace(config.trajectory, drift=DRIFT))
        assert run_method(drifting).output_mse <= 2.0 * run_method(config).output_mse

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 3")
    def test_drift_leaves_the_clean_high_band_within_one_percent(self):
        def high_band(trajectory):
            clean = generate_trajectory(trajectory)
            return select_band(clean, "high", DEFAULT_BAND_SPEC).series.samples

        band = high_band(DEFAULT_TRAJECTORY)
        change = high_band(replace(DEFAULT_TRAJECTORY, drift=DRIFT)) - band
        assert np.mean(change ** 2) <= 0.01 * np.mean(band ** 2)


class TestRunTable:
    def test_single_pair_contract(self):
        results = run_table(_pair())
        assert len(results) == 2
        conv, impr = results
        assert conv.config.method == "conventional"
        assert impr.config.method == "improved"
        assert conv.config.trajectory == impr.config.trajectory
        assert conv.config.noise == impr.config.noise
        assert conv.config.train == impr.config.train

    def test_table_one_shape_gives_eight_rows(self, tmp_path):
        # the four published (nnsize, spread) columns, two methods each
        configs = [config for nn, sc in ((12, 6.0), (12, 10.0), (24, 10.0), (24, 20.0))
                   for config in _pair(max_neurons=nn, spread=sc)]
        results = run_table(configs)
        assert len(results) == 8
        path = tmp_path / "report.csv"
        write_report(results, path)
        lines = path.read_text().splitlines()
        assert lines[0] == REPORT_HEADER
        assert len(lines) == 9
        assert all(len(line.split(",")) == 15 for line in lines)

    def test_rerun_non_timing_fields_identical(self):
        configs = _pair(max_neurons=8)
        a = run_table(configs)
        b = run_table(configs)
        for ra, rb in zip(a, b):
            assert ra.output_mse == rb.output_mse
            assert ra.network.n_centers == rb.network.n_centers
            assert np.array_equal(ra.trace.sse_history, rb.trace.sse_history)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            run_table([])

    def test_build_grid_cells(self):
        # flag order (sse, nnsize, spread, band); each cell gives a
        # conventional run, then the improved one unless its band is "none"
        configs = build_grid([8, 12], [5.0], [1e-6], ["none", "low"],
                             SMALL_SPEC, SMALL_NOISE, SMALL_TRAJECTORY)
        assert [(c.train.max_neurons, c.method, c.band) for c in configs] == [
            (8, "conventional", "none"),
            (8, "conventional", "none"), (8, "improved", "low"),
            (12, "conventional", "none"),
            (12, "conventional", "none"), (12, "improved", "low"),
        ]
        assert all(c.noise == SMALL_NOISE and c.trajectory == SMALL_TRAJECTORY
                   and c.band_spec == SMALL_SPEC for c in configs)


def _assert_same_result(a, b):
    """Two results agree bit for bit in every field but their timings."""
    assert a.config == b.config
    for name in ("sse_history", "R", "coef", "target_means"):
        x, y = getattr(a.trace, name), getattr(b.trace, name)
        assert x.shape == y.shape and np.array_equal(x, y), name
    for name in ("selected_indices", "in_span", "stop_reason", "n_inputs"):
        assert getattr(a.trace, name) == getattr(b.trace, name), name
    assert a.network.spread == b.network.spread
    for name in ("centers", "output_weights", "output_bias"):
        assert np.array_equal(getattr(a.network, name), getattr(b.network, name)), name
    assert np.array_equal(a.outputs, b.outputs)
    assert a.output_mse == b.output_mse
    assert np.array_equal(a.reference.samples, b.reference.samples)
    assert np.array_equal(a.reference.timestamps, b.reference.timestamps)


class TestColumnSharing:
    """run_table trains each column once and cuts its other cells from that run."""

    @pytest.mark.parametrize("n_samples", [512, 16])
    def test_every_cell_equals_its_standalone_run(self, n_samples):
        # 16 samples against budgets up to 40 reach inputs_exhausted
        trajectory = replace(SMALL_TRAJECTORY, n_samples=n_samples)
        configs = build_grid([5, 12, 40], [10.0], [1e-6, 1e-2, 0.0, 1e9], ["none", "low", "mid"],
                             SMALL_SPEC, SMALL_NOISE, trajectory)
        results = run_table(configs)
        for config, result in zip(configs, results):
            _assert_same_result(result, run_method(config))
        reasons = {r.trace.stop_reason for r in results}
        assert {"sse_goal", "max_neurons"} <= reasons
        assert ("inputs_exhausted" in reasons) == (n_samples == 16)

    def test_one_training_per_column_and_one_run_per_config(self, monkeypatch):
        from gpsdenoise import pipeline

        trained, ran = [], []

        def counting_train(inputs, targets, config):
            trained.append(config)
            return train(inputs, targets, config)

        def counting_run(config, **kwargs):
            ran.append(config)
            return run_method(config, **kwargs)

        monkeypatch.setattr(pipeline, "train", counting_train)
        monkeypatch.setattr(pipeline, "run_method", counting_run)
        configs = build_grid([4, 8], [5.0, 10.0], [1e-6], ["low", "mid"],
                             SMALL_SPEC, SMALL_NOISE, SMALL_TRAJECTORY)
        results = run_table(configs)
        # columns: two spreads times the bands none, low and mid
        assert len(configs) == 16 and len(trained) == 6
        assert all(c.max_neurons == 8 for c in trained)
        # equal configs are distinct cells: count each object once
        assert sorted(map(id, ran)) == sorted(map(id, configs))
        assert all(r.config is c for r, c in zip(results, configs))

    def test_a_column_without_a_dominating_cell_trains_twice(self, monkeypatch):
        from gpsdenoise import pipeline

        trained = []

        def counting_train(inputs, targets, config):
            trained.append((config.max_neurons, config.sse_goal))
            return train(inputs, targets, config)

        monkeypatch.setattr(pipeline, "train", counting_train)
        conv = _pair()[0]
        configs = [replace(conv, train=TrainConfig(goal, budget, 10.0))
                   for budget, goal in ((12, 0.0), (40, 1e-2), (12, 0.0), (6, 0.1))]
        results = run_table(configs)
        assert trained == [(40, 1e-2), (12, 0.0)]
        for config, result in zip(configs, results):
            _assert_same_result(result, run_method(config))

    def test_cut_cells_time_their_own_stages(self):
        conv = _pair()[0]
        whole, short = run_table([replace(conv, train=TrainConfig(0.0, b, 10.0))
                                  for b in (24, 6)])
        assert len(short.trace.stage_seconds) == 7
        assert np.array_equal(short.trace.stage_seconds, whole.trace.stage_seconds[:7])
        # the clock at the end of stage 6 plus the cut's own output solve
        assert short.trace.stage_seconds[-1] < short.elapsed_train_seconds
        twin = run_method(conv, source=whole)
        assert twin.elapsed_train_seconds == whole.elapsed_train_seconds
        assert twin.reference is whole.reference
        assert twin.filter_seconds == whole.filter_seconds

    # budgets 17 to 24 keep the small low band's decimation at 4
    @pytest.mark.parametrize("budget", [24, 18], ids=["twin", "shorter"])
    def test_a_cut_is_a_function_of_its_source(self, monkeypatch, budget):
        from gpsdenoise import pipeline

        impr = _pair()[1]
        whole = run_method(impr)
        assert impr.decimation == 4
        for name in ("generate_trajectory", "add_noise", "select_band"):
            monkeypatch.setattr(pipeline, name, lambda *args, _name=name: pytest.fail(_name))
        config = replace(impr, train=TrainConfig(1e-6, budget, 10.0))
        cut = run_method(config, source=whole)
        assert cut.reference is whole.reference
        assert cut.filter_seconds == whole.filter_seconds > 0
        monkeypatch.undo()
        _assert_same_result(cut, run_method(config))

    def test_a_cell_is_cut_from_the_nearest_result_that_covers_it(self, monkeypatch):
        from gpsdenoise import pipeline

        cuts = []

        def recording_cut(net, trace, config):
            cuts.append((net.n_centers, config.max_neurons))
            return cut_run(net, trace, config)

        monkeypatch.setattr(pipeline, "cut_run", recording_cut)
        conv = _pair()[0]
        configs = [replace(conv, train=TrainConfig(0.0, budget, 10.0)) for budget in (12, 8, 4, 4)]
        results = run_table(configs)
        assert cuts == [(12, 8), (8, 4), (4, 4)]
        for config, result in zip(configs, results):
            _assert_same_result(result, run_method(config))

    def test_run_method_rejects_a_source_of_another_column(self):
        conv, impr = _pair()
        with pytest.raises(ValueError, match="same signal"):
            run_method(impr, source=run_method(conv))
        # budget 6 decimates the small low band by 16, budget 24 by 4
        short = replace(impr, train=TrainConfig(1e-6, 6, 10.0))
        assert (impr.decimation, short.decimation) == (4, 16)
        with pytest.raises(ValueError, match="decimation"):
            run_method(short, source=run_method(impr))


class TestSignalStore:
    """run_table builds each signal once and each band of it once."""

    def _grid(self):
        return build_grid([4, 8], [10.0], [0.0], ["none", "low", "mid"],
                          SMALL_SPEC, SMALL_NOISE, SMALL_TRAJECTORY)

    def test_one_signal_and_one_selection_per_series_and_band(self, monkeypatch):
        from gpsdenoise import pipeline

        built, selected = [], []

        def counting_trajectory(config):
            built.append("trajectory")
            return generate_trajectory(config)

        def counting_noise(series, noise):
            built.append("noise")
            return add_noise(series, noise)

        def counting_select(series, band, spec):
            selected.append(band)
            return select_band(series, band, spec)

        monkeypatch.setattr(pipeline, "generate_trajectory", counting_trajectory)
        monkeypatch.setattr(pipeline, "add_noise", counting_noise)
        monkeypatch.setattr(pipeline, "select_band", counting_select)
        assert len(run_table(self._grid())) == 10
        assert built == ["trajectory", "noise"]
        # the noisy and the clean series of each band
        assert sorted(selected) == ["low", "low", "mid", "mid"]

    def test_a_cut_at_the_runs_last_stage_reuses_its_outputs(self, monkeypatch):
        from gpsdenoise import pipeline

        evaluated = []

        def counting(net, inputs):
            evaluated.append(net.n_centers)
            return forward(net, inputs)

        monkeypatch.setattr(pipeline, "forward", counting)
        configs = self._grid()
        results = run_table(configs)
        # the conventional cells of the three bands are one config per budget;
        # at each budget the first is trained or cut shorter and the others
        # end at its last stage, so each distinct config is evaluated once
        assert sorted(evaluated) == [4] * 3 + [8] * 3
        for budget in (8, 4):
            same = [r for r in results
                    if r.config.band == "none" and r.config.train.max_neurons == budget]
            assert len(same) == 3
            assert all(r.network is same[0].network and r.outputs is same[0].outputs
                       for r in same)
        assert all(not r.outputs.flags.writeable for r in results)

    def test_signals_are_kept_apart_by_noise_and_trajectory(self):
        configs = [config
                   for seed in (11, 12) for n_samples in (256, 128)
                   for config in build_grid([4, 8], [10.0], [0.0, 1e-2], ["none", "low"],
                                            SMALL_SPEC, replace(SMALL_NOISE, seed=seed),
                                            replace(SMALL_TRAJECTORY, n_samples=n_samples))]
        results = run_table(configs)
        for config, result in zip(configs, results):
            _assert_same_result(result, run_method(config))
        # the improved cells of one signal report its band's one timed selection
        filter_seconds = {}
        for r in results:
            if r.config.band == "low":
                filter_seconds.setdefault((r.config.noise, r.config.trajectory),
                                          set()).add(r.filter_seconds)
        assert len(filter_seconds) == 4
        assert all(len(times) == 1 for times in filter_seconds.values())


class TestPlotData:
    def test_row_count_and_columns(self):
        conv, _ = _pair(max_neurons=8)
        result = run_method(conv)
        (plot,) = emit_plot_data(result, ["east"])
        n = SMALL_TRAJECTORY.n_samples
        for col in (plot.t, plot.original, plot.teaching, plot.learned):
            assert col.shape == (n,)

    def test_unknown_component(self):
        conv, _ = _pair(max_neurons=4)
        result = run_method(conv)
        with pytest.raises(ValueError, match="component"):
            emit_plot_data(result, ["north", "up"])

    def test_noiseless_learned_equals_original(self):
        traj = TrajectoryConfig(
            n_samples=48, dt=1.0,
            sinusoids=((Sinusoid(1.0, 0.02, 0.3),), (), ()),
        )
        cfg = MethodConfig(
            train=TrainConfig(sse_goal=0.0, max_neurons=48, spread=3.0),
            noise=NoiseConfig(sigma=0.0, seed=1), trajectory=traj,
        )
        result = run_method(cfg)
        (plot,) = emit_plot_data(result, ["north"])
        assert np.max(np.abs(plot.learned - plot.original)) <= 1e-8

    def test_emitted_rows_recompute_output_mse(self):
        _, impr = _pair(max_neurons=16)
        result = run_method(impr)
        sq = [(plot.learned - plot.original) ** 2 for plot in emit_plot_data(result)]
        recomputed = float(np.mean(sq))
        assert recomputed == pytest.approx(result.output_mse, abs=1e-12)

    def test_write_plot_data(self, tmp_path):
        conv, _ = _pair(max_neurons=6)
        (plot,) = emit_plot_data(run_method(conv), ["north"])
        path = tmp_path / "plot.csv"
        write_plot_data(plot, path)
        lines = path.read_text().splitlines()
        assert lines[0] == PLOT_HEADER
        assert len(lines) == SMALL_TRAJECTORY.n_samples + 1
        t, orig, teach, learned = (float(v) for v in lines[1].split(","))
        assert t == plot.t[0]
        assert learned == plot.learned[0]

    @pytest.mark.parametrize("columns", ["plot", "series"])
    def test_csv_kernel_formats_nearly_every_value_itself(self, columns):
        # a writer that left every value to repr would write the same text,
        # only slower: of the default improved low-band plot columns and of a
        # noisy series, at most 1% of the values may go through repr
        if columns == "plot":
            result = run_method(build_grid([100], [50.0], [1e-6], ["low"])[-1])
            values = [np.concatenate([p.t, p.original, p.teaching, p.learned])
                      for p in emit_plot_data(result)]
        else:
            series = add_noise(generate_trajectory(DEFAULT_TRAJECTORY), DEFAULT_NOISE)
            values = [series.timestamps, series.samples.ravel()]
        values = np.concatenate(values)
        _, by_repr = _value_slots(values)
        assert values.size >= 4 * 4096
        assert by_repr.mean() <= 0.01

    def test_teaching_starts_at_bias_only(self):
        conv, _ = _pair(max_neurons=12)
        result = run_method(conv)
        (plot,) = emit_plot_data(result, ["north"])
        # the first samples of the teaching curve come from the bias-only
        # stage: constant at the mean of the (noisy) training targets
        stage0 = stage_network(result.network, result.trace, 0)
        assert stage0.n_centers == 0
        assert stage0.output_bias[0] == pytest.approx(result.trace.target_means[0], rel=1e-12)
        assert plot.teaching[0] == pytest.approx(stage0.output_bias[0], rel=1e-12)

    def test_components_in_requested_order(self):
        result = run_method(_pair(max_neurons=6)[0])
        plots = emit_plot_data(result, ["alt", "north"])
        assert [p.component for p in plots] == ["alt", "north"]
        for plot, c in zip(plots, (2, 0)):
            assert np.array_equal(plot.original, result.reference.samples[:, c])

    def test_each_stage_is_evaluated_once(self, monkeypatch):
        from gpsdenoise import rbf

        calls = []
        solves = []

        def counting(net, inputs):
            calls.append(net.n_centers)
            return forward(net, inputs)

        def counting_solve(design, targets, solve=rbf.solve_output_weights):
            solves.append(design.shape)
            return solve(design, targets)

        monkeypatch.setattr(pipeline, "forward", counting)
        result = run_method(_pair(max_neurons=10)[0])
        monkeypatch.setattr(rbf, "solve_output_weights", counting_solve)
        plots = emit_plot_data(result, ["north", "east", "alt"])
        assert len(plots) == 3
        stages = len(result.trace.sse_history)
        assert stages == 11
        # once per stage network, plus once for the final network's outputs,
        # which run_method computes and the learned column reuses
        assert sorted(calls) == sorted(list(range(stages)) + [result.network.n_centers])
        # the last stage is the result's network, which training solved
        assert len(solves) == stages - 1

    @pytest.mark.parametrize("case", ["conventional", "improved", "more_stages_than_samples"])
    def test_teaching_column_equals_the_per_sample_oracle(self, case, monkeypatch):
        if case == "more_stages_than_samples":
            # 8 samples, every one a center: 9 stages, so one shows on no sample
            traj = TrajectoryConfig(n_samples=8, dt=1.0,
                                    sinusoids=((Sinusoid(1.0, 0.1, 0.3),), (), ()))
            config = MethodConfig(train=TrainConfig(sse_goal=0.0, max_neurons=8, spread=0.3),
                                  noise=NoiseConfig(sigma=0.1, seed=2), trajectory=traj)
        else:
            config = _pair(max_neurons=20, spread=30.0)[case == "improved"]
        result = run_method(config)
        # the oracle: sample i shows stage floor(i * S / n), gathered by a mask per stage
        inputs = result.reference.timestamps[:, None]
        n = inputs.shape[0]
        n_stages = len(result.trace.sse_history)
        stage_of_sample = np.arange(n) * n_stages // n
        expected = np.empty_like(result.outputs)
        for stage in np.unique(stage_of_sample):
            mask = stage_of_sample == stage
            subnet = stage_network(result.network, result.trace, int(stage))
            expected[mask] = forward(subnet, inputs[mask])
        evaluated = []
        monkeypatch.setattr(pipeline, "forward",
                            lambda net, x: evaluated.append(len(x)) or forward(net, x))
        for c, plot in enumerate(emit_plot_data(result)):
            assert np.array_equal(plot.teaching, expected[:, c])
        # one evaluation per stage that shows on a sample, and none on no sample
        assert sorted(evaluated) == sorted(np.unique(stage_of_sample, return_counts=True)[1])
        if case == "more_stages_than_samples":
            assert n_stages == n + 1
            assert len(np.unique(stage_of_sample)) < n_stages
        else:
            # n_stages does not divide n, so the stages show on runs of unequal length
            assert n % n_stages != 0


class TestReport:
    def test_band_column_none_for_conventional(self, tmp_path):
        conv, impr = _pair(max_neurons=6)
        path = tmp_path / "r.csv"
        write_report(run_table([conv, impr]), path)
        rows = path.read_text().splitlines()[1:]
        assert rows[0].split(",")[1] == "none"
        assert rows[1].split(",")[1] == "low"

    def test_numeric_fields_parse_back(self, tmp_path):
        conv, _ = _pair(max_neurons=6)
        result = run_method(conv)
        path = tmp_path / "r.csv"
        write_report([result], path)
        cells = path.read_text().splitlines()[1].split(",")
        assert int(cells[2]) == conv.train.max_neurons
        assert float(cells[3]) == conv.train.spread
        assert float(cells[4]) == conv.train.sse_goal
        assert int(cells[5]) == SMALL_NOISE.seed
        assert float(cells[10]) == result.output_mse

    def test_stop_and_stage_columns_agree_with_the_run(self, tmp_path):
        # spread 30 on the small signal leaves some stages in the span
        results = run_table(_pair(max_neurons=24, spread=30.0))
        path = tmp_path / "r.csv"
        write_report(results, path)
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        assert header[11:] == ["stop_reason", "useful_stages", "weight_absmax", "decimation"]
        for line, result in zip(lines[1:], results):
            cells = line.split(",")
            history = result.trace.sse_history
            assert cells[11] == result.trace.stop_reason
            assert int(cells[12]) == sum(b < a for a, b in zip(history, history[1:]))
            assert float(cells[13]) == np.max(np.abs(result.network.output_weights))
            assert int(cells[14]) == result.config.decimation
            # final_sse is on the full-rate grid
            assert float(cells[9]) == result.config.decimation * history[-1]
        assert int(lines[1].split(",")[12]) < results[0].network.n_centers
