"""Tests for the Gaussian RBF network and its greedy incremental training."""
import dataclasses
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from gpsdenoise.rbf import (
    _FORWARD_BLOCK,
    DenseKernel,
    RbfNetwork,
    ToeplitzKernel,
    TrainConfig,
    _activations,
    _greedy_train,
    cut_run,
    forward,
    kernel_operator,
    solve_output_weights,
    stage_network,
    stop_reason,
    train,
)


def _random_problem(seed, n=12, d=2, m=3):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0.0, 1.0, (n, d))
    Y = rng.normal(0.0, 1.0, (n, m))
    return X, Y


class TestRbfNetwork:
    def test_rejects_mismatched_weight_rows(self):
        with pytest.raises(ValueError, match="rows"):
            RbfNetwork(centers=np.zeros((2, 1)), spread=1.0,
                       output_weights=np.zeros((3, 1)), output_bias=np.zeros(1))

    def test_rejects_nonpositive_spread(self):
        with pytest.raises(ValueError, match="spread"):
            RbfNetwork(centers=np.zeros((1, 1)), spread=0.0,
                       output_weights=np.zeros((1, 1)), output_bias=np.zeros(1))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            RbfNetwork(centers=np.array([[np.inf]]), spread=1.0,
                       output_weights=np.zeros((1, 1)), output_bias=np.zeros(1))

    @pytest.mark.parametrize("centers, weights, bias", [
        # three numbers were once taken as one 3-d center: no shape is guessed
        ([0.0, 1.0, 2.0], np.ones(1), [0.0]),
        (np.zeros((3, 1)), np.ones(3), [0.0]),
        (np.zeros((3, 1)), np.ones((3, 1)), [[0.0]]),
        (np.zeros((0, 0)), np.zeros((0, 1)), [0.0]),
    ], ids=["1d-centers", "1d-weights", "2d-bias", "0-dim-centers"])
    def test_rejects_any_other_shape(self, centers, weights, bias):
        with pytest.raises(ValueError, match=r"shapes \(k, d\) with d >= 1, \(k, m\) and \(m,\)"):
            RbfNetwork(centers=centers, spread=1.0, output_weights=weights, output_bias=bias)

    def test_writeable_inputs_are_copied_and_stay_writeable(self):
        c, w, b = np.zeros((2, 1)), np.ones((2, 3)), np.zeros(3)
        net = RbfNetwork(centers=c, spread=1.0, output_weights=w, output_bias=b)
        assert c.flags.writeable and w.flags.writeable and b.flags.writeable
        c[0, 0], w[0, 0], b[0] = 5.0, 7.0, 9.0
        assert net.centers[0, 0] == 0.0 and net.output_weights[0, 0] == 1.0
        assert net.output_bias[0] == 0.0
        assert not any(a.flags.writeable
                       for a in (net.centers, net.output_weights, net.output_bias))

    @pytest.mark.parametrize("spread", [math.nan, math.inf, 1e-300, 1e200])
    def test_rejects_spread_without_a_finite_positive_square(self, spread):
        with pytest.raises(ValueError, match="spread"):
            RbfNetwork(centers=np.zeros((1, 1)), spread=spread,
                       output_weights=np.zeros((1, 1)), output_bias=np.zeros(1))


class TestForward:
    def test_zero_centers_returns_bias(self):
        net = RbfNetwork(centers=np.zeros((0, 2)), spread=1.0,
                         output_weights=np.zeros((0, 3)), output_bias=np.array([1.0, -2.0, 0.5]))
        assert np.array_equal(forward(net, np.array([[9.0, 9.0]])), [[1.0, -2.0, 0.5]])

    def test_on_center_evaluation(self):
        c = np.array([0.3, -0.7])
        w = np.array([[2.0, 5.0]])
        net = RbfNetwork(centers=c[None, :], spread=1.3,
                         output_weights=w, output_bias=np.zeros(2))
        assert np.allclose(forward(net, c[None, :]), w, rtol=0, atol=1e-15)

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(17)
        centers = rng.normal(0, 1, (3, 2))
        weights = rng.normal(0, 1, (3, 4))
        bias = rng.normal(0, 1, 4)
        spread = 0.8
        net = RbfNetwork(centers=centers, spread=spread,
                         output_weights=weights, output_bias=bias)
        X = rng.normal(0, 1, (10, 2))
        out = forward(net, X)
        for i in range(10):
            expected = bias.copy()
            for j in range(3):
                dist = math.sqrt(((X[i] - centers[j]) ** 2).sum())
                expected = expected + weights[j] * math.exp(-((dist / spread) ** 2))
            assert np.max(np.abs(out[i] - expected)) < 1e-12

    def test_dimension_mismatch(self):
        net = RbfNetwork(centers=np.zeros((1, 2)), spread=1.0,
                         output_weights=np.zeros((1, 1)), output_bias=np.zeros(1))
        with pytest.raises(ValueError, match="dimension"):
            forward(net, np.zeros((1, 3)))

    @pytest.mark.parametrize("k", [0, 2])
    def test_rejects_one_vector(self, k):
        net = RbfNetwork(centers=np.zeros((k, 2)), spread=1.0,
                         output_weights=np.zeros((k, 1)), output_bias=np.zeros(1))
        with pytest.raises(ValueError, match=r"shape \(n, 2\)"):
            forward(net, np.zeros(2))

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("k", [0, 1, 7])
    def test_activations_match_broadcast_formula(self, d, k):
        # the broadcast formula is the reference; the in-place build must
        # match it bit for bit
        rng = np.random.default_rng(10 * d + k)
        X = rng.normal(0.0, 3.0, (40, d))
        C = rng.normal(0.0, 3.0, (k, d))
        spread = 1.7
        expected = np.exp(-((X[:, None, :] - C[None]) ** 2).sum(2) / spread**2)
        got = _activations(X, C, spread)
        assert got.shape == (40, k)
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("k,d", [(1, 1), (50, 1), (50, 2), (3000, 1), (_FORWARD_BLOCK + 1, 1)])
    @pytest.mark.parametrize("blocks,extra", [(1, -1), (1, 0), (1, 1), (2, 1)])
    def test_matches_one_product_across_blocks(self, k, d, blocks, extra):
        # n = rows - 1, rows, rows + 1 and 2 rows + 1 inputs for the rows of
        # one block: a call that fits one block is the single product bit
        # for bit; past that, BLAS may round each block's product differently
        rows = max(1, _FORWARD_BLOCK // k)
        n = blocks * rows + extra  # no inputs at all for a one-row block less one
        rng = np.random.default_rng(k + n + d)
        X = rng.uniform(0.0, 10.0, (n, d))
        net = RbfNetwork(centers=rng.uniform(0.0, 10.0, (k, d)), spread=2.0,
                         output_weights=rng.normal(0.0, 1.0, (k, 3)),
                         output_bias=rng.normal(0.0, 1.0, 3))
        A = _activations(X, net.centers, net.spread)
        expected = net.output_bias + A @ net.output_weights
        got = forward(net, X)
        assert got.shape == (n, 3)
        if n * k <= _FORWARD_BLOCK:
            assert np.array_equal(got, expected)
        else:
            scale = np.abs(net.output_bias) + A @ np.abs(net.output_weights)
            assert np.all(np.abs(got - expected) <= 1e-12 * scale)

    @pytest.mark.parametrize("n", [0, 5, 2 * _FORWARD_BLOCK + 1])
    def test_bias_only_blocks(self, n):
        bias = np.array([1.5, -2.0])
        net = RbfNetwork(centers=np.zeros((0, 1)), spread=1.0,
                         output_weights=np.zeros((0, 2)), output_bias=bias)
        out = forward(net, np.linspace(0.0, 1.0, n)[:, None])
        assert out.shape == (n, 2)
        assert np.array_equal(out, np.tile(bias, (n, 1)))

    def test_batch_matches_single(self):
        # BLAS may order the reductions differently for a batch, so compare
        # to round-off rather than bitwise
        X, Y = _random_problem(3)
        net, _ = train(X, Y, TrainConfig(sse_goal=1e-12, max_neurons=5, spread=0.5))
        batch = forward(net, X)
        for i in range(X.shape[0]):
            assert np.allclose(batch[i], forward(net, X[i:i + 1])[0], rtol=1e-13, atol=1e-13)


class TestSolveOutputWeights:
    def test_identity_design(self):
        T = np.random.default_rng(0).normal(0, 1, (4, 2))
        weights, bias = solve_output_weights(np.eye(4), T)
        params = np.vstack([weights, bias])
        assert np.max(np.abs(params - T)) < 1e-12

    def test_rank_deficient_collinear_bias(self):
        # single center whose activation column is all ones: collinear with
        # the constant column, still solvable and residual-minimizing
        n = 6
        design = np.ones((n, 2))
        targets = np.full((n, 1), 3.0)
        weights, bias = solve_output_weights(design, targets)
        assert np.all(np.isfinite(weights)) and np.all(np.isfinite(bias))
        resid = design @ np.vstack([weights, bias]) - targets
        assert np.max(np.abs(resid)) < 1e-10

    def test_matches_normal_equations(self):
        rng = np.random.default_rng(5)
        X = rng.uniform(0, 1, (5, 1))
        centers = X[:2]
        acts = np.exp(-((X - centers.T) / 0.4) ** 2)
        design = np.column_stack([acts, np.ones(5)])
        targets = rng.normal(0, 1, (5, 3))
        weights, bias = solve_output_weights(design, targets)
        params = np.vstack([weights, bias])
        oracle = np.linalg.solve(design.T @ design, design.T @ targets)
        assert np.max(np.abs(params - oracle)) < 1e-8

    def test_residual_orthogonal_to_design(self):
        rng = np.random.default_rng(6)
        design = np.column_stack([rng.normal(0, 1, (20, 4)), np.ones(20)])
        targets = rng.normal(0, 1, (20, 2))
        weights, bias = solve_output_weights(design, targets)
        resid = design @ np.vstack([weights, bias]) - targets
        scale = np.max(np.abs(design.T @ targets))
        assert np.max(np.abs(design.T @ resid)) <= 1e-8 * scale

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            solve_output_weights(np.array([[1.0], [np.nan]]), np.zeros((2, 1)))

    @pytest.mark.parametrize("targets", [np.zeros(2), np.zeros((3, 1))], ids=["1d", "rows"])
    def test_rejects_targets_of_another_shape(self, targets):
        with pytest.raises(ValueError, match="2-d with the design's 2 rows"):
            solve_output_weights(np.ones((2, 1)), targets)


class TestTrain:
    def test_constant_targets_bias_only(self):
        X = np.linspace(0, 1, 8)[:, None]
        Y = np.full((8, 3), 2.5)
        net, trace = train(X, Y, TrainConfig(sse_goal=0.0, max_neurons=5, spread=0.3))
        assert net.n_centers == 0
        assert trace.sse_history[0] <= 1e-18
        assert np.array_equal(net.output_bias, [2.5, 2.5, 2.5])
        assert trace.stop_reason == "sse_goal"

    def test_interpolation_with_five_points(self):
        rng = np.random.default_rng(11)
        X = np.array([0.0, 0.21, 0.45, 0.7, 1.0])[:, None]
        Y = rng.normal(0, 1, (5, 2))
        net, trace = train(X, Y, TrainConfig(sse_goal=0.0, max_neurons=5, spread=0.3))
        assert trace.sse_history[-1] <= 1e-10
        # oracle: the square kernel system is solvable, so a zero-residual
        # interpolant exists and the least-squares fit must reach it
        K = np.exp(-(((X - X.T) / 0.3) ** 2))
        w = np.linalg.solve(K, Y)
        assert np.max(np.abs(K @ w - Y)) < 1e-9

    def test_interpolation_at_capacity_reproduces_targets(self):
        X, Y = _random_problem(21, n=14, d=1, m=2)
        net, trace = train(X, Y, TrainConfig(sse_goal=0.0, max_neurons=14, spread=0.15))
        preds = forward(net, X)
        assert np.max(np.abs(preds - Y)) <= 1e-8

    def test_termination_on_default_benchmark_signal(self):
        # paper-style cell (nnsize=50, sc=30, goal 1e-6): must stop by one of
        # the two rules with a non-increasing error history
        from gpsdenoise.pipeline import DEFAULT_NOISE, DEFAULT_TRAJECTORY
        from gpsdenoise.signal import add_noise, generate_trajectory

        noisy = add_noise(generate_trajectory(DEFAULT_TRAJECTORY), DEFAULT_NOISE)
        net, trace = train(noisy.timestamps[:, None], noisy.samples,
                           TrainConfig(sse_goal=1e-6, max_neurons=50, spread=30.0))
        assert trace.stop_reason in ("sse_goal", "max_neurons")
        assert net.n_centers <= 50
        assert np.all(np.diff(trace.sse_history) <= 0)

    def test_sse_history_non_increasing_randomized(self):
        rng = np.random.default_rng(2024)
        for _ in range(30):
            n = int(rng.integers(3, 25))
            d = int(rng.integers(1, 3))
            m = int(rng.integers(1, 4))
            X = rng.uniform(0, 1, (n, d))
            Y = rng.normal(0, 1, (n, m))
            spread = float(rng.uniform(0.05, 2.0))
            cfg = TrainConfig(sse_goal=0.0, max_neurons=int(rng.integers(1, n + 1)), spread=spread)
            _, trace = train(X, Y, cfg)
            assert np.all(np.diff(trace.sse_history) <= 0)

    def test_deterministic(self):
        X, Y = _random_problem(31, n=20, d=1, m=3)
        grid = np.linspace(0.0, 1.0, 20)[:, None]  # takes the Toeplitz path
        cfg = TrainConfig(sse_goal=1e-9, max_neurons=12, spread=0.2)
        for inputs in (X, grid):
            net1, trace1 = train(inputs, Y, cfg)
            net2, trace2 = train(inputs, Y, cfg)
            assert np.array_equal(net1.centers, net2.centers)
            assert np.array_equal(net1.output_weights, net2.output_weights)
            assert np.array_equal(net1.output_bias, net2.output_bias)
            assert np.array_equal(trace1.sse_history, trace2.sse_history)
            assert trace1.selected_indices == trace2.selected_indices

    def test_duplicate_inputs_handled(self):
        X = np.array([[0.1], [0.1], [0.5], [0.5], [0.9]])
        Y = np.array([[1.0], [1.2], [0.0], [0.1], [-1.0]])
        net, trace = train(X, Y, TrainConfig(sse_goal=0.0, max_neurons=5, spread=0.3))
        assert np.all(np.isfinite(net.output_weights))
        assert np.all(np.diff(trace.sse_history) <= 0)

    def test_inputs_exhausted(self):
        X = np.array([[0.0], [1/3], [1.0]])
        Y = np.array([[0.0], [2.0], [1.0]])
        net, trace = train(X, Y, TrainConfig(sse_goal=0.0, max_neurons=10, spread=0.4))
        assert net.n_centers <= 3
        assert trace.stop_reason in ("inputs_exhausted", "sse_goal")

    def test_trace_shapes(self):
        X, Y = _random_problem(41, n=10, d=1, m=2)
        cfg = TrainConfig(sse_goal=0.0, max_neurons=6, spread=0.25)
        net, trace = train(X, Y, cfg)
        assert len(trace.sse_history) <= cfg.max_neurons + 1
        assert len(trace.sse_history) == net.n_centers + 1
        assert len(trace.in_span) == net.n_centers
        rows = 1 + net.n_centers - sum(trace.in_span)
        assert trace.R.shape == (rows, net.n_centers + 1)
        assert trace.coef.shape == (rows, Y.shape[1])
        assert np.array_equal(trace.target_means, Y.mean(axis=0))
        # upper triangular over the basis rows, bias column sqrt(n) * e0
        assert np.array_equal(trace.R[1:, -1], np.zeros(rows - 1))
        assert trace.R[0, -1] == np.sqrt(X.shape[0])
        assert np.array_equal(trace.coef[0], np.zeros(Y.shape[1]))

    def test_train_solves_the_output_layer_once(self, monkeypatch):
        from gpsdenoise import rbf

        calls = []

        def counting(design, targets):
            calls.append(design.shape)
            return solve_output_weights(design, targets)

        monkeypatch.setattr(rbf, "solve_output_weights", counting)
        X, Y = _random_problem(43, n=30, d=1, m=3)
        net, trace = train(X, Y, TrainConfig(sse_goal=0.0, max_neurons=8, spread=0.2))
        assert net.n_centers == 8
        assert calls == [(1 + 8 - sum(trace.in_span), 9)]

    def test_final_stage_network_is_the_trained_network(self):
        for seed, spread in ((44, 0.2), (45, 3.0)):  # 3.0: mostly in-span columns
            X, Y = _random_problem(seed, n=25, d=1, m=3)
            net, trace = train(X, Y, TrainConfig(sse_goal=0.0, max_neurons=12, spread=spread))
            # the network the trace builds for its last stage, bit for bit
            rebuilt = trace.network(net.centers, net.spread, net.n_centers)
            for name in ("centers", "output_weights", "output_bias"):
                a, b = getattr(rebuilt, name), getattr(net, name)
                assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
            for stage in (-1, net.n_centers + 1):
                with pytest.raises(ValueError, match="stage"):
                    stage_network(net, trace, stage)

    def test_last_stage_network_is_the_run_itself(self):
        # a trained run and a cut of it, which solves a network of its own
        X, Y = _random_problem(44, n=25, d=1, m=3)
        run = train(X, Y, TrainConfig(sse_goal=0.0, max_neurons=12, spread=0.2))
        cut = cut_run(*run, TrainConfig(sse_goal=0.0, max_neurons=7, spread=0.2))
        assert cut[0] is not run[0]
        for net, trace in (run, cut):
            assert stage_network(net, trace, len(trace.in_span)) is net

    def test_stage_network_reconstruction(self):
        X, Y = _random_problem(51, n=15, d=1, m=2)
        net, trace = train(X, Y, TrainConfig(sse_goal=0.0, max_neurons=8, spread=0.3))
        stage0 = stage_network(net, trace, 0)
        assert stage0.n_centers == 0
        assert np.allclose(forward(stage0, X), np.tile(Y.mean(axis=0), (15, 1)), rtol=0, atol=1e-12)
        for stage in range(len(trace.sse_history)):
            sub = stage_network(net, trace, stage)
            sse = float(((forward(sub, X) - Y) ** 2).sum())
            assert sse == pytest.approx(trace.sse_history[stage], rel=1e-6, abs=1e-12)

    def test_rejects_empty_and_bad_inputs(self):
        cfg = TrainConfig(sse_goal=0.0, max_neurons=2, spread=1.0)
        with pytest.raises(ValueError, match="empty"):
            train(np.zeros((0, 1)), np.zeros((0, 1)), cfg)
        with pytest.raises(ValueError, match="finite"):
            train(np.array([[np.nan]]), np.array([[1.0]]), cfg)
        with pytest.raises(ValueError, match="rows"):
            train(np.zeros((3, 1)), np.zeros((4, 1)), cfg)
        with pytest.raises(ValueError, match="input column"):
            train(np.zeros((3, 0)), np.zeros((3, 1)), cfg)

    @pytest.mark.parametrize("X, Y", [(np.arange(3.0), np.zeros((3, 1))),
                                      (np.arange(3.0)[:, None], np.zeros(3))],
                             ids=["1d-inputs", "1d-targets"])
    def test_rejects_one_vector(self, X, Y):
        with pytest.raises(ValueError, match="2-d matrices"):
            train(X, Y, TrainConfig(sse_goal=0.0, max_neurons=2, spread=1.0))

    @pytest.mark.parametrize("X, spread", [
        # spread^2 = 1e-320 is positive, but 400^2 / 1e-320 is not finite
        (np.arange(5.0)[:, None] * 100.0, 1e-160),
        # the squared span 2.5e321 overflows before the division
        (np.array([[0.0, 0.0], [3.0, 4.0]]) * 1e160, 1.0),
    ], ids=["tiny-spread", "huge-span"])
    def test_rejects_span_whose_scaled_square_overflows(self, X, spread):
        Y = np.zeros((X.shape[0], 1))
        with pytest.raises(ValueError, match="spread .* spanning"):
            train(X, Y, TrainConfig(sse_goal=0.0, max_neurons=2, spread=spread))

    @pytest.mark.parametrize("Y", [
        # finite deviations whose squares sum past the float range
        np.random.default_rng(0).normal(0.0, 1e160, (64, 1)),
        # finite values whose sum, and so their mean, overflows
        np.full((64, 1), 1e308),
    ], ids=["squared-deviation", "mean"])
    def test_rejects_targets_whose_centred_sum_of_squares_overflows(self, Y):
        with pytest.raises(ValueError, match="targets overflow"):
            train(np.arange(64.0)[:, None], Y, TrainConfig(0.0, 5, 2.0))

    def test_targets_whose_scores_overflow_train_without_warning(self):
        # A candidate on the 1e-300 norm floor scores past the float range
        # here, and pytest makes an overflow warning an error. The picks are
        # those of the same targets at 1e18, where no score overflows.
        z = np.random.default_rng(0).normal(0.0, 1.0, (64, 1))
        _, trace = train(np.arange(64.0)[:, None], z * 1e19, TrainConfig(0.0, 5, 2.0))
        assert trace.selected_indices == [47, 13, 42, 6, 9]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(sse_goal=-1.0, max_neurons=5, spread=1.0)
        with pytest.raises(ValueError):
            TrainConfig(sse_goal=0.0, max_neurons=0, spread=1.0)
        with pytest.raises(ValueError):
            TrainConfig(sse_goal=0.0, max_neurons=5, spread=0.0)
        with pytest.raises(ValueError, match="sse_goal"):
            TrainConfig(sse_goal=math.nan, max_neurons=5, spread=1.0)
        for spread in (math.inf, math.nan, 1e-300):  # 1e-300 squares to 0
            with pytest.raises(ValueError, match="spread"):
                TrainConfig(sse_goal=0.0, max_neurons=5, spread=spread)


def _design(X, centers, spread):
    """Oracle design [activations | ones], built without the library."""
    dist2 = ((X[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
    return np.column_stack([np.exp(-dist2 / spread**2), np.ones(X.shape[0])])


def _well_conditioned_runs(count=20):
    """Trained random problems whose final design has condition number <= 1e3."""
    rng = np.random.default_rng(8080)
    runs = []
    while len(runs) < count:
        n = int(rng.integers(20, 60))
        d = int(rng.integers(1, 3))
        X = rng.uniform(0.0, 1.0, (n, d))
        Y = rng.normal(0.0, 1.0, (n, int(rng.integers(1, 4))))
        cfg = TrainConfig(sse_goal=0.0, max_neurons=int(rng.integers(2, 9)),
                          spread=float(rng.uniform(0.1, 0.3)))
        net, trace = train(X, Y, cfg)
        if np.linalg.cond(_design(X, net.centers, cfg.spread)) <= 1e3:
            runs.append((X, Y, cfg, net, trace))
    return runs


def _default_problem(band=None, seed=None):
    """Inputs and targets of the default noisy signal, or of one band of it."""
    from gpsdenoise.bandfilter import select_band
    from gpsdenoise.pipeline import DEFAULT_BAND_SPEC, DEFAULT_NOISE, DEFAULT_TRAJECTORY
    from gpsdenoise.signal import add_noise, generate_trajectory

    noise = DEFAULT_NOISE if seed is None else dataclasses.replace(DEFAULT_NOISE, seed=seed)
    series = add_noise(generate_trajectory(DEFAULT_TRAJECTORY), noise)
    if band is not None:
        series = select_band(series, band, DEFAULT_BAND_SPEC).series
    return series.timestamps[:, None], series.samples


def _assert_drops_equal_scores(X, Y, cfg, trace):
    """Each stage's SSE drop is its pick's score, the largest of all: the SSE
    drop of adding a candidate's column to the previous stage's design,
    |c_perp . r|^2 / |c_perp|^2, here from a fresh QR of that design."""
    acts = _design(X, X, cfg.spread)[:, :-1]
    history = trace.sse_history
    for k, idx in enumerate(trace.selected_indices):
        prev = trace.selected_indices[:k]
        Q, _ = np.linalg.qr(np.column_stack([np.ones(X.shape[0]), acts[:, prev]]))
        resid = Y - Q @ (Q.T @ Y)
        perp = acts - Q @ (Q.T @ acts)
        scores = (((perp.T @ resid) ** 2).sum(axis=1)
                  / np.maximum((perp ** 2).sum(axis=0), 1e-300))
        scores[prev] = 0.0
        drop = history[k] - history[k + 1]
        assert abs(drop - scores[idx]) <= 1e-9 * scores[idx]
        assert scores[idx] >= (1.0 - 1e-9) * scores.max()


def _opening_picks(trace):
    """The picks of the stages that opened a basis row, in order."""
    return [i for i, spans in zip(trace.selected_indices, trace.in_span) if not spans]


class TestOrthogonalLeastSquares:
    """The incrementally factorised trainer against dense n-row oracles."""

    def test_final_weights_match_full_design_solve(self):
        for X, Y, cfg, net, trace in _well_conditioned_runs():
            weights, bias = solve_output_weights(_design(X, net.centers, cfg.spread), Y)
            assert np.max(np.abs(net.output_weights - weights)) <= 1e-8
            assert np.max(np.abs(net.output_bias - bias)) <= 1e-8
            assert not any(trace.in_span)

    def test_each_stage_drop_equals_its_score(self):
        for X, Y, cfg, _, trace in _well_conditioned_runs():
            _assert_drops_equal_scores(X, Y, cfg, trace)

    @pytest.mark.parametrize("m", [1, 5])
    def test_stacked_state_on_the_grid_path(self, m):
        # the residual and the candidate products are one (2, m, n) state;
        # _well_conditioned_runs covers m = 1-3 on Dense inputs only, so
        # train m target columns on a uniform grid (ToeplitzKernel), from
        # every other row of a target table, as run_method passes a
        # decimated band, and from a C-order copy, a Fortran-order copy and
        # every other column of a wider table: the target means sum a
        # column in an order set by its layout, unless train() copies it
        X = _grid(90)
        Y = np.random.default_rng(40 + m).normal(0.0, 1.0, (180, m))[::2]
        assert not Y.flags.c_contiguous
        cfg = TrainConfig(sse_goal=0.0, max_neurons=8, spread=0.15)
        assert isinstance(kernel_operator(X, cfg.spread), ToeplitzKernel)
        run = train(X, Y, cfg)
        assert np.linalg.cond(_design(X, run[0].centers, cfg.spread)) <= 1e3
        assert not any(run[1].in_span)
        _assert_drops_equal_scores(X, Y, cfg, run[1])
        wide = np.empty((Y.shape[0], 2 * m))
        wide[:, ::2] = Y
        for layout in (np.ascontiguousarray(Y), np.asfortranarray(Y), wide[:, ::2]):
            assert_same_run(run, train(X, layout, cfg))

    def test_in_span_flags_the_zero_drop_stages(self):
        # conventional cell nnsize 100, spread 100 on the default signal: most
        # late columns lie in the span of the earlier ones
        from gpsdenoise.pipeline import DEFAULT_NOISE, DEFAULT_TRAJECTORY
        from gpsdenoise.signal import add_noise, generate_trajectory

        noisy = add_noise(generate_trajectory(DEFAULT_TRAJECTORY), DEFAULT_NOISE)
        _, trace = train(noisy.timestamps[:, None], noisy.samples,
                         TrainConfig(sse_goal=1e-6, max_neurons=100, spread=100.0))
        zero_drop = np.diff(trace.sse_history) == 0
        assert len(trace.in_span) == len(trace.selected_indices) == 100
        assert sum(trace.in_span) > 0
        assert np.array_equal(trace.in_span, zero_drop)

    def test_one_kernel_product_per_new_direction(self, monkeypatch):
        # m rows for every pass from the residual, the first and each one
        # the rescoring rule asks for; one vector per center that opens a
        # basis row; nothing for an in-span center
        from gpsdenoise import rbf

        widths = []
        matmul = ToeplitzKernel.matmul

        def counting(op, V):
            widths.append(1 if V.ndim == 1 else V.shape[0])
            return matmul(op, V)

        monkeypatch.setattr(ToeplitzKernel, "matmul", counting)
        for band, cfg in ((None, TrainConfig(1e-6, 100, 100.0)),
                          ("low", TrainConfig(0.0, 50, 50.0))):
            X, Y = _default_problem(band)
            widths.clear()
            _, trace = train(X, Y, cfg)
            expected, rescored = [], math.inf
            for sse, spans in zip(trace.sse_history, trace.in_span):
                if sse < rbf._RESCORE_FRACTION * rescored:
                    expected.append(Y.shape[1])
                    rescored = sse
                if not spans:
                    expected.append(1)
            assert sum(trace.in_span) > 0
            assert widths == expected
            if band == "low":  # its SSE falls far enough to rescore on the way
                assert expected.count(Y.shape[1]) > 1

    # Picks of the default signal's conventional runs (the Table-1 cells:
    # nnsize 100, spreads 30, 50 and 100) and improved/low run (nnsize 50,
    # spread 30) at every stage that opens a basis row, pinned before the
    # trainer kept its state as rows (spread 50 and low) and before a change
    # to its rank rule (spreads 30 and 100). The in-span picks are left out:
    # they tie on a zero score.
    OPENING_PICKS = {
        (None, 30.0): ("max_neurons", [
            2233, 1603, 2839, 1056, 3392, 0, 1, 4095, 4094, 4093, 4092, 4082,
            4062, 4031, 3992, 3948, 3906, 3867, 3814, 3750, 3688, 3632, 3563,
            3481, 3370, 3314, 3251, 3185, 3118, 3051, 2973, 2831, 2785, 2727,
            2664, 2599, 2531, 2458, 2381, 2242, 2192, 2135, 2074, 2009, 1944,
            1875, 1809, 1732, 1594, 1546, 1488, 1426, 1354, 1280, 1205, 1103,
            1016, 952, 3, 877, 798, 705, 607, 51, 411, 242, 319]),
        (None, 50.0): ("max_neurons", [
            2210, 1376, 3017, 0, 3646, 1, 2, 4, 14, 40, 85, 145, 191, 246, 322,
            399, 459, 550, 669, 769, 879, 987, 1088, 1382, 1446, 1545, 1645,
            1747, 1863, 2007, 2230, 2290, 2425, 2561, 2703, 2868, 3066, 3181,
            3335, 3575, 3755, 3890, 4049, 4093]),
        (None, 100.0): ("max_neurons", [
            2199, 1505, 2743, 0, 3874, 1, 2, 17, 72, 170, 327, 529, 1508, 1593,
            1837, 2339, 2824, 3880, 4073, 3469]),
        ("low", 30.0): ("sse_goal", [
            2200, 1587, 2816, 1026, 3366, 2589, 1922, 2898, 488, 1358, 3763,
            629, 1826, 3072, 589, 4001, 2462, 191, 1315, 4095, 3876, 791, 238,
            4094, 4093, 4073, 3984, 3864, 3754, 3700, 3626, 3364, 3319, 3067]),
    }

    @pytest.mark.parametrize("band, cfg", [(None, TrainConfig(1e-6, 100, 50.0)),
                                           ("low", TrainConfig(1e-6, 50, 30.0)),
                                           (None, TrainConfig(1e-6, 100, 30.0)),
                                           (None, TrainConfig(1e-6, 100, 100.0))],
                             ids=["conventional", "improved-low",
                                  "conventional-30", "conventional-100"])
    def test_default_signal_opening_picks_unchanged(self, band, cfg):
        X, Y = _default_problem(band)
        _, trace = train(X, Y, cfg)
        opened = _opening_picks(trace)
        assert (trace.stop_reason, opened) == self.OPENING_PICKS[band, cfg.spread]
        # every in-span stage comes after the last opening stage, and the
        # SSE stays flat from there
        k = len(opened)
        assert not any(trace.in_span[:k])
        assert np.all(np.asarray(trace.sse_history[k:]) == trace.sse_history[k])

    @pytest.mark.parametrize("band, seed, cfg", [
        ("low", 1234, TrainConfig(0.0, 50, 50.0)),
        ("low", 7, TrainConfig(0.0, 50, 50.0)),
        (None, None, TrainConfig(1e-6, 100, 30.0)),
        (None, None, TrainConfig(1e-6, 100, 50.0)),
        (None, None, TrainConfig(1e-6, 100, 100.0)),
    ], ids=["1234", "7", "conventional-30", "conventional-50", "conventional-100"])
    def test_updated_scores_pick_like_fresh_ones(self, monkeypatch, band, seed, cfg):
        # sse_goal 0 drives the low band's SSE down by orders of magnitude,
        # where updates carried from the first pass would pick near-span
        # columns. The conventional Table-1 cells end in in-span stages,
        # whose scores are rounding noise: there the opening picks and the
        # SSE must agree, not the in-span picks.
        from gpsdenoise import rbf

        X, Y = _default_problem(band, seed)
        _, trace = train(X, Y, cfg)
        monkeypatch.setattr(rbf, "_RESCORE_FRACTION", 1.0)  # rescore every new direction
        _, fresh = train(X, Y, cfg)
        assert _opening_picks(trace) == _opening_picks(fresh)
        assert np.array_equal(trace.sse_history, fresh.sse_history)
        if band is not None:
            assert trace.selected_indices == fresh.selected_indices

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
    @pytest.mark.parametrize("spread", [30.0, 50.0, 100.0])
    def test_network_delivers_the_traced_sse(self, spread):
        # the conventional Table-1 cells: default noisy signal, budget 100, goal 1e-6
        X, Y = _default_problem()
        net, trace = train(X, Y, TrainConfig(1e-6, 100, spread))
        sse = float(np.sum((forward(net, X) - Y) ** 2))
        assert sse == pytest.approx(trace.sse_history[-1], rel=1e-9)

    @staticmethod
    def _improved_low_cell(max_neurons, spread, m):
        """An improved Table-1 cell: every m-th sample of the default signal's
        low band at goal 1e-6 / m; the network's SSE on that grid and the trace."""
        X, Y = _default_problem("low")
        X, Y = X[::m], Y[::m]
        net, trace = train(X, Y, TrainConfig(1e-6 / m, max_neurons, spread))
        return float(np.sum((forward(net, X) - Y) ** 2)), trace

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
    def test_improved_cell_delivers_the_traced_sse(self):
        # budget 50, spread 100 (M = 32): no in-span stage, and still a gap
        sse, trace = self._improved_low_cell(50, 100.0, 32)
        assert sse == pytest.approx(trace.sse_history[-1], rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("max_neurons, m", [(50, 32), (100, 16)])
    def test_spread_30_improved_cells_deliver_the_traced_sse(self, max_neurons, m):
        sse, trace = self._improved_low_cell(max_neurons, 30.0, m)
        assert not any(trace.in_span)
        # an SSE of order 1e-8: relative only, without approx's 1e-12 floor
        assert sse == pytest.approx(trace.sse_history[-1], rel=1e-9, abs=0.0)


def _grid(n, dt=0.1):
    return (np.arange(n) * dt)[:, None]


def _smooth_targets(t, seed):
    """Three smooth components plus a little noise on time axis t."""
    rng = np.random.default_rng(seed)
    Y = np.column_stack([np.sin(2 * np.pi * t / 30), np.cos(2 * np.pi * t / 17) + t / 300,
                         0.5 * np.sin(2 * np.pi * t / 45 + 1.0)])
    return Y + rng.normal(0.0, 0.05, Y.shape)


def _rel_dev(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


class TestKernelOperator:
    """ToeplitzKernel against the dense kernel matrix as the oracle."""

    @pytest.mark.parametrize("n", [2, 3, 512, 4097])
    @pytest.mark.parametrize("spread", [0.5, 50.0])
    def test_toeplitz_matches_dense(self, n, spread):
        X = _grid(n)
        op = kernel_operator(X, spread)
        assert isinstance(op, ToeplitzKernel)
        dense = DenseKernel(X, spread)
        V = np.random.default_rng(n).normal(0.0, 1.0, (4, n))
        assert _rel_dev(op.matmul(V), dense.matmul(V)) <= 1e-12
        # squared norms less the squared projections on the unit constant;
        # small centered norms cancel, so the bound is on the largest norm
        M = dense.matrix
        norms2 = np.einsum("ij,ij->j", M, M)
        oracle = norms2 - M.sum(axis=0) ** 2 / n
        assert np.max(np.abs(op.centered_norms2() - oracle)) <= 1e-12 * norms2.max()
        assert np.max(np.abs(dense.centered_norms2() - oracle)) <= 1e-12 * norms2.max()
        for j in {0, 1, n // 2, n - 1}:
            # the trainer's column is the dense build's, bit for bit
            assert np.array_equal(_activations(X, X[j:j + 1], spread)[:, 0], dense.matrix[:, j])

    @pytest.mark.parametrize("kind", [ToeplitzKernel, DenseKernel])
    def test_vector_product_is_its_row_of_the_block_product(self, kind):
        n = 300
        op = kind(_grid(n), 2.0)
        V = np.random.default_rng(3).normal(0.0, 1.0, (3, n))
        block = op.matmul(V)
        assert block.shape == V.shape
        for row, v in zip(block, V):
            vec = op.matmul(v)
            assert vec.shape == (n,)
            assert np.allclose(vec, row, rtol=0.0, atol=1e-13)

    @pytest.mark.parametrize("spread", [0.05, 1.0, 40.0])
    def test_grid_tolerance_bounds_kernel_deviation(self, spread):
        # alternating jitter just inside the acceptance bound: the Toeplitz
        # kernel c[|i - j|] still matches the dense kernel entry-wise
        n = 301
        line = np.linspace(0.0, 30.0 * spread, n)
        jitter = np.where(np.arange(n) % 2 == 1, 1.0, -1.0)
        jitter[[0, -1]] = 0.0
        tol = 3e-13 * spread
        inside = (line + 0.95 * tol * jitter)[:, None]
        op = kernel_operator(inside, spread)
        assert isinstance(op, ToeplitzKernel)
        lag = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
        toeplitz = _activations(inside, inside[:1], spread)[:, 0][lag]
        assert np.max(np.abs(toeplitz - DenseKernel(inside, spread).matrix)) <= 1e-12
        outside = (line + 1.5 * tol * jitter)[:, None]
        assert isinstance(kernel_operator(outside, spread), DenseKernel)

    @pytest.mark.parametrize("spread", [1.0, 5.0])
    def test_rounded_grid_takes_toeplitz_within_the_stated_bound(self, spread):
        # The last 4096 samples of generate_trajectory's 100 000-sample grid
        # at dt 0.1 (t from 9590.4 s) deviate from their line by 1.8e-12,
        # the rounding of i * dt, above 3e-13 * spread at these spreads.
        X = _grid(100_000)[-4096:]
        n = X.shape[0]
        op = kernel_operator(X, spread)
        assert isinstance(op, ToeplitzKernel)
        dense = DenseKernel(X, spread)
        tol = max(3e-13 * spread, 4 * np.finfo(np.float64).eps * np.max(np.abs(X)))
        entry_bound = 3 * math.sqrt(2 / math.e) * tol / spread + 2.3e-13
        V = np.random.default_rng(9).normal(0.0, 1.0, (4, n))
        # each product row sums n entries, each within entry_bound
        product_bound = entry_bound * np.abs(V).sum(axis=1).max()
        assert np.max(np.abs(op.matmul(V) - dense.matmul(V))) <= product_bound
        # K[i, j] = c[|i - j|] as a strided view of [c reversed, c[1:]]
        c = _activations(X, X[:1], spread)[:, 0]
        lagged = np.lib.stride_tricks.sliding_window_view(np.concatenate([c[:0:-1], c]), n)
        diff = np.subtract(dense.matrix, lagged[::-1], out=dense.matrix)
        assert np.max(np.abs(diff)) <= entry_bound

    @pytest.mark.parametrize("kind", [ToeplitzKernel, DenseKernel])
    def test_one_operator_serves_many_trainings(self, kind):
        # the mid and high bands of the default signal's first 1024 samples
        # share one grid: trained through one operator, each run equals a
        # run on a fresh operator, and the operator is left as it was built
        X = _default_problem()[0][:1024]
        cfg = TrainConfig(sse_goal=1e-6, max_neurons=30, spread=5.0)
        op = kind(X, cfg.spread)
        built = {name: value.copy() for name, value in vars(op).items()}
        for band in ("mid", "high"):
            Y = _default_problem(band)[1][:1024]
            shared = _greedy_train(X, Y, cfg, op, time.perf_counter())
            fresh = _greedy_train(X, Y, cfg, kind(X, cfg.spread), time.perf_counter())
            assert_same_run(shared, fresh)
        for name, value in vars(op).items():
            assert np.array_equal(value, built[name]), name

    @pytest.mark.parametrize("kind", [ToeplitzKernel, DenseKernel])
    def test_the_trainer_reads_only_products_and_centered_norms(self, kind):
        # the trainer's whole use of an operator: a stub with nothing else
        # trains the same run as the operator it forwards to
        class Products:
            def __init__(self, op):
                self.matmul, self.centered_norms2 = op.matmul, op.centered_norms2

        X = _default_problem()[0][:512]
        Y = _default_problem("mid")[1][:512]
        cfg = TrainConfig(sse_goal=1e-6, max_neurons=40, spread=5.0)
        stub = _greedy_train(X, Y, cfg, Products(kind(X, cfg.spread)), time.perf_counter())
        assert_same_run(stub, _greedy_train(X, Y, cfg, kind(X, cfg.spread), time.perf_counter()))

    def test_generated_grid_of_100k_samples_never_builds_the_dense_kernel(self, monkeypatch):
        # _grid is the time axis generate_trajectory writes; the dense kernel
        # would hold 80 GB at this length
        from gpsdenoise import rbf

        def refuse(X, spread):
            raise AssertionError(f"DenseKernel built for {X.shape[0]} inputs")

        monkeypatch.setattr(rbf, "DenseKernel", refuse)
        assert isinstance(kernel_operator(_grid(100_000), 1.0), ToeplitzKernel)

    # Dense-path inputs with the indices they select; the first three as
    # they selected them before the operator seam existed.
    DENSE_CASES = {
        "2d": [7, 0, 5, 8, 11, 4, 10, 3],
        "jittered": [39, 6, 16, 38, 32, 37, 36, 31, 29, 10, 28, 3, 20, 26, 35],
        "single": [],
        # overlapping kernels: all 60 picks open a basis row, and scores
        # perturbed by 1e-4 of their value already move one
        "sorted300": [15, 59, 115, 245, 294, 165, 263, 201, 84, 136, 229, 0, 35, 227, 299,
                      180, 128, 69, 97, 288, 129, 53, 156, 1, 253, 98, 135, 45, 275, 160,
                      298, 297, 120, 171, 119, 191, 228, 18, 183, 192, 234, 147, 166, 172,
                      161, 195, 155, 127, 116, 111, 107, 104, 101, 204, 292, 235, 217, 241,
                      249, 255],
    }

    @staticmethod
    def _dense_case(name):
        if name == "2d":
            rng = np.random.default_rng(71)
            return (rng.uniform(0, 1, (12, 2)), rng.normal(0, 1, (12, 3)),
                    TrainConfig(sse_goal=0.0, max_neurons=8, spread=0.5))
        if name == "jittered":
            rng = np.random.default_rng(72)
            x = np.arange(40) * 0.1 + rng.uniform(-1e-9, 1e-9, 40)
            return (x[:, None], rng.normal(0, 1, (40, 2)),
                    TrainConfig(sse_goal=0.0, max_neurons=15, spread=0.3))
        if name == "sorted300":
            rng = np.random.default_rng(2027)
            x = np.sort(rng.uniform(0, 30, 300))
            targets = np.column_stack([np.sin(x), np.cos(0.5 * x), 0.1 * x])
            return (x[:, None], targets + rng.normal(0, 0.05, (300, 3)),
                    TrainConfig(0.0, 60, 1.5))
        return np.array([[0.5]]), np.array([[1.0, 2.0]]), TrainConfig(0.0, 3, 1.0)

    @pytest.mark.parametrize("name", sorted(DENSE_CASES))
    def test_dense_path_selected_and_unchanged(self, name):
        X, Y, cfg = self._dense_case(name)
        assert isinstance(kernel_operator(X, cfg.spread), DenseKernel)
        net, trace = train(X, Y, cfg)
        assert trace.selected_indices == self.DENSE_CASES[name]
        oracle_net, oracle = _greedy_train(X, Y, cfg, DenseKernel(X, cfg.spread),
                                           time.perf_counter())
        assert np.array_equal(trace.sse_history, oracle.sse_history)
        assert np.array_equal(net.output_weights, oracle_net.output_weights)
        assert np.array_equal(net.output_bias, oracle_net.output_bias)
        assert trace.stop_reason == oracle.stop_reason

    @pytest.mark.parametrize("spread", [0.5, 1.0, 2.0])
    def test_training_matches_dense_on_well_conditioned_grid(self, spread):
        X = _grid(1000)
        Y = _smooth_targets(X[:, 0], seed=5)
        cfg = TrainConfig(sse_goal=1e-6, max_neurons=30, spread=spread)
        _, fast = _greedy_train(X, Y, cfg, ToeplitzKernel(X, spread), time.perf_counter())
        _, oracle = _greedy_train(X, Y, cfg, DenseKernel(X, spread), time.perf_counter())
        assert fast.selected_indices == oracle.selected_indices
        assert fast.stop_reason == oracle.stop_reason
        assert _rel_dev(fast.sse_history, oracle.sse_history) <= 1e-10

    def test_training_tracks_dense_on_default_signal(self):
        # Nearly collinear columns give near-equal scores, so rounding may
        # pick another index after some stage: compare the histories up to
        # the first differing pick, never the indices themselves.
        from gpsdenoise.pipeline import DEFAULT_NOISE, DEFAULT_TRAJECTORY
        from gpsdenoise.signal import add_noise, generate_trajectory

        noisy = add_noise(generate_trajectory(DEFAULT_TRAJECTORY), DEFAULT_NOISE)
        X, Y = noisy.timestamps[:, None], noisy.samples
        cfg = TrainConfig(sse_goal=1e-6, max_neurons=50, spread=30.0)
        _, fast = _greedy_train(X, Y, cfg, ToeplitzKernel(X, cfg.spread), time.perf_counter())
        _, oracle = _greedy_train(X, Y, cfg, DenseKernel(X, cfg.spread), time.perf_counter())
        assert fast.stop_reason == oracle.stop_reason
        same = 0
        while (same < len(oracle.selected_indices)
               and fast.selected_indices[same] == oracle.selected_indices[same]):
            same += 1
        upto = same + 1  # sse_history[k] is the error after the first k picks
        assert _rel_dev(fast.sse_history[:upto], oracle.sse_history[:upto]) <= 1e-9

    def test_hour_long_grid_trains_in_linear_memory(self):
        # one hour at 10 Hz: the dense kernel would need 2 * 8 * n^2 = 20.7 GB
        from gpsdenoise.bandfilter import select_band
        from gpsdenoise.pipeline import DEFAULT_BAND_SPEC, DEFAULT_NOISE, DEFAULT_TRAJECTORY
        from gpsdenoise.signal import add_noise, generate_trajectory

        trajectory = dataclasses.replace(DEFAULT_TRAJECTORY, n_samples=36_000)
        noisy = add_noise(generate_trajectory(trajectory), DEFAULT_NOISE)
        low = select_band(noisy, "low", DEFAULT_BAND_SPEC).series
        X, Y = low.timestamps[:, None], low.samples
        cfg = TrainConfig(sse_goal=0.0, max_neurons=20, spread=50.0)
        # checked first, so a wrong choice cannot start a 20 GB allocation
        assert isinstance(kernel_operator(X, cfg.spread), ToeplitzKernel)
        tracemalloc.start()
        try:
            net, trace = train(X, Y, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100e6
        assert net.n_centers == 20
        assert np.all(np.diff(trace.sse_history) <= 0)

    @pytest.mark.parametrize("spread", [1.0, 100.0])
    def test_basis_is_the_one_block_training_holds(self, spread):
        # 200 neurons on the default 4096 samples: the basis of (k + 1)
        # rows of n floats is the one block of that size; residual,
        # candidate products, norms and scores take O(n) each, and at
        # spread 100, where 180 of the 200 stages are in-span, so do the
        # block products that orthogonalise runs of them
        X, Y = _default_problem()
        cfg = TrainConfig(sse_goal=0.0, max_neurons=200, spread=spread)
        basis_bytes = (cfg.max_neurons + 1) * X.shape[0] * 8
        tracemalloc.start()
        try:
            net, trace = train(X, Y, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert net.n_centers == cfg.max_neurons
        assert (sum(trace.in_span) >= 150) == (spread == 100.0)
        assert peak < 1.6 * basis_bytes

    def test_forward_holds_one_row_block(self):
        # 2000 centers on the default 4096 inputs: the whole activation
        # matrix would take 65.5 MB; a row block takes 1 MiB
        X, _ = _default_problem()
        rng = np.random.default_rng(3)
        net = RbfNetwork(centers=X[rng.choice(X.shape[0], 2000, replace=False)], spread=1.0,
                         output_weights=rng.normal(0.0, 1.0, (2000, 3)),
                         output_bias=np.zeros(3))
        tracemalloc.start()
        try:
            out = forward(net, X)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.shape == (X.shape[0], 3)
        assert peak < 4e6


def assert_same_run(a, b):
    """Two (network, trace) pairs agree bit for bit in all but the stage clock."""
    (net_a, trace_a), (net_b, trace_b) = a, b
    assert net_a.spread == net_b.spread
    for name in ("centers", "output_weights", "output_bias"):
        assert np.array_equal(getattr(net_a, name), getattr(net_b, name)), name
    for name in ("sse_history", "R", "coef", "target_means"):
        x, y = getattr(trace_a, name), getattr(trace_b, name)
        assert x.shape == y.shape and np.array_equal(x, y), name
    for name in ("selected_indices", "stop_reason", "in_span", "n_inputs"):
        assert getattr(trace_a, name) == getattr(trace_b, name), name


class TestCutRun:
    """A run read off a longer one equals the run trained on its own."""

    def test_stop_rules_in_order(self):
        cfg = TrainConfig(sse_goal=1.0, max_neurons=4, spread=1.0)
        assert stop_reason(2.0, 3, 10, cfg) is None
        assert stop_reason(1.0, 4, 4, cfg) == "sse_goal"
        assert stop_reason(2.0, 4, 4, cfg) == "max_neurons"
        assert stop_reason(2.0, 3, 3, cfg) == "inputs_exhausted"

    @pytest.mark.parametrize("inputs", ["grid", "scattered"])
    def test_every_budget_and_goal_equals_its_own_training(self, inputs):
        t = _grid(40, dt=1.0)
        Y = _smooth_targets(t[:, 0], 7)
        X = t if inputs == "grid" else np.random.default_rng(8).uniform(0, 40, (40, 1))
        long_net, long_trace = run = train(X, Y, TrainConfig(0.0, 24, 4.0))
        history = long_trace.sse_history
        goals = [0.0, float(history[5]), float(history[17]) * 1.5, 1e9]
        for max_neurons in (1, 5, 12, 24):
            for sse_goal in goals:
                cfg = TrainConfig(sse_goal, max_neurons, 4.0)
                net, trace = cut = cut_run(*run, cfg)
                assert_same_run(cut, train(X, Y, cfg))
                stages = len(trace.sse_history)
                assert np.array_equal(trace.stage_seconds, long_trace.stage_seconds[:stages])
                # only a cut short of the run's end solves a network of its own
                assert (net is long_net) == (stages == len(history))

    def test_cut_at_the_runs_end_takes_its_own_stop_reason(self):
        X = _grid(8)
        Y = _smooth_targets(X[:, 0], 3)
        run = train(X, Y, TrainConfig(0.0, 20, 0.05))
        assert run[1].stop_reason == "inputs_exhausted"
        for cfg in (TrainConfig(0.0, 8, 0.05), TrainConfig(0.0, 30, 0.05),
                    TrainConfig(float(run[1].sse_history[-1]), 20, 0.05)):
            cut = cut_run(*run, cfg)
            assert_same_run(cut, train(X, Y, cfg))
        assert [cut_run(*run, TrainConfig(0.0, b, 0.05))[1].stop_reason
                for b in (8, 30)] == ["max_neurons", "inputs_exhausted"]

    def test_rejects_a_stop_the_run_never_reached(self):
        X = _grid(30)
        Y = _smooth_targets(X[:, 0], 4)
        budget_run = train(X, Y, TrainConfig(0.0, 6, 0.5))
        with pytest.raises(ValueError, match="max_neurons after 6 centers"):
            cut_run(*budget_run, TrainConfig(0.0, 7, 0.5))
        goal = float(budget_run[1].sse_history[3])
        goal_run = train(X, Y, TrainConfig(goal, 6, 0.5))
        assert goal_run[1].stop_reason == "sse_goal"
        with pytest.raises(ValueError, match="sse_goal after 3 centers"):
            cut_run(*goal_run, TrainConfig(goal / 2, 6, 0.5))
        with pytest.raises(ValueError, match="spread"):
            cut_run(*budget_run, TrainConfig(0.0, 3, 0.6))

    def test_stage_clock_counts_from_the_call(self):
        X = _grid(64)
        t0 = time.perf_counter()
        net, trace = train(X, _smooth_targets(X[:, 0], 5), TrainConfig(0.0, 10, 0.5))
        elapsed = time.perf_counter() - t0
        clock = trace.stage_seconds
        assert clock.shape == (len(trace.sse_history),)
        assert 0.0 <= clock[0] and np.all(np.diff(clock) >= 0) and clock[-1] <= elapsed


class TestInSpanBlocks:
    """Runs of in-span picks orthogonalised as one block product against
    the one-column path, which every stage takes when no block fits."""

    @staticmethod
    def _case(name):
        if name == "jittered":
            # the DENSE_CASES input at a wider budget and spread: in-span runs
            # with an opening stage between them
            X, Y, _ = TestKernelOperator._dense_case("jittered")
            return X, Y, TrainConfig(0.0, 40, 0.5)
        if name == "2d":
            rng = np.random.default_rng(71)
            return (rng.uniform(0, 1, (60, 2)), rng.normal(0, 1, (60, 2)),
                    TrainConfig(0.0, 60, 1.0))
        seed, spread, budget = (*name, 100)[:3]
        return (*_default_problem(None, seed), TrainConfig(1e-6, budget, spread))

    @staticmethod
    def _train_spied(monkeypatch, X, Y, cfg):
        """train() through an operator built beforehand, recording the
        activation calls it makes: each block of picks as (center rows,
        activation rows), and the number of one-column evaluations, each
        the one row of its pick."""
        from gpsdenoise import rbf

        op = kernel_operator(X, cfg.spread)
        blocks, singles = [], []
        activations = rbf._activations

        def spy(inputs, centers, spread):
            out = activations(inputs, centers, spread)
            assert centers.shape[0] == X.shape[0]
            if inputs.shape[0] > 1:
                blocks.append((inputs, out.copy()))  # the trainer reuses it as scratch
            else:
                singles.append(inputs)
            return out

        monkeypatch.setattr(rbf, "_activations", spy)
        run = _greedy_train(X, Y, cfg, op, time.perf_counter())
        monkeypatch.setattr(rbf, "_activations", activations)
        return run, blocks, len(singles)

    @pytest.mark.parametrize("name", [(seed, spread) for seed in (1234, 1, 7)
                                      for spread in (30.0, 50.0, 100.0)]
                             + [(1, 30.0, 200), (2, 30.0, 200), "jittered", "2d"], ids=str)
    def test_blocks_keep_the_one_column_run(self, monkeypatch, name):
        # the conventional Table-1 cells at three seeds; two spread-30 cells at
        # budget 200, whose 142 block columns hold one-pass remainders up to
        # 8.8e-11 of their norm, close under the cut; and two Dense-path
        # inputs; against runs whose block bound admits no block
        from gpsdenoise import rbf

        X, Y, cfg = self._case(name)
        (_, trace), blocks, singles = self._train_spied(monkeypatch, X, Y, cfg)
        monkeypatch.setattr(rbf, "_FORWARD_BLOCK", 0)
        (_, oracle), no_blocks, all_singles = self._train_spied(monkeypatch, X, Y, cfg)
        assert blocks and not no_blocks
        assert all_singles == len(oracle.in_span) > singles
        for field in ("selected_indices", "in_span", "stop_reason"):
            assert getattr(trace, field) == getattr(oracle, field), field
        assert np.array_equal(trace.sse_history, oracle.sse_history)
        assert np.array_equal(trace.coef, oracle.coef)
        # only the in-span columns of R move, at rounding level
        assert trace.R.shape == oracle.R.shape
        opening = [k for k, spans in enumerate(oracle.in_span) if not spans] + [-1]
        assert np.array_equal(trace.R[:, opening], oracle.R[:, opening])
        assert np.max(np.abs(trace.R - oracle.R)) <= 1e-15 * np.max(np.abs(oracle.R))
        for centers, rows in blocks:
            for j, row in enumerate(rows):
                assert np.array_equal(row, rbf._activations(X, centers[j:j + 1], cfg.spread)[:, 0])

    def test_next_picks_follow_argmax_through_ties(self):
        # scores drawn from five values, so most picks tie; struck-out
        # candidates hold -inf, as in the trainer
        from gpsdenoise.rbf import _next_picks

        rng = np.random.default_rng(4)
        scores = rng.integers(0, 5, 60).astype(float)
        scores[rng.choice(60, 10, replace=False)] = -np.inf
        expected, left = [], scores.copy()
        for _ in range(50):
            expected.append(int(np.argmax(left)))
            left[expected[-1]] = -np.inf
        for count in (1, 2, 7, 13, 50):
            assert _next_picks(scores, count).tolist() == expected[:count]
        scores[3] = np.nan  # argmax's order is NaN first: no block picks
        assert _next_picks(scores, 5).size == 0

    def test_a_cut_inside_a_block_equals_its_standalone_run(self, monkeypatch):
        # the spread-100 conventional cell is in-span from its 21st stage on;
        # blocks of 2, 4, 8 and 16 picks follow two one-column stages, so
        # the fourth of them holds stages 37 to 52. A budget inside it, even
        # at its first stage, leaves the block as it is.
        X, Y = _default_problem()
        cfg = TrainConfig(1e-6, 100, 100.0)
        run, blocks, _ = self._train_spied(monkeypatch, X, Y, cfg)
        trace = run[1]
        assert trace.in_span.index(True) == 20 and all(trace.in_span[20:])
        stage = 23
        for (centers, _), size in zip(blocks, (2, 4, 8, 16)):
            # stages stage .. stage + size - 1 take the block's picks
            picks = trace.selected_indices[stage - 1:stage - 1 + size]
            assert np.array_equal(centers, X[picks])
            stage += size
        assert stage == 53
        assert np.all(np.diff(trace.stage_seconds) >= 0)
        for budget in (37, 50):
            cfg = TrainConfig(1e-6, budget, 100.0)
            assert_same_run(cut_run(*run, cfg), train(X, Y, cfg))

    def test_a_remainder_near_the_cut_takes_the_one_column_path(self, monkeypatch):
        # seed 1 at spread 30: 66 opening stages, then 34 in-span ones whose
        # remainders lie at 8.2e-11 to 8.8e-11 of their column's norm, below
        # the cut of 1e-10 by far more than the block's rounding margin
        from gpsdenoise import rbf

        X, Y, cfg = self._case((1, 30.0))
        (_, trace), _, singles = self._train_spied(monkeypatch, X, Y, cfg)
        assert trace.in_span == [False] * 66 + [True] * 34
        # two one-column stages start the run; blocks accept the other 32
        assert singles == 66 + 2
        # a cut at 8.5e-11 leaves some of those remainders inside the
        # margin: those go through the one-column path, which finds them
        # in the span as before
        monkeypatch.setattr(rbf, "_block_cut", lambda n_basis, n: 0.85e-10)
        (_, near), _, near_singles = self._train_spied(monkeypatch, X, Y, cfg)
        assert near.in_span == trace.in_span
        assert near.selected_indices == trace.selected_indices
        assert np.array_equal(near.sse_history, trace.sse_history)
        assert 66 + 2 < near_singles < 100

    @pytest.mark.parametrize("k", [2, 17, 68])
    def test_one_pass_remainders_stay_within_the_block_margin(self, k):
        # columns whose part orthogonal to a random orthonormal basis of k rows
        # of 4096 lies at 0.5e-10 to 1.5e-10 of their norm, around the cut: the
        # block's one-pass remainder and the one-column path's two-pass
        # remainder differ by less than the margin _block_cut keeps
        from gpsdenoise.rbf import _SPAN_CUT, _block_cut

        n, cols = 4096, 16
        rng = np.random.default_rng(k)
        Q, _ = np.linalg.qr(rng.normal(0.0, 1.0, (n, k + cols)))
        B = np.ascontiguousarray(Q[:, :k].T)
        inside = rng.normal(0.0, 1.0, (cols, k)) @ B
        inside /= np.sqrt(np.einsum("ij,ij->i", inside, inside))[:, None]
        outside = Q[:, k:].T * np.linspace(0.5e-10, 1.5e-10, cols)[:, None]
        C = (inside + outside) * rng.uniform(0.1, 10.0, (cols, 1))
        c_norm = np.sqrt(np.einsum("ij,ij->i", C, C))
        one_pass = C - (C @ B.T) @ B
        one_pass = np.sqrt(np.einsum("ij,ij->i", one_pass, one_pass))
        two_pass = []
        for c in C:
            v = c - B.T @ (B @ c)
            v -= B.T @ (B @ v)
            two_pass.append(math.sqrt(v @ v))
        margin = _SPAN_CUT - _block_cut(k, n)
        assert np.all(np.abs(two_pass / c_norm - np.linspace(0.5e-10, 1.5e-10, cols)) < 1e-12)
        assert np.all(np.abs(one_pass - two_pass) < margin * c_norm)
        assert 0 < margin < 5e-12


# Trains the default noisy signal at 16 384 samples, conventional, and prints
# a hash of each float field of the run.
_BLAS_RUN = """
import dataclasses, hashlib, json
from gpsdenoise.pipeline import DEFAULT_NOISE, DEFAULT_TRAJECTORY
from gpsdenoise.rbf import TrainConfig, train
from gpsdenoise.signal import add_noise, generate_trajectory

trajectory = dataclasses.replace(DEFAULT_TRAJECTORY, n_samples=16384)
series = add_noise(generate_trajectory(trajectory), DEFAULT_NOISE)
net, trace = train(series.timestamps[:, None], series.samples, TrainConfig(0.0, 60, 5.0))
fields = {"sse_history": trace.sse_history, "R": trace.R, "coef": trace.coef,
          "weights": net.output_weights, "bias": net.output_bias}
print(json.dumps({name: hashlib.sha256(a.tobytes()).hexdigest() for name, a in fields.items()}))
"""


def _available_cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


@pytest.mark.skipif(_available_cpus() < 2, reason="one CPU: both runs use one BLAS thread")
@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 15")
def test_one_answer_on_one_and_two_blas_threads():
    # the run's environment sets the thread count, whatever the suite's is
    src = Path(__file__).resolve().parents[1] / "src"
    runs = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS=threads)
        out = subprocess.run([sys.executable, "-c", _BLAS_RUN], env=env, check=True,
                             capture_output=True, text=True).stdout
        runs.append(json.loads(out))
    assert runs[0] == runs[1]
