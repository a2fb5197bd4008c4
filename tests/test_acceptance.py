"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line. Run with `pytest tests/test_acceptance.py -v -s`.

Criterion 1 executes the full default benchmark grid (median-of-5 timing)
and its results are shared by criteria 2 and 3; expect a few minutes of
wall time for the whole module.
"""
import math
import os

import numpy as np
import pytest

from gpsdenoise.bandfilter import BandSpec, decompose
from gpsdenoise.cli import main as cli_main
from gpsdenoise.pipeline import (
    DEFAULT_NOISE,
    DEFAULT_TRAIN,
    DEFAULT_TRAJECTORY,
    MethodConfig,
    build_grid,
    emit_plot_data,
    run_method,
    run_table,
)
from gpsdenoise.rbf import TrainConfig, solve_output_weights, train
from gpsdenoise.signal import NoiseConfig, PositionSeries, Sinusoid, TrajectoryConfig


def _report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {criterion}: {status}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    assert ok, line


@pytest.fixture(scope="module")
def grid_results():
    """Default-signal Table-1 grid, paired methods, median-of-5 timing."""
    grid = build_grid([50, 100], [30.0, 50.0, 100.0], [1e-6], ["low"])
    results = run_table(grid, repeats=5)
    pairs = [(results[i], results[i + 1]) for i in range(0, len(results), 2)]
    assert all(c.config.method == "conventional" and i.config.method == "improved"
               for c, i in pairs)
    return pairs


def test_criterion_1_speedup_trend(grid_results):
    ratios = []
    every_cell_faster = True
    for conv, impr in grid_results:
        ratio = conv.elapsed_train_seconds / impr.elapsed_train_seconds
        ratios.append(ratio)
        if impr.elapsed_train_seconds >= conv.elapsed_train_seconds:
            every_cell_faster = False
    geomean = math.exp(sum(math.log(r) for r in ratios) / len(ratios))
    # the ratios depend on how many threads BLAS splits a product over
    threads = os.environ.get("OPENBLAS_NUM_THREADS", "unset")
    detail = ("ratios " + " ".join(f"{r:.2f}" for r in ratios)
              + f", geomean {geomean:.2f}, OPENBLAS_NUM_THREADS={threads}")
    _report("1 speedup-trend", every_cell_faster and geomean >= 1.5, detail)


def test_criterion_2_accuracy_bound(grid_results):
    mses = [impr.output_mse for _, impr in grid_results]
    detail = "improved mse max " + format(max(mses), ".3e")
    _report("2 accuracy-bound", all(m < 1.0 for m in mses), detail)


def test_criterion_3_sse_monotonicity(grid_results):
    ok = True
    for conv, impr in grid_results:
        for result in (conv, impr):
            if not np.all(np.diff(result.trace.sse_history) <= 0):
                ok = False
    rng = np.random.default_rng(20240917)
    checked = 0
    for _ in range(100):
        n = int(rng.integers(3, 25))
        d = int(rng.integers(1, 3))
        m = int(rng.integers(1, 4))
        X = rng.uniform(0.0, 1.0, (n, d))
        Y = rng.normal(0.0, 1.0, (n, m))
        cfg = TrainConfig(sse_goal=0.0, max_neurons=int(rng.integers(1, n + 1)),
                          spread=float(rng.uniform(0.05, 2.0)))
        _, trace = train(X, Y, cfg)
        if not np.all(np.diff(trace.sse_history) <= 0):
            ok = False
        checked += 1
    _report("3 sse-monotonicity", ok, f"grid runs + {checked} randomized instances, exact")


def test_criterion_4_perfect_reconstruction():
    rng = np.random.default_rng(77007)
    worst_recon = 0.0
    worst_parseval = 0.0
    ok = True
    for case in range(100):
        n = int(rng.integers(7, 513))
        dt = float(rng.uniform(0.05, 2.0))
        series = PositionSeries(np.arange(n) * dt, rng.normal(0.0, 2.0, (n, 3)))
        nyq = series.nyquist
        low = float(rng.uniform(0.05, 0.45)) * nyq
        high = float(rng.uniform(0.55, 0.95)) * nyq
        parts = decompose(series, BandSpec(low, high))
        total = sum(p.series.samples for p in parts)
        scale = np.max(np.abs(series.samples))
        recon = np.max(np.abs(total - series.samples)) / scale
        energy = float(np.sum(series.samples ** 2))
        band_energy = sum(float(np.sum(p.series.samples ** 2)) for p in parts)
        parseval = abs(band_energy - energy) / energy
        worst_recon = max(worst_recon, recon)
        worst_parseval = max(worst_parseval, parseval)
        ok = ok and recon <= 1e-9 and parseval <= 1e-6
    _report("4 perfect-reconstruction", ok,
            f"worst recon {worst_recon:.2e}, worst parseval {worst_parseval:.2e}")


def test_criterion_5_least_squares_oracle():
    rng = np.random.default_rng(55055)
    worst = 0.0
    checked = 0
    while checked < 50:
        n = int(rng.integers(4, 21))
        k = int(rng.integers(1, min(9, n)))
        d = int(rng.integers(1, 3))
        X = rng.uniform(0.0, 1.0, (n, d))
        centers = X[rng.choice(n, size=k, replace=False)]
        spread = float(rng.uniform(0.3, 1.5))
        dist2 = ((X[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        design = np.column_stack([np.exp(-dist2 / spread**2), np.ones(n)])
        # the normal-equations oracle squares the condition number, so only
        # genuinely well-conditioned designs can agree to 1e-8
        if np.linalg.cond(design) > 1e3:
            continue
        targets = rng.normal(0.0, 1.0, (n, 3))
        weights, bias = solve_output_weights(design, targets)
        params = np.vstack([weights, bias])
        oracle = np.linalg.solve(design.T @ design, design.T @ targets)
        worst = max(worst, float(np.max(np.abs(params - oracle))))
        checked += 1
    _report("5 least-squares-oracle", worst <= 1e-8, f"50 problems, worst dev {worst:.2e}")


def test_criterion_6_interpolation_at_capacity():
    rng = np.random.default_rng(66066)
    worst = 0.0
    ok = True
    for _ in range(25):
        n = int(rng.integers(4, 31))
        d = int(rng.integers(1, 3))
        X = rng.uniform(0.0, 1.0, (n, d))
        Y = rng.normal(0.0, 1.0, (n, 2))
        spread = 0.8 * n ** (-1.0 / d)
        _, trace = train(X, Y, TrainConfig(sse_goal=0.0, max_neurons=n, spread=spread))
        scale2 = float(np.max(np.abs(Y))) ** 2
        rel = trace.sse_history[-1] / scale2
        worst = max(worst, rel)
        ok = ok and trace.sse_history[-1] <= 1e-8 * scale2
    _report("6 interpolation-at-capacity", ok, f"25 instances, worst sse/scale^2 {worst:.2e}")


def test_criterion_7_determinism(tmp_path):
    def run(out_dir):
        rc = cli_main(["bench", "--nnsize", "50", "--spread", "50", "--sse", "1e-6",
                       "--filter", "low", "--repeats", "1", "--out-dir", str(out_dir)])
        assert rc == 0
        return (out_dir / "report.csv").read_text()

    def strip_timing(text):
        rows = []
        for line in text.splitlines():
            cells = line.split(",")
            rows.append(",".join(cells[:6] + cells[8:]))
        return "\n".join(rows)

    a = run(tmp_path / "a")
    b = run(tmp_path / "b")
    identical = strip_timing(a) == strip_timing(b)
    _report("7 determinism", identical, "non-timing report columns byte-identical")


def test_criterion_8_figure_reproduction():
    # noiseless interpolation run: learned must coincide with the original
    traj = TrajectoryConfig(
        n_samples=48, dt=1.0,
        sinusoids=((Sinusoid(1.0, 0.02, 0.3),), (Sinusoid(0.8, 0.04, 1.2),),
                   (Sinusoid(0.5, 0.01, 2.0),)),
        offset=(3.0, -2.0, 10.0),
    )
    noiseless = MethodConfig(
        train=TrainConfig(sse_goal=0.0, max_neurons=48, spread=3.0),
        noise=NoiseConfig(sigma=0.0, seed=5), trajectory=traj,
    )
    r0 = run_method(noiseless)
    worst = 0.0
    for plot in emit_plot_data(r0):
        worst = max(worst, float(np.max(np.abs(plot.learned - plot.original))))
    noiseless_ok = worst <= 1e-8

    # default noisy run: along the stage-ordered teaching curve the error in
    # the final quarter of samples must not exceed the first quarter's
    default_run = MethodConfig(
        band="low", train=DEFAULT_TRAIN,
        noise=DEFAULT_NOISE, trajectory=DEFAULT_TRAJECTORY,
    )
    r1 = run_method(default_run)
    sq = [(plot.teaching - plot.original) ** 2 for plot in emit_plot_data(r1)]
    err = np.mean(sq, axis=0)
    quarter = len(err) // 4
    first, last = float(err[:quarter].mean()), float(err[-quarter:].mean())
    teaching_ok = last <= first
    _report("8 figure-reproduction",
            noiseless_ok and teaching_ok,
            f"noiseless worst dev {worst:.2e}; teaching error {first:.2e} -> {last:.2e}")
