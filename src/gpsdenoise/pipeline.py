"""End-to-end benchmark of conventional vs band-filtered RBF denoising.

The conventional method trains the network directly on the noisy position
series; the improved method first selects one frequency band of the noisy
series and trains on that. Runs are timed around the training call only,
paired runs share the identical trajectory and noise realization, and all
non-timing outputs are deterministic for a fixed seed.
"""
from __future__ import annotations

import itertools
import statistics
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .bandfilter import BAND_NAMES, BandSpec, select_band
from .rbf import RbfNetwork, TrainConfig, TrainTrace, forward, stage_network, train
from .signal import (
    COMPONENTS,
    NoiseConfig,
    PositionSeries,
    Sinusoid,
    TrajectoryConfig,
    generate_trajectory,
    add_noise,
    mse,
    write_csv,
)

METHODS = ("conventional", "improved")

REPORT_HEADER = (
    "method,band,max_neurons,spread,sse_goal,seed,"
    "elapsed_s,filter_s,neurons_used,final_sse,output_mse,"
    "stop_reason,useful_stages,weight_absmax"
)
PLOT_HEADER = "t,original,teaching,learned"

# Default desk-scale benchmark: 4096 samples at 10 Hz (409.6 s span).
# Every sinusoid sits exactly on a DFT bin of that grid so each one lands
# cleanly in a single band of DEFAULT_BAND_SPEC: one slow arc per component
# below the low cutoff, an order-one oscillation in the mid band, a smaller
# fast one in the high band, riding on position-like offsets, plus
# sigma-0.05 white noise.
_BIN = 1.0 / 409.6  # Hz, DFT bin spacing of the default grid

DEFAULT_SEED = 1234
DEFAULT_TRAJECTORY = TrajectoryConfig(
    n_samples=4096,
    dt=0.1,
    sinusoids=(
        (Sinusoid(0.08, _BIN, 0.9), Sinusoid(0.55, 25 * _BIN, 2.3), Sinusoid(0.27, 533 * _BIN, 4.1)),
        (Sinusoid(0.07, _BIN, 4.4), Sinusoid(0.50, 35 * _BIN, 0.8), Sinusoid(0.25, 389 * _BIN, 2.9)),
        (Sinusoid(0.09, _BIN, 1.7), Sinusoid(0.60, 29 * _BIN, 5.2), Sinusoid(0.30, 451 * _BIN, 0.4)),
    ),
    offset=(120.0, -45.0, 688.0),
)
DEFAULT_NOISE = NoiseConfig(sigma=0.05, seed=DEFAULT_SEED)
DEFAULT_BAND_SPEC = BandSpec(low_cutoff=0.0035, high_cutoff=0.5)
DEFAULT_TRAIN = TrainConfig(sse_goal=1e-6, max_neurons=100, spread=50.0)


@dataclass(frozen=True)
class MethodConfig:
    """Everything one run needs: method, data model, filter and training knobs."""

    method: str
    train: TrainConfig
    noise: NoiseConfig
    trajectory: TrajectoryConfig
    band: str | None = None
    band_spec: BandSpec = DEFAULT_BAND_SPEC

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got '{self.method}'")
        if self.method == "improved":
            if self.band not in BAND_NAMES:
                raise ValueError("improved method requires band in " + str(BAND_NAMES))
        elif self.band is not None:
            raise ValueError("conventional method must not set a band")


@dataclass
class BenchmarkResult:
    """One benchmark table cell plus the artifacts needed for plot export.

    elapsed_train_seconds is the median over the timed repeats of the
    training call alone; filter_seconds reports the band-selection cost
    separately (zero for the conventional method). outputs is the network
    output on the training inputs; output_mse compares it against the clean
    reference (band-filtered clean reference for the improved method).
    """

    config: MethodConfig
    elapsed_train_seconds: float
    filter_seconds: float
    neurons_used: int
    final_sse: float
    output_mse: float
    trace: TrainTrace
    network: RbfNetwork
    inputs: np.ndarray
    outputs: np.ndarray
    reference: PositionSeries


@dataclass
class PlotData:
    """Per-sample plot rows for one position component."""

    component: str
    t: np.ndarray
    original: np.ndarray
    teaching: np.ndarray
    learned: np.ndarray


def build_dataset(series: PositionSeries) -> tuple[np.ndarray, np.ndarray]:
    """Regression encoding: time in seconds (n, 1) -> position (n, 3)."""
    return series.timestamps[:, None].copy(), series.samples.copy()


def run_method(config: MethodConfig, repeats: int = 1) -> BenchmarkResult:
    """Run one method end to end and measure its training wall time.

    With repeats > 1 an extra warm-up training run is discarded and
    elapsed_train_seconds is the median of the timed repeats; every repeat
    is the identical deterministic computation.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    clean = generate_trajectory(config.trajectory)
    noisy = add_noise(clean, config.noise)

    if config.method == "improved":
        t0 = time.perf_counter()
        target = select_band(noisy, config.band, config.band_spec).series
        filter_seconds = time.perf_counter() - t0
        reference = select_band(clean, config.band, config.band_spec).series
    else:
        target = noisy
        reference = clean
        filter_seconds = 0.0

    inputs, targets = build_dataset(target)

    if repeats > 1:
        train(inputs, targets, config.train)  # warm-up, discarded
    times = []
    net = trace = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        net, trace = train(inputs, targets, config.train)
        times.append(time.perf_counter() - t0)

    outputs = forward(net, inputs)
    output_mse = float(np.mean((outputs - reference.samples) ** 2))
    return BenchmarkResult(
        config=config,
        elapsed_train_seconds=statistics.median(times),
        filter_seconds=filter_seconds,
        neurons_used=net.n_centers,
        final_sse=float(trace.sse_history[-1]),
        output_mse=output_mse,
        trace=trace,
        network=net,
        inputs=inputs,
        outputs=outputs,
        reference=reference,
    )


def method_pair(
    train_config: TrainConfig,
    band: str,
    band_spec: BandSpec = DEFAULT_BAND_SPEC,
    noise: NoiseConfig = DEFAULT_NOISE,
    trajectory: TrajectoryConfig = DEFAULT_TRAJECTORY,
) -> tuple[MethodConfig, MethodConfig]:
    """Conventional/improved pair sharing the identical signal and seed."""
    conventional = MethodConfig(
        method="conventional", train=train_config, noise=noise, trajectory=trajectory,
        band_spec=band_spec,
    )
    improved = replace(conventional, method="improved", band=band)
    return conventional, improved


def build_grid(
    max_neurons_list: Sequence[int],
    spread_list: Sequence[float],
    sse_goal_list: Sequence[float],
    bands: Sequence[str],
    band_spec: BandSpec = DEFAULT_BAND_SPEC,
    noise: NoiseConfig = DEFAULT_NOISE,
    trajectory: TrajectoryConfig = DEFAULT_TRAJECTORY,
) -> list[tuple[MethodConfig, ...]]:
    """Cross-product benchmark grid in flag order (sse, nnsize, spread, band).

    Each band cell yields a (conventional, improved) pair; the pseudo-band
    'none' yields a lone conventional run.
    """
    grid: list[tuple[MethodConfig, ...]] = []
    for sse_goal, nnsize, spread, band in itertools.product(
        sse_goal_list, max_neurons_list, spread_list, bands
    ):
        tc = TrainConfig(sse_goal=sse_goal, max_neurons=nnsize, spread=spread)
        if band == "none":
            grid.append(
                (MethodConfig(method="conventional", train=tc, noise=noise,
                              trajectory=trajectory, band_spec=band_spec),)
            )
        else:
            grid.append(method_pair(tc, band, band_spec, noise, trajectory))
    return grid


def run_table(grid: Iterable[tuple[MethodConfig, ...]], repeats: int = 1) -> list[BenchmarkResult]:
    """Run every grid cell serially, emitting results in grid order.

    Timed runs must own the process; cells are never executed concurrently.
    """
    grid = list(grid)
    if not grid:
        raise ValueError("benchmark grid is empty")
    results = []
    for cell in grid:
        for config in cell:
            results.append(run_method(config, repeats=repeats))
    return results


def emit_plot_data(result: BenchmarkResult,
                   components: Sequence[str] = COMPONENTS) -> list[PlotData]:
    """Build the per-sample plot columns for each requested component, in order.

    The teaching column walks the training stages along the sample axis:
    early samples show the bias-only model, late samples the final network,
    mirroring how the fit sharpens as neurons are added. The learned column
    is the final network's output on the training inputs, as run_method
    computed it; the original column is the clean evaluation reference.
    Each stage network is solved and evaluated once, for all components.
    """
    for component in components:
        if component not in COMPONENTS:
            raise ValueError(f"component must be one of {COMPONENTS}, got '{component}'")
    inputs = result.inputs
    n = inputs.shape[0]
    n_stages = len(result.trace.sse_history)
    stage_of_sample = np.minimum((np.arange(n) * n_stages) // n, n_stages - 1)
    teaching = np.empty_like(result.outputs)
    for stage in np.unique(stage_of_sample):
        mask = stage_of_sample == stage
        subnet = stage_network(result.network, result.trace, int(stage))
        teaching[mask] = forward(subnet, inputs[mask])
    ref = result.reference
    return [PlotData(comp, ref.timestamps.copy(), ref.samples[:, c].copy(), teaching[:, c],
                     result.outputs[:, c])
            for comp, c in zip(components, map(COMPONENTS.index, components))]


def _fmt(value) -> str:
    return repr(float(value))


def write_report(results: Iterable[BenchmarkResult], path: str | Path) -> None:
    """Write the benchmark table as CSV (one row per result, grid order).

    After the run's settings, timings and fit come why training stopped,
    how many stages lowered the error, and the largest output weight.
    """
    rows = [REPORT_HEADER]
    for r in results:
        cfg = r.config
        rows.append(",".join([
            cfg.method,
            cfg.band if cfg.band is not None else "none",
            str(cfg.train.max_neurons),
            _fmt(cfg.train.spread),
            _fmt(cfg.train.sse_goal),
            str(cfg.noise.seed),
            _fmt(r.elapsed_train_seconds),
            _fmt(r.filter_seconds),
            str(r.neurons_used),
            _fmt(r.final_sse),
            _fmt(r.output_mse),
            r.trace.stop_reason,
            str(int(np.count_nonzero(np.diff(r.trace.sse_history) < 0))),
            _fmt(np.abs(r.network.output_weights).max(initial=0.0)),
        ]))
    Path(path).write_text("\n".join(rows) + "\n", encoding="ascii")


def write_plot_data(plot: PlotData, path: str | Path) -> None:
    """Write one component's plot rows as CSV."""
    write_csv(path, PLOT_HEADER, (plot.t, plot.original, plot.teaching, plot.learned))
