"""End-to-end benchmark of conventional vs band-filtered RBF denoising.

A run is described by its band alone. Band "none" is the conventional
method: it trains the network directly on the noisy position series. Any
other band is the improved method: it first selects that frequency band
of the noisy series and trains on that band decimated to the coarsest
grid that still holds it (MethodConfig.decimation), while it is scored
on the full-rate reference. Runs are timed around the
training call only, paired runs share the identical trajectory and noise
realization, and all non-timing outputs are deterministic for a fixed
seed. A grid builds each of its signals and each band of one once, trains
each of its columns (configs that differ only in neuron budget and SSE
goal) once and cuts the other cells from that run.
"""
from __future__ import annotations

import itertools
import statistics
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .bandfilter import BAND_NAMES, BandSpec, select_band
from .rbf import RbfNetwork, TrainConfig, TrainTrace, cut_run, forward, stage_network, train
from .signal import (
    COMPONENTS,
    NoiseConfig,
    PositionSeries,
    Sinusoid,
    TrajectoryConfig,
    generate_trajectory,
    add_noise,
    write_csv,
)

# Every value a run's band may take: "none" (conventional) or one band.
FILTERS = ("none",) + BAND_NAMES

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
    """Everything one run needs: data model, band and training knobs.

    band is one of FILTERS and decides the method: "none" trains the
    conventional method on the noisy series, a band name the improved
    method on that band of it.
    """

    train: TrainConfig
    noise: NoiseConfig
    trajectory: TrajectoryConfig
    band: str = "none"
    band_spec: BandSpec = DEFAULT_BAND_SPEC

    def __post_init__(self):
        if self.band not in FILTERS:
            raise ValueError(f"band must be one of {FILTERS}, got {self.band!r}")

    @property
    def method(self) -> str:
        """The method the band selects: conventional for "none", else improved."""
        return "conventional" if self.band == "none" else "improved"

    @property
    def decimation(self) -> int:
        """The factor M by which the run's training grid is decimated.

        M is the largest power of two such that the band's top frequency
        (the upper of BandSpec.edges) is at most 1 / (4 M dt), half the
        Nyquist frequency of the decimated grid, and the decimated grid
        keeps ceil(n / M) >= 2 max_neurons samples, so the neuron budget
        stays reachable. The "high" band's top is infinite and "none" has
        no band, so both keep M = 1, as does a run for which no larger M
        keeps enough samples.
        """
        if self.band == "none":
            return 1
        top = self.band_spec.edges(self.band)[1]
        m = 1
        n, dt = self.trajectory.n_samples, self.trajectory.dt
        # double M while 2M still meets both conditions
        while top <= 1.0 / (4 * 2 * m * dt) and -(-n // (2 * m)) >= 2 * self.train.max_neurons:
            m *= 2
        return m


@dataclass
class BenchmarkResult:
    """One benchmark table cell plus the artifacts needed for plot export.

    elapsed_train_seconds is the time of the training call alone (see
    run_method). filter_seconds reports the band-selection cost
    separately: the one timed selection of the noisy series' band (zero
    for the conventional method). outputs is the network output on the
    reference's full-rate time axis, read-only; output_mse compares it
    against the clean reference (band-filtered clean reference for the
    improved method). The trace is the training's on its grid decimated
    by M = config.decimation, so its SSE history sums over every M-th
    sample; final_sse scales it to the full grid.
    """

    config: MethodConfig
    elapsed_train_seconds: float
    filter_seconds: float
    output_mse: float
    trace: TrainTrace
    network: RbfNetwork
    outputs: np.ndarray
    reference: PositionSeries

    @property
    def final_sse(self) -> float:
        """The trace's last SSE scaled to the full-rate grid: times the decimation."""
        return self.config.decimation * float(self.trace.sse_history[-1])


@dataclass
class PlotData:
    """Per-sample plot rows for one position component."""

    component: str
    t: np.ndarray
    original: np.ndarray
    teaching: np.ndarray
    learned: np.ndarray


class PreparedSignal(NamedTuple):
    """What a run trains on and is scored against, built from its config."""

    target: PositionSeries  # noisy series, or its band for the improved method
    reference: PositionSeries  # clean series, or the same band of it
    filter_seconds: float  # the timed band selection of the noisy series; 0 for "none"


def _signal(config: MethodConfig) -> tuple[PositionSeries, PositionSeries]:
    """The clean trajectory of a config and its noisy realization."""
    clean = generate_trajectory(config.trajectory)
    return clean, add_noise(clean, config.noise)


def _prepare(config: MethodConfig, clean: PositionSeries,
             noisy: PositionSeries) -> PreparedSignal:
    """The target, reference and filter time of the config's band of (clean,
    noisy): one select_band call per series, the noisy one timed."""
    if config.band == "none":
        return PreparedSignal(noisy, clean, 0.0)
    t0 = time.perf_counter()
    target = select_band(noisy, config.band, config.band_spec).series
    filter_seconds = time.perf_counter() - t0
    reference = select_band(clean, config.band, config.band_spec).series
    return PreparedSignal(target, reference, filter_seconds)


def _column(config: MethodConfig) -> tuple:
    """What a config shares with every cell its run can be cut for: all but
    the neuron budget and the SSE goal, and with the decimation that the
    budget sets."""
    return (config.noise, config.trajectory, config.band, config.band_spec,
            config.train.spread, config.decimation)


def _fit_config(config: MethodConfig) -> TrainConfig:
    """The TrainConfig a run trains and cuts with: its SSE goal divided by
    the decimation, so the goal keeps its full-rate meaning."""
    return replace(config.train, sse_goal=config.train.sse_goal / config.decimation)


def run_method(config: MethodConfig, repeats: int = 1,
               source: BenchmarkResult | None = None, *,
               prepared: PreparedSignal | None = None) -> BenchmarkResult:
    """Run one method end to end and measure its training wall time.

    A run trains on the target of `prepared`, the config's signal and band
    as run_table builds them once per signal and band; without it the run
    builds its own. It trains on every config.decimation-th sample of that
    target with the goal of _fit_config and is scored on the full-rate
    reference. With repeats > 1 an extra warm-up training run is
    discarded, and elapsed_train_seconds and the trace's stage_seconds are
    medians over the timed repeats, each the identical deterministic
    computation.

    Given the result `source` of a run in the same column that went at
    least as far, trained or itself cut, the run is cut from it instead
    (rbf.cut_run) and is a function of `source` alone: it reads neither
    `prepared` nor repeats. A cut that keeps the source's network is the
    source under the cut's config and trace; a shorter one reports its
    trace's clock at its last stage plus the measured time of the cut.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    if source is not None:
        if _column(source.config) != _column(config):
            raise ValueError("a run can only be cut from a run of the same signal, band, "
                             "spread and decimation")
        t0 = time.perf_counter()
        net, trace = cut_run(source.network, source.trace, _fit_config(config))
        if net is source.network:
            return replace(source, config=config, trace=trace)
        elapsed = float(trace.stage_seconds[-1]) + (time.perf_counter() - t0)
        return _result(config, elapsed, source.filter_seconds, trace, net, source.reference)

    target, reference, filter_seconds = prepared or _prepare(config, *_signal(config))
    # regression encoding: time in seconds (n', 1) -> position (n', 3), n' = ceil(n / M)
    m = config.decimation
    inputs, targets = target.timestamps[::m, None], target.samples[::m]
    fit = _fit_config(config)
    if repeats > 1:
        train(inputs, targets, fit)  # warm-up, discarded
    times, clocks = [], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        net, trace = train(inputs, targets, fit)
        times.append(time.perf_counter() - t0)
        clocks.append(trace.stage_seconds)
    trace.stage_seconds = np.median(clocks, axis=0)
    return _result(config, statistics.median(times), filter_seconds, trace, net, reference)


def _result(config: MethodConfig, elapsed: float, filter_seconds: float, trace: TrainTrace,
            net: RbfNetwork, reference: PositionSeries) -> BenchmarkResult:
    """The result of `net` scored on the time axis and samples of `reference`."""
    outputs = forward(net, reference.timestamps[:, None])
    outputs.flags.writeable = False
    output_mse = float(np.mean((outputs - reference.samples) ** 2))
    return BenchmarkResult(config, elapsed, filter_seconds, output_mse, trace, net, outputs,
                           reference)


def build_grid(
    max_neurons_list: Sequence[int],
    spread_list: Sequence[float],
    sse_goal_list: Sequence[float],
    bands: Sequence[str],
    band_spec: BandSpec = DEFAULT_BAND_SPEC,
    noise: NoiseConfig = DEFAULT_NOISE,
    trajectory: TrajectoryConfig = DEFAULT_TRAJECTORY,
) -> list[MethodConfig]:
    """Cross-product benchmark grid in flag order (sse, nnsize, spread, band).

    Each cell gives a conventional run, then, unless its band is "none",
    the improved run on that band; both share the identical signal and seed.
    """
    configs = []
    for sse_goal, nnsize, spread, band in itertools.product(
        sse_goal_list, max_neurons_list, spread_list, bands
    ):
        conventional = MethodConfig(
            train=TrainConfig(sse_goal=sse_goal, max_neurons=nnsize, spread=spread),
            noise=noise, trajectory=trajectory, band_spec=band_spec,
        )
        configs.append(conventional)
        if band != "none":
            configs.append(replace(conventional, band=band))
    return configs


def run_table(configs: Iterable[MethodConfig], repeats: int = 1) -> list[BenchmarkResult]:
    """Run every config serially, emitting results in the order given.

    Each distinct signal (trajectory and noise draw) is built once, and
    each band of it (band and band spec) once, through one select_band
    call per series; every cell of that band gets the same target,
    reference and filter time. These live for this call only.

    The configs fall into columns: cells that share noise, trajectory,
    band, band spec, spread and decimation, and differ only in neuron
    budget and SSE goal. Greedy training is nested in both. Cells are
    visited by budget, largest first, then by goal, smallest first, so
    every earlier result of a column has at least a cell's budget; the
    cell is cut from the nearest of them, trained or cut, whose goal is at
    most its own, and trains only when there is none. An equal cell shares its twin's
    network, outputs and time, and a column trains once when one of its
    cells has both the largest budget and the smallest goal.
    Every config still gets one run_method call, and every result equals
    a standalone run_method of its config in all but its timings.

    Timed runs must own the process; runs are never executed concurrently.
    """
    configs = list(configs)
    if not configs:
        raise ValueError("benchmark grid is empty")
    order = sorted(range(len(configs)),
                   key=lambda i: (-configs[i].train.max_neurons, configs[i].train.sse_goal))
    signals: dict[tuple, tuple[PositionSeries, PositionSeries]] = {}  # (clean, noisy)
    bands: dict[tuple, PreparedSignal] = {}  # one per signal, band and band spec
    columns: dict[tuple, list[BenchmarkResult]] = {}  # each column's results, in visiting order
    results: list[BenchmarkResult | None] = [None] * len(configs)
    for i in order:
        config = configs[i]
        signal_key = (config.trajectory, config.noise)
        if signal_key not in signals:
            signals[signal_key] = _signal(config)
        band_key = signal_key + (config.band, config.band_spec)
        if band_key not in bands:
            bands[band_key] = _prepare(config, *signals[signal_key])
        column = columns.setdefault(_column(config), [])
        source = next((r for r in reversed(column)
                       if r.config.train.sse_goal <= config.train.sse_goal), None)
        results[i] = run_method(config, repeats=repeats, source=source,
                                prepared=bands[band_key])
        column.append(results[i])
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
    inputs = result.reference.timestamps[:, None]
    n = inputs.shape[0]
    n_stages = len(result.trace.sse_history)
    stage_of_sample = (np.arange(n) * n_stages) // n
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


# The report's columns in order, each with the cell it writes for a result:
# the run's settings, its timings and fit (final_sse on the full-rate
# grid), why training stopped, how many stages lowered the error, the
# largest output weight and the decimation of the training grid.
REPORT_COLUMNS = (
    ("method", lambda r: r.config.method),
    ("band", lambda r: r.config.band),
    ("max_neurons", lambda r: str(r.config.train.max_neurons)),
    ("spread", lambda r: _fmt(r.config.train.spread)),
    ("sse_goal", lambda r: _fmt(r.config.train.sse_goal)),
    ("seed", lambda r: str(r.config.noise.seed)),
    ("elapsed_s", lambda r: _fmt(r.elapsed_train_seconds)),
    ("filter_s", lambda r: _fmt(r.filter_seconds)),
    ("neurons_used", lambda r: str(r.network.n_centers)),
    ("final_sse", lambda r: _fmt(r.final_sse)),
    ("output_mse", lambda r: _fmt(r.output_mse)),
    ("stop_reason", lambda r: r.trace.stop_reason),
    ("useful_stages", lambda r: str(int(np.count_nonzero(np.diff(r.trace.sse_history) < 0)))),
    ("weight_absmax", lambda r: _fmt(np.abs(r.network.output_weights).max(initial=0.0))),
    ("decimation", lambda r: str(r.config.decimation)),
)
REPORT_HEADER = ",".join(name for name, _ in REPORT_COLUMNS)


def write_report(results: Iterable[BenchmarkResult], path: str | Path) -> None:
    """Write the benchmark table as CSV: REPORT_HEADER, then one row of
    REPORT_COLUMNS cells per result, in grid order."""
    rows = [REPORT_HEADER] + [",".join(cell(r) for _, cell in REPORT_COLUMNS) for r in results]
    Path(path).write_text("\n".join(rows) + "\n", encoding="ascii")


def write_plot_data(plot: PlotData, path: str | Path) -> None:
    """Write one component's plot rows as CSV."""
    write_csv(path, PLOT_HEADER, (plot.t, plot.original, plot.teaching, plot.learned))
