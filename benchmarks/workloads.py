"""The benchmark workloads and the checks on what each CLI call produced.

Every workload is a closed loop: one client in one process calls
``gpsdenoise.cli.main`` in-process and starts each call only after the
previous one returned. A workload runs in units (one timed step of the
loop); the caller times each unit and then calls ``verify`` outside the
timed region. One CLI invocation is one operation, and an operation fails
when its exit code is not 0 or any check on its outputs fails.
"""
from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from gpsdenoise import cli, signal
from gpsdenoise.pipeline import DEFAULT_NOISE, DEFAULT_TRAJECTORY

# Leading report columns; later columns may be appended to the report.
REPORT_COLUMNS = ["method", "band", "max_neurons", "spread", "sse_goal", "seed",
                  "elapsed_s", "filter_s", "neurons_used", "final_sse", "output_mse"]
PLOT_COLUMNS = ["t", "original", "teaching", "learned"]
# Largest relative error allowed when the three bands are summed back.
DECOMPOSE_RTOL = 1e-9


class RunSummary(NamedTuple):
    """What the metrics need from one pipeline.run_method result."""

    method: str
    train: object  # TrainConfig, hashable
    train_s: float
    output_mse: float
    stages: int


@dataclass
class Op:
    """One CLI invocation and everything observed while it ran."""

    argv: list[str]
    code: int | None = None
    results: list = field(default_factory=list)
    decompositions: list = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    series: object = None  # what read_series returned, for `generate`

    def check_results(self, expected: int) -> None:
        """Check every captured run_method result and every decomposition."""
        if len(self.results) != expected:
            self.problems.append(f"{len(self.results)} run_method results, expected {expected}")
        for r in self.results:
            history = np.asarray(r.trace.sse_history)
            if np.any(np.diff(history) > 0):
                self.problems.append(f"{r.config.method}: sse_history increases")
            if r.config.method == "improved" and not r.output_mse < 1.0:
                self.problems.append(f"improved output_mse {r.output_mse} is not below 1.0")
        for series, parts in self.decompositions:
            x = series.samples
            err = np.abs(sum(p.series.samples for p in parts) - x).max()
            if not err <= DECOMPOSE_RTOL * max(np.abs(x).max(), np.finfo(float).tiny):
                self.problems.append(f"bands do not sum back to the input (max error {err})")

    def check_csv(self, path: Path, columns: list[str], rows: int) -> None:
        try:
            lines = path.read_text(encoding="ascii").splitlines()
        except OSError as exc:
            self.problems.append(f"cannot read {path.name}: {exc}")
            return
        if not lines or lines[0].split(",")[:len(columns)] != columns:
            self.problems.append(f"{path.name}: unexpected header")
        elif len(lines) - 1 != rows:
            self.problems.append(f"{path.name}: {len(lines) - 1} rows, expected {rows}")

    def release(self) -> None:
        """Drop the captured arrays once checked, keeping what metrics use."""
        self.results = [RunSummary(r.config.method, r.config.train, r.elapsed_train_seconds,
                                   r.output_mse, len(r.trace.sse_history) - 1)
                        for r in self.results]
        self.decompositions = []


class CliRunner:
    """Runs CLI invocations in-process and collects what each one produced."""

    def __init__(self, recorder):
        self.rec = recorder
        self.ops: list[Op] = []
        self._current: Op | None = None

    def hooks(self) -> dict:
        """Result hooks for tracer.Recorder.install, keyed by span name."""
        return {
            "pipeline.run_method": lambda args, out: self._observe("results", out),
            "bandfilter.decompose": lambda args, out: self._observe("decompositions",
                                                                    (args[0], out)),
        }

    def _observe(self, kind: str, item) -> None:
        if self._current is not None:
            getattr(self._current, kind).append(item)

    def run_cli(self, argv: list[str]) -> Op:
        op = Op(argv)
        self.ops.append(op)
        self._current = op
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                op.code = self.rec.call("cli.main", cli.main, argv)
        except SystemExit as exc:  # argparse rejected the flags
            op.code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is one failed operation; keep the loop going
            op.code = -1
            op.problems.append(traceback.format_exc(limit=3))
        finally:
            self._current = None
        if op.code != 0:
            op.problems.append(f"exit code {op.code}")
        return op


def write_trajectory_config(path: Path, n_samples: int) -> None:
    """Config file carrying the default trajectory at another length."""
    t = DEFAULT_TRAJECTORY
    doc = {"trajectory": {
        "n_samples": n_samples,
        "dt": t.dt,
        "sinusoids": [[[s.amplitude, s.frequency, s.phase] for s in comp]
                      for comp in t.sinusoids],
        "drift": list(t.drift),
        "offset": list(t.offset),
    }}
    path.write_text(json.dumps(doc), encoding="ascii")


class Workload:
    """Base: ``write_inputs`` is set-up, ``run_unit`` is timed, ``verify`` is not."""

    name = ""
    n_samples = DEFAULT_TRAJECTORY.n_samples  # length of the series trained on
    units_per_pass = 1

    def __init__(self, runner: CliRunner, work: Path, seed: int):
        self.runner = runner
        self.work = work
        self.seed = seed
        self.out = work / "out"

    def write_inputs(self, directory: Path) -> None:
        directory.mkdir(parents=True, exist_ok=True)

    def setup(self) -> None:
        self.write_inputs(self.work)
        self.out.mkdir(parents=True, exist_ok=True)

    def run_unit(self, index: int) -> list[Op]:
        raise NotImplementedError

    def verify(self, index: int, ops: list[Op]) -> None:
        raise NotImplementedError

    def check_plot(self, op: Op, tag: str, rows: int) -> None:
        for comp in signal.COMPONENTS:
            op.check_csv(self.out / f"plot_{tag}_{comp}.csv", PLOT_COLUMNS, rows)


class Table1(Workload):
    """The paper's Table-1 grid: six cells, each a conventional/improved pair."""

    name = "table1"
    argv = ["bench", "--nnsize", "50,100", "--spread", "30,50,100", "--sse", "1e-6",
            "--filter", "low", "--repeats", "1"]
    runs = 12

    def run_unit(self, index):
        return [self.runner.run_cli(
            self.argv + ["--seed", str(self.seed), "--out-dir", str(self.out)])]

    def verify(self, index, ops):
        (op,) = ops
        op.check_results(self.runs)
        op.check_csv(self.out / "report.csv", REPORT_COLUMNS, self.runs)


class LongSeries(Workload):
    """One improved training on an 8192-sample series: the n*n kernel outgrows L3.

    The SSE goal is 0, so every seed trains exactly 50 stages: at the
    default goal the stage count ranges from 47 to 59 across seeds, and the
    run-to-run spread would measure the noise draw instead of the program.
    """

    name = "long_series"
    n_samples = 8192

    def write_inputs(self, directory):
        super().write_inputs(directory)
        write_trajectory_config(directory / "long_series.json", self.n_samples)

    def run_unit(self, index):
        return [self.runner.run_cli([
            "plot-data", "--filter", "low", "--nnsize", "50", "--spread", "50", "--sse", "0",
            "--config", str(self.work / "long_series.json"),
            "--seed", str(self.seed), "--out-dir", str(self.out)])]

    def verify(self, index, ops):
        (op,) = ops
        op.check_results(1)
        self.check_plot(op, "improved_low", self.n_samples)


class WindowExport(Workload):
    """A stream of 512-sample windows, each written, read back and exported per band.

    Window w uses noise seed ``seed + w``; one pass is a block of windows.
    """

    name = "window_export"
    n_samples = 512
    units_per_pass = 32
    bands = ("low", "mid", "high")

    def write_inputs(self, directory):
        super().write_inputs(directory)
        write_trajectory_config(directory / "window.json", self.n_samples)

    def run_unit(self, index):
        seed = str(self.seed + index)
        config = str(self.work / "window.json")
        series_path = self.out / "series.csv"
        gen = self.runner.run_cli(["generate", "--noisy", "--config", config, "--seed", seed,
                                    "--out-dir", str(self.out), "--out", str(series_path)])
        try:
            gen.series = self.runner.rec.call("signal.read_series", signal.read_series,
                                               series_path)
        except (OSError, ValueError) as exc:
            gen.problems.append(f"read_series failed: {exc}")
        ops = [gen]
        for band in self.bands:
            ops.append(self.runner.run_cli([
                "plot-data", "--filter", band, "--nnsize", "10", "--spread", "50",
                "--config", config, "--seed", seed, "--out-dir", str(self.out)]))
        return ops

    def verify(self, index, ops):
        gen, *plots = ops
        if gen.series is not None:
            trajectory = dataclasses.replace(DEFAULT_TRAJECTORY, n_samples=self.n_samples)
            noise = dataclasses.replace(DEFAULT_NOISE, seed=self.seed + index)
            expected = signal.add_noise(signal.generate_trajectory(trajectory), noise)
            if not (np.array_equal(gen.series.timestamps, expected.timestamps)
                    and np.array_equal(gen.series.samples, expected.samples)):
                gen.problems.append("read_series differs from the generated series")
        gen.series = None
        for band, op in zip(self.bands, plots):
            op.check_results(1)
            self.check_plot(op, f"improved_{band}", self.n_samples)


WORKLOADS = {w.name: w for w in (Table1, LongSeries, WindowExport)}
