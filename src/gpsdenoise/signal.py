"""Synthetic GPS position trajectories: generation, noise, metrics, file I/O.

A position series is a uniformly sampled time axis plus one column per
position component (north, east, altitude), all in meters.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

COMPONENTS = ("north", "east", "alt")
SERIES_HEADER = "t,north,east,alt"

# Relative tolerance on timestamp-step uniformity.
_STEP_RTOL = 1e-9


class SeriesFormatError(ValueError):
    """Raised when a series file cannot be parsed.

    Carries the 1-based line number and, for cell-level errors, the
    offending column name.
    """

    def __init__(self, message: str, line: int | None = None, column: str | None = None):
        super().__init__(message)
        self.line = line
        self.column = column


def _readonly(a: np.ndarray) -> np.ndarray:
    """Float64 a, read-only and contiguous: itself if it is, else a frozen copy."""
    if a.flags.writeable or not a.flags.c_contiguous:
        a = np.array(a, order="C")
        a.flags.writeable = False
    return a


def _frozen(a: np.ndarray) -> np.ndarray:
    """a itself, made read-only: a fresh array its builder hands to a constructor
    and never writes again, which _readonly then shares instead of copying."""
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class PositionSeries:
    """Uniformly sampled 3-component position signal.

    timestamps: shape (n,), seconds, strictly increasing with constant step.
    samples: shape (n, 3), meters, column order (north, east, alt).
    """

    timestamps: np.ndarray
    samples: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.timestamps, dtype=np.float64)
        x = np.asarray(self.samples, dtype=np.float64)
        if t.ndim != 1 or t.size < 1:
            raise ValueError("timestamps must be a 1-d array with at least one entry")
        if x.ndim != 2 or x.shape[1] != 3:
            raise ValueError(f"samples must have shape (n, 3), got {x.shape}")
        if x.shape[0] != t.shape[0]:
            raise ValueError(f"samples length {x.shape[0]} != timestamps length {t.shape[0]}")
        if not np.isfinite(t).all() or not np.isfinite(x).all():
            raise ValueError("series values must be finite")
        if t.size > 1:
            steps = np.diff(t)
            dt = (t[-1] - t[0]) / (t.size - 1)
            if dt <= 0 or np.any(steps <= 0):
                raise ValueError("timestamps must be strictly increasing")
            if np.max(np.abs(steps - dt)) > _STEP_RTOL * dt:
                raise ValueError("timestamps must have a constant step")
        object.__setattr__(self, "timestamps", _readonly(t))
        object.__setattr__(self, "samples", _readonly(x))

    def __len__(self) -> int:
        return self.timestamps.size

    @property
    def dt(self) -> float:
        """Sample step in seconds; needs at least two samples."""
        if len(self) < 2:
            raise ValueError("dt is undefined for a single-sample series")
        return float((self.timestamps[-1] - self.timestamps[0]) / (len(self) - 1))

    @property
    def nyquist(self) -> float:
        """Nyquist frequency in Hz."""
        return 0.5 / self.dt


class Sinusoid(NamedTuple):
    """One spectral line of the synthetic trajectory."""

    amplitude: float
    frequency: float  # Hz
    phase: float = 0.0  # radians


@dataclass(frozen=True)
class TrajectoryConfig:
    """Deterministic sum-of-sinusoids-plus-drift trajectory model.

    sinusoids holds one sequence of Sinusoid per component in
    (north, east, alt) order. All sinusoid frequencies must stay below
    the Nyquist frequency 1/(2*dt), and every value must be finite. So
    must the time span (n_samples - 1) * dt and, per component, the bound
    |offset| + |drift| * span + sum(|amplitude|) on its values.
    """

    n_samples: int
    dt: float
    sinusoids: tuple[tuple[Sinusoid, ...], ...] = ((), (), ())
    drift: tuple[float, float, float] = (0.0, 0.0, 0.0)  # meters/second
    offset: tuple[float, float, float] = (0.0, 0.0, 0.0)  # meters

    def __post_init__(self):
        if self.n_samples < 2:
            raise ValueError(f"n_samples must be >= 2, got {self.n_samples}")
        if not (0 < self.dt < math.inf and 0.5 / self.dt < math.inf):
            raise ValueError(f"dt must be positive and finite with a finite Nyquist frequency "
                             f"0.5 / dt, got {self.dt}")
        sinusoids = tuple(tuple(s) for s in self.sinusoids)
        if len(sinusoids) != 3:
            raise ValueError("sinusoids must have one sequence per component (3)")
        if len(self.drift) != 3 or len(self.offset) != 3:
            raise ValueError("drift and offset must have 3 entries")
        for field in ("drift", "offset"):
            values = tuple(float(v) for v in getattr(self, field))
            for comp, value in zip(COMPONENTS, values):
                if not math.isfinite(value):
                    raise ValueError(f"{comp} {field} must be finite, got {value}")
            object.__setattr__(self, field, values)
        nyq = 0.5 / self.dt
        for comp, sines in zip(COMPONENTS, sinusoids):
            for k, s in enumerate(sines, start=1):
                for field in ("amplitude", "frequency", "phase"):
                    if not math.isfinite(getattr(s, field)):
                        raise ValueError(f"{comp} sinusoid {k} {field} must be finite, "
                                         f"got {getattr(s, field)}")
                if s.frequency >= nyq:
                    raise ValueError(
                        f"{comp} sinusoid frequency {s.frequency} Hz is not below "
                        f"the Nyquist frequency {nyq} Hz"
                    )
        object.__setattr__(self, "sinusoids", sinusoids)
        # generate_trajectory's values are bounded by these sums, and float
        # rounding is monotone, so finite bounds leave no overflow to numpy
        try:
            span = (self.n_samples - 1) * self.dt
        except OverflowError:  # n_samples too large to convert to a float
            span = math.inf
        if not math.isfinite(span):
            raise ValueError(f"time span (n_samples - 1) * dt = ({self.n_samples} - 1) * "
                             f"{self.dt:g} must be finite: lower dt or n_samples")
        for comp, offset, drift, sines in zip(COMPONENTS, self.offset, self.drift, sinusoids):
            bound = abs(offset)
            terms = [("drift", abs(drift) * span)] + [
                (f"sinusoid {k} amplitude", abs(s.amplitude)) for k, s in enumerate(sines, start=1)]
            for field, term in terms:
                bound += term
                if not math.isfinite(bound):
                    raise ValueError(f"{comp} {field} takes the {comp} values past the float "
                                     f"range: |offset| + |drift| * span + sum(|amplitude|) "
                                     f"must be finite")


@dataclass(frozen=True)
class NoiseConfig:
    """Additive zero-mean Gaussian noise, one sigma shared by all components."""

    sigma: float  # meters
    seed: int = 0

    def __post_init__(self):
        if not 0 <= self.sigma < math.inf:
            raise ValueError(f"sigma must be finite and >= 0, got {self.sigma}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def generate_trajectory(config: TrajectoryConfig) -> PositionSeries:
    """Evaluate the clean trajectory model on a uniform time grid.

    sample[i][c] = offset_c + drift_c * t_i + sum_k A sin(2 pi f t_i + phi),
    with t_i = i * dt. Purely deterministic.
    """
    t = np.arange(config.n_samples, dtype=np.float64) * config.dt
    samples = np.empty((config.n_samples, 3), dtype=np.float64)
    for c in range(3):
        col = config.offset[c] + config.drift[c] * t
        for s in config.sinusoids[c]:
            col = col + s.amplitude * np.sin(2.0 * math.pi * s.frequency * t + s.phase)
        samples[:, c] = col
    return PositionSeries(_frozen(t), _frozen(samples))


def add_noise(series: PositionSeries, noise: NoiseConfig) -> PositionSeries:
    """Add seeded i.i.d. Gaussian noise to every entry.

    Same seed and input always produce the identical output series;
    sigma = 0 reproduces the input exactly. A sigma whose draw takes a
    value past the float range is a ValueError naming it.
    """
    rng = np.random.default_rng(noise.seed)
    with np.errstate(over="ignore"):
        samples = series.samples + rng.normal(0.0, noise.sigma, size=series.samples.shape)
    if not np.isfinite(samples).all():
        raise ValueError(f"noise of sigma {noise.sigma:g} takes the series values past the "
                         f"float range")
    return PositionSeries(series.timestamps, _frozen(samples))


def mse(a: PositionSeries, b: PositionSeries) -> float:
    """Mean squared difference over all n*3 entries."""
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    d = a.samples - b.samples
    return float(np.mean(d * d))


def write_csv(path: str | Path, header: str, columns: Sequence[np.ndarray]) -> None:
    """Write equal-length columns as CSV, each value as the exact repr of its float64."""
    # one tolist costs far less than converting numpy scalars one at a time
    rows = np.column_stack(columns).astype(np.float64, copy=False).tolist()
    lines = [header] + [",".join(map(repr, row)) for row in rows]
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def write_series(series: PositionSeries, path: str | Path) -> None:
    """Write a series as CSV with full float64 precision."""
    write_csv(path, SERIES_HEADER, (series.timestamps, series.samples))


def read_series(path: str | Path) -> PositionSeries:
    """Parse a series CSV written by write_series.

    Comment lines starting with '#' are skipped. Raises SeriesFormatError
    on a malformed header, a missing or non-numeric cell (naming line and
    column), or a non-uniform time axis.
    """
    names = ("t",) + COMPONENTS
    times: list[float] = []
    rows: list[list[float]] = []
    header_seen = False
    with open(path, "r", encoding="ascii") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if not header_seen:
                if line != SERIES_HEADER:
                    raise SeriesFormatError(
                        f"line {lineno}: expected header '{SERIES_HEADER}', got '{line}'",
                        line=lineno,
                    )
                header_seen = True
                continue
            cells = line.split(",")
            if len(cells) != 4:
                raise SeriesFormatError(
                    f"line {lineno}: expected 4 columns ({','.join(names)}), found {len(cells)}",
                    line=lineno,
                )
            parsed = []
            for name, cell in zip(names, cells):
                try:
                    parsed.append(float(cell))
                except ValueError:
                    raise SeriesFormatError(
                        f"line {lineno}, column {name}: not a number: '{cell}'",
                        line=lineno,
                        column=name,
                    ) from None
            times.append(parsed[0])
            rows.append(parsed[1:])
    if not header_seen:
        raise SeriesFormatError("missing header line", line=1)
    if not rows:
        raise SeriesFormatError("no data rows", line=1)
    try:
        return PositionSeries(_frozen(np.array(times)), _frozen(np.array(rows)))
    except ValueError as exc:
        raise SeriesFormatError(f"invalid series data: {exc}") from exc
