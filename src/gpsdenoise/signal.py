"""Synthetic GPS position trajectories: generation, noise, metrics, file I/O.

A position series is a uniformly sampled time axis plus one column per
position component (north, east, altitude), all in meters.
"""
from __future__ import annotations

import functools
import math
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

COMPONENTS = ("north", "east", "alt")
SERIES_HEADER = "t,north,east,alt"

# Relative tolerance on timestamp-step uniformity.
_STEP_RTOL = 1e-9

# Rows write_csv formats and writes at a time.
_CSV_BLOCK = 1024


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


def mse(a: np.ndarray, b: np.ndarray) -> float:
    """Mean squared difference over every entry of two equal-shape sample
    arrays: the score every run reports (pipeline's output_mse)."""
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    d = a - b
    return float(np.mean(d * d))


# The CSV writer's kernel prints |x| in [1e-4, 1e16), the range repr writes
# in fixed notation, without repr: P = |x| * 10**k lies in [1e16, 1e17), so
# the 17 digits of an integer within half an ulp of x carry the shortest
# round-trip output that repr prints (Gay's dtoa).
# A decision this close to its boundary is left to repr; the kernel's own
# rounding is below 1e-13 on the quantities it compares (at most 100).
_MARGIN = 1e-9
# Text slots of one value, in output order (see _kernel_tables).
_SLOTS = 48


@functools.cache
def _kernel_tables() -> tuple[np.ndarray, ...]:
    """The kernel's constant tables, built on the first CSV write so that a
    process that writes none never pays for them."""
    # Each decade's floor 10**m (the nearest float, m = -4 .. 16), its 10**k
    # with k = 16 - m (exact), and the Veltkamp halves of 10**k for Dekker's
    # exact product (Dekker 1971).
    decades = np.array([float(f"1e{m}") for m in range(-4, 17)])
    scales = np.array([float(f"1e{16 - m}") for m in range(-4, 16)])
    scales_hi = scales * 134217729.0 - (scales * 134217729.0 - scales)
    scales_lo = scales - scales_hi
    # frexp's exponent e puts a value in [2**(e-1), 2**e), so its decade is
    # that of 2**(e-1) or the next one; indexed by e + 13, e = -13 .. 54.
    decade_of_exp = np.maximum(
        np.searchsorted(decades, np.ldexp(1.0, np.arange(-14, 54)), side="right") - 1, 0)
    # Four ASCII digits of each of 0 .. 9999, as one uint32 in memory order,
    # and how many of them are trailing zeros (4 for 0).
    quads = np.arange(10_000, dtype=np.int16)
    quad_text = np.stack([quads // p % 10 + 48 for p in (1000, 100, 10, 1)], axis=1).astype(
        np.uint8).view(np.uint32).ravel()
    quad_zeros = sum((quads % 10 ** j == 0).astype(np.uint8) for j in range(1, 5))
    # _SLOTS bytes of text a value, as 12 uint32 words. Bytes 0-19: the
    # separator before the value, its sign, the "0" of "0.", then the 17
    # digits (d0 ends the first word, four quads follow), kept where they are
    # integer digits. Bytes 20-27: ".", the "0" of an empty fraction, 3
    # leading fraction zeros, 3 unused. Bytes 28-47: the five digit words
    # again, kept where they are fraction digits. Unused slots hold NUL. For
    # each layout key (decade, significant digits): the mask of the digit
    # slots in use and the fixed characters.
    point = np.repeat(np.arange(-3, 17), 17)[:, None]  # digits before the point
    used = np.tile(np.arange(1, 18), 20)[:, None]  # significant digits
    digit = np.arange(17)
    layout_digits = np.zeros((point.size, _SLOTS), np.uint8)
    layout_digits[:, 3:20] = (digit < point) * 255
    layout_digits[:, 31:48] = ((digit >= point) & (digit < used)) * 255
    layout_chars = np.zeros((point.size, _SLOTS), np.uint8)
    layout_chars[:, 2:3] = (point <= 0) * 48
    layout_chars[:, 20] = 46
    layout_chars[:, 21:22] = (point >= used) * 48
    layout_chars[:, 22:25] = (digit[:3] < -point) * 48
    return (decades, scales, scales_hi, scales_lo, decade_of_exp, quad_text, quad_zeros,
            layout_digits.view(np.uint32), layout_chars.view(np.uint32))


def _shortest_digits(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For each |x| = a: the 17-digit integer whose leading digits, up to its
    trailing zeros, are the shortest round-trip digits of a; a's decade
    (m + 4 for its floor 10**m); and the mask of values it leaves to repr:
    those outside [1e-4, 1e16), those with a power-of-two significand (their
    rounding interval is lopsided), and those for which some decision lies
    within _MARGIN of its boundary. Their digits are 10**16.
    """
    decades, scales, scales_hi, scales_lo, decade_of_exp, *_ = _kernel_tables()
    fast = (a >= 1e-4) & (a < 1e16)  # False for NaN
    a = np.where(fast, a, 1.5)
    f, e = np.frexp(a)
    fast &= f != 0.5
    guess = np.take(decade_of_exp, e + 13)
    decade = guess + (a >= np.take(decades, guess + 1))
    # P = a * 10**k = hi + lo exactly, with 1e16 <= P < 1e17
    scale = np.take(scales, decade)
    hi = a * scale
    split = a * 134217729.0
    a_hi = split - (split - a)
    a_lo = a - a_hi
    s_hi, s_lo = np.take(scales_hi, decade), np.take(scales_lo, decade)
    lo = ((a_hi * s_hi - hi) + a_hi * s_lo + a_lo * s_hi) + a_lo * s_lo
    # hi >= 1e16 is an integer, so P's nearest integer is c0 = hi + rint(lo)
    lo_int = np.rint(lo)
    g = lo - lo_int  # P - c0, in [-1/2, 1/2]
    c0 = hi.astype(np.int64) + lo_int.astype(np.int64)
    half_ulp = np.ldexp(scale, e - 54)  # exact: 10**k * 2**(e - 54), in (0.55, 11.2)
    # The shortest output is the multiple of the largest 10**j within
    # half_ulp of P, the nearer one when two of that length are. Two
    # multiples of 100 are 100 apart, so at most one is in reach: c0 - r100,
    # the nearest; beyond it, its own trailing zeros make it shorter still.
    r100 = c0 - (c0 + 50) // 100 * 100  # in [-50, 50)
    d100 = np.abs(r100 + g)
    r10 = r100 - (r100 + 5) // 10 * 10  # in [-5, 5)
    r10 += 10 * (r10 + g < -5)  # c0 - r10, the multiple of 10 nearest to P
    d10 = np.abs(r10 + g)
    in100 = d100 < half_ulp
    in10 = d10 < half_ulp
    digits = c0 - np.where(in100, r100, in10 * r10)
    unsure = (np.abs(d100 - half_ulp) < _MARGIN) | ~in100 & (
        (np.abs(d10 - half_ulp) < _MARGIN) | in10 & (np.abs(d10 - 5) < _MARGIN)
        | ~in10 & (np.abs(g) > 0.5 - _MARGIN))
    # digits stay below 10**17: 10**17 in reach would make a the float
    # nearest to 10**(decade - 3), and the decade test found a below it
    fallback = ~fast | unsure
    digits[fallback] = 10 ** 16
    return digits, decade, fallback


def _value_slots(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The text repr prints for each float64 of the 1-D x, laid out in _SLOTS
    NUL-padded uint8 slots a value (the separator slot left NUL), and the
    mask of the values whose text repr itself gave (see _shortest_digits).
    """
    *_, quad_text, quad_zeros, layout_digits, layout_chars = _kernel_tables()
    digits, decade, fallback = _shortest_digits(np.abs(x))
    quads = np.empty((x.size, 5), np.intp)  # d0, then four digits at a time
    for j in range(4, 0, -1):
        high = digits // 10 ** 4
        quads[:, j] = digits - high * 10 ** 4
        digits = high
    quads[:, 0] = digits
    zeros = np.take(quad_zeros, quads)
    trailing = zeros[:, 4] + (quads[:, 4] == 0) * (zeros[:, 3] + (quads[:, 3] == 0) * (
        zeros[:, 2] + (quads[:, 2] == 0) * zeros[:, 1]))
    key = decade * 17 + (16 - trailing)
    words = np.take(quad_text, quads)
    slots = np.empty((x.size, _SLOTS // 4), np.uint32)
    slots[:, :5] = words
    slots[:, 7:] = words
    slots &= np.take(layout_digits, key, axis=0)
    slots |= np.take(layout_chars, key, axis=0)
    slots = slots.view(np.uint8)
    slots[:, 1] = np.signbit(x) * 45
    for i in np.flatnonzero(fallback):
        value = repr(float(x[i])).encode("ascii")
        slots[i, 1:] = 0
        slots[i, 1:1 + len(value)] = np.frombuffer(value, np.uint8)
    return slots, fallback


def _block_text(columns: list[np.ndarray]) -> str:
    """One block of CSV rows, each ending in a newline, from equal-length 1-D
    float64 columns, every value laid out by _value_slots."""
    values = np.stack(columns, axis=1)
    slots = _value_slots(values.ravel())[0].reshape(*values.shape, _SLOTS)
    slots[:, 1:, 0] = 44
    slots[1:, 0, 0] = 10
    return slots.tobytes().translate(None, b"\0").decode("ascii") + "\n"


def write_csv(path: str | Path, header: str, columns: Sequence[np.ndarray]) -> None:
    """Write equal-length columns as CSV, each value as the exact repr of its float64.

    A column is a 1-D array or a 2-D array of several columns. Columns
    covering different numbers of rows are a ValueError, raised before the
    file is opened. Each block of _CSV_BLOCK rows is laid out as text in one
    numpy pass (_block_text): a value in [1e-4, 1e16) gets the digits repr
    would print from exact float arithmetic; any other value, or one that
    arithmetic cannot settle, gets repr itself. Only one block is held as
    text slots at a time.
    """
    cols = []
    for col in columns:
        col = np.asarray(col, dtype=np.float64)
        if col.ndim not in (1, 2):
            raise ValueError(f"a column must be a 1-d or 2-d array, got shape {col.shape}")
        cols.extend(col.T if col.ndim == 2 else [col])
    rows = {len(col) for col in cols}
    if len(rows) != 1:
        raise ValueError(f"columns must cover one number of rows, got {sorted(rows)}")
    (n,) = rows
    with open(path, "w", encoding="ascii") as fh:
        fh.write(header + "\n")
        for i in range(0, n, _CSV_BLOCK):
            fh.write(_block_text([col[i:i + _CSV_BLOCK] for col in cols]))


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
    values = array("d")  # every cell, row after row
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
            for name, cell in zip(names, cells):
                try:
                    values.append(float(cell))
                except ValueError:
                    raise SeriesFormatError(
                        f"line {lineno}, column {name}: not a number: '{cell}'",
                        line=lineno,
                        column=name,
                    ) from None
    if not header_seen:
        raise SeriesFormatError("missing header line", line=1)
    if not values:
        raise SeriesFormatError("no data rows", line=1)
    table = np.frombuffer(values).reshape(-1, 4)
    columns = _frozen(table[:, 0].copy()), _frozen(table[:, 1:].copy())
    del table, values  # the buffer is freed before PositionSeries checks the columns
    try:
        return PositionSeries(*columns)
    except ValueError as exc:
        raise SeriesFormatError(f"invalid series data: {exc}") from exc
