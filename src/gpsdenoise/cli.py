"""Command-line entry point: generate, bench, plot-data.

Every setting resolves the same way: an explicit flag wins over the
--config value, which wins over the default. Every command writes the
resolved settings into a JSON manifest next to its outputs, under the keys
the config readers read, so the manifest fed back through --config reruns
the exact same computation.

Exit codes: 0 success, 2 invalid flags or configuration, 1 runtime failure.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import platform
import sys
from pathlib import Path

from . import __version__
from .bandfilter import BandSpec
from .pipeline import (
    DEFAULT_BAND_SPEC,
    DEFAULT_NOISE,
    DEFAULT_SEED,
    DEFAULT_TRAIN,
    DEFAULT_TRAJECTORY,
    FILTERS,
    MethodConfig,
    build_grid,
    emit_plot_data,
    run_method,
    run_table,
    write_plot_data,
    write_report,
)
from .rbf import TrainConfig
from .signal import (
    COMPONENTS,
    NoiseConfig,
    Sinusoid,
    TrajectoryConfig,
    check_dt,
    generate_trajectory,
    write_series,
)


_REQUIRED = object()

# The config schema: every section with its keys, for all three commands
# alike, so a manifest written by any command loads into any command.
# None marks a top-level value rather than a section.
_SCHEMA = {
    "trajectory": ("n_samples", "dt", "sinusoids", "drift", "offset"),
    "noise": ("sigma", "seed"),
    "band_spec": ("low_cutoff", "high_cutoff"),
    "noisy": None,
    "bench": ("nnsize", "spread", "sse", "filter", "repeats"),
    "plot-data": ("component", "filter", "nnsize", "spread", "sse"),
}


def _check_schema(cfg: dict) -> None:
    """Reject a section or key outside _SCHEMA, and a section that is not an object."""
    for section, value in cfg.items():
        if section not in _SCHEMA:
            raise ValueError(f"unknown config section '{section}' (use {', '.join(_SCHEMA)})")
        keys = _SCHEMA[section]
        if keys is None:
            continue
        if not isinstance(value, dict):
            raise ValueError(f"config key '{section}' must be a JSON object, got {value!r}")
        for key in value:
            if key not in keys:
                raise ValueError(f"unknown config key '{section}.{key}' (use {', '.join(keys)})")


def _config_value(cfg: dict, path: str, cast, default=_REQUIRED):
    """Read the config value at dotted `path`, e.g. "trajectory.n_samples", through `cast`.

    `cfg` has passed _check_schema. A missing required value, or one that
    `cast` rejects, raises a ValueError naming the key, which the CLI
    reports as a usage error.
    """
    *sections, key = path.split(".")
    doc = cfg
    for name in sections:
        doc = doc.get(name, {})
    if key not in doc:
        if default is _REQUIRED:
            raise ValueError(f"config key '{path}' is missing")
        return default
    try:
        return cast(doc[key])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"config key '{path}' has invalid value {doc[key]!r}: {exc}") from None


def _setting(flag, cfg: dict, path: str, cast, default=_REQUIRED):
    """An explicit flag wins over the config value, which wins over the default."""
    if flag is not None:
        return flag
    return _config_value(cfg, path, cast, default)


def _list_of(cast):
    """Cast for a JSON list whose every item goes through `cast`."""
    def read(value):
        if not isinstance(value, list):
            raise TypeError("expected a list")
        return [cast(v) for v in value]
    return read


def _boolean(value) -> bool:
    if not isinstance(value, bool):
        raise TypeError("expected true or false")
    return value


def _integer(value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError("expected an integer")
    return value


def _number(value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError("expected a number")
    return float(value)


def _sinusoids(value) -> tuple[tuple[Sinusoid, ...], ...]:
    return tuple(tuple(Sinusoid(*_list_of(_number)(s)) for s in comp) for comp in value)


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        doc = json.loads(Path(path).read_text(encoding="ascii"))
    except OSError as exc:
        raise ValueError(f"cannot read config file {path}: {exc.strerror or exc}") from None
    except ValueError as exc:  # not ASCII, or not JSON
        raise ValueError(f"config file {path} is not ASCII JSON: {exc}") from None
    # A manifest written by a previous run doubles as a config file.
    if isinstance(doc, dict):
        doc = doc.get("config", doc)
    if not isinstance(doc, dict):
        raise ValueError(f"config file {path} must hold a JSON object")
    _check_schema(doc)
    return doc


def _resolve_common(cfg: dict, seed=None, samples=None, dt=None,
                    sigma=None) -> tuple[TrajectoryConfig, NoiseConfig, BandSpec]:
    trajectory = DEFAULT_TRAJECTORY
    if "trajectory" in cfg:
        trajectory = TrajectoryConfig(
            n_samples=_config_value(cfg, "trajectory.n_samples", _integer),
            dt=_config_value(cfg, "trajectory.dt", _number),
            sinusoids=_config_value(cfg, "trajectory.sinusoids", _sinusoids, ((), (), ())),
            drift=tuple(_config_value(cfg, "trajectory.drift", _list_of(_number), [0.0] * 3)),
            offset=tuple(_config_value(cfg, "trajectory.offset", _list_of(_number), [0.0] * 3)),
        )
    overrides = {}
    if samples is not None:
        overrides["n_samples"] = samples
    if dt is not None and dt != trajectory.dt:
        # a dt override stretches the time axis: every sinusoid keeps its
        # cycles-per-sample position, so the shape stays below Nyquist
        check_dt(dt)
        scale = trajectory.dt / dt
        overrides["dt"] = dt
        overrides["sinusoids"] = tuple(
            tuple(Sinusoid(s.amplitude, s.frequency * scale, s.phase) for s in comp)
            for comp in trajectory.sinusoids
        )
        overrides["drift"] = tuple(d * scale for d in trajectory.drift)
        stretched = [s.frequency for comp in overrides["sinusoids"] for s in comp]
        if not all(map(math.isfinite, [scale, *stretched, *overrides["drift"]])):
            raise ValueError(f"dt {dt:g} stretches the config's trajectory.dt "
                             f"{trajectory.dt:g} by {scale:g}: the stretch factor and every "
                             f"stretched drift and frequency must be finite")
    if overrides:
        trajectory = dataclasses.replace(trajectory, **overrides)

    noise = NoiseConfig(
        sigma=_setting(sigma, cfg, "noise.sigma", _number, DEFAULT_NOISE.sigma),
        seed=_setting(seed, cfg, "noise.seed", _integer, DEFAULT_SEED),
    )
    band_spec = BandSpec(
        low_cutoff=_config_value(cfg, "band_spec.low_cutoff", _number,
                                 DEFAULT_BAND_SPEC.low_cutoff),
        high_cutoff=_config_value(cfg, "band_spec.high_cutoff", _number,
                                  DEFAULT_BAND_SPEC.high_cutoff),
    )
    return trajectory, noise, band_spec


def _to_json(value):
    if isinstance(value, TrajectoryConfig):
        # sinusoids as [amplitude, frequency, phase] lists, the form _sinusoids reads
        sinusoids = [[[s.amplitude, s.frequency, s.phase] for s in comp]
                     for comp in value.sinusoids]
        return dict(vars(value), sinusoids=sinusoids)
    if dataclasses.is_dataclass(value):
        return dataclasses.asdict(value)
    return value


def _write_manifest(path: Path, command: str, config: dict, **extra) -> None:
    """Write a run's resolved settings under the keys the config readers read.

    Fed back through --config, the manifest reruns the same computation.
    """
    config = {key: _to_json(value) for key, value in config.items()}
    doc = {
        "tool": "gpsdenoise",
        "tool_version": __version__,
        "command": command,
        "platform": f"{platform.platform()} python-{platform.python_version()}",
        "seeds": {"noise": config["noise"]["seed"]},
        "config": config,
        **extra,
    }
    path.write_text(json.dumps(doc, indent=1, sort_keys=True), encoding="ascii")


def _csv_list(text: str, cast) -> list:
    try:
        return [cast(v) for v in text.split(",") if v]
    except ValueError:
        raise argparse.ArgumentTypeError(f"malformed list: '{text}'") from None


def _check_distinct(kind: str, values: list) -> None:
    """Reject a value given twice."""
    for i, value in enumerate(values):
        if value in values[:i]:
            raise ValueError(f"{kind} {value!r} is given more than once")


def _check_names(kind: str, names: list, allowed: tuple) -> None:
    """Reject an empty list, a name outside `allowed` and a name given twice."""
    if not names:
        raise ValueError(f"no {kind} given (use {', '.join(allowed)})")
    for name in names:
        if name not in allowed:
            raise ValueError(f"unknown {kind} '{name}' (use {', '.join(allowed)})")
    _check_distinct(kind, names)


def cmd_generate(args) -> int:
    cfg = _load_config(args.config)
    trajectory, noise, _ = _resolve_common(cfg, args.seed, args.samples, args.dt, args.sigma)
    noisy = _setting(args.noisy, cfg, "noisy", _boolean, False)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    out = Path(args.out) if args.out else out_dir / "series.csv"

    series = generate_trajectory(trajectory)
    if noisy:
        from .signal import add_noise

        series = add_noise(series, noise)
    write_series(series, out)
    _write_manifest(out.with_suffix(".manifest.json"), "generate",
                    {"trajectory": trajectory, "noise": noise, "noisy": noisy})
    print(out)
    return 0


def cmd_bench(args) -> int:
    cfg = _load_config(args.config)
    trajectory, noise, band_spec = _resolve_common(cfg, args.seed)
    bench = {
        "nnsize": _setting(args.nnsize, cfg, "bench.nnsize", _list_of(_integer), [50, 100]),
        "spread": _setting(args.spread, cfg, "bench.spread", _list_of(_number), [30.0, 50.0, 100.0]),
        "sse": _setting(args.sse, cfg, "bench.sse", _list_of(_number), [1e-6]),
        "filter": _setting(args.filter, cfg, "bench.filter", _list_of(str), ["low"]),
        "repeats": _setting(args.repeats, cfg, "bench.repeats", _integer, 5),
    }
    _check_names("filter", bench["filter"], FILTERS)
    for key in ("nnsize", "spread", "sse"):
        _check_distinct(key, bench[key])

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    configs = build_grid(bench["nnsize"], bench["spread"], bench["sse"], bench["filter"],
                         band_spec, noise, trajectory)
    results = run_table(configs, repeats=bench["repeats"])

    report_path = out_dir / args.report
    write_report(results, report_path)
    _write_manifest(out_dir / "bench_manifest.json", "bench",
                    {"trajectory": trajectory, "noise": noise, "band_spec": band_spec,
                     "bench": bench})
    print(report_path)
    return 0


def cmd_plot_data(args) -> int:
    cfg = _load_config(args.config)
    trajectory, noise, band_spec = _resolve_common(cfg, args.seed)
    plot = {
        "component": _setting(args.component, cfg, "plot-data.component", _list_of(str),
                              list(COMPONENTS)),
        "filter": _setting(args.filter, cfg, "plot-data.filter", str, "none"),
        "nnsize": _setting(args.nnsize, cfg, "plot-data.nnsize", _integer,
                           DEFAULT_TRAIN.max_neurons),
        "spread": _setting(args.spread, cfg, "plot-data.spread", _number, DEFAULT_TRAIN.spread),
        "sse": _setting(args.sse, cfg, "plot-data.sse", _number, DEFAULT_TRAIN.sse_goal),
    }
    _check_names("component", plot["component"], COMPONENTS)
    _check_names("filter", [plot["filter"]], FILTERS)

    config = MethodConfig(
        train=TrainConfig(sse_goal=plot["sse"], max_neurons=plot["nnsize"],
                          spread=plot["spread"]),
        noise=noise, trajectory=trajectory, band=plot["filter"], band_spec=band_spec,
    )
    result = run_method(config)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    tag = config.method if config.band == "none" else f"{config.method}_{config.band}"
    written = []
    for data in emit_plot_data(result, plot["component"]):
        path = out_dir / f"plot_{tag}_{data.component}.csv"
        write_plot_data(data, path)
        written.append(path)

    _write_manifest(
        out_dir / f"plot_{tag}_manifest.json", "plot-data",
        {"trajectory": trajectory, "noise": noise, "band_spec": band_spec, "plot-data": plot},
        metrics={
            "output_mse": result.output_mse,
            "final_sse": float(result.trace.sse_history[-1]),
            "neurons_used": result.network.n_centers,
        },
    )
    for path in written:
        print(path)
    return 0


class _Parser(argparse.ArgumentParser):
    """Reports a bad flag in one line like any other usage error; subparsers inherit it."""

    def error(self, message):
        self.exit(2, f"gpsdenoise: error: {message}\n")


@functools.cache  # parse_args keeps no state; building costs ten parses
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gpsdenoise",
        description="Benchmark conventional vs band-filtered RBF denoising of GPS position series.",
    )
    parser.add_argument("--version", action="version", version=f"gpsdenoise {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--seed", type=int, default=None, help="noise seed")
        p.add_argument("--out-dir", default=".", help="output directory")
        p.add_argument("--config", default=None, help="JSON config or manifest file")

    g = sub.add_parser("generate", help="write a synthetic position series CSV")
    add_common(g)
    g.add_argument("--samples", type=int, default=None, help="number of samples")
    g.add_argument("--dt", type=float, default=None, help="sample step in seconds")
    g.add_argument("--sigma", type=float, default=None, help="noise sigma (with --noisy)")
    g.add_argument("--noisy", action="store_true", default=None,
                   help="add seeded noise to the output (also set by a config's \"noisy\": true)")
    g.add_argument("--out", default=None, help="output CSV path")
    g.set_defaults(func=cmd_generate)

    b = sub.add_parser("bench", help="run the benchmark grid and write a CSV report")
    add_common(b)
    b.add_argument("--nnsize", type=lambda s: _csv_list(s, int), default=None,
                   help="comma-separated neuron budgets, e.g. 50,100")
    b.add_argument("--spread", type=lambda s: _csv_list(s, float), default=None,
                   help="comma-separated spread constants, e.g. 30,50,100")
    b.add_argument("--sse", type=lambda s: _csv_list(s, float), default=None,
                   help="comma-separated SSE goals, e.g. 1e-6,1e-10")
    b.add_argument("--filter", type=lambda s: _csv_list(s, str), default=None,
                   help="comma-separated bands: none,low,mid,high")
    b.add_argument("--repeats", type=int, default=None,
                   help="timed repeats per run (median reported)")
    b.add_argument("--report", default="report.csv", help="report file name")
    b.set_defaults(func=cmd_bench)

    p = sub.add_parser("plot-data", help="run one method and export plot columns")
    add_common(p)
    p.add_argument("--component", type=lambda s: _csv_list(s, str), default=None,
                   help="comma-separated components: north,east,alt (default all three)")
    p.add_argument("--filter", default=None, choices=FILTERS,
                   help="band for the improved method; none (default) = conventional")
    p.add_argument("--nnsize", type=int, default=None,
                   help=f"neuron budget (default {DEFAULT_TRAIN.max_neurons})")
    p.add_argument("--spread", type=float, default=None,
                   help=f"spread constant (default {DEFAULT_TRAIN.spread:g})")
    p.add_argument("--sse", type=float, default=None,
                   help=f"SSE goal (default {DEFAULT_TRAIN.sse_goal:g})")
    p.set_defaults(func=cmd_plot_data)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"gpsdenoise: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"gpsdenoise: failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
