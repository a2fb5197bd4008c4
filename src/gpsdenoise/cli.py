"""Command-line entry point: generate, bench, plot-data.

_SCHEMA declares every config key once, with its cast and default; the
cast checks a value whether a flag or a config file gives it. Every
setting resolves the same way: an explicit flag wins over the --config
value, which wins over the default. Every command writes the
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
import platform
import sys
from pathlib import Path
from typing import Callable, NamedTuple

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
    generate_trajectory,
    write_series,
)


_REQUIRED = object()


class _Key(NamedTuple):
    """One config key: the cast a flag or config value goes through, and the value
    used when neither a flag nor the config gives one (_REQUIRED: none)."""

    cast: Callable
    default: object


def _list_of(cast, kind=None):
    """Cast for a JSON list whose every item goes through `cast`; a list of
    the setting `kind` must name at least one value, and none twice."""
    def read(value):
        if not isinstance(value, list):
            raise TypeError("expected a list")
        values = [cast(v) for v in value]
        if kind is not None:
            if not values:
                raise ValueError(f"no {kind} given")
            for i, v in enumerate(values):
                if v in values[:i]:
                    raise ValueError(f"{kind} {v!r} is given more than once")
        return values
    return read


def _one_of(kind: str, allowed: tuple):
    """Cast for the name of a `kind`, one of `allowed`."""
    def read(value):
        if value not in allowed:
            raise ValueError(f"unknown {kind} {value!r} (use {', '.join(allowed)})")
        return value
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


# The config schema: every section with its keys, for all three commands
# alike, so a manifest written by any command loads into any command. A
# _Key in place of a section is a top-level value. The trajectory section
# as a whole defaults to DEFAULT_TRAJECTORY; given, it needs n_samples and dt.
_SCHEMA = {
    "trajectory": {
        "n_samples": _Key(_integer, _REQUIRED), "dt": _Key(_number, _REQUIRED),
        "sinusoids": _Key(_sinusoids, ((), (), ())),
        "drift": _Key(_list_of(_number), (0.0, 0.0, 0.0)),
        "offset": _Key(_list_of(_number), (0.0, 0.0, 0.0)),
    },
    "noise": {"sigma": _Key(_number, DEFAULT_NOISE.sigma), "seed": _Key(_integer, DEFAULT_SEED)},
    "band_spec": {"low_cutoff": _Key(_number, DEFAULT_BAND_SPEC.low_cutoff),
                  "high_cutoff": _Key(_number, DEFAULT_BAND_SPEC.high_cutoff)},
    "noisy": _Key(_boolean, False),
    "bench": {
        "nnsize": _Key(_list_of(_integer, "nnsize"), (50, 100)),
        "spread": _Key(_list_of(_number, "spread"), (30.0, 50.0, 100.0)),
        "sse": _Key(_list_of(_number, "sse"), (1e-6,)),
        "filter": _Key(_list_of(_one_of("filter", FILTERS), "filter"), ("low",)),
        "repeats": _Key(_integer, 5),
    },
    "plot-data": {
        "component": _Key(_list_of(_one_of("component", COMPONENTS), "component"), COMPONENTS),
        "filter": _Key(_one_of("filter", FILTERS), "none"),
        "nnsize": _Key(_integer, DEFAULT_TRAIN.max_neurons),
        "spread": _Key(_number, DEFAULT_TRAIN.spread),
        "sse": _Key(_number, DEFAULT_TRAIN.sse_goal),
    },
}


def _cast(where: str, key: _Key, value):
    """`value` through the cast of `key`; a rejected value raises a ValueError naming `where`."""
    try:
        return key.cast(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{where} has invalid value {value!r}: {exc}") from None


def _load_config(path: str | None) -> dict:
    """The --config file's sections with every value cast through _SCHEMA.

    A section or key outside _SCHEMA, a section that is not an object and
    a value its cast rejects raise a ValueError naming it, whichever
    sections the command reads.
    """
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
    cfg = {}
    for section, value in doc.items():
        if section not in _SCHEMA:
            raise ValueError(f"unknown config section '{section}' (use {', '.join(_SCHEMA)})")
        keys = _SCHEMA[section]
        if isinstance(keys, _Key):
            cfg[section] = _cast(f"config key '{section}'", keys, value)
            continue
        if not isinstance(value, dict):
            raise ValueError(f"config key '{section}' must be a JSON object, got {value!r}")
        for key in value:
            if key not in keys:
                raise ValueError(f"unknown config key '{section}.{key}' (use {', '.join(keys)})")
        cfg[section] = {key: _cast(f"config key '{section}.{key}'", keys[key], v)
                        for key, v in value.items()}
    return cfg


def _section(cfg: dict, name: str, args=None) -> dict:
    """Every key of section `name`: the flag of the key's name in `args`
    when given, through the key's cast like a config value, else the config
    value, else the default."""
    values = {}
    for key, spec in _SCHEMA[name].items():
        flag = getattr(args, key, None)
        value = (cfg.get(name, {}).get(key, spec.default) if flag is None
                 else _cast(f"flag --{key}", spec, flag))
        if value is _REQUIRED:
            raise ValueError(f"config key '{name}.{key}' is missing")
        values[key] = value
    return values


def _resolve_common(cfg: dict, args) -> tuple[TrajectoryConfig, NoiseConfig, BandSpec]:
    trajectory = (TrajectoryConfig(**_section(cfg, "trajectory")) if "trajectory" in cfg
                  else DEFAULT_TRAJECTORY)
    samples = getattr(args, "samples", None)
    if samples is not None:
        trajectory = dataclasses.replace(trajectory, n_samples=samples)
    return (trajectory, NoiseConfig(**_section(cfg, "noise", args)),
            BandSpec(**_section(cfg, "band_spec")))


def _to_json(value):
    # a Sinusoid is a tuple, so its JSON form is the [amplitude, frequency,
    # phase] list _sinusoids reads
    return dataclasses.asdict(value) if dataclasses.is_dataclass(value) else value


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


def cmd_generate(args) -> int:
    cfg = _load_config(args.config)
    trajectory, noise, _ = _resolve_common(cfg, args)
    noisy = args.noisy or cfg.get("noisy", _SCHEMA["noisy"].default)
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
    trajectory, noise, band_spec = _resolve_common(cfg, args)
    bench = _section(cfg, "bench", args)

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
    trajectory, noise, band_spec = _resolve_common(cfg, args)
    plot = _section(cfg, "plot-data", args)

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
            "final_sse": result.final_sse,
            "neurons_used": result.network.n_centers,
            "decimation": config.decimation,
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
    defaults = _SCHEMA["plot-data"]
    add_common(p)
    p.add_argument("--component", type=lambda s: _csv_list(s, str), default=None,
                   help="comma-separated components: north,east,alt (default all three)")
    p.add_argument("--filter", default=None,
                   help="band: low, mid, high (improved method) or none (default, conventional)")
    p.add_argument("--nnsize", type=int, default=None,
                   help=f"neuron budget (default {defaults['nnsize'].default})")
    p.add_argument("--spread", type=float, default=None,
                   help=f"spread constant (default {defaults['spread'].default:g})")
    p.add_argument("--sse", type=float, default=None,
                   help=f"SSE goal (default {defaults['sse'].default:g})")
    p.set_defaults(func=cmd_plot_data)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"gpsdenoise: error: {exc}", file=sys.stderr)
        return 2
    except (OSError, MemoryError) as exc:
        print(f"gpsdenoise: failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
