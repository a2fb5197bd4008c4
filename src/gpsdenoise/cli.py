"""Command-line entry point: generate, bench, plot-data.

Every command materializes its full configuration into a JSON manifest
next to its outputs; a manifest can be fed back through --config to rerun
the exact same computation. Explicit flags always override --config values.

Exit codes: 0 success, 2 invalid flags or configuration, 1 runtime failure.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import platform
import sys
from pathlib import Path

from . import __version__
from .bandfilter import BAND_NAMES, BandSpec
from .pipeline import (
    DEFAULT_BAND_SPEC,
    DEFAULT_NOISE,
    DEFAULT_SEED,
    DEFAULT_TRAIN,
    DEFAULT_TRAJECTORY,
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
    SeriesFormatError,
    Sinusoid,
    TrajectoryConfig,
    generate_trajectory,
    write_series,
)


def _trajectory_to_dict(cfg: TrajectoryConfig) -> dict:
    return {
        "n_samples": cfg.n_samples,
        "dt": cfg.dt,
        "sinusoids": [
            [[s.amplitude, s.frequency, s.phase] for s in comp] for comp in cfg.sinusoids
        ],
        "drift": list(cfg.drift),
        "offset": list(cfg.offset),
    }


_REQUIRED = object()


def _config_section(filecfg: dict, name: str) -> dict:
    doc = filecfg.get(name, {})
    if not isinstance(doc, dict):
        raise ValueError(f"config key '{name}' must be a JSON object, got {doc!r}")
    return doc


def _config_value(doc: dict, path: str, cast, default=_REQUIRED):
    """Read the config value at dotted `path` (its last part keys `doc`) through `cast`.

    A missing required value, or one that `cast` rejects, raises a
    ValueError naming the key, which the CLI reports as a usage error.
    """
    key = path.rsplit(".", 1)[-1]
    if key not in doc:
        if default is _REQUIRED:
            raise ValueError(f"config key '{path}' is missing")
        return default
    try:
        return cast(doc[key])
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"config key '{path}' has invalid value {doc[key]!r}: {exc}") from None


def _list_of(cast):
    """Cast for a JSON list whose every item goes through `cast`."""
    def read(value):
        if not isinstance(value, list):
            raise TypeError("expected a list")
        return [cast(v) for v in value]
    return read


def _sinusoids(value) -> tuple[tuple[Sinusoid, ...], ...]:
    return tuple(tuple(Sinusoid(*_list_of(float)(s)) for s in comp) for comp in value)


def _trajectory_from_dict(doc: dict) -> TrajectoryConfig:
    return TrajectoryConfig(
        n_samples=_config_value(doc, "trajectory.n_samples", int),
        dt=_config_value(doc, "trajectory.dt", float),
        sinusoids=_config_value(doc, "trajectory.sinusoids", _sinusoids, ((), (), ())),
        drift=tuple(_config_value(doc, "trajectory.drift", _list_of(float), [0.0, 0.0, 0.0])),
        offset=tuple(_config_value(doc, "trajectory.offset", _list_of(float), [0.0, 0.0, 0.0])),
    )


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    doc = json.loads(Path(path).read_text(encoding="ascii"))
    # A manifest written by a previous run doubles as a config file.
    if isinstance(doc, dict):
        doc = doc.get("config", doc)
    if not isinstance(doc, dict):
        raise ValueError(f"config file {path} must hold a JSON object")
    return doc


def _resolve_common(args, filecfg: dict) -> tuple[TrajectoryConfig, NoiseConfig, BandSpec]:
    trajectory = DEFAULT_TRAJECTORY
    if "trajectory" in filecfg:
        trajectory = _trajectory_from_dict(_config_section(filecfg, "trajectory"))
    overrides = {}
    if getattr(args, "samples", None) is not None:
        overrides["n_samples"] = args.samples
    if getattr(args, "dt", None) is not None and args.dt != trajectory.dt:
        # a dt override stretches the time axis: every sinusoid keeps its
        # cycles-per-sample position, so the shape stays below Nyquist
        if args.dt <= 0:
            raise ValueError(f"dt must be positive, got {args.dt}")
        scale = trajectory.dt / args.dt
        overrides["dt"] = args.dt
        overrides["sinusoids"] = tuple(
            tuple(Sinusoid(s.amplitude, s.frequency * scale, s.phase) for s in comp)
            for comp in trajectory.sinusoids
        )
        overrides["drift"] = tuple(d * scale for d in trajectory.drift)
    if overrides:
        trajectory = dataclasses.replace(trajectory, **overrides)

    noise_doc = _config_section(filecfg, "noise")
    sigma = _config_value(noise_doc, "noise.sigma", float, DEFAULT_NOISE.sigma)
    seed = _config_value(noise_doc, "noise.seed", int, DEFAULT_SEED)
    if getattr(args, "sigma", None) is not None:
        sigma = args.sigma
    if args.seed is not None:
        seed = args.seed
    noise = NoiseConfig(sigma=sigma, seed=seed)

    band_doc = _config_section(filecfg, "band_spec")
    band_spec = BandSpec(
        low_cutoff=_config_value(band_doc, "band_spec.low_cutoff", float,
                                 DEFAULT_BAND_SPEC.low_cutoff),
        high_cutoff=_config_value(band_doc, "band_spec.high_cutoff", float,
                                  DEFAULT_BAND_SPEC.high_cutoff),
    )
    return trajectory, noise, band_spec


def _manifest(command: str, config: dict, seeds: dict) -> dict:
    return {
        "tool": "gpsdenoise",
        "tool_version": __version__,
        "command": command,
        "platform": f"{platform.platform()} python-{platform.python_version()}",
        "seeds": seeds,
        "config": config,
    }


def _write_manifest(doc: dict, path: Path) -> None:
    path.write_text(json.dumps(doc, indent=1, sort_keys=True), encoding="ascii")


def _csv_list(text: str, cast) -> list:
    try:
        return [cast(v) for v in text.split(",") if v]
    except ValueError:
        raise argparse.ArgumentTypeError(f"malformed list: '{text}'") from None


def cmd_generate(args) -> int:
    filecfg = _load_config(args.config)
    trajectory, noise, _ = _resolve_common(args, filecfg)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    out = Path(args.out) if args.out else out_dir / "series.csv"

    series = generate_trajectory(trajectory)
    if args.noisy:
        from .signal import add_noise

        series = add_noise(series, noise)
    write_series(series, out)
    _write_manifest(
        _manifest(
            "generate",
            {"trajectory": _trajectory_to_dict(trajectory),
             "noise": {"sigma": noise.sigma, "seed": noise.seed},
             "noisy": bool(args.noisy)},
            {"noise": noise.seed},
        ),
        out.with_suffix(".manifest.json"),
    )
    print(out)
    return 0


def cmd_bench(args) -> int:
    filecfg = _load_config(args.config)
    trajectory, noise, band_spec = _resolve_common(args, filecfg)
    bench_doc = _config_section(filecfg, "bench")

    def setting(flag, key, cast, default):
        if flag is not None:
            return flag
        return _config_value(bench_doc, f"bench.{key}", cast, default)

    nnsize = setting(args.nnsize, "nnsize", _list_of(int), [50, 100])
    spread = setting(args.spread, "spread", _list_of(float), [30.0, 50.0, 100.0])
    sse = setting(args.sse, "sse", _list_of(float), [1e-6])
    bands = setting(args.filter, "filter", _list_of(str), ["low"])
    repeats = setting(args.repeats, "repeats", int, 5)

    for band in bands:
        if band not in BAND_NAMES + ("none",):
            raise ValueError(f"unknown filter '{band}' (use none, low, mid or high)")

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    grid = build_grid(nnsize, spread, sse, bands, band_spec, noise, trajectory)
    results = run_table(grid, repeats=repeats)

    report_path = out_dir / args.report
    write_report(results, report_path)
    config = {
        "trajectory": _trajectory_to_dict(trajectory),
        "noise": {"sigma": noise.sigma, "seed": noise.seed},
        "band_spec": {"low_cutoff": band_spec.low_cutoff, "high_cutoff": band_spec.high_cutoff},
        "bench": {"nnsize": list(nnsize), "spread": [float(s) for s in spread],
                  "sse": [float(s) for s in sse], "filter": list(bands),
                  "repeats": int(repeats)},
    }
    _write_manifest(
        _manifest("bench", config, {"noise": noise.seed}),
        out_dir / "bench_manifest.json",
    )
    print(report_path)
    return 0


def cmd_plot_data(args) -> int:
    filecfg = _load_config(args.config)
    trajectory, noise, band_spec = _resolve_common(args, filecfg)

    components = args.component
    for comp in components:
        if comp not in COMPONENTS:
            raise ValueError(f"unknown component '{comp}' (use north, east or alt)")

    train_cfg = TrainConfig(sse_goal=args.sse, max_neurons=args.nnsize, spread=args.spread)
    band = None if args.filter in (None, "none") else args.filter
    method = "improved" if band else "conventional"
    config = MethodConfig(
        method=method, train=train_cfg, noise=noise, trajectory=trajectory,
        band=band, band_spec=band_spec,
    )
    result = run_method(config)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    tag = method if band is None else f"{method}_{band}"
    written = []
    for comp in components:
        path = out_dir / f"plot_{tag}_{comp}.csv"
        write_plot_data(emit_plot_data(result, comp), path)
        written.append(path)

    manifest_config = {
        "trajectory": _trajectory_to_dict(trajectory),
        "noise": {"sigma": noise.sigma, "seed": noise.seed},
        "band_spec": {"low_cutoff": band_spec.low_cutoff, "high_cutoff": band_spec.high_cutoff},
        "method": method,
        "band": band,
        "train": {"sse_goal": train_cfg.sse_goal, "max_neurons": train_cfg.max_neurons,
                  "spread": train_cfg.spread},
        "components": list(components),
    }
    doc = _manifest("plot-data", manifest_config, {"noise": noise.seed})
    doc["metrics"] = {
        "output_mse": result.output_mse,
        "final_sse": result.final_sse,
        "neurons_used": result.neurons_used,
    }
    _write_manifest(doc, out_dir / f"plot_{tag}_manifest.json")
    for path in written:
        print(path)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    g.add_argument("--noisy", action="store_true", help="add seeded noise to the output")
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
    p.add_argument("--component", type=lambda s: _csv_list(s, str),
                   default=list(COMPONENTS),
                   help="comma-separated components: north,east,alt")
    p.add_argument("--filter", default=None, choices=("none",) + BAND_NAMES,
                   help="band for the improved method; none = conventional")
    p.add_argument("--nnsize", type=int, default=DEFAULT_TRAIN.max_neurons)
    p.add_argument("--spread", type=float, default=DEFAULT_TRAIN.spread)
    p.add_argument("--sse", type=float, default=DEFAULT_TRAIN.sse_goal)
    p.set_defaults(func=cmd_plot_data)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, SeriesFormatError) as exc:
        print(f"gpsdenoise: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"gpsdenoise: failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
