"""End-to-end tests of the command-line interface."""
import argparse
import csv
import dataclasses
import hashlib
import importlib
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from gpsdenoise.cli import _SCHEMA, _load_config, _section, build_parser, main
from gpsdenoise.pipeline import DEFAULT_TRAJECTORY, build_grid, run_table
from gpsdenoise.signal import read_series

# config file with a small signal so CLI runs stay fast; doubles as
# coverage of the --config mechanism
SMALL_CONFIG = {
    "trajectory": {
        "n_samples": 256,
        "dt": 0.5,
        "sinusoids": [
            [[0.1, 0.015625, 0.4], [0.6, 0.125, 1.1], [0.3, 0.625, 0.2]],
            [[0.1, 0.0234375, 2.0], [0.5, 0.15625, 0.7], [0.2, 0.75, 3.1]],
            [[0.1, 0.015625, 5.1], [0.7, 0.140625, 2.9], [0.25, 0.6875, 1.7]],
        ],
        "drift": [0.0, 0.0, 0.0],
        "offset": [50.0, -20.0, 300.0],
    },
    "noise": {"sigma": 0.05, "seed": 424242},
    "band_spec": {"low_cutoff": 0.03, "high_cutoff": 0.4},
}


@pytest.fixture
def small_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(SMALL_CONFIG))
    return path


def _strip_timing(report_text):
    """Report rows without the elapsed_s/filter_s columns."""
    out = []
    for line in report_text.splitlines():
        cells = line.split(",")
        out.append(",".join(cells[:6] + cells[8:]))
    return "\n".join(out)


class TestGenerate:
    def test_row_count(self, tmp_path):
        out = tmp_path / "s.csv"
        rc = main(["generate", "--samples", "64", "--out", str(out),
                   "--out-dir", str(tmp_path)])
        assert rc == 0
        assert len(out.read_text().splitlines()) == 65

    def test_single_sample_rejected(self, tmp_path, capsys):
        rc = main(["generate", "--samples", "1", "--out-dir", str(tmp_path)])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_default_flags_stable_hash(self, tmp_path):
        hashes = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            assert main(["generate", "--samples", "128", "--out", str(out),
                         "--out-dir", str(tmp_path)]) == 0
            hashes.append(hashlib.sha256(out.read_bytes()).hexdigest())
        assert hashes[0] == hashes[1]

    def test_output_parses_as_series(self, tmp_path):
        out = tmp_path / "s.csv"
        main(["generate", "--samples", "32", "--out", str(out), "--out-dir", str(tmp_path)])
        series = read_series(out)
        assert len(series) == 32

    def test_noisy_flag_and_seed(self, tmp_path):
        clean = tmp_path / "clean.csv"
        noisy = tmp_path / "noisy.csv"
        main(["generate", "--samples", "32", "--out", str(clean), "--out-dir", str(tmp_path)])
        main(["generate", "--samples", "32", "--noisy", "--seed", "3", "--out", str(noisy),
              "--out-dir", str(tmp_path)])
        a, b = read_series(clean), read_series(noisy)
        assert not np.array_equal(a.samples, b.samples)

    def test_manifest_written(self, tmp_path):
        out = tmp_path / "s.csv"
        main(["generate", "--samples", "16", "--out", str(out), "--out-dir", str(tmp_path)])
        manifest = json.loads((tmp_path / "s.manifest.json").read_text())
        assert manifest["command"] == "generate"
        assert manifest["config"]["trajectory"]["n_samples"] == 16

    def test_out_writes_next_to_its_path_and_not_in_out_dir(self, tmp_path, capsys):
        # --out names the file, so --out-dir is neither written nor created,
        # also when --out cannot be written
        out, out_dir = tmp_path / "here" / "s.csv", tmp_path / "unused"
        out.parent.mkdir()
        assert main(["generate", "--samples", "16", "--out", str(out),
                     "--out-dir", str(out_dir)]) == 0
        assert capsys.readouterr().out == f"{out}\n"
        assert sorted(p.name for p in out.parent.iterdir()) == ["s.csv", "s.manifest.json"]
        assert len(read_series(out)) == 16
        assert main(["generate", "--samples", "16", "--out", str(tmp_path / "missing" / "s.csv"),
                     "--out-dir", str(out_dir)]) == 1
        assert not out_dir.exists() and not (tmp_path / "missing").exists()

    def test_noisy_manifest_replays_byte_identical(self, tmp_path):
        first, replay = tmp_path / "first.csv", tmp_path / "replay.csv"
        assert main(["generate", "--samples", "64", "--noisy", "--seed", "7",
                     "--out", str(first), "--out-dir", str(tmp_path)]) == 0
        assert main(["generate", "--config", str(tmp_path / "first.manifest.json"),
                     "--out", str(replay), "--out-dir", str(tmp_path)]) == 0
        assert replay.read_bytes() == first.read_bytes()
        manifest = json.loads((tmp_path / "replay.manifest.json").read_text())
        assert manifest["config"]["noisy"] is True


class TestBench:
    def test_single_cell_pairing(self, tmp_path, small_config):
        rc = main(["bench", "--config", str(small_config), "--nnsize", "8",
                   "--spread", "10", "--sse", "1e-6", "--filter", "low",
                   "--repeats", "1", "--out-dir", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "report.csv").read_text().splitlines()
        assert len(lines) == 3
        assert lines[1].split(",")[0] == "conventional"
        assert lines[2].split(",")[0] == "improved"

    def test_grid_row_count(self, tmp_path, small_config):
        rc = main(["bench", "--config", str(small_config), "--nnsize", "6,8",
                   "--spread", "8,12", "--sse", "1e-6", "--filter", "low",
                   "--repeats", "1", "--out-dir", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "report.csv").read_text().splitlines()
        assert len(lines) == 1 + 2 * 2 * 2

    def test_filter_none_single_rows(self, tmp_path, small_config):
        rc = main(["bench", "--config", str(small_config), "--nnsize", "6",
                   "--spread", "8", "--sse", "1e-6", "--filter", "none",
                   "--repeats", "1", "--out-dir", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "report.csv").read_text().splitlines()
        assert len(lines) == 2
        assert lines[1].split(",")[0] == "conventional"

    def test_malformed_grid_list(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--nnsize", "8,abc", "--out-dir", str(tmp_path)])
        assert exc.value.code == 2

    def test_unknown_filter(self, tmp_path, small_config, capsys):
        rc = main(["bench", "--config", str(small_config), "--filter", "sideways",
                   "--out-dir", str(tmp_path)])
        assert rc == 2
        assert "filter" in capsys.readouterr().err

    def test_manifest_rerun_byte_identical(self, tmp_path, small_config):
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        args = ["bench", "--config", str(small_config), "--nnsize", "8", "--spread", "10",
                "--sse", "1e-6", "--filter", "low", "--repeats", "1"]
        assert main(args + ["--out-dir", str(dir_a)]) == 0
        # rerun from the manifest of the first run
        manifest = dir_a / "bench_manifest.json"
        assert main(["bench", "--config", str(manifest), "--out-dir", str(dir_b)]) == 0
        a = _strip_timing((dir_a / "report.csv").read_text())
        b = _strip_timing((dir_b / "report.csv").read_text())
        assert a == b


class TestPlotData:
    def test_single_component_file(self, tmp_path, small_config):
        rc = main(["plot-data", "--config", str(small_config), "--component", "north",
                   "--filter", "low", "--nnsize", "16", "--spread", "10",
                   "--out-dir", str(tmp_path)])
        assert rc == 0
        path = tmp_path / "plot_improved_low_north.csv"
        assert path.read_text().splitlines()[0] == "t,original,teaching,learned"

    def test_three_components_three_files(self, tmp_path, small_config):
        rc = main(["plot-data", "--config", str(small_config),
                   "--component", "north,east,alt", "--filter", "low",
                   "--nnsize", "12", "--spread", "10", "--out-dir", str(tmp_path)])
        assert rc == 0
        for comp in ("north", "east", "alt"):
            assert (tmp_path / f"plot_improved_low_{comp}.csv").exists()

    def test_components_share_one_time_axis(self, tmp_path):
        # each component file formats its own time axis; across three write
        # blocks, each file must equal a run of its component alone
        doc = json.loads(json.dumps(SMALL_CONFIG))
        doc["trajectory"]["n_samples"] = 2500
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc))
        argv = ["plot-data", "--config", str(config), "--filter", "low", "--nnsize", "8",
                "--spread", "10"]
        assert main(argv + ["--component", "north,east,alt", "--out-dir", str(tmp_path / "all")]) == 0
        for comp in ("north", "east", "alt"):
            assert main(argv + ["--component", comp, "--out-dir", str(tmp_path / comp)]) == 0
            name = f"plot_improved_low_{comp}.csv"
            assert (tmp_path / "all" / name).read_bytes() == (tmp_path / comp / name).read_bytes()

    def test_learned_column_recomputes_reported_mse(self, tmp_path, small_config):
        rc = main(["plot-data", "--config", str(small_config),
                   "--component", "north,east,alt", "--filter", "low",
                   "--nnsize", "16", "--spread", "10", "--out-dir", str(tmp_path)])
        assert rc == 0
        manifest = json.loads((tmp_path / "plot_improved_low_manifest.json").read_text())
        sq = []
        for comp in ("north", "east", "alt"):
            rows = (tmp_path / f"plot_improved_low_{comp}.csv").read_text().splitlines()[1:]
            for row in rows:
                _, orig, _, learned = (float(v) for v in row.split(","))
                sq.append((learned - orig) ** 2)
        assert float(np.mean(sq)) == pytest.approx(manifest["metrics"]["output_mse"], abs=1e-12)

    def test_unknown_component(self, tmp_path, small_config, capsys):
        rc = main(["plot-data", "--config", str(small_config), "--component", "up",
                   "--out-dir", str(tmp_path)])
        assert rc == 2
        assert "component" in capsys.readouterr().err

    def test_conventional_default(self, tmp_path, small_config):
        rc = main(["plot-data", "--config", str(small_config), "--component", "north",
                   "--nnsize", "8", "--spread", "10", "--out-dir", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "plot_conventional_north.csv").exists()

    def test_manifest_records_the_decimation(self, tmp_path):
        # the default signal at 512 samples and 10 neurons, as the
        # window_export benchmark workload runs it
        config = tmp_path / "window.json"
        _load_benchmark("workloads").write_trajectory_config(config, 512)
        decimation = {}
        for band in ("none", "low", "mid", "high"):
            assert main(["plot-data", "--config", str(config), "--filter", band, "--nnsize", "10",
                         "--component", "north", "--out-dir", str(tmp_path)]) == 0
            tag = "conventional" if band == "none" else f"improved_{band}"
            manifest = json.loads((tmp_path / f"plot_{tag}_manifest.json").read_text())
            decimation[band] = manifest["metrics"]["decimation"]
            rows = (tmp_path / f"plot_{tag}_north.csv").read_text().splitlines()
            assert len(rows) == 513
        assert decimation == {"none": 1, "low": 16, "mid": 4, "high": 1}


# One run per command; the {config} placeholder is the small config file.
REPLAY_RUNS = {
    "generate": ["generate", "--samples", "64", "--noisy", "--seed", "7"],
    "bench": ["bench", "--config", "{config}", "--nnsize", "8", "--spread", "10",
              "--sse", "1e-6", "--filter", "low", "--repeats", "1"],
    "plot-data": ["plot-data", "--config", "{config}", "--filter", "low", "--nnsize", "5",
                  "--component", "north"],
}


@pytest.mark.parametrize("command", sorted(REPLAY_RUNS))
def test_manifest_replays_its_run(tmp_path, small_config, command):
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    argv = [arg.format(config=small_config) for arg in REPLAY_RUNS[command]]
    assert main(argv + ["--out-dir", str(dir_a)]) == 0
    (manifest,) = dir_a.glob("*manifest.json")
    assert main([command, "--config", str(manifest), "--out-dir", str(dir_b)]) == 0

    names = sorted(p.name for p in dir_a.iterdir())
    assert sorted(p.name for p in dir_b.iterdir()) == names
    for name in names:
        a, b = (d.joinpath(name).read_text() for d in (dir_a, dir_b))
        if name.endswith("manifest.json"):
            a, b = json.loads(a), json.loads(b)
            del a["platform"], b["platform"]
        elif name == "report.csv":
            a, b = _strip_timing(a), _strip_timing(b)
        assert a == b, name


# One call per command with the data files it writes, in write order; None
# for a call whose setting is rejected.
PRINTED_FILES = [
    pytest.param(["generate"], ["series.csv"], id="generate"),
    pytest.param(["bench", "--nnsize", "4", "--spread", "10", "--repeats", "1"],
                 ["report.csv"], id="bench"),
    pytest.param(["plot-data", "--component", "east,north", "--nnsize", "4", "--spread", "10"],
                 ["plot_conventional_east.csv", "plot_conventional_north.csv"], id="plot-data"),
    pytest.param(["plot-data", "--filter", "ultra"], None, id="rejected"),
    # build_grid rejects the budget before the output directory is made
    pytest.param(["bench", "--nnsize", "0"], None, id="rejected-bench"),
    # the noise is drawn before the output directory is made
    pytest.param(["generate", "--noisy", "--sigma", "1e308"], None, id="rejected-generate"),
]


@pytest.mark.parametrize("argv, names", PRINTED_FILES)
def test_a_command_prints_the_files_it_wrote(tmp_path, small_config, capsys, argv, names):
    out_dir = tmp_path / "out"
    rc = main(argv + ["--config", str(small_config), "--out-dir", str(out_dir)])
    printed = capsys.readouterr().out
    if names is None:
        assert rc == 2
        assert printed == ""
        assert not out_dir.exists()
        return
    assert rc == 0
    # the data files only: each command also writes a manifest, unprinted
    assert printed.splitlines() == [str(out_dir / name) for name in names]
    assert all((out_dir / name).is_file() for name in names)
    assert len(list(out_dir.glob("*manifest.json"))) == 1


@pytest.mark.parametrize("command", ["bench", "plot-data"])
def test_every_section_key_has_a_flag_of_its_name(command):
    # a flag overrides the config key whose name its dest carries, so a
    # renamed flag would silently stop overriding its key
    (subparsers,) = [a for a in build_parser()._actions
                     if isinstance(a, argparse._SubParsersAction)]
    dests = {a.dest for a in subparsers.choices[command]._actions} - {"help"}
    assert dests - {"seed", "out_dir", "config", "report"} == set(_SCHEMA[command])


# One value per bench and plot-data key: its flag text and its config value.
FLAG_AND_CONFIG = {
    "bench": {"nnsize": ("6,8", [6, 8]), "spread": ("8,12.5", [8, 12.5]),
              "sse": ("1e-6,0", [1e-6, 0]), "filter": ("none,mid", ["none", "mid"]),
              "repeats": ("3", 3)},
    "plot-data": {"component": ("east,north", ["east", "north"]), "filter": ("high", "high"),
                  "nnsize": ("7", 7), "spread": ("2.5", 2.5), "sse": ("0.001", 1e-3)},
}


@pytest.mark.parametrize("command, key", [(c, k) for c in FLAG_AND_CONFIG for k in _SCHEMA[c]])
def test_a_flag_resolves_like_its_config_value(tmp_path, command, key):
    text, value = FLAG_AND_CONFIG[command][key]
    path = tmp_path / "config.json"
    path.write_text(json.dumps({command: {key: value}}))
    parse = build_parser().parse_args
    from_flag = _section({}, command, parse([command, f"--{key}", text]))
    from_config = _section(_load_config(str(path)), command, parse([command]))
    assert from_flag[key] == value
    # repr tells an int from a float and a list from a tuple
    assert repr(from_flag) == repr(from_config)


def test_plot_data_metrics_match_the_bench_report(tmp_path, small_config):
    # one conventional and one improved cell, reported by both commands
    settings = ["--config", str(small_config), "--nnsize", "8", "--spread", "10",
                "--sse", "1e-6"]
    assert main(["bench", *settings, "--filter", "low", "--repeats", "1",
                 "--out-dir", str(tmp_path)]) == 0
    with open(tmp_path / "report.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert [row["band"] for row in rows] == ["none", "low"]
    for row in rows:
        assert main(["plot-data", *settings, "--filter", row["band"], "--component", "north",
                     "--out-dir", str(tmp_path)]) == 0
        tag = "conventional" if row["band"] == "none" else "improved_low"
        metrics = json.loads((tmp_path / f"plot_{tag}_manifest.json").read_text())["metrics"]
        assert metrics == {"output_mse": float(row["output_mse"]),
                           "final_sse": float(row["final_sse"]),
                           "neurons_used": int(row["neurons_used"]),
                           "decimation": int(row["decimation"])}
    # the improved cell trains decimated, so its final_sse is scaled to the full grid
    assert rows[1]["decimation"] != "1"


class TestConfigPrecedence:
    def test_flags_override_config(self, tmp_path):
        cfg = dict(SMALL_CONFIG)
        cfg["bench"] = {"nnsize": [6], "spread": [8.0], "sse": [1e-6],
                        "filter": ["low"], "repeats": 1}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        rc = main(["bench", "--config", str(path), "--nnsize", "9",
                   "--out-dir", str(tmp_path)])
        assert rc == 0
        rows = (tmp_path / "report.csv").read_text().splitlines()[1:]
        assert all(row.split(",")[2] == "9" for row in rows)

    def test_plot_data_flags_override_config(self, tmp_path):
        cfg = dict(SMALL_CONFIG)
        cfg["plot-data"] = {"component": ["north"], "filter": "low", "nnsize": 5}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        rc = main(["plot-data", "--config", str(path), "--component", "east",
                   "--filter", "none", "--out-dir", str(tmp_path / "out")])
        assert rc == 0
        names = sorted(p.name for p in (tmp_path / "out").iterdir())
        assert names == ["plot_conventional_east.csv", "plot_conventional_manifest.json"]
        manifest = json.loads((tmp_path / "out" / names[1]).read_text())
        assert manifest["config"]["plot-data"]["nnsize"] == 5
        assert manifest["metrics"]["neurons_used"] <= 5

    def test_seed_flag_overrides_config(self, tmp_path, small_config):
        rc = main(["generate", "--samples", "16", "--seed", "31415",
                   "--config", str(small_config), "--out", str(tmp_path / "s.csv"),
                   "--out-dir", str(tmp_path)])
        assert rc == 0
        manifest = json.loads((tmp_path / "s.manifest.json").read_text())
        assert manifest["seeds"]["noise"] == 31415


class TestExitCodes:
    def test_unknown_flag_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--bogus"])
        assert exc.value.code == 2

    def test_missing_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_runtime_failure_exits_one(self, tmp_path, capsys):
        blocker = tmp_path / "not_a_dir"
        blocker.write_text("file in the way")
        rc = main(["generate", "--samples", "8", "--out-dir", str(blocker)])
        assert rc == 1
        assert "failure" in capsys.readouterr().err

    def test_allocation_the_machine_cannot_serve_exits_one(self, tmp_path, capsys):
        # 10**15 float64 samples are 7.1 PiB, past any 64-bit address space,
        # so the allocation is refused at once whatever the memory policy
        rc = main(["generate", "--samples", str(10 ** 15), "--out-dir", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("gpsdenoise: failure:")
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("command, config, key", [
        ("generate", {"trajectory": {"dt": 0.5}}, "trajectory.n_samples"),
        ("generate", {"noise": {"seed": [1]}}, "noise.seed"),
        ("bench", {"bench": {"nnsize": "5"}}, "bench.nnsize"),
        ("generate", {"noisy": "yes"}, "noisy"),
        ("generate", {"noise": {"seed": 1.5}}, "noise.seed"),
        ("generate", {"trajectory": {"n_samples": 64.0, "dt": 0.5}}, "trajectory.n_samples"),
        ("bench", {"bench": {"repeats": True}}, "bench.repeats"),
        ("plot-data", {"plot-data": "low"}, "plot-data"),
        ("plot-data", {"plot-data": {"nnsize": 2.5}}, "plot-data.nnsize"),
        ("plot-data", {"plot-data": {"component": []}}, "component"),
        ("plot-data", {"plot-data": {"filter": "ultra"}}, "filter"),
        ("plot-data", {"plot-data": {"sse": float("nan")}}, "sse_goal"),
        ("generate", {"noise": {"sigma": "0.1"}}, "noise.sigma"),
        ("generate", {"noise": {"sigma": True}}, "noise.sigma"),
        ("bench", {"bench": {"sse": [True]}}, "bench.sse"),
        ("generate", {"trajectory": {"n_samples": 64, "dt": 0.5,
                                     "sinusoids": [[[1.0, "0.1", 0.0]], [], []]}},
         "trajectory.sinusoids"),
        ("plot-data", {"plot_data": {"nnsize": 5}}, "plot_data"),
        ("generate", {"noise": {"sead": 3}}, "noise.sead"),
        # a plot-data manifest from before the plot-data section existed
        ("plot-data", {"method": "improved", "band": "low",
                       "train": {"max_neurons": 5}, "components": ["north"]}, "method"),
        ("generate", {"noise": {"seed": -3}}, "seed"),
        ("plot-data", {"noise": {"sigma": float("nan")}}, "sigma"),
        ("generate", {"trajectory": {"n_samples": 64, "dt": float("inf")}}, "dt"),
        # positive and finite, but its Nyquist frequency 0.5 / dt is inf
        ("generate", {"trajectory": {"n_samples": 8, "dt": 1e-310}}, "dt"),
        pytest.param("generate", {"trajectory": {"n_samples": 8, "dt": 0.5, "sinusoids":
                                                 [[[1.0, float("nan"), 0.0]], [], []]}},
                     "north sinusoid 1 frequency", marks=pytest.mark.filterwarnings("error")),
        pytest.param("generate", {"trajectory": {"n_samples": 8, "dt": 0.5,
                                                 "drift": [float("inf"), 0.0, 0.0]}},
                     "north drift", marks=pytest.mark.filterwarnings("error")),
        ("bench", {"bench": {"nnsize": [4, 4]}}, "nnsize 4 is given more than once"),
        ("bench", {"bench": {"spread": [5, 5.0]}}, "spread 5.0 is given more than once"),
        ("bench", {"bench": {"sse": [0, 1e-6, 0]}}, "sse 0.0 is given more than once"),
        # finite values whose sum over the time axis overflows
        ("generate", {"trajectory": {"n_samples": 8, "dt": 0.5, "drift": [1e308, 0, 0]}},
         "north drift takes the north values past the float range"),
        ("generate", {"trajectory": {"n_samples": 8, "dt": 0.5, "offset": [1.7e308, 0, 0],
                                     "sinusoids": [[[1e308, 0.1, 0.0]], [], []]}},
         "north sinusoid 1 amplitude takes the north values past the float range"),
        # too large for a float, so (n_samples - 1) * dt cannot be formed
        ("generate", {"trajectory": {"n_samples": 10 ** 400, "dt": 0.5}}, "n_samples"),
        # finite samples whose mean over the series overflows in training
        ("plot-data", {"trajectory": {"n_samples": 64, "dt": 0.5, "offset": [1e308, 0, 0]},
                       "noise": {"sigma": 0}, "plot-data": {"nnsize": 4, "spread": 5}},
         "targets overflow"),
        # every value is cast at load, also in a section the command never reads
        ("plot-data", {"noisy": {"x": 1}, "bench": {"repeats": "five"}}, "noisy"),
        ("plot-data", {"bench": {"repeats": "five"}}, "bench.repeats"),
        ("bench", {"plot-data": {"nnsize": 2.5}}, "plot-data.nnsize"),
        ("generate", {"plot-data": {"nnsize": 2.5}}, "plot-data.nnsize"),
        # a name, an empty list and a repeat are checked at load too
        ("bench", {"plot-data": {"filter": "ultra"}}, "plot-data.filter"),
        ("generate", {"plot-data": {"component": ["up"]}}, "plot-data.component"),
        ("plot-data", {"bench": {"filter": ["low", "low"]}}, "bench.filter"),
        ("generate", {"bench": {"nnsize": []}}, "bench.nnsize"),
        ("generate", {"trajectory": {"n_samples": 8, "dt": float("nan")}}, "dt"),
        ("generate", {"trajectory": {"n_samples": 8, "dt": 5e-324}}, "dt"),
        # (8 - 1) * 1e308 overflows the time axis
        ("generate", {"trajectory": {"n_samples": 8, "dt": 1e308}}, "(n_samples - 1) * dt"),
    ])
    def test_bad_config_value_exits_two(self, tmp_path, capsys, command, config, key):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        rc = main([command, "--config", str(path), "--out-dir", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("gpsdenoise: error:") and key in err[0]

    @pytest.mark.parametrize("argv, word", [
        (["plot-data", "--component", ""], "component"),
        (["plot-data", "--sse", "nan"], "sse_goal"),
        (["plot-data", "--spread", "inf"], "spread"),
        (["bench", "--spread", "inf"], "spread"),
        # its square underflows; a numpy warning on the way would count as a failure
        pytest.param(["plot-data", "--spread", "1e-300"], "spread",
                     marks=pytest.mark.filterwarnings("error")),
        (["plot-data", "--seed", "-3"], "seed"),
        # its square is positive, but the input span over it squared overflows
        pytest.param(["plot-data", "--spread", "1e-160", "--nnsize", "3",
                      "--component", "north"], "spread",
                     marks=pytest.mark.filterwarnings("error")),
        (["generate", "--sigma", "nan"], "sigma"),
        (["generate", "--noisy", "--sigma", "nan"], "sigma"),
        (["generate", "--sigma", "inf"], "sigma"),
        (["generate", "--samples", "0"], "n_samples"),
        (["bench", "--repeats", "0"], "repeats"),
        (["plot-data", "--nnsize", "0"], "max_neurons"),
        (["bench", "--sse", "nan"], "sse_goal"),
        (["plot-data", "--component", "north,north"], "component 'north' is given more than once"),
        (["bench", "--filter", "low,low"], "filter 'low' is given more than once"),
        (["bench", "--nnsize", "4,4", "--spread", "5,5", "--sse", "0"],
         "nnsize 4 is given more than once"),
        (["bench", "--spread", "5,5"], "spread 5.0 is given more than once"),
        (["bench", "--sse", "0,1e-6,0"], "sse 0.0 is given more than once"),
        (["generate", "--seed", "-3"], "seed"),
        # the noise draw itself leaves the float range
        (["generate", "--noisy", "--sigma", "1e308"], "sigma 1e+308"),
        (["plot-data", "--filter", "ultra"], "filter"),
    ])
    def test_bad_flag_value_exits_two(self, tmp_path, capsys, small_config, argv, word):
        rc = main(argv + ["--config", str(small_config), "--out-dir", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("gpsdenoise: error:") and word in err[0]
        assert not list(tmp_path.glob("plot_*"))

    @pytest.mark.parametrize("argv, tail", [
        (["bench", "--nnsize", "8,abc"], "malformed list: '8,abc'"),
        ([], "the following arguments are required: command"),
        # generate has no --dt: a config's trajectory.dt sets the sample step
        (["generate", "--dt", "1"], "unrecognized arguments: --dt 1"),
    ], ids=["malformed-list", "no-subcommand", "removed-dt-flag"])
    def test_parser_error_is_one_line(self, capsys, argv, tail):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("gpsdenoise: error:")
        assert err[0].endswith(tail)

    def test_missing_config_file_exits_two(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        rc = main(["generate", "--config", str(missing), "--out-dir", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("gpsdenoise: error:") and str(missing) in err[0]

    @pytest.mark.parametrize("raw", [b"\xff{}", b'{"noise": '], ids=["not-ascii", "not-json"])
    def test_unreadable_config_file_is_named(self, tmp_path, capsys, raw):
        path = tmp_path / "bad.json"
        path.write_bytes(raw)
        rc = main(["generate", "--config", str(path), "--out-dir", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("gpsdenoise: error:") and str(path) in err[0]

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "gpsdenoise" in capsys.readouterr().out


def _load_benchmark(name: str):
    """Import benchmarks/<name>.py by path; the benchmark is not a package."""
    path = Path(__file__).resolve().parents[1] / "benchmarks" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"benchmark_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up while it loads
    spec.loader.exec_module(module)
    return module


def test_benchmark_patch_points_are_bound(tmp_path, small_config):
    """Every name the benchmark tracer wraps must still be bound where it looks it up.

    The tracer skips a missing name, so its layer would silently read 0. A
    tiny traced bench must also solve the output layer through the patched
    rbf.solve_output_weights exactly once per training, and the facts the
    tracer reads from each training (sse_history, output_weights) must exist.
    """
    tracer = _load_benchmark("tracer")
    for mod_name, names in tracer.PATCH_POINTS:
        module = importlib.import_module(f"gpsdenoise.{mod_name}")
        missing = [name for name in names if not callable(getattr(module, name, None))]
        assert not missing, f"gpsdenoise.{mod_name} no longer binds {missing}"

    rec = tracer.Recorder()
    rec.install({})
    try:
        rec.active = True
        rc = main(["bench", "--config", str(small_config), "--nnsize", "6", "--spread", "10",
                   "--filter", "low,mid", "--repeats", "1", "--out-dir", str(tmp_path)])
    finally:
        rec.active = False
        rec.uninstall()
    assert rc == 0
    metrics = tracer.layer_metrics(rec.take())
    assert metrics["rbf.train.calls"] == 3
    assert metrics["rbf.solve_output_weights.calls"] == metrics["rbf.train.calls"]
    assert metrics["rbf.train.stages"] > 0
    assert metrics["rbf.train.weight_absmax"] > 0


def test_benchmark_reads_what_a_run_returns():
    """The benchmark's checks and summaries read run results by field name.

    A renamed result or config field would otherwise surface only as a
    failed benchmark operation, so a tiny grid goes through the same
    checks here.
    """
    workloads = _load_benchmark("workloads")
    trajectory = dataclasses.replace(DEFAULT_TRAJECTORY, n_samples=512)
    configs = build_grid([4], [50.0], [0.0], ["none", "low"], trajectory=trajectory)
    op = workloads.Op(argv=[])
    op.results = run_table(configs)
    op.check_results(len(configs))
    op.release()
    assert op.problems == []
    assert [r.method for r in op.results] == ["conventional", "conventional", "improved"]
    assert all(r.stages == 4 for r in op.results)


def test_benchmark_sees_every_band_decomposition(tmp_path, small_config):
    """A bench run reaches bandfilter.decompose, which the benchmark's band-sum check hooks.

    The grid builds each band once per series, so two budgets over the low
    and mid bands make 4 decompositions (noisy and clean per band) for 8
    results, and every one of them passes the benchmark's checks.
    """
    tracer = _load_benchmark("tracer")
    workloads = _load_benchmark("workloads")
    rec = tracer.Recorder()
    runner = workloads.CliRunner(rec)
    rec.install(runner.hooks())
    try:
        op = runner.run_cli(["bench", "--config", str(small_config), "--nnsize", "4,6",
                             "--spread", "10", "--filter", "low,mid", "--repeats", "1",
                             "--out-dir", str(tmp_path)])
    finally:
        rec.uninstall()
    assert op.code == 0
    assert len(op.decompositions) == 4
    op.check_results(8)
    assert op.problems == []


def test_benchmark_checks_cells_cut_from_a_longer_run():
    """Cells read off their column's longer run pass the benchmark's own checks.

    The mid band trains at decimation 4 for both budgets, so the budget-2
    cells are cut from the budget-4 runs. (The low band of 512 samples is
    its DC bin alone: decimated, it is constant and stops at stage 0.)
    """
    workloads = _load_benchmark("workloads")
    trajectory = dataclasses.replace(DEFAULT_TRAJECTORY, n_samples=512)
    configs = build_grid([2, 4], [50.0], [0.0], ["mid"], trajectory=trajectory)
    assert [c.decimation for c in configs] == [1, 4, 1, 4]
    op = workloads.Op(argv=[])
    op.results = run_table(configs)
    op.check_results(len(configs))
    op.release()
    assert op.problems == []
    assert [(r.method, r.stages) for r in op.results] == [
        ("conventional", 2), ("improved", 2), ("conventional", 4), ("improved", 4)]
