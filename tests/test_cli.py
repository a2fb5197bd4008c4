"""End-to-end tests of the command-line interface."""
import hashlib
import json

import numpy as np
import pytest

from gpsdenoise.cli import main
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
        rc = main(["generate", "--samples", "64", "--dt", "1", "--out", str(out),
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

    @pytest.mark.parametrize("command, config, key", [
        ("generate", {"trajectory": {"dt": 0.5}}, "trajectory.n_samples"),
        ("generate", {"noise": {"seed": [1]}}, "noise.seed"),
        ("bench", {"bench": {"nnsize": "5"}}, "bench.nnsize"),
        ("generate", {"noisy": "yes"}, "noisy"),
    ])
    def test_bad_config_value_exits_two(self, tmp_path, capsys, command, config, key):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        rc = main([command, "--config", str(path), "--out-dir", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("gpsdenoise: error:") and key in err[0]

    def test_missing_config_file_exits_two(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        rc = main(["generate", "--config", str(missing), "--out-dir", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("gpsdenoise: error:") and str(missing) in err[0]

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "gpsdenoise" in capsys.readouterr().out
