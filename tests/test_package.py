"""Tests of the package's own surface: `import gpsdenoise` gives only its version,
and the README's library example runs as written."""
import os
import re
import subprocess
import sys
from pathlib import Path

import gpsdenoise

ROOT = Path(__file__).resolve().parents[1]


def test_bare_import_loads_no_numpy_and_no_submodule():
    """Each public name is imported from its defining module, so the bare package loads nothing."""
    probe = ("import sys, gpsdenoise; "
             "print(sorted(m for m in sys.modules "
             "if m.split('.')[0] == 'numpy' or m.startswith('gpsdenoise.')))")
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


def test_version_is_stated_once_in_the_package():
    # the project metadata reads __version__; a regex, not tomllib: the
    # package supports Python 3.10, which has no tomllib
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    project = pyproject.split("[project]\n", 1)[1].split("\n[", 1)[0]
    assert re.search(r'^dynamic\s*=\s*\["version"\]', project, re.MULTILINE)
    assert not re.search(r"^version\s*=", project, re.MULTILINE)
    dynamic = pyproject.split("[tool.setuptools.dynamic]\n", 1)[1].split("\n[", 1)[0]
    assert re.search(r'^version\s*=\s*\{\s*attr\s*=\s*"gpsdenoise.__version__"\s*\}',
                     dynamic, re.MULTILINE)
    assert re.fullmatch(r"\d+\.\d+\.\d+", gpsdenoise.__version__)


def test_readme_library_quick_start_runs_as_written(tmp_path, monkeypatch, capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library quick start\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    monkeypatch.chdir(tmp_path)
    exec(compile(block, "README.md", "exec"), {})
    rows = capsys.readouterr().out.splitlines()
    assert [row.split()[0] for row in rows] == ["conventional", "improved"]
    assert len((tmp_path / "report.csv").read_text().splitlines()) == 3
