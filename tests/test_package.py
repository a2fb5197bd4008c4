"""Tests of the package's own surface: `import gpsdenoise` gives only its version."""
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


def test_version_matches_the_project_metadata():
    # a regex, not tomllib: the package supports Python 3.10, which has no tomllib
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    project = pyproject.split("[project]\n", 1)[1].split("\n[", 1)[0]
    version = re.search(r'^version\s*=\s*"([^"]+)"', project, re.MULTILINE).group(1)
    assert gpsdenoise.__version__ == version
