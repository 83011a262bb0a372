"""Each bundled demo runs to completion against the current library."""

import subprocess
import sys
from pathlib import Path

import pytest

from conftest import cli_env

DEMOS = Path(__file__).resolve().parent.parent / "demos"

EXPECTED = {
    "global_cut.py": ["holds", "recovered the optimum exactly: True"],
    "curve_bounds.py": ["0 violations"],
    "walk_truncation.py": [],
}


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_demo_runs(tmp_path, name):
    res = subprocess.run(
        [sys.executable, str(DEMOS / name)],
        cwd=tmp_path,
        env=cli_env(),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert res.returncode == 0, res.stderr
    for text in EXPECTED[name]:
        assert text in res.stdout, (name, text)
