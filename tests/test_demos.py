"""Every demo runs to completion against the current library API."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_runs(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


def test_readme_quick_start_runs():
    # the README's one Python block runs against the current library API
    blocks = (ROOT / "README.md").read_text().split("```python\n")[1:]
    assert len(blocks) == 1
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", blocks[0].split("```")[0]],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
