"""Smoke test: each demo script, and README's quick start, runs to
completion from a fresh interpreter.

``99_recalibrate_fixtures.py`` is left out because it rewrites the frozen
fixtures.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("0[1-5]_*.py"))


def test_all_five_demos_found():
    assert [name[:2] for name in DEMOS] == ["01", "02", "03", "04", "05"]


def _run(args):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] \
        if env.get("PYTHONPATH") else src
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    _run([str(ROOT / "demos" / demo)])


def test_readme_quick_start_runs():
    readme = (ROOT / "README.md").read_text()
    block = readme.split("```python\n", 1)[1].split("```", 1)[0]
    _run(["-c", block])
