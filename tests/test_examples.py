"""Every demo script and every Python block of README.md runs cleanly.

Each runs in a fresh interpreter that finds this checkout's package, so
an example that goes stale (a renamed function, a failed assertion in
it) fails here.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import heights

ROOT = Path(__file__).resolve().parents[1]
SRC = Path(heights.__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README_BLOCKS = re.findall(r"^```python\n(.*?)^```$",
                           (ROOT / "README.md").read_text(),
                           re.MULTILINE | re.DOTALL)


def _run(args) -> subprocess.CompletedProcess:
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))
    return subprocess.run([sys.executable, *args], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=120)


def test_examples_are_found():
    assert len(DEMOS) >= 4 and len(README_BLOCKS) >= 2


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo):
    proc = _run([str(demo)])
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("block", README_BLOCKS,
                         ids=[f"block{i}" for i in range(len(README_BLOCKS))])
def test_readme_python_block_runs(block):
    proc = _run(["-c", block])
    assert proc.returncode == 0, proc.stderr
