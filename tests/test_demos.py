"""The demos, the README quick start and the public name list stay in step with the package.

Each script under ``demos/`` and the README's python block run in a fresh
interpreter on the package source, so deleting a public name one of them
uses fails here.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import uncond

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_exist():
    assert DEMOS


def _run_cleanly(args, cwd):
    """Run python ``args`` in a fresh interpreter on the package source; it must exit 0 with no stderr."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    res = subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert res.returncode == 0, res.stderr
    assert res.stderr == ""


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs_cleanly(demo, tmp_path):
    _run_cleanly([str(demo)], tmp_path)


def test_readme_quick_start_runs_cleanly(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, flags=re.M | re.S)
    assert len(blocks) == 1
    _run_cleanly(["-c", blocks[0]], tmp_path)


def test_public_names_resolve_once():
    assert len(uncond.__all__) == len(set(uncond.__all__))
    for name in uncond.__all__:
        assert hasattr(uncond, name), name
