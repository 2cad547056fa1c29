"""The demos and the public name list stay in step with the package.

Each script under ``demos/`` runs in a fresh interpreter on the package
source, so deleting a public name a demo uses fails here.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import uncond

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs_cleanly(demo, tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    res = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert res.returncode == 0, res.stderr
    assert res.stderr == ""


def test_public_names_resolve_once():
    assert len(uncond.__all__) == len(set(uncond.__all__))
    for name in uncond.__all__:
        assert hasattr(uncond, name), name
