"""Every script in demos/ runs to completion against this package."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import localround

DEMOS = Path(__file__).resolve().parent.parent / "demos"
# the directory holding the package the tests import
PACKAGE_ROOT = str(Path(localround.__file__).resolve().parent.parent)


@pytest.mark.parametrize("demo", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_exits_0(demo):
    path = os.pathsep.join(filter(None, [PACKAGE_ROOT, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, str(DEMOS / demo)], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
