"""The command-line pins of ci/entry_point.sh, run on the source tree."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.skipif(shutil.which("bash") is None or shutil.which("sha256sum") is None,
                    reason="needs bash and sha256sum")
def test_entry_point_pins(tmp_path):
    # The script runs `python` too, so this interpreter comes first on PATH.
    path = os.pathsep.join((os.path.dirname(sys.executable), os.environ.get("PATH", "")))
    env = dict(os.environ, PATH=path, PYTHONPATH=str(ROOT / "src"),
               PERMWHITE=f"{sys.executable} -m permwhite.cli")
    run = subprocess.run(["bash", str(ROOT / "ci" / "entry_point.sh"), str(tmp_path)],
                         env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stdout + run.stderr
