"""Every demo runs to completion and leaves its working directory empty."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
DEMOS = [
    "boundary_geometry",
    "convergence_study",
    "files_and_solver",
    "parameter_sweep",
    "scheme_comparison",
]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs_without_writing_to_cwd(demo, tmp_path, tmp_path_factory):
    scratch = tmp_path_factory.mktemp("demo-tmp")
    env = dict(os.environ, TMPDIR=str(scratch))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    script = REPO / "demos" / f"{demo}.py"
    proc = subprocess.run(
        [sys.executable, str(script)], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert list(tmp_path.iterdir()) == []
