"""Every module imports on its own, in a fresh interpreter.

The scalar likelihoods reach the grid engine's table builder in
``posterior``, which itself imports ``ctmc`` and ``multistep``; a
module-level import running the other way would be a cycle that only a
fresh interpreter shows.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

MODULES = [
    "kernels",
    "single_step",
    "ctmc",
    "multistep",
    "posterior",
    "state_inference",
    "cli",
]


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_alone(module):
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    run = subprocess.run(
        [sys.executable, "-c", f"import blinkinfer.{module}"],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
