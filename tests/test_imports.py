"""Every module imports on its own, in a fresh interpreter, and the CLI
imports without ``scipy.stats``.

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


def test_cli_import_leaves_out_scipy_stats():
    """``scipy.stats`` takes longer to import than the package; only the
    sub-step base case needs it, so it loads on that first call."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    code = "import sys, blinkinfer.cli; print('scipy.stats' in sys.modules)"
    run = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "False"
