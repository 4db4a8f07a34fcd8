"""Every module imports on its own, in a fresh interpreter, and neither
importing the package nor running any command loads scipy.

The scalar likelihoods reach the grid engine's table builder in
``posterior``, which itself imports ``ctmc`` and ``multistep``; a
module-level import running the other way would be a cycle that only a
fresh interpreter shows.

No export dangles: every name in a module's ``__all__`` exists, and the
package imports only such names, so deleting a name fails here rather than
at a user's import.
"""

import ast
import importlib
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "blinkinfer"
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "__init__")


def run_fresh(code, cwd=None):
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    return subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        cwd=cwd,
        timeout=300,
    )


@pytest.mark.parametrize("module", MODULES)
def test_module_imports_alone(module):
    run = run_fresh(f"import blinkinfer.{module}")
    assert run.returncode == 0, run.stderr


@pytest.mark.parametrize("module", MODULES)
def test_every_export_resolves(module):
    mod = importlib.import_module(f"blinkinfer.{module}")
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []


def test_package_imports_only_exports():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    imported = [
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert imported
    for module, name in imported:
        assert name in importlib.import_module(f"blinkinfer.{module}").__all__, (module, name)


@pytest.mark.parametrize("module", ["blinkinfer", "blinkinfer.cli"])
def test_import_loads_no_scipy(module):
    """``scipy.special`` alone takes longer to import than a small
    inference runs; the inference path carries its own Cephes ports."""
    run = run_fresh(
        f"import sys, {module}\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


def test_every_command_runs_without_scipy(tmp_path):
    """Running the commands, not only importing them, leaves scipy out, so
    its import cost is gone rather than moved to the first call."""
    code = textwrap.dedent(
        """
        import sys
        from blinkinfer.cli import main

        def run(*argv):
            assert main(list(argv)) == 0, argv

        emission = ["--fix", "lambda=20", "--fix", "mu=2"]
        rates = ["--grid", "r_alpha=0.5:3:4", "--grid", "r_beta=0.5:3:4"]
        run("simulate", "--model", "single", "--fix", "alpha=0.2", "--fix", "beta=0.3",
            *emission, "--n", "200", "--seed", "1", "--out", "single.csv")
        run("simulate", "--model", "ctmc", "--fix", "r_alpha=1", "--fix", "r_beta=2",
            *emission, "--n", "200", "--seed", "2", "--out", "ctmc.csv")
        run("simulate", "--model", "multistep", "--fix", "r_alpha=1", "--fix", "r_beta=2",
            *emission, "--d", "4", "--n", "200", "--seed", "3", "--out", "multi.csv")
        run("threshold", "--in", "single.csv", "--thresholds", "8:12", "--bins", "4:6",
            "--summary", "9:11", "--out", "sweep.csv")
        run("infer", "--in", "single.csv", "--model", "single",
            "--grid", "alpha=0.05:0.5:4", "--grid", "beta=0.05:0.5:4", *emission,
            "--out", "single.json")
        run("infer", "--in", "ctmc.csv", "--model", "ctmc", *rates, *emission,
            "--workers", "2", "--out", "ctmc.json")
        run("infer", "--in", "multi.csv", "--model", "multistep", *rates, *emission,
            "--out", "multi.json")
        run("infer-state", "--in", "single.csv", "--model", "single",
            "--grid", "alpha=0.05:0.5:4", "--grid", "beta=0.05:0.5:4", *emission,
            "--out", "state_single.csv")
        run("infer-state", "--in", "ctmc.csv", "--model", "ctmc", *rates, *emission,
            "--out", "state_ctmc.csv")
        print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
        """
    )
    run = run_fresh(code, cwd=tmp_path)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip().splitlines()[-1] == "[]"
