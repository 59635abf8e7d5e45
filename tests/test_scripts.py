"""Every script under ``scripts/`` imports against the current package and defines ``main``.

The scripts import private names of ``src/`` (``conv_cost.py`` the conv planner,
``norm_cost.py`` the norm layers), and nothing else runs them; a retired name
then fails here instead of breaking a script silently.  ``norm_cost.py``'s
two-tree comparison also runs once, against this same tree.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


@pytest.mark.parametrize("name", sorted(p.stem for p in SCRIPTS.glob("*.py")))
def test_script_imports_and_defines_main(monkeypatch, name):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    module = importlib.import_module(name)
    assert callable(getattr(module, "main", None))


def test_norm_cost_compares_two_trees_in_one_process():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / "norm_cost.py"), "--against", "src", "--rounds", "1"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    header, *rows = done.stdout.splitlines()
    assert header.split()[-3:] == ["tape+bwd", "against", "ratio"]
    assert len(rows) == 16
    for row in rows:  # per timing: this tree's µs, the other's, their ratio
        cells = [float(v) for v in row.split()[-9:]]
        assert all(v > 0 for v in cells), row
