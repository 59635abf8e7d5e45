"""Every script under ``scripts/`` imports against the current package and defines ``main``.

The scripts import private names of ``src/`` (``conv_cost.py`` the conv kernels,
``norm_cost.py`` the norm layers), and nothing else runs them; a retired name
then fails here instead of breaking a script silently.
"""

import importlib
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("name", sorted(p.stem for p in SCRIPTS.glob("*.py")))
def test_script_imports_and_defines_main(monkeypatch, name):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    module = importlib.import_module(name)
    assert callable(getattr(module, "main", None))
