"""Every script under ``scripts/`` imports against the current package and defines ``main``.

The scripts import private names of ``src/`` (``call_cost.py`` the conv planner and
the norm layers' shared body), and nothing else runs them; a retired name then fails
here instead of breaking a script silently.  ``call_cost.py``'s two-tree comparison
also runs once in this process, against this same tree, on batches of one call; its
paired ratio is checked on canned per-round times and its order of calls on calls that
only log themselves.
"""

import ast
import importlib
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"

# the distinct conv2d calls of the three workloads, and the (workload, kind, shape, dtype, mode)
# of every distinct norm call
CONV_CALLS = 106
NORM_CALLS = [
    *(("micro", "mvn", s, "float32", "train") for s in ((64, 8, 8, 8), (64, 16, 4, 4), (64, 32, 2, 2), (64, 64, 1, 1))),
    ("micro", "ln", (64, 64, 1, 1), "float32", "train"),
    *(("gradcheck", "mvn", s, "float64", "train") for s in ((2, 8, 5, 5), (2, 8, 8, 8), (2, 16, 4, 4), (2, 32, 2, 2))),
    ("gradcheck", "mvn", (2, 64, 1, 1), "float64", "train"),
    ("gradcheck", "ln", (2, 64, 1, 1), "float64", "train"),
    *(("xT", "mvn", s, "float32", "eval") for s in ((1, 64, 56, 56), (1, 128, 28, 28), (1, 320, 14, 14), (1, 512, 7, 7))),
    ("xT", "ln", (1, 512, 1, 1), "float32", "eval"),
]


def import_script(monkeypatch, name):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    return importlib.import_module(name)


@pytest.mark.parametrize("name", sorted(p.stem for p in SCRIPTS.glob("*.py")))
def test_script_imports_and_defines_main(monkeypatch, name):
    assert callable(getattr(import_script(monkeypatch, name), "main", None))


def test_paired_ratio_is_the_median_of_the_rounds_ratios(monkeypatch):
    paired_ratio = import_script(monkeypatch, "call_cost").paired_ratio
    # a slow spell in the last round slows both trees; the ratio of the two medians would read 2
    assert paired_ratio([10.0, 20.0, 30.0], [10.0, 10.0, 40.0]) == 1.0
    assert paired_ratio([2.0, 4.0], [1.0, 1.0]) == 3.0
    assert paired_ratio([5.0], [4.0]) == 1.25


def test_rounds_alternate_which_tree_runs_first(monkeypatch):
    call_cost = import_script(monkeypatch, "call_cost")
    monkeypatch.setattr(call_cost, "BATCH_SECONDS", 0.0)  # batches of one call
    visits = []
    calls = [lambda name=name: visits.append(name) for name in ("this f", "other f", "this b", "other b")]
    call_cost.round_us(calls, 4, 2)
    rounds = [visits[8 + 4 * r : 12 + 4 * r] for r in range(4)]  # after two sizing calls of each
    assert rounds == [
        ["this f", "other f", "this b", "other b"],
        ["other b", "this b", "other f", "this f"],
        ["other f", "this f", "other b", "this b"],
        ["this b", "other b", "this f", "other f"],
    ]


def test_call_cost_compares_two_trees_in_one_process(monkeypatch, capsys):
    call_cost = import_script(monkeypatch, "call_cost")
    monkeypatch.setattr(call_cost, "BATCH_SECONDS", 0.0)  # batches of one call
    monkeypatch.setattr(sys, "argv", ["call_cost.py", "--against", str(ROOT / "src"), "--rounds", "1"])
    try:
        call_cost.main()
    finally:  # the second tree's modules, so no later import finds them
        for name in [m for m in sys.modules if m.split(".")[0] == call_cost.AGAINST]:
            del sys.modules[name]
    header, *lines = capsys.readouterr().out.splitlines()
    assert header.split()[-3:] == ["tape+bwd", "against", "ratio"]
    rows = [line.split() for line in lines]
    # one row per distinct recorded call: every field but the count and the timings differs
    assert len({tuple(row[:11]) for row in rows}) == len(rows) == CONV_CALLS + len(NORM_CALLS)
    norms = [(w, kind, ast.literal_eval(x), dtype, mode) for w, kind, x, _, dtype, mode, *_ in rows if kind != "conv"]
    assert norms == NORM_CALLS
    for row in rows:  # per timing: this tree's µs, the other's, their paired ratio
        cells = [float(v) for v in row[-9:]]
        assert all(v > 0 for v in cells), row
