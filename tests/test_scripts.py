"""Every script under ``scripts/`` imports against the current package and defines ``main``.

The scripts import private names of ``src/`` (``call_cost.py`` the conv planner and
the norm layers' shared body), and nothing else runs them; a retired name then fails
here instead of breaking a script silently.  ``call_cost.py``'s two-tree comparison
also runs once in this process, against this same tree, on batches of one call; its
paired ratio is checked on canned per-round times and its order of calls on calls that
only log themselves.  Its ``--count`` runs twice in fresh interpreters, which must print
the same counts, and once in this process against this same tree.
"""

import ast
import importlib
import os
import subprocess
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


def count_rows(out):
    """The note, header and rows of ``call_cost.py --count``'s output, each row split into words."""
    lines = out.splitlines()
    note = " ".join(line for line in lines if line.startswith("#"))
    header, *rows = [line.split() for line in lines if not line.startswith("#")]
    return note, header, rows


def test_call_counts_repeat_from_run_to_run():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "OPENBLAS_NUM_THREADS": "1"}
    command = [sys.executable, str(SCRIPTS / "call_cost.py"), "--count"]
    runs = [subprocess.run(command, env=env, capture_output=True, text=True, timeout=300) for _ in range(2)]
    assert [run.returncode for run in runs] == [0, 0], runs[0].stderr
    assert runs[0].stdout == runs[1].stdout
    note, header, rows = count_rows(runs[0].stdout)
    assert "numpy operator (a - b)" in note and "does not" in note
    assert header[-4:] == ["timing", "py", "c", "kib"]
    norms = [(w, kind, ast.literal_eval(x), dtype, mode) for w, kind, x, _, dtype, mode, *_ in rows if kind != "conv"]
    assert norms == [call for call in NORM_CALLS for _ in range(3)]
    assert len(rows) == 3 * (CONV_CALLS + len(NORM_CALLS))
    assert [row[-4] for row in rows] == ["free", "tape", "tape+bwd"] * (len(rows) // 3)
    assert all(int(row[-3]) > 0 and int(row[-2]) > 0 and float(row[-1]) > 0 for row in rows)


def test_call_counts_of_two_trees_side_by_side(monkeypatch, capsys):
    call_cost = import_script(monkeypatch, "call_cost")
    monkeypatch.setattr(call_cost, "WORKLOADS", {"gradcheck": call_cost.WORKLOADS["gradcheck"]})
    monkeypatch.setattr(sys, "argv", ["call_cost.py", "--count", "--against", str(ROOT / "src")])
    try:
        call_cost.main()
    finally:  # the second tree's modules, so no later import finds them
        for name in [m for m in sys.modules if m.split(".")[0] == call_cost.AGAINST]:
            del sys.modules[name]
    _, header, rows = count_rows(capsys.readouterr().out)
    assert header[-7:] == ["timing", "py", "c", "kib", "against_py", "against_c", "against_kib"]
    for row in rows:  # the same source makes the same calls
        assert row[-6:-4] == row[-3:-1], row
