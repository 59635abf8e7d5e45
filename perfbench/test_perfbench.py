"""Smoke test of the benchmark harness at a tiny size.

    python3 -m pytest -q perfbench/test_perfbench.py

Covers the result-line contract, metric names and units, the output checks
(each must catch a deliberately broken program), the traced/untraced split
and the agreement of BENCHMARK.json with metrics.py.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run

run.use_checkout_sources()

import metrics  # noqa: E402
import workloads  # noqa: E402
from mvformer import mixer, norm, tensor, training  # noqa: E402
from mvformer.training import EpochRow  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
TINY = {
    "train_micro32": workloads.TrainSpec(
        epochs=3, warmup_epochs=1, batch_size=16, train_size=64, val_size=32, image_size=16
    ),
    "infer_xT224": workloads.InferSpec(preset="micro", image_size=32, pool=2, warmup=1),
    "gradcheck_f64": workloads.GradcheckSpec(which="mvn"),
}


@pytest.fixture
def bench(monkeypatch, tmp_path, capsys):
    """Run run.main at the tiny size; returns (result line, all stdout)."""
    monkeypatch.setattr(run, "OUT", tmp_path)
    monkeypatch.setattr(run, "SETUP_ROUNDS", 2)
    monkeypatch.setattr(run, "SETUP_MIN_S", 0.0)

    def go(workload, trace=0, seconds=0.05, specs=TINY):
        argv = ["--workload", workload, "--seed", "3", "--seconds", str(seconds), "--trace", str(trace)]
        assert run.main(argv, specs=specs) == 0
        out = capsys.readouterr().out
        result = json.loads(out.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["attempted"] >= 1
        assert (tmp_path / f"BENCH_{workload}_seed3_trace{trace}.json").is_file()
        return result, out

    return go


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_untraced_run_reports_every_end_to_end_metric(bench, workload):
    result, out = bench(workload)
    assert result["correct"] and result["failed"] == 0
    expected = {name: unit for name, unit, *_ in metrics.END_TO_END}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert "fingerprint: " in out and "error_rate" in out and "raw, not scaled" in out


def test_traced_run_reports_the_per_layer_table(bench):
    result, _ = bench("train_micro32", trace=1)
    assert result["correct"] and result["failed"] == 0  # includes the MAC coverage check
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        name: unit for name, unit, *_ in metrics.PER_LAYER
    }
    assert values["tensor.conv.dw7.calls"] > 0 and values["tensor.conv.dw7.bwd_ms"] > 0
    assert values["tensor.tape_nodes"] > 0 and values["checkpoint.bytes"] > 0
    assert values["gradcheck.model_s"] == 0  # a layer this workload does not use
    assert values["raw.op_p50_ms"] > 0 and values["raw.setup_s"] > 0


def test_traced_gradcheck_counts_groups_and_probes(bench):
    result, _ = bench("gradcheck_f64", trace=1)
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert result["correct"]
    assert values["gradcheck.mvn_s"] > 0 and values["gradcheck.loss_evals"] > 0
    assert values["gradcheck.model_s"] == 0 and values["norm.mvn.calls"] > 0


def test_mac_coverage_holds_for_both_presets():
    from tracer import mac_coverage

    assert mac_coverage() == []


def _wrong_gradient(fn):
    """An op with the right forward value and a gradient twice too large."""

    def op(*args):
        out = fn(*args)
        real = out._backward
        if real is not None:
            out._backward = lambda g, acc: real(2.0 * g, acc)
        return out

    return op


def test_checks_catch_a_broken_program(bench, monkeypatch):
    real_conv = mixer.conv2d

    def flipped_conv(x, w, b=None, **kwargs):
        """A float32-only fast path that convolves instead of cross-correlating."""
        if x.dtype == np.float32:
            w = tensor.Tensor(w.data[:, :, ::-1, ::-1].copy())
        return real_conv(x, w, b, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(mixer, "conv2d", flipped_conv)
        result, _ = bench("infer_xT224")
    assert not result["correct"] and result["failed"] == result["attempted"]

    with monkeypatch.context() as m:
        m.setattr(norm, "sqrt", _wrong_gradient(tensor.sqrt))
        result, _ = bench("gradcheck_f64")
    assert not result["correct"] and result["failed"] == result["attempted"]

    real_loss = training.ce_label_smoothing
    calls = [0]

    def loss_turning_nan(*args, **kwargs):
        calls[0] += 1
        return real_loss(*args, **kwargs) if calls[0] <= 2 else tensor.Tensor.scalar(math.nan)

    with monkeypatch.context() as m:
        m.setattr(training, "ce_label_smoothing", loss_turning_nan)
        result, _ = bench("train_micro32")
    assert not result["correct"] and result["failed"] == result["attempted"] == 2


def test_run_with_no_completed_operation_exits_without_result(bench, monkeypatch):
    monkeypatch.setattr(training, "ce_label_smoothing", lambda *a, **k: tensor.Tensor.scalar(math.nan))
    with pytest.raises(SystemExit) as exc:
        bench("train_micro32")
    assert exc.value.code != 0


def test_train_check_rejects_a_run_that_did_not_learn(tmp_path):
    bench = workloads.TrainWorkload(TINY["train_micro32"], 0, tmp_path)
    flat = [EpochRow(1, 1e-3, 1.5, 0.25, 0.25)]
    assert "not below ln 4" in bench._check(flat, str(tmp_path))
    assert "non-finite" in bench._check([EpochRow(1, 1e-3, math.nan, 0.25, 0.25)], str(tmp_path))


def test_each_train_job_gets_a_fresh_dataset(tmp_path, monkeypatch):
    built = []
    real = workloads.SyntheticDataset

    def counting(spec):
        built.append(spec)
        return real(spec)

    monkeypatch.setattr(workloads, "SyntheticDataset", counting)
    bench = workloads.TrainWorkload(TINY["train_micro32"], 0, tmp_path)
    seg = workloads.Segment()
    bench._job(seg, None)
    bench._job(seg, None)
    assert seg.failed == 0 and seg.jobs == 2
    # one in set-up, one for the second job, and one for each job's best.ckpt check
    assert len(built) == 4


def test_calibration_kernels_leave_gc_as_found():
    import gc

    import calibration

    assert gc.isenabled()
    assert calibration.mixed_slowness() > 0 and calibration.dispatch_slowness() > 0
    assert gc.isenabled()


def test_tail_is_the_sample_with_ten_beyond_it():
    value, pct = metrics.tail(list(range(40)))
    assert value == 29 and pct == 75.0
    assert metrics.tail(list(range(1000))) == (899, 90.0)  # capped at p90
    assert metrics.tail([3.0, 1.0]) == (3.0, 100.0)


def test_benchmark_json_matches_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"] and spec["paths"] == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] == [
        m[:4] for m in metrics.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        m[:3] for m in metrics.PER_LAYER
    ]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25
    e2e = {m["name"] for m in spec["end_to_end"]}
    for name, _, _, moves in metrics.PER_LAYER:
        assert moves or name == "trace.overhead_pct" or name.startswith("raw."), name
        assert all(w in run.WORKLOAD_NAMES and m in e2e for w, m in moves), name


def test_run_without_sources_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "infer_xT224", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
