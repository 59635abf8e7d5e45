"""Command-line surface: outputs, artifact files, and the exit-code contract."""

import argparse
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mvformer.mixer as mixer_mod
from mvformer.checkpoint import save_checkpoint
from mvformer.cli import build_parser, main
from mvformer.data import SyntheticSpec
from mvformer.gradcheck import CHECKS
from mvformer.imageio import read_ppm, write_ppm
from mvformer.model import build_model, model_config
from mvformer.tensor import _node
from mvformer.training import data_meta, model_meta

XT_GOLDEN_CSV = """name,params,macs
embed1,9472,29503488
stage1_blocks,108296,331563008
embed2,74176,57802752
stage2_blocks,418952,324438016
embed3,369600,72253440
stage3_blocks,5028496,980062720
embed4,1476672,72253440
stage4_blocks,6414344,313198592
head,3100650,3096576
total,17000658,2184172032
"""


class TestCount:
    def test_xt_table(self, capsys):
        assert main(["count", "--preset", "xT", "--input-size", "224"]) == 0
        out = capsys.readouterr().out
        assert "params = 17.00M" in out
        assert "macs = 2.18G" in out

    def test_golden_csv_stable(self, tmp_path):
        path = tmp_path / "xt.csv"
        assert main(["count", "--preset", "xT", "--csv", str(path)]) == 0
        assert path.read_text() == XT_GOLDEN_CSV

    def test_micro_report(self, capsys):
        assert main(["count", "--preset", "micro", "--input-size", "32"]) == 0
        assert "total" in capsys.readouterr().out

    def test_unknown_preset_usage_error(self, capsys):
        assert main(["count", "--preset", "giant"]) == 2

    def test_resolution_scaling(self, capsys):
        assert main(["count", "--preset", "xT", "--input-size", "448"]) == 0
        out = capsys.readouterr().out
        # stage rows scale 4x against the golden 224 values
        assert "1,326,252,032" in out.replace(" ", " ")  # 4 * 331,563,008


class TestAblateCount:
    def test_full_has_more_params_than_no_stage_both(self, tmp_path):
        full = tmp_path / "full.csv"
        both = tmp_path / "both.csv"
        assert main(["count", "--preset", "xT", "--csv", str(full)]) == 0
        assert main(["ablate-count", "--preset", "xT", "--ablation", "no-stage-both", "--csv", str(both)]) == 0
        total = lambda p: int(p.read_text().splitlines()[-1].split(",")[1])
        assert total(both) < total(full)

    def test_drop_modes_emit_reports(self, capsys):
        for mode in ("drop-global", "drop-intermediate", "drop-local"):
            assert main(["ablate-count", "--preset", "xT", "--ablation", mode]) == 0

    def test_unknown_mode_usage_error(self):
        assert main(["ablate-count", "--preset", "xT", "--ablation", "drop-everything"]) == 2


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    cfg = out / "run.cfg"
    cfg.write_text(
        "[train]\nepochs = 2\nbatch_size = 32\nwarmup_epochs = 1\nseed = 3\n"
        "[data]\ntrain_size = 96\nval_size = 48\n"
    )
    rc = main(["train", "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    return out


class TestTrainEval:
    def test_artifacts_and_seed_line(self, trained_run, capsys):
        lines = (trained_run / "metrics.csv").read_text().splitlines()
        assert lines[0] == "epoch,lr,train_loss,train_acc,val_acc"
        assert len(lines) == 3
        assert (trained_run / "last.ckpt").exists()
        assert (trained_run / "best.ckpt").exists()

    def test_train_prints_seed_first(self, tmp_path, capsys):
        rc = main(["train", "--out", str(tmp_path / "o"), "--epochs", "0", "--seed", "11"])
        assert rc == 0
        assert capsys.readouterr().out.splitlines()[0] == "seed: 11"

    def test_eval_matches_csv(self, trained_run, capsys):
        final_val = (trained_run / "metrics.csv").read_text().splitlines()[-1].split(",")[-1]
        assert main(["eval", "--checkpoint", str(trained_run / "last.ckpt")]) == 0
        out = capsys.readouterr().out.strip()
        assert out == f"val_acc: {float(final_val):.8g}"

    def test_eval_data_override(self, trained_run, capsys):
        rc = main(["eval", "--checkpoint", str(trained_run / "last.ckpt"), "--data", "val_size=32"])
        assert rc == 0
        assert capsys.readouterr().out.startswith("val_acc:")

    def test_eval_missing_file_is_input_error(self, tmp_path):
        assert main(["eval", "--checkpoint", str(tmp_path / "nope.ckpt")]) == 2

    def test_train_negative_seed_flag_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "neg_seed"
        assert main(["train", "--out", str(out), "--epochs", "3", "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert "seed must be >= 0, got -1" in captured.err
        assert captured.out == "" and not out.exists()

    def test_train_missing_config_is_input_error(self, tmp_path):
        assert main(["train", "--config", str(tmp_path / "nope.cfg"), "--out", str(tmp_path)]) == 2

    def test_train_undecodable_config_names_the_file(self, tmp_path, capsys):
        cfg = tmp_path / "latin1.cfg"
        cfg.write_bytes(b"[train]\nepochs = 1 # \xe9t\xe9\n")
        out = tmp_path / "o"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert f"config file {str(cfg)!r} is not UTF-8 text" in captured.err
        assert captured.out == "" and not out.exists()

    def test_train_instance_norm_on_1x1_map_writes_nothing(self, tmp_path, capsys):
        cfg = tmp_path / "in.cfg"
        cfg.write_text("[model]\nnorm = in\n[train]\nepochs = 1\nwarmup_epochs = 0\n")
        out = tmp_path / "in_run"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 2
        assert "1x1 map at stage 4" in capsys.readouterr().err
        assert not list(out.glob("*.ckpt")) and not (out / "metrics.csv").exists()

    @pytest.mark.parametrize(
        "section,line,message",
        [
            ("data", "noise = -0.1", "noise must be finite and >= 0, got -0.1"),
            ("data", "noise = nan", "noise must be finite and >= 0, got nan"),
            ("train", "base_lr = nan", "base_lr must be finite and >= 0, got nan"),
            ("train", "base_lr = -1", "base_lr must be finite and >= 0, got -1.0"),
            ("train", "weight_decay = nan", "weight_decay must be finite and >= 0, got nan"),
            ("train", "warmup_epochs = -1", "warmup_epochs must be >= 0, got -1"),
            ("train", "seed = -3", "seed must be >= 0, got -3"),
            ("model", "embed_dims = 0,8,16,32", "embed dims must be >= 2, got 0"),
            ("model", "embed_dims = -2,8,16,32", "embed dims must be >= 2, got -2"),
            ("train", "epochs = 3", "line 7: duplicate key 'epochs' in [train]"),
            ("data", "val_size = 16", "line 7: duplicate key 'val_size' in [data]"),
        ],
    )
    def test_train_bad_value_writes_nothing(self, tmp_path, capsys, section, line, message):
        cfg = tmp_path / "bad.cfg"
        base = "[train]\nepochs = 3\n[data]\ntrain_size = 64\nval_size = 32\n"  # sets no key a case sets
        cfg.write_text(f"{base}[{section}]\n{line}\n")
        out = tmp_path / "bad_run"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not list(out.glob("*.ckpt")) and not (out / "metrics.csv").exists()

    @pytest.mark.parametrize("section,line", [("model", "embed_dims = 0,8,16,32"), ("data", "noise = -0.1")])
    def test_train_bad_model_or_data_value_prints_and_creates_nothing(self, tmp_path, capsys, section, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"[train]\nepochs = 3\n[{section}]\n{line}\n")
        out = tmp_path / "bad_run"
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().out == "" and not out.exists()

    def test_epochs_flag_at_default_warmup_names_the_config_key(self, tmp_path, capsys):
        out = tmp_path / "short_run"
        assert main(["train", "--out", str(out), "--epochs", "2"]) == 2
        captured = capsys.readouterr()
        assert "warmup_epochs (2) must be < epochs (2)" in captured.err
        assert "lower warmup_epochs under [train] in a --config file" in captured.err
        assert captured.out == "" and not out.exists()

    def test_eval_negative_noise_is_input_error(self, trained_run, capsys):
        rc = main(["eval", "--checkpoint", str(trained_run / "last.ckpt"), "--data", "noise=-1"])
        assert rc == 2
        captured = capsys.readouterr()
        assert "noise must be finite and >= 0, got -1.0" in captured.err
        assert "val_acc" not in captured.out

    def test_eval_empty_validation_split_is_input_error(self, trained_run, capsys):
        rc = main(["eval", "--checkpoint", str(trained_run / "last.ckpt"), "--data", "val_size=-5"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "val_size must be >= 1" in err

    @pytest.mark.parametrize(
        "data,message",
        [
            (
                "classes=4,colour=red",
                "bad data spec item 'colour=red'; keys: "
                "['classes', 'image_size', 'noise', 'seed', 'train_size', 'val_size']",
            ),
            ("val_size", "bad data spec item 'val_size'; keys: ['classes'"),
            ("classes=four", "bad value for --data key 'classes': 'four'"),
            ("noise=lots", "bad value for --data key 'noise': 'lots'"),
            ("seed=-1", "seed must be >= 0, got -1"),
            ("val_size=8,val_size=16", "duplicate --data key 'val_size'"),
        ],
    )
    def test_eval_bad_data_item_is_input_error(self, trained_run, capsys, data, message):
        rc = main(["eval", "--checkpoint", str(trained_run / "last.ckpt"), "--data", data])
        assert rc == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""

    def test_eval_class_count_override_must_match_the_head(self, trained_run, capsys):
        rc = main(["eval", "--checkpoint", str(trained_run / "last.ckpt"), "--data", "classes=9"])
        assert rc == 2
        captured = capsys.readouterr()
        assert "data classes (9) must match the checkpoint's model.num_classes (4)" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("batch_size", ["-1", "0"])
    def test_eval_nonpositive_batch_size_is_input_error(self, trained_run, capsys, batch_size):
        rc = main(["eval", "--checkpoint", str(trained_run / "last.ckpt"), "--batch-size", batch_size])
        assert rc == 2
        captured = capsys.readouterr()
        assert f"batch_size must be >= 1, got {batch_size}" in captured.err
        assert "val_acc" not in captured.out

    def test_dump_alphas_fresh_checkpoint(self, tmp_path, capsys):
        out = tmp_path / "fresh"
        assert main(["train", "--out", str(out), "--epochs", "0"]) == 0
        capsys.readouterr()
        csv = tmp_path / "alphas.csv"
        assert main(["dump-alphas", "--checkpoint", str(out / "last.ckpt"), "--csv", str(csv)]) == 0
        rows = csv.read_text().splitlines()
        assert rows[0].startswith("stage,block_index,norm_site")
        assert all(line.endswith(",1,1,1") for line in rows[1:])

    def test_dump_alphas_redump_identical(self, trained_run, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["dump-alphas", "--checkpoint", str(trained_run / "last.ckpt"), "--csv", str(a)]) == 0
        assert main(["dump-alphas", "--checkpoint", str(trained_run / "last.ckpt"), "--csv", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_dump_alphas_plain_norm_checkpoint_rejected(self, tmp_path, capsys):
        out = tmp_path / "ln_run"
        cfg = tmp_path / "ln.cfg"
        cfg.write_text("[model]\nnorm = ln\n[train]\nepochs = 0\nwarmup_epochs = 0\n")
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        capsys.readouterr()
        rc = main(["dump-alphas", "--checkpoint", str(out / "last.ckpt")])
        assert rc == 2
        assert "no multi-view" in capsys.readouterr().err


class TestGradcheckCommand:
    def test_passes_and_prints_seed(self, capsys):
        assert main(["gradcheck", "--module", "mvn", "--seed", "4"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "seed: 4"
        assert "ok" in out

    def test_repeat_same_seed_identical_table(self, capsys):
        main(["gradcheck", "--module", "mvn", "--seed", "4"])
        first = capsys.readouterr().out
        main(["gradcheck", "--module", "mvn", "--seed", "4"])
        second = capsys.readouterr().out
        assert first == second

    def test_module_choices_are_the_check_groups(self):
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        module = next(a for a in sub.choices["gradcheck"]._actions if a.dest == "module")
        assert module.choices == ["all", *CHECKS]

    def test_negative_seed_is_input_error(self, capsys):
        assert main(["gradcheck", "--module", "mvn", "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert "seed must be >= 0, got -1" in captured.err
        assert captured.out == ""

    def test_corrupted_backward_detected(self, capsys, monkeypatch):
        def corrupted_star_relu(x, s, b):
            r = np.maximum(x.data, 0)

            def bw(g, acc):
                acc(x, 2.07 * r * (g * s.data))  # deliberately wrong derivative (2 r g s)
                acc(s, np.sum(g * r * r).reshape(s.shape))
                acc(b, np.sum(g).reshape(b.shape))

            return _node(r * r * s.data + b.data, (x, s, b), bw)

        monkeypatch.setattr(mixer_mod, "star_relu", corrupted_star_relu)
        rc = main(["gradcheck", "--module", "mvtm", "--seed", "0"])
        captured = capsys.readouterr()
        assert rc == 1
        assert "FAILED" in captured.err
        assert "worst" in captured.err


class TestNormImage:
    def _write_inputs(self, tmp_path, n=2, size=12):
        rng = np.random.default_rng(0)
        paths = []
        for i in range(n):
            img = rng.integers(0, 256, size=(size, size, 3), dtype=np.uint8)
            path = tmp_path / f"in{i}.ppm"
            write_ppm(path, img)
            paths.append(str(path))
        return paths

    def test_writes_four_files_per_input(self, tmp_path, capsys):
        paths = self._write_inputs(tmp_path)
        out = tmp_path / "out"
        rc = main(["norm-image", "--in", *paths, "--weights", "0.333,0.333,0.333", "--out", str(out)])
        assert rc == 0
        for stem in ("in0", "in1"):
            for kind in ("bn", "ln", "in", "mvn"):
                f = out / f"{stem}_{kind}.ppm"
                assert f.exists()
                img = read_ppm(f)
                assert img.shape == (12, 12, 3)

    def test_one_hot_weights_reproduce_single_norm(self, tmp_path):
        paths = self._write_inputs(tmp_path, n=3)
        out = tmp_path / "out"
        assert main(["norm-image", "--in", *paths, "--weights", "1,0,0", "--out", str(out)]) == 0
        for stem in ("in0", "in1", "in2"):
            bn = (out / f"{stem}_bn.ppm").read_bytes()
            mvn = (out / f"{stem}_mvn.ppm").read_bytes()
            assert bn == mvn

    def test_stage1_profile_weights(self, tmp_path):
        paths = self._write_inputs(tmp_path)
        out = tmp_path / "out"
        assert main(["norm-image", "--in", *paths, "--weights", "0.36,0.62,0.02", "--out", str(out)]) == 0

    def test_single_image_rejected(self, tmp_path, capsys):
        (path,) = self._write_inputs(tmp_path, n=1)
        rc = main(["norm-image", "--in", path, "--weights", "1,0,0", "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "two input images" in capsys.readouterr().err

    def test_glued_magic_rejected(self, tmp_path, capsys):
        paths = self._write_inputs(tmp_path)
        Path(paths[1]).write_bytes(b"P65 2 255\n" + bytes(30))
        out = tmp_path / "o"
        rc = main(["norm-image", "--in", *paths, "--weights", "1,0,0", "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 2 and "whitespace after the P6 magic" in captured.err
        assert captured.out == "" and not out.exists()

    def test_bad_weights_rejected(self, tmp_path, capsys):
        paths = self._write_inputs(tmp_path)
        rc = main(["norm-image", "--in", *paths, "--weights", "1,0", "--out", str(tmp_path / "o")])
        assert rc == 2

    @pytest.mark.parametrize("weights", ["nan,0,0", "inf,0,0", "1,-inf,0"])
    def test_non_finite_weights_rejected(self, tmp_path, capsys, weights):
        paths = self._write_inputs(tmp_path)
        out = tmp_path / "o"
        rc = main(["norm-image", "--in", *paths, "--weights", weights, "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == 2 and "--weights must be finite" in captured.err
        assert captured.out == "" and not out.exists()


# (command, edit to a micro checkpoint's meta or None for no meta block, the key the error names);
# dump-alphas reads no data.* key
META_FAULTS = [
    (command, edit, key)
    for command in ("eval", "dump-alphas")
    for edit, key in [
        (None, "model.embed_dims"),
        ({"model.mlp_ratio": None}, "model.mlp_ratio"),
        ({"model.depths": "1,x,2,1"}, "model.depths"),
        ({"model.drop_path_rate": ""}, "model.drop_path_rate"),
    ]
] + [("eval", {"data.image_size": "1.5"}, "data.image_size"), ("eval", {"data.noise": "lots"}, "data.noise")]


class TestUsage:
    def test_no_command_is_usage_error(self):
        assert main([]) == 2

    def test_unknown_command_is_usage_error(self):
        assert main(["frobnicate"]) == 2

    @pytest.mark.parametrize("command", ["eval", "dump-alphas"])
    def test_truncated_checkpoint_header_is_input_error(self, tmp_path, capsys, command):
        path = tmp_path / "short.ckpt"
        path.write_bytes(b"MVFK\x01\x00")
        assert main([command, "--checkpoint", str(path)]) == 2
        assert "truncated header" in capsys.readouterr().err

    @pytest.mark.parametrize("command,edit,key", META_FAULTS, ids=[f"{c}-{k}" for c, _, k in META_FAULTS])
    def test_malformed_checkpoint_meta_names_the_key(self, tmp_path, capsys, command, edit, key):
        mc = model_config("micro", num_classes=4)
        meta = {} if edit is None else {**model_meta(mc), **data_meta(SyntheticSpec()), **edit}
        path = tmp_path / "meta.ckpt"
        save_checkpoint(path, build_model(mc, seed=0), meta={k: v for k, v in meta.items() if v is not None})
        assert main([command, "--checkpoint", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "checkpoint meta" in captured.err and repr(key) in captured.err

    @pytest.mark.parametrize("command", ["eval", "dump-alphas"])
    @pytest.mark.parametrize(
        "key,value", [("mlp_ratio", "0"), ("mlp_ratio", "-1"), ("num_classes", "0"), ("num_classes", "-2")]
    )
    def test_non_positive_width_in_checkpoint_meta_names_the_key(self, tmp_path, capsys, command, key, value):
        mc = model_config("micro", num_classes=4)
        meta = {**model_meta(mc), **data_meta(SyntheticSpec()), f"model.{key}": value}
        path = tmp_path / "meta.ckpt"
        save_checkpoint(path, build_model(mc, seed=0), meta=meta)
        assert main([command, "--checkpoint", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and f"{key} must be >= 1, got {value}" in captured.err

    def test_checkpoint_meta_class_counts_must_agree(self, tmp_path, capsys):
        mc = model_config("micro", num_classes=4)
        meta = {**model_meta(mc), **data_meta(SyntheticSpec(classes=3))}
        path = tmp_path / "meta.ckpt"
        save_checkpoint(path, build_model(mc, seed=0), meta=meta)
        assert main(["eval", "--checkpoint", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "data classes (3) must match the checkpoint's model.num_classes (4)" in captured.err

    @pytest.mark.parametrize(
        "module,name",
        [
            ("mixer", "ConfigError"),
            ("checkpoint", "CheckpointFormatError"),
            ("checkpoint", "CheckpointIntegrityError"),
            ("imageio", "ImageFormatError"),
            ("norm", "DegenerateInputError"),
            ("tensor", "ShapeError"),
        ],
    )
    def test_named_input_errors_are_value_errors(self, module, name):
        # main maps them to exit 2 through its ValueError entry alone
        import importlib

        import mvformer.cli as cli_mod

        error = getattr(importlib.import_module(f"mvformer.{module}"), name)
        assert issubclass(error, ValueError)
        assert issubclass(error, cli_mod._INPUT_ERRORS)

    def test_numeric_abort_exit_code(self, tmp_path, capsys, monkeypatch):
        import mvformer.cli as cli_mod
        from mvformer.optim import NumericsError

        def exploding(cfg, out_dir):
            raise NumericsError("non-finite loss at epoch 1")

        monkeypatch.setattr(cli_mod, "run_training", exploding)
        rc = main(["train", "--out", str(tmp_path / "o")])
        assert rc == 3
        assert "numeric abort" in capsys.readouterr().err


UNWRITABLE_OUTPUTS = {
    "train-out-is-file": lambda blocker, ckpt, ppms: ["train", "--out", blocker],
    "train-out-under-file": lambda blocker, ckpt, ppms: ["train", "--out", f"{blocker}/sub"],
    "norm-image-out-is-file": lambda blocker, ckpt, ppms: ["norm-image", "--in", *ppms, "--out", blocker],
    "count-csv-under-file": lambda blocker, ckpt, ppms: [
        "count", "--preset", "micro", "--input-size", "32", "--csv", f"{blocker}/x.csv"],
    "dump-alphas-csv-under-file": lambda blocker, ckpt, ppms: [
        "dump-alphas", "--checkpoint", ckpt, "--csv", f"{blocker}/x.csv"],
}


@pytest.mark.parametrize("case", sorted(UNWRITABLE_OUTPUTS))
def test_unwritable_output_path_is_input_error(trained_run, tmp_path, capsys, case):
    blocker = tmp_path / "blocker"
    blocker.write_bytes(b"not a directory")
    rng = np.random.default_rng(0)
    ppms = []
    for i in range(2):
        write_ppm(tmp_path / f"in{i}.ppm", rng.integers(0, 256, size=(8, 8, 3), dtype=np.uint8))
        ppms.append(str(tmp_path / f"in{i}.ppm"))
    before = {p: p.read_bytes() for p in tmp_path.rglob("*")}
    argv = UNWRITABLE_OUTPUTS[case](str(blocker), str(trained_run / "last.ckpt"), ppms)
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert {p: p.read_bytes() for p in tmp_path.rglob("*")} == before


FAIL_FIRST_OUTPUTS = {
    "count-csv": lambda blocker: [
        "count", "--preset", "micro", "--input-size", "32", "--csv", f"{blocker}/x.csv"],
    "ablate-count-csv": lambda blocker: [
        "ablate-count", "--preset", "micro", "--ablation", "drop-local", "--input-size", "32",
        "--csv", f"{blocker}/x.csv"],
    "train-out": lambda blocker: ["train", "--out", blocker, "--epochs", "3"],
}


@pytest.mark.parametrize("case", sorted(FAIL_FIRST_OUTPUTS))
def test_unwritable_output_fails_before_any_output_or_run(tmp_path, capsys, monkeypatch, case):
    import mvformer.cli as cli_mod

    runs = []
    real_run = cli_mod.run_training
    monkeypatch.setattr(cli_mod, "run_training", lambda *a: runs.append(a) or real_run(*a))
    blocker = tmp_path / "blocker"
    blocker.write_bytes(b"not a directory")
    assert main(FAIL_FIRST_OUTPUTS[case](str(blocker))) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert runs == []  # no model or dataset was built


class TestFreshInterpreter:
    """The package run from source in a new process, outside pytest's imports."""

    @staticmethod
    def _run(*args):
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=120)

    def test_import_package_loads_no_submodule(self):
        run = self._run("-c", "import sys, mvformer; print(sorted(m for m in sys.modules if m.startswith('mvformer.')))")
        assert run.returncode == 0, run.stderr
        assert run.stdout.strip() == "[]"

    def test_python_m_count(self):
        run = self._run("-m", "mvformer", "count", "--preset", "micro", "--input-size", "32")
        assert run.returncode == 0, run.stderr
        assert "total" in run.stdout
