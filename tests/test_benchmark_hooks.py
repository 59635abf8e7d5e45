"""The names perfbench wraps or reads from outside, present under their current spelling.

``perfbench/`` patches these attributes by name to time the workloads; a
rename or deletion in ``src/`` would break the benchmark silently, since its
own tests are not part of the default suite.  Import and attribute checks
only, no timing.
"""

import importlib

import pytest

from mvformer.model import MVFormer, build_model, model_config

PATCHED = [
    ("norm", "sqrt"),
    ("mixer", "conv2d"),
    ("mixer", "square"),
    ("mixer", "star_relu"),
    ("training", "ce_label_smoothing"),
    ("training", "save_checkpoint"),
    ("training", "backward"),
    ("training", "evaluate"),
    ("gradcheck", "backward"),
    ("gradcheck", "check_gradients"),
    ("gradcheck", "run_checks"),
    ("norm", "MultiViewNorm.forward"),
    ("norm", "PlainNorm.forward"),
    ("mixer", "TokenMixer.forward"),
    ("model", "MVFormer.forward"),
    ("model", "MVFormer.features"),
    ("model", "Downsample.forward"),
    ("model", "Block.forward"),
    ("data", "SyntheticDataset.batch"),
    ("optim", "AdamW.step"),
]


@pytest.mark.parametrize("module,name", PATCHED, ids=[f"{m}.{n}" for m, n in PATCHED])
def test_patched_name_exists(module, name):
    obj = importlib.import_module(f"mvformer.{module}")
    for part in name.split("."):
        obj = getattr(obj, part)
    assert callable(obj)


def test_check_groups_are_a_dict_of_callables():  # the tracer replaces its items
    from mvformer.gradcheck import CHECKS

    assert isinstance(CHECKS, dict) and CHECKS and all(callable(fn) for fn in CHECKS.values())


def test_model_layers_and_input_channels():
    cfg = model_config("micro")
    assert cfg.input_channels == 3
    model = build_model(cfg)
    assert isinstance(model, MVFormer)
    assert len(model.embeds) == 4
    assert [len(blocks) for blocks in model.stages] == list(cfg.depths)
