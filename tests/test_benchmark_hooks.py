"""The names perfbench wraps, imports or reads from outside, present under their current spelling.

``perfbench/`` imports these names and patches some of them by name to time
the workloads; a rename, deletion or signature change in ``src/`` would break
the benchmark silently, since its own tests are not part of the default
suite.  Import, attribute and signature checks only, no timing.
"""

import importlib
import inspect

import numpy as np
import pytest

from mvformer.gradcheck import check_gradients
from mvformer.model import Block, Downsample, MVFormer, build_model, model_config
from mvformer.optim import AdamW
from mvformer.tensor import Tensor
from mvformer.training import TrainConfig

PATCHED = [
    ("norm", "sqrt"),
    ("norm", "add"),
    ("mixer", "conv2d"),
    ("mixer", "channel_split"),
    ("mixer", "channel_concat"),
    ("model", "conv2d"),
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


def test_the_forward_enters_each_layer_through_its_class_forward(monkeypatch):
    """The tracer times ``features`` and each layer's ``forward`` by patching them on the class."""
    entered = []

    def counting(cls, name):
        real = getattr(cls, name)

        def wrapper(obj, *args, **kwargs):
            entered.append((name, obj))
            return real(obj, *args, **kwargs)

        monkeypatch.setattr(cls, name, wrapper)

    for cls, name in ((MVFormer, "features"), (Block, "forward"), (Downsample, "forward")):
        counting(cls, name)
    model = build_model(model_config("micro"))
    model.forward(Tensor(np.zeros((1, 3, 32, 32), dtype=np.float32)))
    assert entered == [("features", model)] + [("forward", layer) for layer in model.layers]


IMPORTED = [
    ("checkpoint", "load_checkpoint"),
    ("checkpoint", "read_meta"),
    ("data", "SyntheticDataset"),
    ("data", "SyntheticSpec"),
    ("model", "build_model"),
    ("model", "model_config"),
    ("optim", "AdamW"),
    ("tensor", "Tensor"),
    ("training", "TrainConfig"),
    ("training", "evaluate"),
    ("training", "model_from_meta"),
    ("training", "resolve_data_spec"),
    ("training", "resolve_model_config"),
    ("training", "train_loop"),
    ("analysis", "cost_report"),
    ("gradcheck", "DEFAULT_TOLERANCE"),
]


@pytest.mark.parametrize("module,name", IMPORTED, ids=[f"{m}.{n}" for m, n in IMPORTED])
def test_imported_name_exists(module, name):
    assert hasattr(importlib.import_module(f"mvformer.{module}"), name)


def test_train_config_takes_the_workload_keywords():
    cfg = TrainConfig(
        preset="micro", norm="mvn", epochs=4, warmup_epochs=1, batch_size=64, train_size=512,
        val_size=256, image_size=32, seed=0,
    )
    assert cfg.classes >= 2


def test_check_gradients_signature():  # the gradcheck workload binds samples_per_param by name
    assert list(inspect.signature(check_gradients).parameters) == [
        "loss_fn", "named_tensors", "samples_per_param", "rng",
    ]


def test_adamw_step_takes_a_required_lr():  # the train workload calls AdamW.step(opt, lr)
    params = inspect.signature(AdamW.step).parameters
    assert list(params) == ["self", "lr"]
    assert params["lr"].default is inspect.Parameter.empty
