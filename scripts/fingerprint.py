"""SHA-256 fingerprints of the package's deterministic outputs, to show that a change keeps its bits.

Prints one digest per line:

- ``xT_logits``: the eval-mode logits of a seed-0 xT build on a fixed
  seed-0 (1, 3, 224, 224) float32 input;
- ``micro_metrics.csv``, ``micro_last.ckpt``, ``micro_best.ckpt``: the
  artifacts of a 2-epoch training run of ``configs/micro.cfg`` (one
  warmup epoch);
- ``micro_eval``: what ``mvformer eval`` prints for that run's
  ``best.ckpt``, which rebuilds the model and data from the checkpoint's
  metadata;
- ``gradcheck_rows``: the ``(group, parameter, error)`` rows that
  ``mvformer gradcheck --module all`` prints, at full float precision;
- ``cost_tables``: the ``cost_report`` CSV of every preset under every
  ablation (and none) and every block norm, at 224x224 and, for micro,
  also at 32x32.

It uses only long-standing public names, so the same script runs against
two checkouts; "same bits" is then one diff of the two outputs:

    PYTHONPATH=<old>/src python scripts/fingerprint.py > old.txt
    PYTHONPATH=src python scripts/fingerprint.py > new.txt
    diff old.txt new.txt

Takes a few seconds.
"""

import argparse
import contextlib
import hashlib
import io
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

from mvformer.analysis import cost_report
from mvformer.cli import main as cli_main
from mvformer.gradcheck import run_checks
from mvformer.mixer import ABLATION_MODES
from mvformer.model import NORM_KINDS, PRESETS, build_model, model_config
from mvformer.tensor import Tensor
from mvformer.training import parse_config, run_training

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "micro.cfg"


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def xt_logits():
    model = build_model(model_config("xT"), seed=0)
    x = np.random.default_rng(0).standard_normal((1, 3, 224, 224)).astype(np.float32)
    logits = model.forward(Tensor(x), training=False).data
    yield "xT_logits", sha256(logits.tobytes())


def micro_run():
    # the config's two warmup epochs need a longer run, so two epochs warm up for one
    cfg = replace(parse_config(CONFIG), epochs=2, warmup_epochs=1)
    with tempfile.TemporaryDirectory() as out:
        run_training(cfg, out)
        for name in ("metrics.csv", "last.ckpt", "best.ckpt"):
            yield f"micro_{name}", sha256(Path(out, name).read_bytes())
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli_main(["eval", "--checkpoint", str(Path(out, "best.ckpt"))])
        if code != 0:
            raise SystemExit(f"mvformer eval exited {code}")
        yield "micro_eval", sha256(stdout.getvalue().encode())


def gradcheck_rows():
    rows = run_checks("all", seed=0)
    yield "gradcheck_rows", sha256(repr(rows).encode())


def cost_tables():
    points = [(preset, 224) for preset in PRESETS] + [("micro", 32)]
    text = "".join(
        cost_report(model_config(preset, ablation=ablation, block_norm=norm), hw).csv_text()
        for preset, hw in points
        for ablation in (None, *ABLATION_MODES)
        for norm in NORM_KINDS
    )
    yield "cost_tables", sha256(text.encode())


def main():
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args()
    for part in (xt_logits, micro_run, gradcheck_rows, cost_tables):
        for name, digest in part():
            print(f"{name:<20} {digest}", flush=True)


if __name__ == "__main__":
    main()
