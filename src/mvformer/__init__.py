"""Multi-view normalization and multi-view token mixing, from scratch.

A numpy-backed rank-4 autodiff core, the fused BN/LN/IN normalization
layer, the three-scale depthwise token mixer with stage-specific receptive
fields, the assembled four-stage backbone variants, symbolic cost
accounting, and a desk-scale training harness.
"""

from .analysis import (
    AlphaProfile,
    CostReport,
    cost_report,
    count_macs,
    count_params,
    dump_alpha_profile,
    normalize_image_grid,
)
from .data import SyntheticDataset, SyntheticSpec
from .gradcheck import check_gradients, run_checks
from .mixer import StageSpec, TokenMixer, ablate_spec, make_stage_spec, star_relu
from .model import ModelConfig, MVFormer, build_model, model_config
from .module import Module, Param
from .norm import (
    MultiViewNorm,
    PlainNorm,
    batch_norm,
    instance_norm,
    layer_norm,
)
from .optim import AdamW, cosine_lr
from .tensor import (
    Tensor,
    backward,
    channel_concat,
    channel_split,
    conv2d,
    global_avg_pool,
    grad_enabled,
    mean,
    tsum,
)
from .training import TrainConfig, ce_label_smoothing, evaluate, train_loop

__all__ = [
    "AdamW",
    "AlphaProfile",
    "CostReport",
    "ModelConfig",
    "Module",
    "MultiViewNorm",
    "MVFormer",
    "Param",
    "PlainNorm",
    "StageSpec",
    "SyntheticDataset",
    "SyntheticSpec",
    "Tensor",
    "TokenMixer",
    "TrainConfig",
    "ablate_spec",
    "backward",
    "batch_norm",
    "build_model",
    "ce_label_smoothing",
    "channel_concat",
    "channel_split",
    "check_gradients",
    "conv2d",
    "cosine_lr",
    "cost_report",
    "count_macs",
    "count_params",
    "dump_alpha_profile",
    "evaluate",
    "global_avg_pool",
    "grad_enabled",
    "instance_norm",
    "layer_norm",
    "make_stage_spec",
    "mean",
    "model_config",
    "normalize_image_grid",
    "run_checks",
    "star_relu",
    "train_loop",
    "tsum",
]
