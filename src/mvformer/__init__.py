"""Multi-view normalization and multi-view token mixing, from scratch.

A numpy-backed rank-4 autodiff core, the fused BN/LN/IN normalization
layer, the three-scale depthwise token mixer with stage-specific receptive
fields, the assembled four-stage backbone variants, symbolic cost
accounting, and a desk-scale training harness.
"""
