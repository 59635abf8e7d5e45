"""Deterministic synthetic image classes for desk-scale training.

Each sample is a pure function of (dataset seed, sample index), so a
dataset draws each index once and keeps it (read-only).  The label
is index mod class count, and the image is drawn by that class's pattern
generator (horizontal stripes, vertical stripes, a checkerboard, or soft
blobs) at a randomized frequency, phase, tilt, amplitude, and channel
tint, plus pixel noise.  Train and validation index ranges are disjoint by
construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tensor import Tensor

TWO_PI = 2.0 * np.pi
CHANNELS = 3  # every image is RGB


@dataclass(frozen=True)
class SyntheticSpec:
    classes: int = 4
    image_size: int = 32
    noise: float = 0.05
    seed: int = 0
    train_size: int = 512
    val_size: int = 256

    def __post_init__(self):
        if self.classes < 2:
            raise ValueError(f"need at least 2 classes, got {self.classes}")
        if self.image_size < 8:
            raise ValueError(f"image_size must be >= 8, got {self.image_size}")
        if self.train_size < 0:
            raise ValueError(f"train_size must be >= 0, got {self.train_size}")
        if self.val_size < 1:
            raise ValueError(f"val_size must be >= 1, got {self.val_size}")
        if not (math.isfinite(self.noise) and self.noise >= 0):
            raise ValueError(f"noise must be finite and >= 0, got {self.noise}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def _stripes(rng, yy, xx, band, horizontal):
    freq = rng.uniform(2.0, 4.0) * band
    phase = rng.uniform(0.0, TWO_PI)
    tilt = rng.uniform(-0.15, 0.15)
    coord = yy + tilt * xx if horizontal else xx + tilt * yy
    return np.sin(TWO_PI * freq * coord + phase)


def _checker(rng, yy, xx, band):
    freq = rng.uniform(1.5, 3.0) * band
    p1 = rng.uniform(0.0, TWO_PI)
    p2 = rng.uniform(0.0, TWO_PI)
    return np.sin(TWO_PI * freq * yy + p1) * np.sin(TWO_PI * freq * xx + p2)


def _blobs(rng, yy, xx, band):
    out = np.zeros_like(yy)
    for _ in range(int(rng.integers(2, 4))):
        cy, cx = rng.uniform(0.2, 0.8, size=2)
        sigma = rng.uniform(0.08, 0.16) / band
        out += np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2.0 * sigma**2))
    peak = out.max()
    if peak > 0:
        out = out / peak
    return 2.0 * out - 1.0


_GENERATORS = (
    lambda rng, yy, xx, band: _stripes(rng, yy, xx, band, horizontal=True),
    lambda rng, yy, xx, band: _stripes(rng, yy, xx, band, horizontal=False),
    _checker,
    _blobs,
)


class SyntheticDataset:
    """Index-addressable synthetic classification data."""

    def __init__(self, spec):
        self.spec = spec
        size = spec.image_size
        grid = (np.arange(size) + 0.5) / size
        self._yy, self._xx = np.meshgrid(grid, grid, indexing="ij")
        self._samples = {}  # index -> (read-only image, label)

    @property
    def train_indices(self):
        return range(self.spec.train_size)

    @property
    def val_indices(self):
        start = self.spec.train_size
        return range(start, start + self.spec.val_size)

    def label(self, index):
        return int(index) % self.spec.classes

    def sample(self, index):
        """(image (c, h, w) float32 in [0, 1], label); the image is read-only.

        Drawn on the first call for `index`; later calls return the same array.
        """
        index = int(index)
        hit = self._samples.get(index)
        if hit is None:
            hit = self._samples[index] = self._draw(index)
        return hit

    def _draw(self, index):
        spec = self.spec
        label = self.label(index)
        rng = np.random.default_rng((spec.seed, index))
        band = 1.0 + (label // len(_GENERATORS))  # extra classes reuse generators at higher frequency
        pattern = _GENERATORS[label % len(_GENERATORS)](rng, self._yy, self._xx, band)
        amplitude = rng.uniform(0.30, 0.45)
        tint = rng.uniform(0.6, 1.0, size=CHANNELS)
        img = 0.5 + amplitude * tint[:, None, None] * pattern[None, :, :]
        img += rng.normal(0.0, spec.noise, size=img.shape)
        img = np.clip(img, 0.0, 1.0).astype(np.float32)
        img.flags.writeable = False
        return img, label

    def batch(self, indices):
        """(images Tensor (b, c, h, w), labels int64 array)."""
        images = []
        labels = []
        for i in indices:
            img, lab = self.sample(i)
            images.append(img)
            labels.append(lab)
        return Tensor(np.stack(images)), np.asarray(labels, dtype=np.int64)
