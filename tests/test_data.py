"""Synthetic dataset: purity, ranges, and class separability by linear probe."""

import numpy as np
import pytest

from mvformer.data import SyntheticDataset, SyntheticSpec


def make_ds(**kw):
    return SyntheticDataset(SyntheticSpec(**kw))


class TestDeterminism:
    def test_same_seed_index_bitwise(self):
        ds = make_ds(seed=3)
        a, la = ds.sample(17)
        b, lb = ds.sample(17)
        assert la == lb
        assert np.array_equal(a, b)

    def test_fresh_dataset_object_reproduces(self):
        a, _ = make_ds(seed=3).sample(5)
        b, _ = make_ds(seed=3).sample(5)
        assert np.array_equal(a, b)

    def test_different_seed_differs(self):
        a, _ = make_ds(seed=1).sample(5)
        b, _ = make_ds(seed=2).sample(5)
        assert not np.array_equal(a, b)

    def test_repeated_sample_returns_same_array(self):
        ds = make_ds(seed=3)
        a, la = ds.sample(9)
        b, lb = ds.sample(np.int64(9))
        assert a is b and la == lb

    def test_sample_is_read_only(self):
        img, _ = make_ds(seed=3).sample(2)
        with pytest.raises(ValueError, match="read-only"):
            img[0, 0, 0] = 0.5

    def test_memoised_batch_matches_fresh_dataset(self):
        ds = make_ds(seed=4)
        idx = [5, 0, 9, 5, 3]
        ds.batch(idx[:3])  # draws some samples
        first, labels = ds.batch(idx)
        again, _ = ds.batch(idx)
        fresh, fresh_labels = make_ds(seed=4).batch(idx)
        assert first.data.tobytes() == again.data.tobytes() == fresh.data.tobytes()
        assert np.array_equal(labels, fresh_labels)

    def test_different_index_differs(self):
        ds = make_ds()
        a, _ = ds.sample(0)
        b, _ = ds.sample(4)  # same class, different instance
        assert not np.array_equal(a, b)


class TestShapesAndRanges:
    def test_batch_shapes(self):
        ds = make_ds(classes=4, image_size=32)
        images, labels = ds.batch(range(8))
        assert images.shape == (8, 3, 32, 32)
        assert images.dtype == np.float32
        assert labels.dtype == np.int64
        assert images.data.min() >= 0.0 and images.data.max() <= 1.0

    def test_labels_balanced_cycle(self):
        ds = make_ds(classes=4)
        labels = [ds.label(i) for i in range(12)]
        assert labels == [0, 1, 2, 3] * 3

    def test_train_val_disjoint(self):
        ds = make_ds(train_size=100, val_size=50)
        assert set(ds.train_indices).isdisjoint(ds.val_indices)
        assert len(ds.train_indices) == 100 and len(ds.val_indices) == 50

    def test_extra_classes_supported(self):
        ds = make_ds(classes=6)
        for i in range(6):
            img, label = ds.sample(i)
            assert label == i
            assert np.isfinite(img).all()

    def test_degenerate_spec_rejected(self):
        with pytest.raises(ValueError, match="classes"):
            SyntheticSpec(classes=1)

    def test_negative_train_size_rejected(self):
        with pytest.raises(ValueError, match="train_size must be >= 0"):
            SyntheticSpec(train_size=-3)
        assert list(make_ds(train_size=0, val_size=2).train_indices) == []

    @pytest.mark.parametrize("noise", [-0.1, float("nan"), float("inf")])
    def test_bad_noise_rejected(self, noise):
        with pytest.raises(ValueError, match="noise must be finite and >= 0"):
            SyntheticSpec(noise=noise)
        SyntheticSpec(noise=0.0)

    @pytest.mark.parametrize("val_size", [0, -5])
    def test_empty_validation_split_rejected(self, val_size):
        with pytest.raises(ValueError, match="val_size must be >= 1"):
            SyntheticSpec(val_size=val_size)


def probe_features(images):
    """Per-image gradient-energy statistics; the probe's feature map."""
    gray = images.mean(axis=1)
    dx = np.abs(np.diff(gray, axis=2)).mean(axis=(1, 2))
    dy = np.abs(np.diff(gray, axis=1)).mean(axis=(1, 2))
    spread = gray.std(axis=(1, 2))
    return np.stack([dx, dy, dx * dy, spread], axis=1)


def fit_softmax_probe(x, y, classes, steps=400, lr=0.5):
    """Plain multinomial logistic regression by full-batch gradient descent."""
    n, f = x.shape
    w = np.zeros((f, classes))
    b = np.zeros(classes)
    onehot = np.eye(classes)[y]
    for _ in range(steps):
        z = x @ w + b
        z -= z.max(axis=1, keepdims=True)
        p = np.exp(z)
        p /= p.sum(axis=1, keepdims=True)
        gz = (p - onehot) / n
        w -= lr * (x.T @ gz)
        b -= lr * gz.sum(axis=0)
    return w, b


class TestSeparability:
    def test_linear_probe_oracle(self):
        """Class statistics are linearly separable: probe >= 80% held out."""
        ds = make_ds(classes=4, train_size=256, val_size=128, seed=0)
        train_imgs, train_y = ds.batch(ds.train_indices)
        val_imgs, val_y = ds.batch(ds.val_indices)
        xtr = probe_features(train_imgs.data)
        xva = probe_features(val_imgs.data)
        mu, sd = xtr.mean(axis=0), xtr.std(axis=0) + 1e-8
        xtr = (xtr - mu) / sd
        xva = (xva - mu) / sd
        w, b = fit_softmax_probe(xtr, train_y, 4)
        acc = float((np.argmax(xva @ w + b, axis=1) == val_y).mean())
        assert acc >= 0.80, f"probe accuracy {acc:.3f}"
