"""Checkpoint format: byte-stable round trips and corruption handling."""

import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mvformer.checkpoint import (
    CheckpointFormatError,
    CheckpointIntegrityError,
    load_checkpoint,
    read_arrays,
    read_meta,
    save_checkpoint,
    write_arrays,
)
from mvformer.data import SyntheticDataset, SyntheticSpec
from mvformer.model import build_model, model_config
from mvformer.optim import AdamW, OptimizerStoreError
from mvformer.tensor import Tensor
from mutations import byte_mutations


def trained_pair(seed=0):
    model = build_model(model_config("micro", num_classes=4), seed=seed)
    opt = AdamW(list(model.named_parameters()))
    ds = SyntheticDataset(SyntheticSpec())
    images, labels = ds.batch(range(8))
    from mvformer.tensor import backward
    from mvformer.training import ce_label_smoothing

    for _ in range(2):
        model.zero_grad()
        loss = ce_label_smoothing(model.forward(images, training=True), labels, 0.1)
        backward(loss)
        opt.step(1e-3)
    return model, opt


class TestRoundTrip:
    def test_save_load_save_byte_identical(self, tmp_path):
        model, opt = trained_pair()
        a = tmp_path / "a.ckpt"
        b = tmp_path / "b.ckpt"
        meta = {"model.note": "round-trip", "train.epoch": "2"}
        save_checkpoint(a, model, opt, meta)
        model2 = build_model(model_config("micro", num_classes=4), seed=9)
        opt2 = AdamW(list(model2.named_parameters()))
        meta2 = load_checkpoint(a, model2, opt2)
        assert meta2 == meta
        save_checkpoint(b, model2, opt2, meta2)
        assert a.read_bytes() == b.read_bytes()

    def test_everything_restored_bitwise(self, tmp_path):
        model, opt = trained_pair()
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model, opt)
        model2 = build_model(model_config("micro", num_classes=4), seed=5)
        opt2 = AdamW(list(model2.named_parameters()))
        load_checkpoint(path, model2, opt2)
        for (name, a), (_, b) in zip(model.named_parameters(), model2.named_parameters()):
            assert np.array_equal(a.data, b.data), name
        for (name, a), (_, b) in zip(model.named_buffers(), model2.named_buffers()):
            assert np.array_equal(a, b), name
        assert opt2.step_count == opt.step_count
        for name, _ in opt.named_params:
            assert np.array_equal(opt.m[name], opt2.m[name])
            assert np.array_equal(opt.v[name], opt2.v[name])

    def test_every_array_overwritten_in_place(self, tmp_path):
        def held(model, opt):
            arrays = {f"param/{n}": p.data for n, p in model.named_parameters()}
            arrays.update({f"buffer/{n}": b for n, b in model.named_buffers()})
            for kind, store in (("m", opt.m), ("v", opt.v)):
                arrays.update({f"opt/{kind}/{n}": a for n, a in store.items()})
            return arrays

        model, opt = trained_pair()
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model, opt)
        saved = read_arrays(path)
        model2, opt2 = trained_pair(seed=1)
        before = held(model2, opt2)
        load_checkpoint(path, model2, opt2)
        after = held(model2, opt2)
        assert list(after) == list(before)
        for key, arr in before.items():
            assert after[key] is arr, key
            assert np.array_equal(arr, saved[key]), key

    def test_optimizer_state_loaded_into_store(self, tmp_path):
        # the loaded moments must drive the next step, not sit beside the flat store
        model, opt = trained_pair()
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model, opt)
        model2 = build_model(model_config("micro", num_classes=4), seed=5)
        opt2 = AdamW(list(model2.named_parameters()))
        load_checkpoint(path, model2, opt2)
        rng = np.random.default_rng(1)
        for (name, a), (_, b) in zip(opt.named_params, opt2.named_params):
            a.tensor.grad = rng.standard_normal(a.data.shape).astype(np.float32)
            b.tensor.grad = a.grad.copy()
        opt.step(1e-3)
        opt2.step(1e-3)
        for (name, a), (_, b) in zip(opt.named_params, opt2.named_params):
            assert a.data.tobytes() == b.data.tobytes(), name
            assert opt.m[name].tobytes() == opt2.m[name].tobytes(), name
            assert opt.v[name].tobytes() == opt2.v[name].tobytes(), name

    def test_logits_identical_after_round_trip(self, tmp_path):
        model, opt = trained_pair()
        rng = np.random.default_rng(3)
        x = Tensor(rng.uniform(0, 1, (2, 3, 32, 32)).astype(np.float32))
        before = model.forward(x, training=False).data
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model, opt)
        model2 = build_model(model_config("micro", num_classes=4), seed=8)
        load_checkpoint(path, model2)
        after = model2.forward(x, training=False).data
        assert np.array_equal(before, after)

    def test_raw_array_round_trip_dtypes(self, tmp_path):
        arrays = {
            "f32": np.arange(6, dtype=np.float32).reshape(2, 3),
            "f64": np.arange(4, dtype=np.float64),
            "i64": np.array([7], dtype=np.int64),
            "u8": np.frombuffer(b"hello", dtype=np.uint8).copy(),
        }
        path = tmp_path / "arrays.bin"
        write_arrays(path, arrays)
        back = read_arrays(path)
        assert list(back) == list(arrays)
        for name in arrays:
            assert back[name].dtype == arrays[name].dtype
            assert np.array_equal(back[name], arrays[name])
        assert not any(a.flags.writeable for a in back.values())  # views of the file's one buffer


class TestReadMemory:
    def test_read_meta_holds_one_copy_of_the_file(self, tmp_path):
        """Reading a few hundred bytes of metadata peaks near the file size, not at a multiple of it."""
        model, opt = trained_pair()
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model, opt, {"train.epoch": "2"})
        size = path.stat().st_size
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base, _ = tracemalloc.get_traced_memory()
            assert read_meta(path) == {"train.epoch": "2"}
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * size, (peak, size)


class TestGuards:
    def test_wrong_shape_named_error(self, tmp_path):
        model, opt = trained_pair()
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model, opt)
        other = build_model(model_config("micro", num_classes=4, embed_dims=(8, 16, 32, 48)), seed=0)
        with pytest.raises(CheckpointFormatError, match="head_fc1_w.*shape"):
            load_checkpoint(path, other)

    def test_missing_param_error(self, tmp_path):
        path = tmp_path / "m.ckpt"
        write_arrays(path, {"param/other": np.zeros((1, 1, 1, 1), dtype=np.float32)})
        model = build_model(model_config("micro", num_classes=4), seed=0)
        with pytest.raises(CheckpointFormatError, match="lacks parameter"):
            load_checkpoint(path, model)

    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda arrays: arrays.pop("opt/v/stage2_block0.mlp.fc1_w"),
             "lacks entry 'opt/v/stage2_block0.mlp.fc1_w'"),
            (lambda arrays: arrays.pop("opt/step"), "lacks optimizer step count"),
            (lambda arrays: arrays.update({"opt/m/head_fc2_b": np.zeros((4,), np.float32)}),
             r"entry 'opt/m/head_fc2_b': checkpoint shape \(4,\) != model shape \(1, 4, 1, 1\)"),
            # a step of -1 would make the next bias correction divide by zero
            (lambda arrays: arrays.update({"opt/step": np.array([-1], np.int64)}), "optimizer step count"),
            (lambda arrays: arrays.update({"opt/step": np.array([2.7])}), "optimizer step count"),
            (lambda arrays: arrays.update({"opt/step": np.array([np.nan])}), "optimizer step count"),
        ],
    )
    def test_bad_optimizer_entry_changes_nothing(self, tmp_path, edit, message):
        model, opt = trained_pair()
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model, opt)
        arrays = read_arrays(path)
        edit(arrays)
        write_arrays(path, arrays)
        model2, opt2 = trained_pair(seed=1)
        before = tmp_path / "before.ckpt"
        save_checkpoint(before, model2, opt2)
        with pytest.raises(CheckpointFormatError, match=message):
            load_checkpoint(path, model2, opt2)
        after = tmp_path / "after.ckpt"
        save_checkpoint(after, model2, opt2)
        assert after.read_bytes() == before.read_bytes()

    def test_param_dtype_differs_from_optimizer_store(self, tmp_path):
        model, opt = trained_pair()
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model, opt)
        model2 = build_model(model_config("micro", num_classes=4), seed=1)
        opt2 = AdamW(list(model2.named_parameters()))
        model2.cast_(np.float64)
        with pytest.raises(OptimizerStoreError, match="float64"):
            load_checkpoint(path, model2, opt2)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(CheckpointFormatError, match="magic"):
            read_arrays(path)

    def test_bad_version(self, tmp_path):
        model, opt = trained_pair()
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model, opt)
        data = bytearray(path.read_bytes())
        data[4] = 99
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointFormatError, match="version"):
            read_arrays(path)

    def test_truncated_payload(self, tmp_path):
        model, opt = trained_pair()
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model, opt)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 100])
        with pytest.raises(CheckpointIntegrityError, match="payload"):
            read_arrays(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "m.ckpt"
        path.write_bytes(b"MVFK\x01\x00")
        with pytest.raises(CheckpointIntegrityError, match="truncated header"):
            read_arrays(path)

    def test_non_utf8_entry_name(self, tmp_path):
        path = tmp_path / "m.ckpt"
        manifest = struct.pack("<H", 2) + b"\xff\xfe" + struct.pack("<BBIQ", 0, 1, 1, 0)
        path.write_bytes(b"MVFK" + struct.pack("<II", 1, 1) + manifest + b"\x00" * 4)
        with pytest.raises(CheckpointFormatError, match="utf-8"):
            read_arrays(path)

    def test_non_utf8_meta(self, tmp_path):
        path = tmp_path / "m.ckpt"
        write_arrays(path, {"meta": np.frombuffer(b"key=\xff\n", dtype=np.uint8).copy()})
        with pytest.raises(CheckpointFormatError, match="utf-8"):
            read_meta(path)

    def test_meta_absent_is_empty(self, tmp_path):
        model, opt = trained_pair()
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model, opt)
        assert read_meta(path) == {}


class TestStrayEntries:
    """A file with entries the model or optimizer lacks is rejected before anything is written."""

    @pytest.mark.parametrize("norm", ["ln", "bn", "in"])
    def test_mvn_checkpoint_into_plain_norm_model(self, tmp_path, norm):
        model, opt = trained_pair()
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model, opt)
        plain = build_model(model_config("micro", num_classes=4, block_norm=norm), seed=0)
        before = [p.data.copy() for _, p in plain.named_parameters()]
        with pytest.raises(CheckpointFormatError, match="model lacks checkpoint entry 'param/embed2.norm.alpha_bn'"):
            load_checkpoint(path, plain)
        assert all(np.array_equal(a, p.data) for a, (_, p) in zip(before, plain.named_parameters()))

    @pytest.mark.parametrize(
        "key,message",
        [
            ("buffer/stage1_block0.norm1.ghost", "model lacks checkpoint entry 'buffer/stage1_block0.norm1.ghost'"),
            ("opt/m/ghost", "optimizer lacks checkpoint entry 'opt/m/ghost'"),
        ],
    )
    def test_stray_entry_changes_nothing(self, tmp_path, key, message):
        model, opt = trained_pair()
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model, opt)
        arrays = read_arrays(path)
        arrays[key] = np.zeros(3, np.float32)
        write_arrays(path, arrays)
        model2, opt2 = trained_pair(seed=1)
        before = tmp_path / "before.ckpt"
        save_checkpoint(before, model2, opt2)
        with pytest.raises(CheckpointFormatError, match=message):
            load_checkpoint(path, model2, opt2)
        after = tmp_path / "after.ckpt"
        save_checkpoint(after, model2, opt2)
        assert after.read_bytes() == before.read_bytes()

    def test_optimizer_entries_allowed_without_optimizer(self, tmp_path):
        # eval and dump-alphas load training checkpoints into a bare model
        model, opt = trained_pair()
        path = tmp_path / "m.ckpt"
        save_checkpoint(path, model, opt)
        arrays = read_arrays(path)
        arrays["opt/m/ghost"] = np.zeros(3, np.float32)
        write_arrays(path, arrays)
        load_checkpoint(path, build_model(model_config("micro", num_classes=4), seed=1))


class TestAtomicWrite:
    def test_failed_write_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        import mvformer.checkpoint as checkpoint

        model, opt = trained_pair()
        path = tmp_path / "last.ckpt"
        save_checkpoint(path, model, opt, {"train.epoch": "1"})
        before = path.read_bytes()

        class FailingFile:
            """A real file whose second write raises, as a full disk would."""

            def __init__(self, f):
                self.f = f
                self.writes = 0

            def write(self, data):
                self.writes += 1
                if self.writes == 2:
                    raise OSError("no space left on device")
                return self.f.write(data)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

        monkeypatch.setattr(checkpoint, "open", lambda p, mode: FailingFile(open(p, mode)), raising=False)
        model2, opt2 = trained_pair(seed=1)
        with pytest.raises(OSError, match="no space"):
            save_checkpoint(path, model2, opt2, {"train.epoch": "2"})
        monkeypatch.undo()

        assert path.read_bytes() == before
        assert read_meta(path) == {"train.epoch": "1"}
        load_checkpoint(path, build_model(model_config("micro", num_classes=4), seed=3), opt2)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["last.ckpt"]


class TestFuzz:
    @pytest.fixture(scope="class")
    def valid(self, tmp_path_factory):
        """A small valid file: every dtype code, ranks 0, 1, 2 and 4, and a meta block."""
        path = tmp_path_factory.mktemp("fuzz") / "valid.ckpt"
        write_arrays(path, {
            "param/w": np.arange(6, dtype=np.float32).reshape(2, 3),
            "buffer/b": np.linspace(-1.0, 1.0, 4),
            "opt/step": np.asarray([3], dtype=np.int64),
            "scalar": np.float32(2.5).reshape(()),
            "param/k": np.ones((1, 2, 1, 2), dtype=np.float32),
            "meta": np.frombuffer(b"model.norm=mvn\ndata.seed=0\n", dtype=np.uint8).copy(),
        })
        return path.read_bytes()

    def test_valid_file_reads(self, valid, tmp_path):
        path = tmp_path / "v.ckpt"
        path.write_bytes(valid)
        assert read_meta(path) == {"model.norm": "mvn", "data.seed": "0"}

    @given(data=st.data())
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_mutated_file_raises_only_named_errors(self, valid, tmp_path, data):
        path = tmp_path / "m.ckpt"
        path.write_bytes(data.draw(byte_mutations(valid)))
        try:
            read_arrays(path)
            read_meta(path)
        except (CheckpointFormatError, CheckpointIntegrityError):
            pass
