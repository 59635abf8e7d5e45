"""Versioned binary checkpoints: model, optimizer state, and a metadata blob.

Layout (all integers little-endian):

    magic    4 bytes  b"MVFK"
    version  u32      currently 1
    count    u32      number of manifest entries
    entry *  u16 name length, utf-8 name,
             u8 dtype code (0 f32, 1 f64, 2 i64, 3 u8),
             u8 rank, rank * u32 dims,
             u64 byte offset into the payload
    payload  raw little-endian array bytes, in entry order

Entry names: ``param/<name>`` and ``buffer/<name>`` for the model,
``opt/step``, ``opt/m/<name>``, ``opt/v/<name>`` for the optimizer, and
``meta`` for a utf-8 ``key=value`` block.  A load-save round trip is
byte-identical.
"""

from __future__ import annotations

import os
import struct

import numpy as np

MAGIC = b"MVFK"
VERSION = 1

_DTYPE_CODES = {
    np.dtype("<f4"): 0,
    np.dtype("<f8"): 1,
    np.dtype("<i8"): 2,
    np.dtype("u1"): 3,
}
_CODE_DTYPES = {v: k for k, v in _DTYPE_CODES.items()}


class CheckpointFormatError(ValueError):
    """Wrong magic, unsupported version, or malformed manifest."""


class CheckpointIntegrityError(ValueError):
    """Payload shorter or longer than the manifest promises."""


def _meta_to_bytes(meta):
    lines = []
    for key, value in meta.items():
        key, value = str(key), str(value)
        if "=" in key or "\n" in key or "\n" in value:
            raise ValueError(f"metadata key/value may not contain '=' in key or newlines: {key!r}")
        lines.append(f"{key}={value}\n")
    return np.frombuffer("".join(lines).encode("utf-8"), dtype=np.uint8).copy()


def _meta_from_bytes(arr):
    try:
        text = arr.tobytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CheckpointFormatError("meta block is not valid utf-8") from exc
    meta = {}
    for line in text.splitlines():
        if line:
            key, _, value = line.partition("=")
            meta[key] = value
    return meta


def write_arrays(path, arrays):
    """Serialize an ordered {name: ndarray} mapping.

    The bytes go to `<path>.tmp` in the same directory, which then replaces
    `path` in one rename: a process that fails partway through the write
    leaves the previous file intact.  There is no fsync, so this does not
    guard against power loss.
    """
    manifest = bytearray()
    payload = bytearray()
    for name, arr in arrays.items():
        arr = np.ascontiguousarray(arr)
        code = _DTYPE_CODES.get(arr.dtype)
        if code is None:
            raise CheckpointFormatError(f"unsupported dtype {arr.dtype} for entry {name!r}")
        encoded = name.encode("utf-8")
        manifest += struct.pack("<H", len(encoded)) + encoded
        manifest += struct.pack("<BB", code, arr.ndim)
        manifest += struct.pack(f"<{arr.ndim}I", *arr.shape)
        manifest += struct.pack("<Q", len(payload))
        payload += arr.tobytes()
    tmp = os.fspath(path) + ".tmp"
    f = open(tmp, "wb")
    try:
        with f:
            f.write(MAGIC)
            f.write(struct.pack("<II", VERSION, len(arrays)))
            f.write(manifest)
            f.write(payload)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def read_arrays(path):
    """Deserialize back to an ordered {name: ndarray} mapping."""
    with open(path, "rb") as f:
        buf = f.read()
    if buf[:4] != MAGIC:
        raise CheckpointFormatError(f"{path}: bad magic {buf[:4]!r}, expected {MAGIC!r}")
    if len(buf) < 12:
        raise CheckpointIntegrityError(f"{path}: truncated header ({len(buf)} bytes)")
    version, count = struct.unpack_from("<II", buf, 4)
    if version != VERSION:
        raise CheckpointFormatError(f"{path}: unsupported version {version}")
    pos = 12
    entries = []
    try:
        for _ in range(count):
            (name_len,) = struct.unpack_from("<H", buf, pos)
            pos += 2
            name = buf[pos : pos + name_len].decode("utf-8")
            pos += name_len
            code, rank = struct.unpack_from("<BB", buf, pos)
            pos += 2
            shape = struct.unpack_from(f"<{rank}I", buf, pos)
            pos += 4 * rank
            (offset,) = struct.unpack_from("<Q", buf, pos)
            pos += 8
            if code not in _CODE_DTYPES:
                raise CheckpointFormatError(f"{path}: unknown dtype code {code} for {name!r}")
            entries.append((name, _CODE_DTYPES[code], shape, offset))
    except struct.error as exc:
        raise CheckpointIntegrityError(f"{path}: truncated manifest") from exc
    except UnicodeDecodeError as exc:
        raise CheckpointFormatError(f"{path}: entry name is not valid utf-8") from exc
    payload = buf[pos:]
    expected = sum(int(np.prod(s, dtype=np.int64)) * d.itemsize for _, d, s, _ in entries)
    if len(payload) != expected:
        raise CheckpointIntegrityError(
            f"{path}: payload is {len(payload)} bytes, manifest promises {expected}"
        )
    arrays = {}
    for name, dtype, shape, offset in entries:
        nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        if offset + nbytes > len(payload):
            raise CheckpointIntegrityError(f"{path}: entry {name!r} runs past end of payload")
        arrays[name] = np.frombuffer(payload, dtype=dtype, count=nbytes // dtype.itemsize,
                                     offset=offset).reshape(shape).copy()
    return arrays


def save_checkpoint(path, model, opt=None, meta=None):
    arrays = {}
    for name, p in model.named_parameters():
        arrays[f"param/{name}"] = p.data
    for name, buf in model.named_buffers():
        arrays[f"buffer/{name}"] = buf
    if opt is not None:
        arrays["opt/step"] = np.asarray([opt.step_count], dtype=np.int64)
        for name, _ in opt.named_params:
            arrays[f"opt/m/{name}"] = opt.m[name]
        for name, _ in opt.named_params:
            arrays[f"opt/v/{name}"] = opt.v[name]
    if meta:
        arrays["meta"] = _meta_to_bytes(meta)
    write_arrays(path, arrays)


def read_meta(path):
    arrays = read_arrays(path)
    return _meta_from_bytes(arrays["meta"]) if "meta" in arrays else {}


def load_checkpoint(path, model, opt=None):
    """Restore parameters, buffers, and optimizer state in place; returns meta.

    Every entry is checked before anything is written, so a rejected file
    leaves the model and the optimizer as they were.  Optimizer moments are
    copied into the optimizer's own arrays (``opt.m[name]`` and
    ``opt.v[name]`` are views into its flat store).
    """
    arrays = read_arrays(path)
    params = [
        (p, _entry(arrays, f"param/{name}", f"parameter {name!r}", p.data.shape))
        for name, p in model.named_parameters()
    ]
    buffers = [
        (name, _entry(arrays, f"buffer/{name}", f"buffer {name!r}", buf.shape))
        for name, buf in model.named_buffers()
    ]
    moments = []
    if opt is not None:
        step = _entry(arrays, "opt/step", "optimizer step count", (1,))
        for kind, store in (("m", opt.m), ("v", opt.v)):
            for name, _ in opt.named_params:
                key, view = f"opt/{kind}/{name}", store[name]
                moments.append((view, _entry(arrays, key, f"entry {key!r}", view.shape)))
        opt.check_params()
    for p, stored in params:
        p.tensor.data = stored.astype(p.data.dtype, copy=False)
        p.tensor.grad = None
    for name, stored in buffers:
        owner, leaf = _resolve_buffer(model, name)
        owner.set_buffer(leaf, stored)
    if opt is not None:
        opt.step_count = int(step[0])
        for view, stored in moments:
            np.copyto(view, stored)
    return _meta_from_bytes(arrays["meta"]) if "meta" in arrays else {}


def _entry(arrays, key, label, shape):
    if key not in arrays:
        raise CheckpointFormatError(f"checkpoint lacks {label}")
    stored = arrays[key]
    if stored.shape != shape:
        raise CheckpointFormatError(
            f"{label}: checkpoint shape {stored.shape} != model shape {shape}"
        )
    return stored


def _resolve_buffer(module, qualified):
    parts = qualified.split(".")
    for part in parts[:-1]:
        module = module._children[part]
    return module, parts[-1]
