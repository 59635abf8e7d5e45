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
byte-identical, and loading copies each entry into the array that holds it.
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
    """Deserialize back to an ordered {name: ndarray} mapping of read-only arrays.

    Each is a view of the one buffer the file is read into; copy it to modify it.
    """
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
    payload = memoryview(buf)[pos:]
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
                                     offset=offset).reshape(shape)
    return arrays


def _entries(model, opt):
    """(key, error label, the array that holds it) for every saved array, in file order.

    ``opt/step`` is the one exception: its array is a snapshot of
    ``opt.step_count``, which ``load_checkpoint`` restores by hand.
    """
    entries = [(f"param/{n}", f"parameter {n!r}", p.data) for n, p in model.named_parameters()]
    entries += [(f"buffer/{n}", f"buffer {n!r}", buf) for n, buf in model.named_buffers()]
    if opt is not None:
        entries.append(("opt/step", "optimizer step count", np.asarray([opt.step_count], np.int64)))
        for kind, store in (("m", opt.m), ("v", opt.v)):
            entries += [(f"opt/{kind}/{n}", f"entry 'opt/{kind}/{n}'", store[n]) for n, _ in opt.named_params]
    return entries


def save_checkpoint(path, model, opt=None, meta=None):
    arrays = {key: arr for key, _, arr in _entries(model, opt)}
    if meta:
        arrays["meta"] = _meta_to_bytes(meta)
    write_arrays(path, arrays)


def read_meta(path):
    arrays = read_arrays(path)
    return _meta_from_bytes(arrays["meta"]) if "meta" in arrays else {}


def load_checkpoint(path, model, opt=None):
    """Copy every stored array into the model or optimizer array that holds it; returns meta.

    Every entry is checked before anything is written, so a rejected file
    leaves the model and the optimizer as they were.  A file is rejected if
    it lacks an entry or stores one of another shape, or if it stores a
    ``param/`` or ``buffer/`` entry the model lacks (an ``opt/`` entry the
    optimizer lacks, when one is given), or an optimizer step count that is
    not an integer >= 0.  Parameters, buffers and moments are overwritten in place.
    """
    arrays = read_arrays(path)
    entries = _entries(model, opt)
    for key, label, arr in entries:
        if key not in arrays:
            raise CheckpointFormatError(f"checkpoint lacks {label}")
        if arrays[key].shape != arr.shape:
            raise CheckpointFormatError(
                f"{label}: checkpoint shape {arrays[key].shape} != model shape {arr.shape}"
            )
    owned = ("param/", "buffer/") + (("opt/",) if opt is not None else ())
    known = {key for key, _, _ in entries}
    stray = next((key for key in arrays if key.startswith(owned) and key not in known), None)
    if stray is not None:
        owner = "optimizer" if stray.startswith("opt/") else "model"
        raise CheckpointFormatError(f"{owner} lacks checkpoint entry {stray!r}")
    if opt is not None:
        step = arrays["opt/step"]
        if step.dtype.kind not in "iu" or step[0] < 0:
            raise CheckpointFormatError(f"optimizer step count must be an integer >= 0, got {step.dtype} {step[0]}")
        opt.check_params()
        opt.step_count = int(step[0])  # its entry holds a snapshot, not the counter
    for key, _, arr in entries:
        np.copyto(arr, arrays[key], casting="unsafe")  # converts like astype, so nothing raises midway
    model.zero_grad()
    return _meta_from_bytes(arrays["meta"]) if "meta" in arrays else {}
