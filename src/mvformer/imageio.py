"""Binary PPM (P6) reading and writing, maxval 255.

Headers may contain ``#`` comments and arbitrary whitespace between tokens,
as produced by common tools; payloads are written row-major, one byte per
sample.
"""

from __future__ import annotations

import numpy as np


class ImageFormatError(ValueError):
    """Not a P6 file, malformed header, unsupported maxval, or truncated payload."""


def _read_tokens(buf, count):
    """Pull up to `count` whitespace-delimited header tokens, skipping comments; fewer if `buf` ends."""
    tokens = []
    pos = 0
    while len(tokens) < count and pos < len(buf):
        ch = buf[pos : pos + 1]
        if ch.isspace():
            pos += 1
        elif ch == b"#":
            end = buf.find(b"\n", pos)
            pos = len(buf) if end < 0 else end + 1
        else:
            end = pos
            while end < len(buf) and not buf[end : end + 1].isspace():
                end += 1
            tokens.append(buf[pos:end])
            pos = end
    return tokens, pos + 1  # single whitespace byte separates header and payload


def read_ppm(path):
    """P6 file -> (h, w, 3) uint8."""
    with open(path, "rb") as f:
        buf = f.read()
    if not buf.startswith(b"P6"):
        raise ImageFormatError(f"{path}: expected P6 header, got {buf[:2]!r}")
    if not buf[2:3].isspace():
        raise ImageFormatError(f"{path}: expected whitespace after the P6 magic, got {buf[2:3]!r}")
    tokens, payload_at = _read_tokens(buf[2:], 3)
    if len(tokens) < 3:
        raise ImageFormatError(f"{path}: unexpected end of header")
    try:
        width, height, maxval = (int(t) for t in tokens)
    except ValueError as exc:
        raise ImageFormatError(f"{path}: non-integer header field in {tokens!r}") from exc
    if width < 1 or height < 1:
        raise ImageFormatError(f"{path}: width and height must be positive, got {width}x{height}")
    if maxval != 255:
        raise ImageFormatError(f"{path}: only maxval 255 is supported, got {maxval}")
    need = width * height * 3
    payload = buf[2 + payload_at : 2 + payload_at + need]
    if len(payload) != need:
        raise ImageFormatError(f"{path}: payload has {len(payload)} bytes, expected {need}")
    return np.frombuffer(payload, dtype=np.uint8).reshape(height, width, 3).copy()


def write_ppm(path, pixels):
    """(h, w, 3) uint8 -> P6 file."""
    arr = np.ascontiguousarray(pixels, dtype=np.uint8)
    if arr.ndim != 3 or arr.shape[2] != 3:
        raise ImageFormatError(f"P6 needs (h, w, 3) pixels, got shape {arr.shape}")
    with open(path, "wb") as f:
        f.write(b"P6\n%d %d\n255\n" % (arr.shape[1], arr.shape[0]))
        f.write(arr.tobytes())
