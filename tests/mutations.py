"""Hypothesis strategy for corrupted copies of a valid binary file."""

from hypothesis import strategies as st

_POS = st.integers(0, 2**32)
_EDIT = st.one_of(
    st.tuples(st.just("flip"), _POS, st.integers(1, 255)),
    st.tuples(st.just("insert"), _POS, st.binary(min_size=1, max_size=8)),
    st.tuples(st.just("delete"), _POS, st.integers(1, 8)),
    st.tuples(st.just("truncate"), _POS, st.none()),
)


def _apply(data, edits):
    buf = bytearray(data)
    for kind, pos, arg in edits:
        pos %= len(buf) + 1
        if kind == "flip" and pos < len(buf):
            buf[pos] ^= arg
        elif kind == "insert":
            buf[pos:pos] = arg
        elif kind == "delete":
            del buf[pos : pos + arg]
        elif kind == "truncate":
            del buf[pos:]
    return bytes(buf)


def byte_mutations(data):
    """`data` after one to four byte flips, insertions, deletions or truncations."""
    return st.lists(_EDIT, min_size=1, max_size=4).map(lambda edits: _apply(data, edits))
