"""The package's one row-key codec, and the identity helper.

The key of a row of w digits in [0, q) is sum over c of row[c] * q**c.
A matrix is a flat uint32 row of its m*m packed ring indices in
row-major order, so its key is its canonical key, and every
deterministic element order in the package is ascending key order.
``lex_keys`` keys rows reversed, so that key order is lex order.

Keys are uint64 when q**w <= 2**64.  Wider keys are the digits, most
significant first, each a big-endian integer of 1, 2 or 4 bytes, viewed
as one ``np.void`` scalar, whose bytewise order is the ascending order
of the values.  The codec is injective only on rows of digits in [0, q).
"""

from __future__ import annotations

import functools

import numpy as np


def fits_uint64(q: int, w: int) -> bool:
    return q**w <= 1 << 64


def key_dtype(q: int, w: int) -> np.dtype:
    """uint64, or void of w big-endian digits of 1, 2 or 4 bytes."""
    if fits_uint64(q, w):
        return np.dtype(np.uint64)
    return np.dtype(f"V{w * (1 if q <= 1 << 8 else 2 if q <= 1 << 16 else 4)}")


def pack_keys(rows: np.ndarray, q: int) -> np.ndarray:
    """The keys of integer rows of digits in [0, q), q <= 2**32: uint64
    ones by Horner in place over the columns, void ones as one big-endian
    copy.  Signed rows are read as unsigned, without a copy."""
    rows = np.atleast_2d(np.asarray(rows))
    if rows.dtype.kind == "i":
        rows = rows.view(rows.dtype.str.replace("i", "u"))
    n, w = rows.shape
    dtype = key_dtype(q, w)
    if dtype.kind == "V":
        digits = np.ascontiguousarray(rows[:, ::-1], f">u{dtype.itemsize // w}")
        return digits.view(dtype).reshape(n)
    if not w:
        return np.zeros(n, dtype=np.uint64)
    keys = rows[:, -1].astype(np.uint64)
    for c in range(w - 2, -1, -1):
        keys *= q
        keys += rows[:, c]
    return keys


def lex_keys(rows, q: int) -> np.ndarray:
    """The keys of rows with column 0 the most significant digit: key
    order is lex order."""
    return pack_keys(np.asarray(rows)[..., ::-1], q)


def unpack_keys(keys: np.ndarray, q: int, w: int) -> np.ndarray:
    """The uint32 rows of keys, inverse of pack_keys."""
    keys = np.ascontiguousarray(keys)
    if keys.dtype.kind == "V":
        digits = keys.view(f">u{keys.dtype.itemsize // w}").reshape(-1, w)
        return digits[:, ::-1].astype(np.uint32)
    rest = keys.copy()
    out = np.empty((len(rest), w), dtype=np.uint32)
    for c in range(w):
        out[:, c] = rest % q
        rest //= q
    return out


def key_ints(keys: np.ndarray, q: int, w: int) -> list[int]:
    """The values of keys, as Python ints."""
    if keys.dtype.kind != "V":
        return keys.tolist()
    rows = unpack_keys(keys, q, w)[:, ::-1].tolist()
    return [functools.reduce(lambda k, d: k * q + d, row) for row in rows]


def identity_flat(m: int) -> np.ndarray:
    out = np.zeros(m * m, dtype=np.uint32)
    out[:: m + 1] = 1
    return out


class KeyIndex:
    """Lookup from key to position.

    Keys are pack_keys output, of either form.  Positions refer to the
    original key array order (a group's element numbering, a face table's
    rows), not the sorted order.  uint64 keys that already ascend, as
    those of a sorted face table do, are searched as given, with no order.
    """

    def __init__(self, keys: np.ndarray):
        keys = np.asarray(keys)
        self.n = len(keys)
        if keys.dtype.kind != "V" and (keys[1:] >= keys[:-1]).all():
            self._order, self._sorted = None, keys
        else:
            self._order = np.argsort(keys, kind="stable")
            self._sorted = keys[self._order]

    def lookup(self, keys: np.ndarray) -> np.ndarray:
        """Positions of keys, -1 where absent."""
        keys = np.asarray(keys)
        if not self.n:
            return np.full(keys.shape, -1, dtype=np.int64)
        pos = np.searchsorted(self._sorted, keys)
        np.minimum(pos, self.n - 1, out=pos)
        out = pos if self._order is None else self._order[pos]
        out[self._sorted[pos] != keys] = -1
        return out
