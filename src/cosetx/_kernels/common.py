"""The package's one row-key codec, its key sort, runs and key index,
and the identity helper.

The key of a row of w digits in [0, q) is sum over c of row[c] * q**c.
A matrix is a flat uint32 row of its m*m packed ring indices in
row-major order, so its key is its canonical key, and every
deterministic element order in the package is ascending key order.
``lex_keys`` keys rows reversed, so that key order is lex order.

Keys are uint64 when q**w <= 2**64.  Wider keys are the digits, most
significant first, each a big-endian integer of 1, 2 or 4 bytes, viewed
as one ``np.void`` scalar, whose bytewise order is the ascending order
of the values.  The codec is injective only on rows of digits in [0, q).

``stable_order`` is the stable argsort of integer keys, done as one
plain sort of keys packed with their positions where they fit 64 bits.
``key_runs`` finds the runs of equal keys in that order, and
``unique_rows`` dedupes rows through their ``lex_keys``.
``KeyIndex`` maps keys to positions: through a direct-address table
when the keys are dense (largest key below 8 times their count), else
by binary search.  Neither path has a knob: the keys' width and span
choose it.
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


def stable_order(keys: np.ndarray) -> np.ndarray:
    """``np.argsort(keys, kind="stable")``, by one sort when the keys pack.

    numpy argsorts stably by timsort but sorts plain integers with a SIMD
    sort.  Non-negative integer keys below 2**(64 - b), b the bit length
    of n - 1, are packed, in one uint64 copy sorted in place, as the
    values key << b | position: these are distinct, and their ascending
    order is the stable order, so one sort and a mask of the low b bits
    give the positions.  Integer keys that already ascend, as a coset
    complex's chambers arrive, are their own order, found by one
    comparison pass.  Void, negative and wider keys take the stable
    argsort.
    """
    keys = np.asarray(keys)
    n = len(keys)
    b = (n - 1).bit_length() if n else 0
    if keys.dtype.kind in "iu" and (keys[1:] >= keys[:-1]).all():
        return np.arange(n, dtype=np.intp)
    if (keys.dtype.kind not in "iu"
            or (keys.dtype.kind == "i" and keys.min() < 0)
            or int(keys.max()) >> (64 - b)):
        return np.argsort(keys, kind="stable")
    packed = keys.astype(np.uint64)
    packed <<= b
    # positions go in a block at a time, so no second n-array is live
    for lo in range(0, n, 1 << 16):
        hi = min(lo + (1 << 16), n)
        packed[lo:hi] |= np.arange(lo, hi, dtype=np.uint64)
    packed.sort()
    packed &= (1 << b) - 1
    return packed.view(np.intp)


def key_runs(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(order, sorted keys, first): the stable order that sorts the keys,
    the keys in that order, and where each run of equal keys starts.

    ``stable_order`` is the fastest sort here on integer keys, and another
    sort kernel would add its code pages to every process.  The runs are
    found as positions, not as a boolean mask, which is the slower gather
    on a complex's face tables."""
    order = stable_order(keys)
    keys = keys[order]
    fresh = np.ones(len(keys), dtype=bool)
    fresh[1:] = keys[1:] != keys[:-1]
    return order, keys, np.flatnonzero(fresh)


def unique_rows(rows: np.ndarray, base: int, counts: bool = False):
    """The distinct rows in lex order of rows in [0, base), and with
    ``counts`` the number of times each occurs.

    Equal keys are equal rows, so any order that sorts the keys serves."""
    order, keys, first = key_runs(lex_keys(rows, base))
    uniq = rows.take(order.take(first), axis=0)
    if not counts:
        return uniq
    return uniq, np.diff(np.append(first, len(keys)))


def sorted_distinct(values) -> np.ndarray:
    """``np.unique(values)``, flattened and ascending, by one sort and a
    comparison pass; ``np.unique`` would load ``numpy.ma`` on first use."""
    out = np.sort(np.asarray(values), axis=None)
    fresh = np.ones(len(out), dtype=bool)
    np.not_equal(out[1:], out[:-1], out=fresh[1:])
    return out.compress(fresh)


class KeyIndex:
    """Lookup from key to position.

    Keys are pack_keys output, of either form.  Positions refer to the
    original key array order (a group's element numbering, a face table's
    rows), not the sorted order; a repeated key is found at its first
    position.  uint64 keys whose largest is below 8 times their count, as
    a group's in a small key space or a vertex table's are, go into an int32
    table over [0, largest key] (``_table``, -1 where absent, and one -1
    slot past the end that every larger key reads), at most 32 bytes per
    key, and a lookup is one ``take``.  Other keys are binary-searched:
    uint64 keys that already ascend, as those of a sorted face table do,
    are searched as given, with no order; the rest through their
    ``stable_order``.
    """

    def __init__(self, keys: np.ndarray):
        keys = np.asarray(keys)
        self.n = len(keys)
        self._table = self._order = self._sorted = None
        if (keys.dtype.kind == "u" and self.n
                and (top := int(keys.max())) < 8 * self.n):
            pos = np.arange(self.n, dtype=np.int32)
            self._table = np.full(top + 2, -1, dtype=np.int32)
            self._table[keys] = pos
            # with repeated keys any of their positions may have landed
            if (self._table[keys] != pos).any():
                np.minimum.at(self._table, keys, pos)
        elif keys.dtype.kind != "V" and (keys[1:] >= keys[:-1]).all():
            self._sorted = keys
        else:
            self._order = stable_order(keys)
            self._sorted = keys[self._order]

    def lookup(self, keys: np.ndarray) -> np.ndarray:
        """Positions of keys, -1 where absent."""
        keys = np.asarray(keys)
        if self._table is not None:
            end = len(self._table) - 1
            return self._table.take(np.minimum(keys, end)).astype(np.int64)
        if not self.n:
            return np.full(keys.shape, -1, dtype=np.int64)
        pos = np.searchsorted(self._sorted, keys)
        np.minimum(pos, self.n - 1, out=pos)
        out = pos if self._order is None else self._order[pos]
        out[self._sorted[pos] != keys] = -1
        return out
