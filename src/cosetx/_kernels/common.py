"""Key and identity helpers shared by the kernel and the group layer.

Matrices are flat uint32 rows of length m*m holding packed ring indices in
row-major entry order.  The canonical key of a matrix packs those entries
base q with entry 0 least significant; all deterministic orderings in the
package are ascending-key orderings.  The map between a matrix and its key
is a bijection, so a key can stand in for its matrix until the rows are
needed.
"""

from __future__ import annotations

import numpy as np


def fits_uint64(q: int, mm: int) -> bool:
    return q**mm <= 1 << 64


def pack_keys(mats: np.ndarray, q: int) -> np.ndarray:
    """Canonical keys of flat matrices.

    uint64 when q**mm <= 2**64, else an object array of Python ints; both
    sort in the same ascending order.  Horner over the columns, most
    significant entry first, accumulated in place in one key array.
    """
    mats = np.atleast_2d(np.asarray(mats, dtype=np.uint32))
    dtype = np.uint64 if fits_uint64(q, mats.shape[1]) else object
    keys = mats[:, -1].astype(dtype)
    for c in range(mats.shape[1] - 2, -1, -1):
        keys *= q
        keys += mats[:, c]
    return keys


def unpack_keys(keys: np.ndarray, q: int, mm: int) -> np.ndarray:
    """Flat uint32 matrices of canonical keys, inverse of pack_keys."""
    rest = np.array(keys)
    out = np.empty((len(rest), mm), dtype=np.uint32)
    for c in range(mm):
        out[:, c] = rest % q
        rest //= q
    return out


def identity_flat(m: int, one_index: int = 1) -> np.ndarray:
    out = np.zeros(m * m, dtype=np.uint32)
    out[:: m + 1] = one_index
    return out


class KeyIndex:
    """Lookup from canonical key to element position.

    Keys are pack_keys output, uint64 or Python ints.  Positions refer to
    the original key array order (the group's element numbering), not the
    sorted order.
    """

    def __init__(self, keys: np.ndarray):
        keys = np.asarray(keys)
        self._order = np.argsort(keys, kind="stable")
        self._sorted = keys[self._order]
        self.n = len(keys)

    def lookup(self, keys: np.ndarray) -> np.ndarray:
        """Positions of keys, -1 where absent."""
        keys = np.asarray(keys)
        pos = np.searchsorted(self._sorted, keys)
        pos = np.minimum(pos, self.n - 1) if self.n else pos
        out = np.full(keys.shape, -1, dtype=np.int64)
        if self.n:
            hit = self._sorted[pos] == keys
            out[hit] = self._order[pos[hit]]
        return out

    def contains(self, keys: np.ndarray) -> np.ndarray:
        return self.lookup(keys) >= 0
