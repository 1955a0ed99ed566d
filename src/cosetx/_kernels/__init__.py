"""Matrix kernels over the packed rings of ``ring.py``: the package's one
ring arithmetic, a ring element being a 1x1 matrix.

There is one backend, the numpy kernel in ``pure``: batched matrix
products (``matmul_batch``), batched inverses over F_p[t]/t^s by
Gauss-Jordan with unit pivots (``inverse_batch``) and the deterministic
BFS closure of a generating set (``closure_bfs``), all on the ring
tables.  Rings too large for q*q tables, or work too small to pay for
them, multiply on the digits of their ring indices (``matmul_digits``)
and invert by Newton steps from the inverse mod t (``inverse_digits``),
packed rows in and out.  The closure
keeps each layer as canonical keys and maps them through each generator
row by row.  When the key space has at most min(64*cap, 2**32) keys, the keys
are uint32, the visited ones a bitset, and each layer is expanded in
blocks of ``pure.BLOCK`` keys, marked in at most 8 rounds of a buffered
``|=``; otherwise the keys are uint64 or void and the visited ones a
sorted array.  A large closure on the bitset path expands one key per
orbit of its generating set's monomial and t -> alpha*t symmetries.  Rows
are decoded only at the end.
``RowMaps``, from ``pure``, is that one map of keys x to the keys of
x @ g, also behind the right tables of ``groups``; it states when it
turns from products to row tables.

``pack_keys`` and ``unpack_keys`` are the package's one row-key codec:
uint64 keys when they fit, fixed-width void keys otherwise (``common``).
``KeyIndex`` looks keys of either form up, through a direct-address
table when the keys are dense and by binary search otherwise;
``common.stable_order`` is the stable argsort of integer keys by one
packed sort.
"""

from __future__ import annotations

from . import pure
from .common import KeyIndex, identity_flat, pack_keys, unpack_keys
from .pure import (RowMaps, closure_bfs, inverse_batch, inverse_digits,
                   matmul_batch, matmul_digits)

__all__ = [
    "KeyIndex",
    "RowMaps",
    "closure_bfs",
    "identity_flat",
    "inverse_batch",
    "inverse_digits",
    "matmul_batch",
    "matmul_digits",
    "pack_keys",
    "pure",
    "unpack_keys",
]
