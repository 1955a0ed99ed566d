"""Table-driven matrix kernels over the packed rings of ``ring.py``.

There is one backend, the numpy kernel in ``pure``: batched matrix
products (``matmul_batch``), batched inverses over F_p[t]/t^s by
Gauss-Jordan with unit pivots (``inverse_batch``) and the deterministic
BFS closure of a generating set (``closure_bfs``), which tests canonical
keys against a bitset of the visited keys (uint64 keys, key space at most
64*cap) or their sorted array (otherwise) and decodes only the rows of new
elements.
``BACKEND`` names it for run records.

``pack_keys`` and ``unpack_keys`` map flat matrices to their canonical
keys and back: uint64 keys when they fit, Python ints otherwise.
``KeyIndex`` looks keys up in either form.
"""

from __future__ import annotations

from . import pure
from .common import KeyIndex, fits_uint64, identity_flat, pack_keys, unpack_keys
from .pure import closure_bfs, inverse_batch, matmul_batch

BACKEND: str = pure.NAME

__all__ = [
    "BACKEND",
    "KeyIndex",
    "closure_bfs",
    "fits_uint64",
    "identity_flat",
    "inverse_batch",
    "matmul_batch",
    "pack_keys",
    "pure",
    "unpack_keys",
]
