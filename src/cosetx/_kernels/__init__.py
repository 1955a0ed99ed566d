"""Table-driven matrix kernels over the packed rings of ``ring.py``.

There is one backend, the numpy kernel in ``pure``: batched matrix
products (``matmul_batch``), batched inverses over F_p[t]/t^s by
Gauss-Jordan with unit pivots (``inverse_batch``) and the deterministic
BFS closure of a generating set (``closure_bfs``).  The closure keeps
each layer as canonical keys and maps them through each generator row by
row: a key is sum over a of rho_a * Q**a with rho_a the key of row a and
Q = q**m, and the row map R_g of a generator g (rho to the row key of
(row rho) @ g) is the product of the frontier's decoded rows with g
until the frontiers so far hold Q/m elements, and from then on one
Q-entry table, if the keys are uint64 and Q * len(gens) <= cap.  New
keys are tested against a bitset of the visited keys (uint64 keys, key
space at most 64*cap) or their sorted array (otherwise), and rows are
decoded only at the end, layer by layer.
``BACKEND`` names the backend for run records.

``pack_keys`` and ``unpack_keys`` are the package's one row-key codec:
uint64 keys when they fit, fixed-width void keys otherwise (``common``).
``KeyIndex`` looks keys of either form up.
"""

from __future__ import annotations

from . import pure
from .common import KeyIndex, identity_flat, pack_keys, unpack_keys
from .pure import closure_bfs, inverse_batch, matmul_batch

BACKEND: str = pure.NAME

__all__ = [
    "BACKEND",
    "KeyIndex",
    "closure_bfs",
    "identity_flat",
    "inverse_batch",
    "matmul_batch",
    "pack_keys",
    "pure",
    "unpack_keys",
]
