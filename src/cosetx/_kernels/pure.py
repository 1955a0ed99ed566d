"""The numpy kernel, the package's one backend.

Three operations over the packed rings of ``ring.py``: table-driven
batched matrix products, batched matrix inverses by Gauss-Jordan with a
unit pivot in each column, and the deterministic BFS closure of a
generating set.  Work is vectorized over the batch, so the Python-level
cost is per matrix entry or per generator, not per row.

Nearly every product multiplies a batch by one fixed matrix (a closure
generator, a right-table element, a conjugating element); those read that
matrix's entries and skip its zero and unit terms, and only batch-by-batch
products run the dense m*m*(2m-1) table gathers per row.

The closure works on canonical keys: each generator's products are packed
and tested against the keys visited so far, the new ones are marked at
once, and rows are decoded only for new elements.  Keys are uint64 when
q**(m*m) <= 2**64 and Python ints in object arrays otherwise.  The visited
keys are a bitset over the key space when the keys are uint64 and there
are at most 64*cap of them (at most 8*cap bytes, the size of ``cap``
uint64 keys), and one sorted key array otherwise.
"""

from __future__ import annotations

import numpy as np

from ..errors import ParameterError, ResourceLimitError
from .common import fits_uint64, identity_flat, pack_keys, unpack_keys

NAME = "pure"


def matmul_batch(A: np.ndarray, B: np.ndarray, mul: np.ndarray, add: np.ndarray,
                 m: int) -> np.ndarray:
    """Row-flattened matrix products over a tabled ring.

    A and B are uint32 arrays of shape (k, m*m) or (m*m,); one side may be
    a single matrix, broadcast against the other.  The result is a
    C-contiguous uint32 array of shape (k, m*m).

    When one side is a single matrix, its entries are read once: a column
    of the identity copies the other side's column, a zero entry adds no
    term, a unit entry adds the other side's entry as is, and any other
    entry e costs one 1-D gather from ``mul[e]``.  This
    relies on the packed encoding of ``ring.py`` (zero is index 0, one is
    index 1) and on the ring being commutative, which also lets a single
    matrix on the left run as the transposed product B^T A^T.  Ring
    arithmetic is exact, so the result is bit-identical to the dense path.
    """
    A = np.atleast_2d(np.asarray(A, dtype=np.uint32))
    B = np.atleast_2d(np.asarray(B, dtype=np.uint32))
    k = max(A.shape[0], B.shape[0])
    C = np.empty((k, m, m), dtype=np.uint32)
    if B.shape[0] == 1 and A.shape[0] == k:
        _times_single(A.reshape(k, m, m), B.reshape(m, m), C, mul, add, m)
    elif A.shape[0] == 1 and B.shape[0] == k:
        _times_single(B.reshape(k, m, m).transpose(0, 2, 1), A.reshape(m, m).T,
                      C.transpose(0, 2, 1), mul, add, m)
    else:
        A3 = np.broadcast_to(A.reshape(A.shape[0], m, m), (k, m, m))
        B3 = np.broadcast_to(B.reshape(B.shape[0], m, m), (k, m, m))
        for i in range(m):
            for l in range(m):
                acc = mul[A3[:, i, 0], B3[:, 0, l]]
                for j in range(1, m):
                    acc = add[acc, mul[A3[:, i, j], B3[:, j, l]]]
                C[:, i, l] = acc
    return C.reshape(k, m * m)


def _times_single(X3: np.ndarray, b: np.ndarray, out3: np.ndarray,
                  mul: np.ndarray, add: np.ndarray, m: int) -> None:
    """out3[r] = X3[r] @ b for every r, with b one (m, m) matrix."""
    rows = b.tolist()
    # a column of b that is a column of the identity copies X's column, so
    # those columns come from one copy of X
    cols = [l for l in range(m) if any(rows[j][l] != (j == l) for j in range(m))]
    if len(cols) < m:
        out3[...] = X3
    # add[x, y] as one 1-D take at x*q + y, cheaper than a 2-D gather
    q, add_flat = add.shape[1], add.reshape(-1)
    for l in cols:
        for i in range(m):
            terms = []
            for j in range(m):
                e = rows[j][l]
                if e == 1:
                    terms.append(X3[:, i, j])
                elif e:
                    terms.append(mul[e].take(X3[:, i, j]))
            if not terms:
                out3[:, i, l] = 0
                continue
            acc = terms[0]
            for t in terms[1:]:
                at = acc * q
                at += t
                acc = add_flat.take(at)
            out3[:, i, l] = acc


def inverse_batch(A: np.ndarray, mul: np.ndarray, add: np.ndarray,
                  neg: np.ndarray, m: int, p: int) -> np.ndarray:
    """Inverses of a batch of matrices over the tabled ring F_p[t]/t^s.

    A is a uint32 array of shape (k, m*m) or (m*m,), ``neg`` the negation
    table; the result is a C-contiguous uint32 array of shape (k, m*m).
    Gauss-Jordan on [A | I], one column at a time for the whole batch.
    The ring is local, so a matrix is invertible iff its reduction mod t
    is, and then some row at or below the current one has a unit entry
    (nonzero constant term) in the current column: the first such row is
    swapped up, scaled by its entry's inverse and cleared out of every
    other row.  A unit u has inverse u^(N-1), N = q - q/p the order of the
    unit group, computed by squaring on ``mul``.  A matrix with no unit
    pivot in some column raises ``ParameterError``.
    """
    A = np.atleast_2d(np.asarray(A, dtype=np.uint32))
    k, q = A.shape[0], mul.shape[0]
    W = np.zeros((k, m, 2 * m), dtype=np.uint32)
    W[:, :, :m] = A.reshape(k, m, m)
    W[:, range(m), range(m, 2 * m)] = 1
    batch = np.arange(k)
    for c in range(m):
        unit = W[:, c:, c] % p != 0
        if not unit.any(axis=1).all():
            raise ParameterError("matrix is not invertible (det is a non-unit)")
        r = c + unit.argmax(axis=1)
        pivot_row = W[batch, r]
        W[batch, r] = W[:, c]
        W[:, c] = mul[_unit_inverse(pivot_row[:, c], mul, q - q // p)[:, None],
                      pivot_row]
        for i in range(m):
            if i != c:
                W[:, i] = add[W[:, i], neg[mul[W[:, i, c][:, None], W[:, c]]]]
    return np.ascontiguousarray(W[:, :, m:]).reshape(k, m * m)


def _unit_inverse(u: np.ndarray, mul: np.ndarray, order: int) -> np.ndarray:
    """u^(order-1) for units u, ``order`` the order of the unit group."""
    acc = np.ones_like(u)
    e = order - 1
    while e:
        if e & 1:
            acc = mul[acc, u]
        e >>= 1
        if e:
            u = mul[u, u]
    return acc


class _BitsetKeys:
    """Visited uint64 keys as one bit per key of the key space [0, size).

    Key k is bit k & 7 of byte k >> 3.  Byte indices are below 2**61, so
    their int64 view indexes without the copy a uint64 index would need.
    """

    def __init__(self, size: int):
        self.bits = np.zeros(-(-size // 8), dtype=np.uint8)

    def has(self, keys: np.ndarray) -> np.ndarray:
        hit = self.bits.take((keys >> 3).view(np.int64))
        hit >>= keys.astype(np.uint8) & 7
        hit &= 1
        return hit.view(bool)

    def add(self, keys: np.ndarray) -> None:
        # keys sharing a byte need the unbuffered ufunc.at, not a fancy |=
        np.bitwise_or.at(self.bits, (keys >> 3).view(np.int64),
                         np.left_shift(np.uint8(1), keys.astype(np.uint8) & 7))


class _SortedKeys:
    """Visited keys as one sorted array, uint64 or Python ints."""

    def __init__(self, dtype):
        self.keys = np.empty(0, dtype=dtype)

    def has(self, keys: np.ndarray) -> np.ndarray:
        pos = np.searchsorted(self.keys, keys)
        np.minimum(pos, len(self.keys) - 1, out=pos)
        return self.keys[pos] == keys

    def add(self, keys: np.ndarray) -> None:
        # two sorted runs after the concatenation: the stable sort merges
        # them in one linear pass
        self.keys = np.concatenate([self.keys, np.sort(keys)])
        self.keys.sort(kind="stable")


def _visited_set(q: int, mm: int, cap: int):
    """The empty membership structure for a closure of at most ``cap``
    elements: a bitset when the keys are uint64 and the key space has at
    most 64*cap keys, so that the bitset is no larger than ``cap`` uint64
    keys, and the sorted visited keys otherwise."""
    if not fits_uint64(q, mm):
        return _SortedKeys(object)
    if q**mm <= 64 * cap:
        return _BitsetKeys(q**mm)
    return _SortedKeys(np.uint64)


def closure_bfs(gens: np.ndarray, mul: np.ndarray, add: np.ndarray, m: int,
                q: int, cap: int) -> np.ndarray:
    """Enumerate the subgroup generated by ``gens``.

    Returns flat matrices in the canonical order: BFS layers from the
    identity, ascending canonical key within each layer.  The result does
    not depend on the order or multiplicity of the generators.

    Only keys are tested and sorted.  For each layer and each generator g,
    the keys of ``frontier @ g`` are packed and the ones not visited yet
    are kept and marked visited at once.  x -> x g is injective, so one
    generator's products are distinct, and marking at once makes the
    survivors of different generators disjoint: their concatenation,
    sorted, is the next layer in canonical order.  Its rows are decoded
    from the keys, so no candidate row is gathered or reordered.

    Visited keys live in a bitset over the key space when the keys are
    uint64 and q**(m*m) <= 64*cap: then the bitset takes at most 8*cap
    bytes, the size of ``cap`` uint64 keys, and a membership test is one
    ``take``.  Otherwise (Python-int keys or a larger key space) they live
    in one sorted array, searched with ``searchsorted`` and merged with
    each generator's survivors.  Working memory beyond the result and the
    visited keys is one generator's products (m*m uint32 entries and one
    key per frontier row) plus the keys of the layer's survivors.

    More than ``cap`` elements raise ``ResourceLimitError`` before the
    crossing layer's rows are built.  The check runs after each
    generator's survivors; ``partial_count`` is the number of distinct
    elements found at that point, a lower bound on the order of the group.
    """
    return _closure(gens, mul, add, m, q, cap, _visited_set(q, m * m, cap))


def _closure(gens: np.ndarray, mul: np.ndarray, add: np.ndarray, m: int,
             q: int, cap: int, visited: _BitsetKeys | _SortedKeys
             ) -> np.ndarray:
    """The loop of ``closure_bfs``, with the empty membership structure
    ``visited`` (``_BitsetKeys`` or ``_SortedKeys``) passed in."""
    gens = np.atleast_2d(np.asarray(gens, dtype=np.uint32))
    mm = m * m
    ident = identity_flat(m)[None, :]
    visited.add(pack_keys(ident, q))
    layers = [ident]
    frontier = ident
    total = 1
    while len(frontier):
        fresh = []
        for g in gens:
            keys = pack_keys(matmul_batch(frontier, g, mul, add, m), q)
            keys = keys[~visited.has(keys)]
            visited.add(keys)
            fresh.append(keys)
            total += len(keys)
            if total > cap:
                raise ResourceLimitError(f"closure exceeded cap {cap}",
                                         partial_count=total)
        keys = np.concatenate(fresh)
        keys.sort()
        frontier = unpack_keys(keys, q, mm)
        layers.append(frontier)
    return np.concatenate(layers, axis=0)
