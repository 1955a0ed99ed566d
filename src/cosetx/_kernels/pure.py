"""The numpy kernel, the package's one backend.

Two operations over the packed rings of ``ring.py``: table-driven batched
matrix products and the deterministic BFS closure of a generating set.
Work is vectorized over the batch, so the Python-level cost is per matrix
entry or per generator, not per row.

Nearly every product multiplies a batch by one fixed matrix (a closure
generator, a right-table element, a conjugating element); those read that
matrix's entries and skip its zero and unit terms, and only batch-by-batch
products run the dense m*m*(2m-1) table gathers per row.

The closure works on canonical keys: each generator's products are
packed, sorted and filtered against the sorted keys found so far, and rows
are decoded only for the elements that are new, so its working memory is
about one generator's products at a time.  Keys are uint64 when
q**(m*m) <= 2**64 and Python ints in object arrays otherwise; the same
sorts and searches run on both.
"""

from __future__ import annotations

import numpy as np

from ..errors import ResourceLimitError
from .common import identity_flat, pack_keys, unpack_keys

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


def _first(sorted_keys: np.ndarray) -> np.ndarray:
    """Mask of the first occurrence of each value in a sorted array."""
    first = np.ones(len(sorted_keys), dtype=bool)
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=first[1:])
    return first


def _isin_sorted(sorted_keys: np.ndarray, keys: np.ndarray) -> np.ndarray:
    pos = np.searchsorted(sorted_keys, keys)
    np.minimum(pos, len(sorted_keys) - 1, out=pos)
    return sorted_keys[pos] == keys


def closure_bfs(gens: np.ndarray, mul: np.ndarray, add: np.ndarray, m: int,
                q: int, cap: int) -> np.ndarray:
    """Enumerate the subgroup generated by ``gens``.

    Returns flat matrices in the canonical order: BFS layers from the
    identity, ascending canonical key within each layer.  The result does
    not depend on the order or multiplicity of the generators.

    Only keys are sorted.  For each layer and each generator g, the keys
    of ``frontier @ g`` are packed, sorted, cut to their first occurrences
    and filtered against the sorted keys of every element found so far.
    The survivors of all generators are merged into one sorted, duplicate
    free key array, which is the next layer in canonical order; its rows
    are decoded from the keys, so no candidate row is gathered or
    reordered.  Working memory beyond the result and the visited keys is
    about one generator's products (m*m uint32 entries per frontier row)
    plus the keys of the survivors (8 bytes each when they fit in uint64).

    More than ``cap`` elements raise ``ResourceLimitError`` before the
    crossing layer's rows are built.  The check runs after each
    generator's survivors, against the largest survivor count so far, and
    again on the merged layer; ``partial_count`` is the count at that
    point, a lower bound on the order of the group.
    """
    gens = np.atleast_2d(np.asarray(gens, dtype=np.uint32))
    mm = m * m
    ident = identity_flat(m)[None, :]
    visited = pack_keys(ident, q)
    layers = [ident]
    frontier = ident
    total = 1
    while len(frontier):
        fresh, found = [], 0
        for g in gens:
            keys = pack_keys(matmul_batch(frontier, g, mul, add, m), q)
            keys.sort()
            keys = keys[_first(keys) & ~_isin_sorted(visited, keys)]
            fresh.append(keys)
            # the survivors of one generator are distinct, so the layer has
            # at least as many elements as the largest of them
            found = max(found, len(keys))
            if total + found > cap:
                raise ResourceLimitError(f"closure exceeded cap {cap}",
                                         partial_count=total + found)
        keys = np.concatenate(fresh)
        keys.sort()
        keys = keys[_first(keys)]
        if total + len(keys) > cap:
            raise ResourceLimitError(f"closure exceeded cap {cap}",
                                     partial_count=total + len(keys))
        visited = np.concatenate([visited, keys])
        visited.sort()
        frontier = unpack_keys(keys, q, mm)
        layers.append(frontier)
        total += len(keys)
    return np.concatenate(layers, axis=0)

