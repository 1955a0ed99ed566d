"""Numpy kernel: the backend every run uses unless the compiled core is built.

Same contract as the compiled core: table-driven batched matrix products
and deterministic BFS closure.  Work is vectorized over the batch, so the
Python-level cost is per matrix entry, not per row.  Nearly every product
multiplies a batch by one fixed matrix (a closure generator, a right-table
element, a conjugating element), and those read that matrix's entries and
skip its zero and unit terms; only batch-by-batch products run the dense
m*m*(2m-1) table gathers per row.
"""

from __future__ import annotations

import numpy as np

from ..errors import ResourceLimitError
from .common import fits_uint64, identity_flat, key_powers, pack_key_big, pack_keys

NAME = "pure"


def matmul_batch(A: np.ndarray, B: np.ndarray, mul: np.ndarray, add: np.ndarray,
                 m: int) -> np.ndarray:
    """Row-flattened matrix products over a tabled ring.

    A and B are uint32 arrays of shape (k, m*m) or (m*m,); one side may be
    a single matrix, broadcast against the other.  The result is a
    C-contiguous uint32 array of shape (k, m*m).

    When one side is a single matrix, its entries are read once: a zero
    entry adds no term, a unit entry adds the other side's entry as is,
    and any other entry e costs one 1-D gather from ``mul[e]``.  This
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
    for i in range(m):
        for l in range(m):
            terms = []
            for j in range(m):
                e = rows[j][l]
                if e == 1:
                    terms.append(X3[:, i, j])
                elif e:
                    terms.append(mul[e][X3[:, i, j]])
            if not terms:
                out3[:, i, l] = 0
                continue
            acc = terms[0]
            for t in terms[1:]:
                acc = add[acc, t]
            out3[:, i, l] = acc


def _merge_sorted(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.concatenate([a, b])
    out.sort()
    return out


def _isin_sorted(sorted_keys: np.ndarray, keys: np.ndarray) -> np.ndarray:
    if len(sorted_keys) == 0:
        return np.zeros(len(keys), dtype=bool)
    pos = np.searchsorted(sorted_keys, keys)
    pos = np.minimum(pos, len(sorted_keys) - 1)
    return sorted_keys[pos] == keys


def closure_bfs(gens: np.ndarray, mul: np.ndarray, add: np.ndarray, m: int,
                q: int, cap: int) -> np.ndarray:
    """Enumerate the subgroup generated by ``gens``.

    Returns flat matrices in the canonical order: BFS layers from the
    identity, ascending canonical key within each layer.  The result does
    not depend on the order or multiplicity of the generators.
    """
    gens = np.atleast_2d(np.asarray(gens, dtype=np.uint32))
    mm = m * m
    if not fits_uint64(q, mm):
        return _closure_bfs_big(gens, mul, add, m, q, cap)
    pows = key_powers(q, mm)

    def keys_of(mats):
        return (mats.astype(np.uint64) * pows[None, :]).sum(axis=1, dtype=np.uint64)

    ident = identity_flat(m)[None, :]
    visited = keys_of(ident)
    layers = [ident]
    frontier = ident
    total = 1
    while len(frontier):
        cands = np.concatenate(
            [matmul_batch(frontier, g, mul, add, m) for g in gens], axis=0
        )
        keys = keys_of(cands)
        order = np.argsort(keys, kind="stable")
        keys, cands = keys[order], cands[order]
        first = np.ones(len(keys), dtype=bool)
        first[1:] = keys[1:] != keys[:-1]
        keys, cands = keys[first], cands[first]
        new = ~_isin_sorted(visited, keys)
        keys, cands = keys[new], cands[new]
        if total + len(keys) > cap:
            raise ResourceLimitError(
                f"closure exceeded cap {cap}", partial_count=total + len(keys)
            )
        if len(keys):
            visited = _merge_sorted(visited, keys)
            layers.append(cands)
            total += len(keys)
        frontier = cands if len(keys) else cands[:0]
    return np.concatenate(layers, axis=0)


def _closure_bfs_big(gens, mul, add, m, q, cap):
    # arbitrary-precision keys; only exercised when q**(m*m) > 2**64
    seen = {pack_key_big(identity_flat(m), q)}
    layers = [identity_flat(m)[None, :]]
    frontier = layers[0]
    total = 1
    while len(frontier):
        cands = np.concatenate(
            [matmul_batch(frontier, g, mul, add, m) for g in gens], axis=0
        )
        fresh = {}
        for row in cands:
            k = pack_key_big(row, q)
            if k not in seen:
                seen.add(k)
                fresh[k] = row
        if total + len(fresh) > cap:
            raise ResourceLimitError(
                f"closure exceeded cap {cap}", partial_count=total + len(fresh)
            )
        if not fresh:
            break
        layer = np.array([fresh[k] for k in sorted(fresh)], dtype=np.uint32)
        layers.append(layer)
        frontier = layer
        total += len(layer)
    return np.concatenate(layers, axis=0)
