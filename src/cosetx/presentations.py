"""Steinberg relation schemas indexed by root pairs.

Every relation is stored fully instantiated: a pair of words over generator
symbols x_rho(r), where rho is a root of A_n and r runs over the polynomials
of degree <= d, numbered by their packed ring index.  A word is
a sequence of letters x^(+-1); the empty word is the identity.  No
Steinberg rewriting is ever applied, only free cancellation.

The five relation kinds describe the equation shape:

  zero                x(0) = e
  additive            x(r1) x(r2) = x(r1 + r2)
  commuting           [u, v] = e  (u, v subwords; covers distant pairs and
                      the double-commutator family of the unipotent group)
  steinberg-product   [x_ab(r1), x_bc(r2)] = x_ac(r1 r2), deg(r1 r2) <= d
  steinberg-equality  [x_ab(r1), x_bc(r2)] = [x_ab(r1'), x_bc(r2')]
                      whenever r1 r2 = r1' r2' exactly in F_p[t]

Product degrees and product equality are computed exactly, in
F_p[t]/t^(2d+1), which truncates no product of two coefficients of degree
<= d: the schemas live over the polynomial ring and only their
verification happens in finite quotients.

Every builder returns a ``RelationTable``, the one form a relation takes.
A builder call numbers its generator symbols root by root, x_rho(r_i) =
symbol slot(rho) + i with r_i the polynomial of packed index i, and the
table keeps each symbol's root and ring index (``roots``, ``index``)
beside p and d.  Each word is a row of letter codes, 2k for symbol k and
2k + 1 for its inverse, padded with -1; each relation row also carries a
kind id (its position in ``KINDS``) and a source-pair id.  A root pair's
rows are read directly off the index tables ``_SymbolTable.sums`` and
``_SymbolTable.products``.  Text is made only when asked for:
``RelationTable.letters`` decodes a row's words and ``RelationTable.text``
prints them, as ``relations emit`` and reported violations need.

Verification assigns to each symbol a matrix over an explicit ring
F_p[t]/t^s, one flat row of packed ring indices per symbol
(``standard_assignment``).  One evaluator works on the word table: the
distinct words, found by their ``lex_keys``, are grouped by length and
multiplied out positionwise, on the matrices of the generators and their
inverses from one batched inverse, on the ring tables where building them
pays and on the digits of the ring indices elsewhere
(``_kernels.matmul_digits``, ``_kernels.inverse_digits``), by a rule on
q = p^s and the work (``_verify_matrices``).  Violations are row ids.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import _kernels
from ._kernels.common import (identity_flat, key_runs, lex_keys, pack_keys,
                              unpack_keys)
from .errors import InputError, ParameterError
from .groups import elementary
from .ring import RingTable, TruncPoly, check_ring_params
from .roots import (Root, all_roots, chamber_boundary, chamber_roots,
                    identity_perm, initial_coverage, opposite, root_index)

KINDS = ("zero", "additive", "commuting", "steinberg-product",
         "steinberg-equality")
ZERO, ADDITIVE, COMMUTING, PRODUCT, EQUALITY = range(len(KINDS))


def _pair_sorted(pair) -> tuple[Root, Root]:
    roots = list(pair)
    if len(roots) == 1:  # frozenset of an equal pair collapses
        roots = roots * 2
    if len(roots) != 2:
        raise InputError(f"expected a pair of roots, got {pair!r}")
    for r in roots:
        if (not isinstance(r, tuple) or len(r) != 2 or r[0] == r[1]
                or min(r) < 1):
            raise ParameterError(f"not a root: {r!r}")
    a, b = sorted(roots)
    return a, b


class RelationTable:
    """Relations as an integer word table over numbered generator symbols.

    Symbol k is x_rho(r): rho is the root ``roots[k]``, an int64 row
    (i, j), and r the polynomial of degree <= d over F_p whose packed ring
    index is ``index[k]``.  ``n`` is the largest root index minus one, so
    the symbols' elementary matrices lie in SL_{n+1}.  ``words`` is an
    int32 array of shape (relations, 2, width): the lhs and rhs of each
    relation as rows of letter codes, 2k for symbol k and 2k + 1 for its
    inverse, padded with -1.  ``kind`` holds each relation's position in
    ``KINDS``, and ``pair`` its source pair's position in ``pairs``, the
    distinct source pairs in order of first appearance.  ``letters`` and
    ``text`` decode one row.
    """

    def __init__(self, p: int, d: int, roots: np.ndarray, index: np.ndarray,
                 words: np.ndarray, kind: np.ndarray, pair: np.ndarray,
                 pairs):
        self.p, self.d = p, d
        self.roots, self.index = roots, index
        self.n = int(roots.max()) - 1
        self.words, self.kind, self.pair = words, kind, pair
        self.pairs = tuple(pairs)

    def __len__(self) -> int:
        return len(self.kind)

    def counts_by_kind(self) -> dict[str, int]:
        counts = np.bincount(self.kind, minlength=len(KINDS)).tolist()
        return {k: v for k, v in zip(KINDS, counts) if v}

    def pair_set(self) -> frozenset[tuple[Root, Root]]:
        # every pair in ``pairs`` is some relation's source pair
        return frozenset(self.pairs)

    @functools.cached_property
    def _symbols(self) -> list[tuple[Root, TruncPoly]]:
        return [(tuple(root), TruncPoly.from_index(self.p, self.d + 1, r))
                for root, r in zip(self.roots.tolist(), self.index.tolist())]

    def letters(self, i: int) -> tuple[list, list]:
        """The lhs and rhs of relation ``i`` as letters (root, r, +-1)."""
        return tuple([(*self._symbols[c >> 1], -1 if c & 1 else 1)
                      for c in side if c >= 0]
                     for side in self.words[i].tolist())

    def text(self, i: int) -> str:
        """Relation ``i`` as ``lhs = rhs``, letters x(i, j)(r) and
        x(i, j)(r)^-1, the empty word e."""
        fmt = lambda word: " ".join(
            f"x{root}({r})" + ("" if e == 1 else "^-1")
            for root, r, e in word) or "e"
        return " = ".join(map(fmt, self.letters(i)))


class _SymbolTable:
    """The generator symbols of one builder call, P = p^(d+1) per root.

    A root gets its slot when first used, the given ``roots`` first: its
    symbols x_root(r_i), i the packed index of r_i, are symbols slot ..
    slot + P - 1.  The index arithmetic the relation families need is
    computed once per table, not once per root pair.
    """

    def __init__(self, p: int, d: int, roots: Sequence[Root]):
        if d < 0:
            raise ParameterError(f"degree bound must be >= 0, got {d}")
        check_ring_params(p, d + 1)
        self.p, self.d, self.P = p, d, p ** (d + 1)
        self._slots: dict[Root, int] = {}
        for rho in roots:
            self.slot(rho)

    def slot(self, root: Root) -> int:
        """The id of x_root(0); x_root(r_i) is that plus i."""
        return self._slots.setdefault(root, self.P * len(self._slots))

    @functools.cached_property
    def grid(self) -> tuple[np.ndarray, np.ndarray]:
        """All index pairs (i, j), i major."""
        P = self.P
        return np.repeat(np.arange(P), P), np.tile(np.arange(P), P)

    @functools.cached_property
    def sums(self) -> np.ndarray:
        """sums[i, j] is the packed index of r_i + r_j, digitwise mod p."""
        P, w = self.P, self.d + 1
        digits = unpack_keys(np.arange(P), self.p, w)
        total = (digits[:, None] + digits[None, :]) % self.p
        return pack_keys(total.reshape(-1, w), self.p).astype(
            np.int64).reshape(P, P)

    @functools.cached_property
    def products(self) -> tuple[np.ndarray, np.ndarray]:
        """Index pairs (i, j) by the exact product r_i r_j in F_p[t].

        Returns the rows (i, j, k) with deg(r_i r_j) <= d and r_k =
        r_i r_j, in (i, j) order, and the rows (i, j, i', j') of distinct
        factorizations of one product, one per unordered pair.
        """
        I, J = self.grid
        # F_p[t]/t^(2d+1) holds a product of two degrees <= d exactly, as
        # a 1x1 matrix product; it has degree <= d iff its ring index is
        # below p^(d+1), and then that index is its k
        prod = _kernels.matmul_digits(I, J, self.p, 2 * self.d + 1, 1)[:, 0]
        by_product: dict[int, list[tuple[int, int]]] = {}
        for i, j, k in zip(I.tolist(), J.tolist(), prod.tolist()):
            by_product.setdefault(k, []).append((i, j))
        # the reflexive and swapped quadruples of the source definition
        # are free
        equal = [a + b for pairs in by_product.values()
                 for a, b in itertools.combinations(pairs, 2)]
        return (np.stack([I, J, prod], axis=1)[prod < self.P],
                np.array(equal, dtype=np.int64).reshape(-1, 4))


def _comm(X: int, i: np.ndarray, Y: int, j: np.ndarray) -> np.ndarray:
    """Code rows of [x_X(r_i), x_Y(r_j)] = x y x^-1 y^-1, X and Y slots."""
    x, y = 2 * (X + i), 2 * (Y + j)
    return np.stack([x, y, x + 1, y + 1], axis=1)


def _words(lhs: np.ndarray, rhs: np.ndarray | None = None,
           width: int = 0) -> np.ndarray:
    """Word rows (N, 2, width) of lhs and rhs code rows, no rhs meaning e,
    padded to the longest side or ``width``, whichever is more."""
    width = max(width, lhs.shape[1], 0 if rhs is None else rhs.shape[1])
    out = np.full((len(lhs), 2, width), -1, dtype=np.int32)
    out[:, 0, :lhs.shape[1]] = lhs
    if rhs is not None:
        out[:, 1, :rhs.shape[1]] = rhs
    return out


def _kinds(*runs) -> np.ndarray:
    """Kind ids of (kind, count) runs in order."""
    kinds, counts = zip(*runs)
    return np.repeat(np.array(kinds, dtype=np.int8), counts)


# One root pair's relations: (source pair, words, kind ids).
Block = tuple


def _pair_block(pair, table: _SymbolTable) -> Block:
    """The {rho1, rho2} relations for a non-opposite pair of roots.

    Equal pair: x(0) = e plus all ordered additive relations.  Disjoint
    pair (no composition possible): all ordered commutation relations.
    Composable pair {(a,b),(b,c)}: Steinberg products gated by
    deg(r1 r2) <= d, plus one equality relation per unordered pair of
    distinct factorizations of the same polynomial.
    """
    a, b = _pair_sorted(pair)
    if a == opposite(b):
        raise ParameterError(f"opposite pair {a}, {b} carries no relations")
    src = (a, b)
    A = table.slot(a)
    I, J = table.grid

    if a == b:
        # x(0) = e, r_0 being the zero polynomial, then x(r_i) x(r_j) =
        # x(r_i + r_j)
        words = _words(np.stack([2 * (A + I), 2 * (A + J)], axis=1),
                       2 * (A + table.sums.reshape(-1, 1)))
        zero = _words(np.array([[2 * A, -1]]))
        return src, np.concatenate([zero, words]), _kinds((ZERO, 1),
                                                          (ADDITIVE, len(I)))

    if a[1] == b[0]:
        comp = (a, b)
    elif b[1] == a[0]:
        comp = (b, a)
    else:
        return (src, _words(_comm(A, I, table.slot(b), J)),
                _kinds((COMMUTING, len(I))))

    (ab, bc) = comp
    X, Y = table.slot(ab), table.slot(bc)
    Z = table.slot((ab[0], bc[1]))
    small, equal = table.products
    words = np.concatenate([
        _words(_comm(X, small[:, 0], Y, small[:, 1]),
               2 * (Z + small[:, 2:])),
        _words(_comm(X, equal[:, 0], Y, equal[:, 1]),
               _comm(X, equal[:, 2], Y, equal[:, 3]))])
    return src, words, _kinds((PRODUCT, len(small)), (EQUALITY, len(equal)))


def _table(table: _SymbolTable, blocks: Sequence[Block]) -> RelationTable:
    """One RelationTable of ``blocks`` in order, source pairs numbered in
    order of first appearance."""
    width = max(words.shape[2] for _, words, _ in blocks)
    words = np.full((sum(len(k) for _, _, k in blocks), 2, width), -1,
                    dtype=np.int32)
    pairs: dict[tuple[Root, Root], int] = {}
    pair = np.empty(len(words), dtype=np.int32)
    lo = 0
    for src, w, k in blocks:
        words[lo:lo + len(k), :, :w.shape[2]] = w
        pair[lo:lo + len(k)] = pairs.setdefault(src, len(pairs))
        lo += len(k)
    kind = np.concatenate([k for _, _, k in blocks])
    roots = np.array(list(table._slots), dtype=np.int64)
    return RelationTable(table.p, table.d, np.repeat(roots, table.P, axis=0),
                         np.tile(np.arange(table.P), len(roots)), words, kind,
                         pair, pairs)


def _nonopposite_pairs(roots: Sequence[Root]):
    """Unordered pairs (diagonal included) in a stable order."""
    for i, a in enumerate(roots):
        for b in roots[i:]:
            if a != opposite(b):
                yield (a, b)


def presentation_SL(n: int, p: int, d: int) -> RelationTable:
    """All root-pair relations of A_n; presents SL_{n+1}(F_p[t]) at d = 3."""
    if n < 3:
        raise ParameterError(f"the SL presentation needs n >= 3, got {n}")
    roots = all_roots(n)
    table = _SymbolTable(p, d, roots)
    blocks = [_pair_block(pair, table) for pair in _nonopposite_pairs(roots)]
    return _table(table, blocks)


def presentation_unipotent(dim: int, p: int, d: int) -> RelationTable:
    """The unitriangular group of matrix size dim, on superdiagonal symbols.

    Five relation families: zero, additive, distant commutation,
    double-commutator collapse, and product equality for adjacent symbols.
    Stated for dim >= 4; the source bounds the generator index by dim - 1
    and the double-commutator index by dim - 2.  The table's n is dim - 1.
    """
    if dim < 4:
        raise ParameterError(f"unipotent presentation needs size >= 4, "
                             f"got {dim}")
    n = dim - 1
    simple = [(i, i + 1) for i in range(1, n + 1)]
    table = _SymbolTable(p, d, simple)
    blocks = [_pair_block((rho, rho), table) for rho in simple]
    # distant simple roots commute
    blocks += [_pair_block((simple[i - 1], simple[j - 1]), table)
               for i, j in itertools.combinations(range(1, n + 1), 2)
               if i + 1 < j]
    P = table.P
    # r1, r2, r3 major to minor, then x = x_lo(r3) before x = x_hi(r3)
    r1, r2, r3 = (np.repeat(np.tile(np.arange(P), P**k), 2 * P**(2 - k))
                  for k in range(3))
    _, equal = table.products
    for lo, hi in zip(simple, simple[1:]):
        L, H = table.slot(lo), table.slot(hi)
        # [[x_lo(r1), x_hi(r2)], x] = e for x = x_lo(r3), x_hi(r3)
        x = 2 * (np.tile([L, H], P**3) + r3)[:, None]
        double = np.hstack([_comm(L, r1, H, r2), x, _comm(H, r2, L, r1), x + 1])
        words = np.concatenate([
            _words(double),
            _words(_comm(L, equal[:, 0], H, equal[:, 1]),
                   _comm(L, equal[:, 2], H, equal[:, 3]), width=10)])
        blocks.append(((lo, hi), words, _kinds((COMMUTING, len(double)),
                                                (EQUALITY, len(equal)))))
    return _table(table, blocks)


def chamber_pair_sets(n: int):
    """(pre_chamber, chamber) pair sets inside C_0, diagonal included."""
    if n < 2:
        raise ParameterError(f"chamber groups need n >= 2, got {n}")
    c0 = sorted(chamber_roots(identity_perm(n)))
    boundary = chamber_boundary(identity_perm(n))
    chamber = list(_nonopposite_pairs(c0))
    pre = [(a, b) for (a, b) in chamber
           if a[0] == b[0] or a[1] == b[1]
           or (a in boundary and b in boundary)]
    return pre, chamber


def chamber_relation_sets(n: int, p: int, d: int):
    """Relation tables of the pre-chamber conditions and the chamber group.

    Pre-chamber: shared-index pairs within C_0 plus every boundary pair.
    Chamber: every pair within C_0.  The first is a sublist of the second
    (same pair order), strictly for n >= 3.  Both tables number the
    symbols of the roots of C_0, in sorted root order.
    """
    pre_pairs, chamber_pairs = chamber_pair_sets(n)
    table = _SymbolTable(p, d, sorted(chamber_roots(identity_perm(n))))
    chamber = {pair: _pair_block(pair, table) for pair in chamber_pairs}
    return (_table(table, [chamber[pair] for pair in pre_pairs]),
            _table(table, list(chamber.values())))


def tilde_gamma_presentation(n: int, p: int, d: int) -> RelationTable:
    """The partial presentation with only the stage-0-covered pair relations.

    Generators run over all roots of A_n; a pair contributes its relations
    exactly when some chamber C_{gamma_0^i} contains both roots.  Every
    relation therefore lives inside a single K_i generator alphabet.
    """
    if n < 3:
        raise ParameterError(f"tilde presentation needs n >= 3, got {n}")
    covered = initial_coverage(n)
    roots = all_roots(n)
    table = _SymbolTable(p, d, roots)
    blocks = [_pair_block(pair, table) for pair in _nonopposite_pairs(roots)
              if covered[root_index(pair[0], n), root_index(pair[1], n)]]
    return _table(table, blocks)


@dataclass(frozen=True)
class VerificationReport:
    """What ``verify_relations`` found: ``checked`` relations, of which
    ``by_kind`` counts each kind, and ``violations``, the ascending row
    ids of the violated ones; ``RelationTable.text`` prints a row."""

    checked: int
    violations: tuple[int, ...]
    by_kind: dict

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        status = "ok" if self.ok else f"{len(self.violations)} violated"
        kinds = ", ".join(f"{k}={v}" for k, v in sorted(self.by_kind.items()))
        return f"{self.checked} relations ({kinds}): {status}"


def standard_assignment(table: RelationTable, s: int) -> np.ndarray:
    """x_rho(r) -> e_rho(r) inside SL_{n+1}(F_p[t]/t^s), n = ``table.n``:
    one flat uint32 row of ring indices per symbol, in symbol order."""
    if s <= table.d:
        raise ParameterError(f"target ring t^{s} cannot carry degree-"
                             f"{table.d} coefficients")
    # the ring index of r is the same in every F_p[t]/t^s' that holds it
    return elementary(table.n, table.roots[:, 0], table.roots[:, 1],
                      table.index)


def _verify_matrices(table: RelationTable, mats: np.ndarray,
                     s: int) -> np.ndarray:
    """Rows of ``table`` whose sides differ over F_p[t]/t^s.

    ``mats`` are the flat matrices of the symbols.  They and their
    inverses, from one batched inverse, fill one table of letters, in
    code order.  Both sides of every relation are stacked, and the
    distinct words are the ``key_runs`` of their ``lex_keys`` (the
    letters plus one are the digits, the padding digit 0).  They are
    grouped by length, whatever their exponents, and each group is
    gathered and multiplied out positionwise.  Violations come back in
    row order.

    The products and the inverse run on the ring tables (``matmul_batch``,
    ``inverse_batch``) where building them pays, else on digits
    (``matmul_digits``, ``inverse_digits``).  A build costs about 6 ns
    times q^2 s, q = p^s, and digits cost more per entry product, of which
    the words need W = (matrix products) * m^3: tables iff q <=
    ``RingTable.MAX_Q`` and q^2 s <= 3 W (``_tables_pay``).  Tables against
    digits, best of 3, at q^2 s / W: 4.7 against 16.9 ms at 0.03 (the
    suite's SL(3, 3, 1), s = 4); 16 against 30 ms at 2.2, 19-21 against
    17-27 ms at 3.2, 4.6 against 4.1 ms at 3.3; 1403 against 7.3 ms at
    1075 (SL(3, 2, 1), s = 12).
    """
    p, m = table.p, math.isqrt(mats.shape[1])
    n = len(table)
    words = table.words.reshape(2 * n, -1)
    order, _, first = key_runs(lex_keys(words + 1, 2 * len(mats) + 1))
    num = np.empty(len(order), dtype=np.intp)
    num[order] = np.repeat(np.arange(len(first)),
                           np.diff(np.append(first, len(order))))
    distinct = words[order[first]]
    lengths = (distinct >= 0).sum(axis=1)

    if _tables_pay(p**s, s, int(np.maximum(lengths - 1, 0).sum()) * m**3):
        ring = RingTable(p, s)
        mul = lambda A, B: _kernels.matmul_batch(A, B, ring.mul, ring.add, m)
        inverse = lambda A: _kernels.inverse_batch(A, ring.mul, ring.add,
                                                   ring.neg, m, p)
    else:
        mul = lambda A, B: _kernels.matmul_digits(A, B, p, s, m)
        inverse = lambda A: _kernels.inverse_digits(A, p, s, m)
    letters = np.empty((2 * len(mats), m * m), dtype=np.uint32)
    letters[0::2] = mats
    letters[1::2] = inverse(mats)

    value = np.empty((len(distinct), m * m), dtype=np.uint32)
    for length in sorted(set(lengths.tolist())):
        sel = np.flatnonzero(lengths == length)
        if not length:
            value[sel] = identity_flat(m)
            continue
        ids = distinct[sel, :length]
        acc = letters[ids[:, 0]]
        for j in range(1, length):
            acc = mul(acc, letters[ids[:, j]])
        value[sel] = acc
    lhs, rhs = num.reshape(n, 2).T
    return np.flatnonzero((value[lhs] != value[rhs]).any(axis=1))


def _tables_pay(q: int, s: int, work: int) -> bool:
    return q <= RingTable.MAX_Q and q * q * s <= 3 * work


def _assigned_rows(mats, count: int, p: int, s: int) -> np.ndarray:
    """``mats`` as one uint32 array, if it holds one row of m*m ring
    indices of F_p[t]/t^s for each of ``count`` symbols."""
    if p**s > 1 << 32:
        raise ParameterError(f"p^s = {p**s} > 2^32: a ring index does not "
                             f"fit a uint32 row")
    mats = np.asarray(mats)
    m = math.isqrt(mats.shape[-1]) if mats.ndim == 2 else 0
    if mats.ndim != 2 or len(mats) != count or not m or m * m != mats.shape[1]:
        raise InputError(f"assignment of shape {mats.shape}: need one row of "
                         f"m*m ring indices for each of {count} symbols")
    if mats.dtype.kind not in "iu":
        raise InputError(f"assignment of dtype {mats.dtype}: need integer "
                         f"ring indices")
    if mats.min() < 0 or mats.max() >= p**s:
        raise InputError(f"assignment entries outside the ring indices of "
                         f"F_{p}[t]/t^{s}")
    return mats.astype(np.uint32)


def verify_relations(table: RelationTable, mats, s: int) -> VerificationReport:
    """Evaluate every relation of ``table`` under an assignment.

    ``mats`` holds one matrix over F_p[t]/t^s per symbol of ``table``, p
    = ``table.p``, as the flat row of its m*m ring indices, m the same for
    all (``standard_assignment`` makes them).  Another row count, a width
    that is not a square, an entry outside [0, p^s) or a non-integer dtype
    raises InputError, and p^s > 2^32 ParameterError.  Every distinct word
    is evaluated once, in batches (``_verify_matrices``).  ``checked``
    counts the relations, ``by_kind`` them by kind, and ``violations``
    holds the ids of the violated rows, ascending.  No violation
    certifies that the assignment respects all the relations.
    """
    check_ring_params(table.p, s)
    mats = _assigned_rows(mats, len(table.roots), table.p, s)
    bad = _verify_matrices(table, mats, s).tolist() if len(table) else []
    return VerificationReport(len(table), tuple(bad), table.counts_by_kind())
