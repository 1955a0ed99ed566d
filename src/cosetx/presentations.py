"""Steinberg relation schemas indexed by root pairs.

Every relation is stored fully instantiated: a pair of words over generator
symbols x_rho(r), where rho is a root of A_n and r runs over the polynomials
of degree <= d (represented exactly as TruncPoly with s = d + 1).  A word is
a tuple of (symbol, exponent) with exponent +-1; the empty word is the
identity.  No Steinberg rewriting is ever applied, only free cancellation.

The five relation kinds describe the equation shape:

  zero                x(0) = e
  additive            x(r1) x(r2) = x(r1 + r2)
  commuting           [u, v] = e  (u, v subwords; covers distant pairs and
                      the double-commutator family of the unipotent group)
  steinberg-product   [x_ab(r1), x_bc(r2)] = x_ac(r1 r2), deg(r1 r2) <= d
  steinberg-equality  [x_ab(r1), x_bc(r2)] = [x_ab(r1'), x_bc(r2')]
                      whenever r1 r2 = r1' r2' exactly in F_p[t]

Product degrees and product equality are computed in F_p[t] itself (tuple
convolution), never in a truncated quotient: the schemas live over the
polynomial ring and only their verification happens in finite quotients.

Each builder call makes one GeneratorSymbol per generator, and the
relations of a presentation refer to the very objects in its
``generators``.  Verification on tabled rings evaluates every distinct word
in batches, with the generators' inverses from ``_kernels.inverse_batch``;
past ``RingTable.MAX_Q`` it falls back to exact ``MatElement`` arithmetic.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import _kernels
from ._kernels.common import identity_flat
from .errors import InputError, ParameterError
from .groups import FiniteGroup, MatElement, elementary
from .ring import RingTable, TruncPoly, check_ring_params, enumerate_polys
from .roots import (Root, all_roots, chamber_boundary, chamber_roots,
                    identity_perm, initial_stage, covered_pairs, opposite)

KINDS = ("zero", "additive", "commuting", "steinberg-product",
         "steinberg-equality")


@dataclass(frozen=True)
class GeneratorSymbol:
    """The abstract symbol x_root(r); r must carry its own degree bound.

    Symbols compare by value, so symbols built independently from equal
    (root, r) are equal and hash equal; the hash is computed once, at
    construction.
    """

    root: Root
    r: TruncPoly

    def __post_init__(self):
        i, j = self.root
        if i == j or i < 1 or j < 1:
            raise ParameterError(f"not a root: {self.root}")
        object.__setattr__(self, "_hash", hash((self.root, self.r)))

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return f"x{self.root}({self.r})"


# A word is a tuple of (GeneratorSymbol, +-1).
Word = tuple


@dataclass(frozen=True)
class RelationInstance:
    """One instantiated relation lhs = rhs with its provenance pair."""

    lhs: Word
    rhs: Word
    kind: str
    source_pair: tuple[Root, Root]

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ParameterError(f"unknown relation kind {self.kind!r}")

    def symbols(self):
        for sym, _ in self.lhs:
            yield sym
        for sym, _ in self.rhs:
            yield sym

    def __str__(self) -> str:
        fmt = lambda w: " ".join(
            str(s) if e == 1 else f"{s}^-1" for s, e in w) or "e"
        return f"{fmt(self.lhs)} = {fmt(self.rhs)}"


def exact_product_coeffs(r1: TruncPoly, r2: TruncPoly) -> tuple[int, ...]:
    """Coefficients of r1*r2 in F_p[t] (no truncation), trailing zeros cut."""
    p = r1.p
    out = [0] * (len(r1.coeffs) + len(r2.coeffs) - 1)
    for a, ca in enumerate(r1.coeffs):
        if ca:
            for b, cb in enumerate(r2.coeffs):
                out[a + b] = (out[a + b] + ca * cb) % p
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _exact_deg(coeffs: tuple[int, ...]) -> int:
    # deg 0 = -1 convention is avoided; callers only compare against d
    return len(coeffs) - 1


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


class _SymbolTable:
    """The generator symbols of one builder call, one object per (root, r).

    A root's symbols are made on first use, one per packed index of the
    polynomials of degree <= d, together with the one-letter words
    (sym, 1) and (sym, -1) that every relation of the call shares.  The
    index arithmetic the relation families need is computed once per
    table, not once per root pair.
    """

    def __init__(self, p: int, d: int):
        if d < 0:
            raise ParameterError(f"degree bound must be >= 0, got {d}")
        check_ring_params(p, d + 1)
        self.p, self.d = p, d
        self.polys = enumerate_polys(p, d + 1, d)
        self._letters: dict[Root, tuple[list, list]] = {}

    def letters(self, root: Root) -> tuple[list, list]:
        """(x_root(r), 1) and (x_root(r), -1), indexed by r's packed index."""
        out = self._letters.get(root)
        if out is None:
            syms = [GeneratorSymbol(root, r) for r in self.polys]
            out = self._letters[root] = ([(s, 1) for s in syms],
                                         [(s, -1) for s in syms])
        return out

    def generators(self, roots: Sequence[Root]) -> tuple[GeneratorSymbol, ...]:
        return tuple(sym for rho in roots for sym, _ in self.letters(rho)[0])

    @functools.cached_property
    def sums(self) -> list[list[int]]:
        """sums[i][j] is the packed index of r_i + r_j."""
        return [[(a + b).index() for b in self.polys] for a in self.polys]

    @functools.cached_property
    def products(self):
        """Index pairs (i, j) by the exact product r_i r_j in F_p[t].

        Returns the triples (i, j, k) with deg(r_i r_j) <= d and r_k =
        r_i r_j, in (i, j) order, and the pairs ((i, j), (i', j')) of
        distinct factorizations of one product, one per unordered pair.
        """
        p, d = self.p, self.d
        by_product: dict[tuple[int, ...], list[tuple[int, int]]] = {}
        small = []
        for i, r1 in enumerate(self.polys):
            for j, r2 in enumerate(self.polys):
                prod = exact_product_coeffs(r1, r2)
                by_product.setdefault(prod, []).append((i, j))
                if _exact_deg(prod) <= d:
                    small.append((i, j, TruncPoly.make(p, d + 1, prod).index()))
        # the reflexive and swapped quadruples of the source definition
        # are free
        equal = [pair for pairs in by_product.values()
                 for pair in itertools.combinations(pairs, 2)]
        return small, equal


def pair_relations(pair, p: int, d: int) -> list[RelationInstance]:
    """The {rho1, rho2} relations for a non-opposite pair of roots.

    Equal pair: x(0) = e plus all ordered additive relations.  Disjoint
    pair (no composition possible): all ordered commutation relations.
    Composable pair {(a,b),(b,c)}: Steinberg products gated by
    deg(r1 r2) <= d, plus one equality relation per unordered pair of
    distinct factorizations of the same polynomial.
    """
    return _pair_relations(pair, _SymbolTable(p, d))


def _pair_relations(pair, table: _SymbolTable) -> list[RelationInstance]:
    a, b = _pair_sorted(pair)
    if a == opposite(b):
        raise ParameterError(f"opposite pair {a}, {b} carries no relations")
    src = (a, b)
    A, A_inv = table.letters(a)

    if a == b:
        # x(0) = e; r_0 is the zero polynomial
        out = [RelationInstance((A[0],), (), "zero", src)]
        for i, row in enumerate(table.sums):
            for j, k in enumerate(row):
                out.append(RelationInstance((A[i], A[j]), (A[k],),
                                            "additive", src))
        return out

    if a[1] == b[0]:
        comp = (a, b)
    elif b[1] == a[0]:
        comp = (b, a)
    else:
        comp = None

    # [x, y] = x y x^-1 y^-1
    if comp is None:
        B, B_inv = table.letters(b)
        idx = range(len(table.polys))
        return [RelationInstance((A[i], B[j], A_inv[i], B_inv[j]), (),
                                 "commuting", src)
                for i in idx for j in idx]

    (ab, bc) = comp
    X, X_inv = table.letters(ab)
    Y, Y_inv = table.letters(bc)
    Z = table.letters((ab[0], bc[1]))[0]
    small, equal = table.products
    out = [RelationInstance((X[i], Y[j], X_inv[i], Y_inv[j]), (Z[k],),
                            "steinberg-product", src)
           for i, j, k in small]
    out += [RelationInstance((X[i], Y[j], X_inv[i], Y_inv[j]),
                             (X[k], Y[l], X_inv[k], Y_inv[l]),
                             "steinberg-equality", src)
            for (i, j), (k, l) in equal]
    return out


@dataclass(frozen=True)
class Presentation:
    """A named generating set with instantiated relations over A_n roots."""

    name: str
    n: int
    p: int
    d: int
    generators: tuple[GeneratorSymbol, ...]
    relations: tuple[RelationInstance, ...]

    def __post_init__(self):
        gens = frozenset(self.generators)
        for rel in self.relations:
            for sym in rel.symbols():
                if sym not in gens:
                    raise ParameterError(
                        f"relation symbol {sym} outside the generator set")

    def counts_by_kind(self) -> dict[str, int]:
        out = {k: 0 for k in KINDS}
        for rel in self.relations:
            out[rel.kind] += 1
        return {k: v for k, v in out.items() if v}

    def pair_set(self) -> frozenset[tuple[Root, Root]]:
        return frozenset(rel.source_pair for rel in self.relations)


def _nonopposite_pairs(roots: Sequence[Root]):
    """Unordered pairs (diagonal included) in a stable order."""
    for i, a in enumerate(roots):
        for b in roots[i:]:
            if a != opposite(b):
                yield (a, b)


def presentation_SL(n: int, p: int, d: int) -> Presentation:
    """All root-pair relations of A_n; presents SL_{n+1}(F_p[t]) at d = 3."""
    if n < 3:
        raise ParameterError(f"the SL presentation needs n >= 3, got {n}")
    roots = all_roots(n)
    table = _SymbolTable(p, d)
    rels: list[RelationInstance] = []
    for pair in _nonopposite_pairs(roots):
        rels.extend(_pair_relations(pair, table))
    return Presentation("sl", n, p, d, table.generators(roots), tuple(rels))


def presentation_unipotent(dim: int, p: int, d: int) -> Presentation:
    """The unitriangular group of matrix size dim, on superdiagonal symbols.

    Five relation families: zero, additive, distant commutation,
    double-commutator collapse, and product equality for adjacent symbols.
    Stated for dim >= 4; the source bounds the generator index by dim - 1
    and the double-commutator index by dim - 2.
    """
    if dim < 4:
        raise ParameterError(f"unipotent presentation needs size >= 4, "
                             f"got {dim}")
    table = _SymbolTable(p, d)
    n = dim - 1
    simple = [(i, i + 1) for i in range(1, n + 1)]
    idx = range(len(table.polys))
    rels: list[RelationInstance] = []
    for rho in simple:
        rels.extend(_pair_relations((rho, rho), table))
    # [x, y] = x y x^-1 y^-1
    for i, j in itertools.combinations(range(1, n + 1), 2):
        if i + 1 >= j:
            continue
        src = (simple[i - 1], simple[j - 1])
        A, A_inv = table.letters(simple[i - 1])
        B, B_inv = table.letters(simple[j - 1])
        rels.extend(RelationInstance((A[r1], B[r2], A_inv[r1], B_inv[r2]),
                                     (), "commuting", src)
                    for r1 in idx for r2 in idx)
    _, equal = table.products
    for i in range(1, n):
        lo, hi = simple[i - 1], simple[i]
        src = (lo, hi)
        L, L_inv = table.letters(lo)
        H, H_inv = table.letters(hi)
        for r1 in idx:
            for r2 in idx:
                # [[x_lo(r1), x_hi(r2)], x] for x = x_lo(r3), x_hi(r3)
                inner = (L[r1], H[r2], L_inv[r1], H_inv[r2])
                inner_inv = (H[r2], L[r1], H_inv[r2], L_inv[r1])
                for r3 in idx:
                    rels.append(RelationInstance(
                        inner + (L[r3],) + inner_inv + (L_inv[r3],), (),
                        "commuting", src))
                    rels.append(RelationInstance(
                        inner + (H[r3],) + inner_inv + (H_inv[r3],), (),
                        "commuting", src))
        rels.extend(RelationInstance((L[r1], H[r2], L_inv[r1], H_inv[r2]),
                                     (L[r3], H[r4], L_inv[r3], H_inv[r4]),
                                     "steinberg-equality", src)
                    for (r1, r2), (r3, r4) in equal)
    return Presentation("unipotent", n, p, d, table.generators(simple),
                        tuple(rels))


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
    """Relation lists of the pre-chamber conditions and the chamber group.

    Pre-chamber: shared-index pairs within C_0 plus every boundary pair.
    Chamber: every pair within C_0.  The first is a sublist of the second
    (same pair order), strictly for n >= 3.
    """
    pre_pairs, chamber_pairs = chamber_pair_sets(n)
    table = _SymbolTable(p, d)
    chamber = {pair: _pair_relations(pair, table) for pair in chamber_pairs}
    pre = [rel for pair in pre_pairs for rel in chamber[pair]]
    return pre, [rel for rels in chamber.values() for rel in rels]


def tilde_gamma_presentation(n: int, p: int, d: int) -> Presentation:
    """The partial presentation with only the stage-0-covered pair relations.

    Generators run over all roots of A_n; a pair contributes its relations
    exactly when some chamber C_{gamma_0^i} contains both roots.  Every
    relation therefore lives inside a single K_i generator alphabet.
    """
    if n < 3:
        raise ParameterError(f"tilde presentation needs n >= 3, got {n}")
    covered = covered_pairs(initial_stage(n))
    roots = all_roots(n)
    table = _SymbolTable(p, d)
    rels: list[RelationInstance] = []
    for pair in _nonopposite_pairs(roots):
        if pair in covered:
            rels.extend(_pair_relations(pair, table))
    return Presentation("tilde-gamma", n, p, d, table.generators(roots),
                        tuple(rels))


@dataclass(frozen=True)
class VerificationReport:
    checked: int
    violations: tuple[RelationInstance, ...]
    by_kind: dict

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        status = "ok" if self.ok else f"{len(self.violations)} violated"
        kinds = ", ".join(f"{k}={v}" for k, v in sorted(self.by_kind.items()))
        return f"{self.checked} relations ({kinds}): {status}"


def standard_assignment(pres: Presentation, s: int
                        ) -> dict[GeneratorSymbol, MatElement]:
    """x_rho(r) -> e_rho(r) inside SL_{n+1}(F_p[t]/t^s)."""
    if s < pres.d + 1:
        raise ParameterError(
            f"target ring t^{s} cannot carry degree-{pres.d} coefficients")
    return {sym: elementary(pres.n, *sym.root, sym.r.lift_to(s))
            for sym in pres.generators}


def _resolve(assign, sym):
    try:
        if isinstance(assign, Mapping):
            return assign[sym]
        return assign(sym)
    except KeyError as exc:
        raise InputError(f"no assignment for generator {sym}") from exc


def _verify_in_finite_group(relations, assign, group: FiniteGroup):
    e = group.mult(0, group.inverse(0))
    cache: dict[GeneratorSymbol, int] = {}

    def value(word):
        acc = e
        for sym, exp in word:
            g = cache.get(sym)
            if g is None:
                g = cache[sym] = int(_resolve(assign, sym))
            acc = group.mult(acc, g if exp == 1 else group.inverse(g))
        return acc

    return [rel for rel in relations if value(rel.lhs) != value(rel.rhs)]


class _LetterCodes(dict):
    """Letter (sym, exp) -> signed symbol position, 2k for symbol k and
    2k + 1 for its inverse; a symbol gets the next position when first
    seen, and ``symbols`` lists them in that order."""

    def __init__(self):
        super().__init__()
        self.symbols: dict[GeneratorSymbol, int] = {}

    def __missing__(self, letter) -> int:
        sym, exp = letter
        k = self.symbols.setdefault(sym, len(self.symbols))
        code = self[letter] = 2 * k + (exp != 1)
        return code


def _verify_matrices(relations, assign):
    """Batch-evaluate both sides of every relation on the ring tables.

    One pass over the relations encodes each side as a row of signed
    symbol positions (``_LetterCodes``) and numbers the distinct rows.
    Symbols are resolved once; their matrices and their inverses, from one
    ``_kernels.inverse_batch`` call, fill one table that the codes index.
    The distinct words are grouped by length, whatever their exponents,
    and each group is gathered and multiplied out positionwise through
    ``_kernels.matmul_batch``.  Violations come back in relation order.
    """
    codes = _LetterCodes()
    word_num: dict[tuple[int, ...], int] = {}
    sides = []
    for rel in relations:
        for word in (rel.lhs, rel.rhs):
            row = tuple([codes[letter] for letter in word])
            sides.append(word_num.setdefault(row, len(word_num)))
    if not codes.symbols:
        return []
    values = [_resolve(assign, sym) for sym in codes.symbols]
    first = values[0]
    m, p, s = first.m, first.p, first.s
    for sym, v in zip(codes.symbols, values):
        if (v.m, v.p, v.s) != (m, p, s):
            raise InputError(
                f"assignment for {sym} lives in a different ring/shape")
    ring = RingTable(p, s)
    mats = np.stack([v.flat() for v in values])
    table = np.empty((2 * len(mats), m * m), dtype=np.uint32)
    table[0::2] = mats
    table[1::2] = _kernels.inverse_batch(mats, ring.mul, ring.add, ring.neg,
                                         m, p)

    by_len: dict[int, tuple[list[int], list[tuple[int, ...]]]] = {}
    for row, num in word_num.items():
        nums, rows = by_len.setdefault(len(row), ([], []))
        nums.append(num)
        rows.append(row)
    words = np.empty((len(word_num), m * m), dtype=np.uint32)
    for length, (nums, rows) in by_len.items():
        if not length:
            words[nums] = identity_flat(m)
            continue
        ids = np.array(rows)
        acc = table[ids[:, 0]]
        for j in range(1, length):
            acc = _kernels.matmul_batch(acc, table[ids[:, j]], ring.mul,
                                        ring.add, m)
        words[nums] = acc
    lhs, rhs = np.array(sides).reshape(-1, 2).T
    bad = (words[lhs] != words[rhs]).any(axis=1)
    return [relations[k] for k in np.flatnonzero(bad)]


def _verify_matrices_slow(relations, assign):
    # untabled rings: plain MatElement arithmetic, one relation at a time
    cache: dict[GeneratorSymbol, MatElement] = {}

    def value(word, ident):
        acc = ident
        for sym, exp in word:
            g = cache.get(sym)
            if g is None:
                g = cache[sym] = _resolve(assign, sym)
            acc = acc @ (g if exp == 1 else g.inverse())
        return acc

    bad = []
    for rel in relations:
        probe = next(iter(rel.symbols()), None)
        if probe is None:
            continue
        g = cache.get(probe) or _resolve(assign, probe)
        cache[probe] = g
        ident = MatElement.identity(g.m, g.p, g.s)
        if value(rel.lhs, ident) != value(rel.rhs, ident):
            bad.append(rel)
    return bad


def verify_relations(pres: Presentation | Sequence[RelationInstance],
                     assign, group: FiniteGroup | None = None,
                     ) -> VerificationReport:
    """Evaluate every relation under the assignment; collect violations.

    With no group, assigned values must be MatElement and words are
    evaluated by (batched) matrix arithmetic.  With a FiniteGroup, values
    are element indices and the group's tables do the work.  Every path
    lists violations in relation order.  An empty violation list certifies
    the assignment respects all the relations.
    """
    relations = list(pres.relations if isinstance(pres, Presentation)
                     else pres)
    by_kind: dict[str, int] = {}
    for rel in relations:
        by_kind[rel.kind] = by_kind.get(rel.kind, 0) + 1
    if group is not None:
        bad = _verify_in_finite_group(relations, assign, group)
    elif relations:
        probe = None
        for rel in relations:
            probe = next(iter(rel.symbols()), None)
            if probe is not None:
                break
        if probe is None:
            bad = []
        else:
            v = _resolve(assign, probe)
            q = v.p ** v.s
            if q <= RingTable.MAX_Q:
                bad = _verify_matrices(relations, assign)
            else:
                bad = _verify_matrices_slow(relations, assign)
    else:
        bad = []
    return VerificationReport(len(relations), tuple(bad), by_kind)
