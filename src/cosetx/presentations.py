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
"""

from __future__ import annotations

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
    """The abstract symbol x_root(r); r must carry its own degree bound."""

    root: Root
    r: TruncPoly

    def __post_init__(self):
        i, j = self.root
        if i == j or i < 1 or j < 1:
            raise ParameterError(f"not a root: {self.root}")

    def __str__(self) -> str:
        return f"x{self.root}({self.r})"


# A word is a tuple of (GeneratorSymbol, +-1).
Word = tuple


def inverse_word(word: Word) -> Word:
    return tuple((sym, -e) for sym, e in reversed(word))


def commutator_word(u: Word, v: Word) -> Word:
    """[u, v] = u v u^-1 v^-1 as a plain word."""
    return u + v + inverse_word(u) + inverse_word(v)


def _sym(root: Root, r: TruncPoly) -> Word:
    return ((GeneratorSymbol(root, r), 1),)


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


def pair_relations(pair, p: int, d: int) -> list[RelationInstance]:
    """The {rho1, rho2} relations for a non-opposite pair of roots.

    Equal pair: x(0) = e plus all ordered additive relations.  Disjoint
    pair (no composition possible): all ordered commutation relations.
    Composable pair {(a,b),(b,c)}: Steinberg products gated by
    deg(r1 r2) <= d, plus one equality relation per unordered pair of
    distinct factorizations of the same polynomial.
    """
    if d < 0:
        raise ParameterError(f"degree bound must be >= 0, got {d}")
    check_ring_params(p, d + 1)
    a, b = _pair_sorted(pair)
    if a == opposite(b):
        raise ParameterError(f"opposite pair {a}, {b} carries no relations")
    polys = enumerate_polys(p, d + 1, d)
    out: list[RelationInstance] = []
    src = (a, b)

    if a == b:
        zero = TruncPoly.zero(p, d + 1)
        out.append(RelationInstance(_sym(a, zero), (), "zero", src))
        for r1 in polys:
            for r2 in polys:
                out.append(RelationInstance(
                    _sym(a, r1) + _sym(a, r2), _sym(a, r1 + r2),
                    "additive", src))
        return out

    if a[1] == b[0]:
        comp = (a, b)
    elif b[1] == a[0]:
        comp = (b, a)
    else:
        comp = None

    if comp is None:
        for r1 in polys:
            for r2 in polys:
                out.append(RelationInstance(
                    commutator_word(_sym(a, r1), _sym(b, r2)), (),
                    "commuting", src))
        return out

    (ab, bc) = comp
    ac = (ab[0], bc[1])
    by_product: dict[tuple[int, ...], list[tuple[TruncPoly, TruncPoly]]] = {}
    for r1 in polys:
        for r2 in polys:
            prod = exact_product_coeffs(r1, r2)
            by_product.setdefault(prod, []).append((r1, r2))
            if _exact_deg(prod) <= d:
                out.append(RelationInstance(
                    commutator_word(_sym(ab, r1), _sym(bc, r2)),
                    _sym(ac, TruncPoly.make(p, d + 1, prod)),
                    "steinberg-product", src))
    # one equality per unordered pair of distinct factorizations; the
    # reflexive and swapped quadruples of the source definition are free
    for pairs in by_product.values():
        for (r1, r2), (r3, r4) in itertools.combinations(pairs, 2):
            out.append(RelationInstance(
                commutator_word(_sym(ab, r1), _sym(bc, r2)),
                commutator_word(_sym(ab, r3), _sym(bc, r4)),
                "steinberg-equality", src))
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


def _gens_for_roots(roots: Sequence[Root], p: int, d: int):
    polys = enumerate_polys(p, d + 1, d)
    return tuple(GeneratorSymbol(rho, r) for rho in roots for r in polys)


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
    rels: list[RelationInstance] = []
    for pair in _nonopposite_pairs(roots):
        rels.extend(pair_relations(pair, p, d))
    return Presentation("sl", n, p, d, _gens_for_roots(roots, p, d),
                        tuple(rels))


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
    check_ring_params(p, d + 1)
    n = dim - 1
    simple = [(i, i + 1) for i in range(1, n + 1)]
    polys = enumerate_polys(p, d + 1, d)
    zero = TruncPoly.zero(p, d + 1)
    rels: list[RelationInstance] = []
    for rho in simple:
        rels.append(RelationInstance(_sym(rho, zero), (), "zero", (rho, rho)))
        for r1 in polys:
            for r2 in polys:
                rels.append(RelationInstance(
                    _sym(rho, r1) + _sym(rho, r2), _sym(rho, r1 + r2),
                    "additive", (rho, rho)))
    for i, j in itertools.combinations(range(1, n + 1), 2):
        if i + 1 >= j:
            continue
        src = (simple[i - 1], simple[j - 1])
        for r1 in polys:
            for r2 in polys:
                rels.append(RelationInstance(
                    commutator_word(_sym(simple[i - 1], r1),
                                    _sym(simple[j - 1], r2)),
                    (), "commuting", src))
    for i in range(1, n):
        lo, hi = simple[i - 1], simple[i]
        src = (lo, hi)
        for r1 in polys:
            for r2 in polys:
                inner = commutator_word(_sym(lo, r1), _sym(hi, r2))
                for r3 in polys:
                    rels.append(RelationInstance(
                        commutator_word(inner, _sym(lo, r3)), (),
                        "commuting", src))
                    rels.append(RelationInstance(
                        commutator_word(inner, _sym(hi, r3)), (),
                        "commuting", src))
        by_product: dict[tuple, list] = {}
        for r1 in polys:
            for r2 in polys:
                by_product.setdefault(
                    exact_product_coeffs(r1, r2), []).append((r1, r2))
        for pairs in by_product.values():
            for (r1, r2), (r3, r4) in itertools.combinations(pairs, 2):
                rels.append(RelationInstance(
                    commutator_word(_sym(lo, r1), _sym(hi, r2)),
                    commutator_word(_sym(lo, r3), _sym(hi, r4)),
                    "steinberg-equality", src))
    return Presentation("unipotent", n, p, d,
                        _gens_for_roots(simple, p, d), tuple(rels))


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
    pre = [rel for pair in pre_pairs
           for rel in pair_relations(pair, p, d)]
    chamber = [rel for pair in chamber_pairs
               for rel in pair_relations(pair, p, d)]
    return pre, chamber


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
    rels: list[RelationInstance] = []
    for pair in _nonopposite_pairs(roots):
        if pair in covered:
            rels.extend(pair_relations(pair, p, d))
    return Presentation("tilde-gamma", n, p, d,
                        _gens_for_roots(roots, p, d), tuple(rels))


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


def _verify_matrices(relations, assign):
    """Batch-evaluate words grouped by exponent signature.

    Symbols are resolved once, inverted once (adjugate over the exact
    ring), then all words of one shape are multiplied out positionwise
    through the table kernels.
    """
    sym_list: list[GeneratorSymbol] = []
    sym_pos: dict[GeneratorSymbol, int] = {}
    for rel in relations:
        for sym in rel.symbols():
            if sym not in sym_pos:
                sym_pos[sym] = len(sym_list)
                sym_list.append(sym)
    if not sym_list:
        return []
    values = [_resolve(assign, sym) for sym in sym_list]
    first = values[0]
    m, p, s = first.m, first.p, first.s
    for sym, v in zip(sym_list, values):
        if (v.m, v.p, v.s) != (m, p, s):
            raise InputError(
                f"assignment for {sym} lives in a different ring/shape")
    ring = RingTable(p, s)
    rows = np.stack([v.flat() for v in values])
    inv_rows = np.stack([v.inverse().flat() for v in values])
    ident = identity_flat(m)

    def shape_of(word):
        return tuple(exp for _, exp in word)

    groups: dict[tuple, list[int]] = {}
    for k, rel in enumerate(relations):
        groups.setdefault((shape_of(rel.lhs), shape_of(rel.rhs)),
                          []).append(k)

    def eval_side(words, shape):
        if not shape:
            return np.broadcast_to(ident, (len(words), m * m))
        ids = np.array([[sym_pos[sym] for sym, _ in w] for w in words])
        acc = (rows if shape[0] == 1 else inv_rows)[ids[:, 0]]
        for pos in range(1, len(shape)):
            nxt = (rows if shape[pos] == 1 else inv_rows)[ids[:, pos]]
            acc = _kernels.matmul_batch(acc, nxt, ring.mul, ring.add, m)
        return acc

    bad: list[RelationInstance] = []
    for (lsh, rsh), idxs in groups.items():
        lhs = eval_side([relations[k].lhs for k in idxs], lsh)
        rhs = eval_side([relations[k].rhs for k in idxs], rsh)
        for k, viol in zip(idxs, (lhs != rhs).any(axis=1)):
            if viol:
                bad.append(relations[k])
    return bad


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
    are element indices and the group's tables do the work.  An empty
    violation list certifies the assignment respects all the relations.
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
