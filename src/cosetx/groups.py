"""Finite groups: matrices over F_p[t]/<t^s> and multiplication-table groups.

A matrix is a flat uint32 row of its packed ring indices (``ring.py``),
and a ``MatrixGroup`` is an array of such rows over a ``RingTable``.
Matrix groups are enumerated by deterministic BFS closure (layer order,
ascending canonical key within a layer), and that numbering is the contract
everything downstream relies on: coset labels, complex vertex ids, dump
files.  ``TableGroup`` is the one dense-table type: the small test groups
(Sym(k), quotients G/N) and the coefficient groups of the cochain calculus
(Z/m, Sym(k), tables read from a file) are all TableGroups.

A partition of G into left cosets is a ``CosetPartition``, made from
smallest indices, the labels of ``cosets()`` (``component_labels``, the
package's one connectivity routine), or from any class key per element
in [0, |G|): the codes of ``ko_coset_codes``, or a K_0 partition read
through a conjugation.

The KO subgroups K_i are the exception to BFS enumeration: K_0 is a box of
entry coordinates, listed in closed form (``subgroup_K``), K_i is its
gamma_0^i rotation, and K_0 n K_j is again a box (``ko_intersection_bounds``).
So each left coset g(K_0 n K_j) has a normal form, whose code
(``ko_coset_codes``) is reduced from K_0's entry columns (``k0_entries``)
by 1-D ``take``s on the flat q*q ring tables, with no element table,
closure, key lookup or ``cosets()``.

The elements that index maps (r[a] = a*g) reach from the identity form
its component (``component_labels``): the subgroup they generate, whose
left cosets are the other components.  So one labelling answers
``subgroup_closure_indices``, ``cosets()``, ``quotient``'s generation check
and the generating set of a table's associativity check.  N is normal
when each generator's conjugation, R_{g^-1}[L_g], carries N into N.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
from typing import Iterable, Sequence

import numpy as np

from ._kernels import (KeyIndex, RowMaps, closure_bfs, identity_flat,
                       inverse_batch, matmul_batch, pack_keys)
from ._kernels.common import sorted_distinct
from .errors import (DEFAULT_CAP, ParameterError, ResourceLimitError,
                     StructureError)
from .ring import RingTable, check_ring_params
from .roots import gamma0, perm_pow, perm_rank, perm_table


# ---------------------------------------------------------------------------
# elementary matrices


def elementary(n: int, i, j, r) -> np.ndarray:
    """Flat uint32 rows of e_{i,j}(r), the identity of size n+1 plus the
    ring index r at (1-based) position (i, j): one row per entry of i, j
    and r, integers or integer arrays broadcast against each other."""
    m = n + 1
    i, j, r = np.broadcast_arrays(*(np.atleast_1d(np.asarray(x, np.int64))
                                    for x in (i, j, r)))
    if ((i < 1) | (i > m) | (j < 1) | (j > m) | (i == j)).any():
        raise ParameterError(f"e_ij needs 1 <= i != j <= {m}")
    rows = np.tile(identity_flat(m), (len(r), 1))
    rows[np.arange(len(r)), (i - 1) * m + j - 1] = r
    return rows


# ---------------------------------------------------------------------------
# group interfaces


class FiniteGroup:
    """Common interface: elements are indices 0..size-1, identity included."""

    size: int
    identity: int
    generators: list[int]

    def mult(self, a: int, b: int) -> int:
        raise NotImplementedError

    def inverse(self, a: int) -> int:
        raise NotImplementedError

    def right_mult_table(self, b: int) -> np.ndarray:
        """Array r with r[a] = mult(a, b) for all a."""
        raise NotImplementedError

    def left_mult_table(self, a: int) -> np.ndarray:
        """Array l with l[b] = mult(a, b) for all b."""
        raise NotImplementedError

    def element_order(self, a: int) -> int:
        k, cur = 1, a
        while cur != self.identity:
            cur = self.mult(cur, a)
            k += 1
            if k > self.size:
                raise StructureError("element order exceeds group size; table corrupt")
        return k


class TableGroup(FiniteGroup):
    """Group given by an explicit multiplication table.

    ``table`` and ``inv`` are dense index arrays, which is what the cochain
    calculus reads when the group serves as a coefficient group; ``name``
    identifies it in reports (``zmod:5``, ``sym:3``, ``table:FILE``).  An
    element is its index: nothing reads an element by a printed form.
    """

    def __init__(self, table: np.ndarray,
                 generators: Sequence[int] | None = None, validate: bool = True,
                 name: str | None = None):
        table = np.asarray(table, dtype=np.int64)
        n = table.shape[0]
        if table.shape != (n, n):
            raise StructureError("multiplication table must be square")
        self.table = table
        self.size = n
        self.name = name if name is not None else f"table:{n}"
        idx = np.arange(n)
        ident = np.flatnonzero((table == idx).all(axis=1)
                               & (table == idx[:, None]).all(axis=0))
        if len(ident) == 0:
            raise StructureError("table has no two-sided identity")
        self.identity = ident = int(ident[0])
        hits = table == ident
        self.inv = hits.argmax(axis=1)
        bad = (hits.sum(axis=1) != 1) | (table[self.inv, idx] != ident)
        if bad.any():
            raise StructureError(f"element {np.argmax(bad)} lacks a unique "
                                 f"two-sided inverse")
        if validate:
            if ((table < 0) | (table >= n)).any():
                raise StructureError(f"table entries must lie in [0, {n})")
            _check_associative(table, ident)
        self.generators = list(generators) if generators is not None else \
            [i for i in range(n) if i != ident]

    def mult(self, a: int, b: int) -> int:
        return int(self.table[a, b])

    def inverse(self, a: int) -> int:
        return int(self.inv[a])

    def right_mult_table(self, b: int) -> np.ndarray:
        return self.table[:, b].copy()

    def left_mult_table(self, a: int) -> np.ndarray:
        return self.table[a, :].copy()


def _check_associative(table: np.ndarray, ident: int) -> None:
    """Light's test: the g with (x*g)*y = x*(g*y) for all x, y are closed
    under products, so checking a generating set suffices.  Each pick is
    the least element outside the identity's component of the columns
    x -> x*g picked so far, which must be permutations, as in a group; so
    the component is the picks' closure under products, and in a group each
    pick at least doubles it, so needing more than log2(n) picks proves
    the table, which has an identity and inverses, not associative.
    """
    n = len(table)
    idx = np.arange(n)
    reached = idx == ident
    gens: list[int] = []
    while not reached.all():
        if 2 << len(gens) > n:
            raise StructureError("multiplication table is not associative")
        gens.append(int(np.argmin(reached)))
        if (np.bincount(table[:, gens[-1]], minlength=n) != 1).any():
            raise StructureError("multiplication table is not associative")
        labels = component_labels(n, [(idx, table[:, g]) for g in gens])
        reached = labels == labels[ident]
    # [x, y]: (x*g)*y on the left, x*(g*y) on the right, a block of rows x
    # at a time and in int32, half the bytes to gather
    t = table.astype(np.int32)
    for g, lo in itertools.product(gens, range(0, n, 256)):
        rows = slice(lo, lo + 256)
        if not np.array_equal(t[t[rows, g]], t[rows].take(t[g], axis=1)):
            raise StructureError("multiplication table is not associative")


def symmetric_group(k: int) -> TableGroup:
    """Sym(k) on {0..k-1}; element i is the permutation ``perm_table(k)[i]``,
    in itertools.permutations order."""
    if not (1 <= k <= 7):
        raise ParameterError(f"symmetric_group supports 1 <= k <= 7, got {k}")
    perms = perm_table(k)
    table = np.empty((len(perms), len(perms)), dtype=np.int64)
    for lo in range(0, len(perms), 32):
        # row a: the ranks of pa o pb = pa[pb] for every b, 32 rows at a time
        table[lo:lo + 32] = perm_rank(np.take(perms[lo:lo + 32], perms,
                                              axis=1))
    # the transposition (0 1) and the cycle i -> i+1
    gens = [] if k < 2 else perm_rank(
        [[1, 0, *range(2, k)], [*range(1, k), 0]]).tolist()
    return TableGroup(table, generators=gens, validate=False, name=f"sym:{k}")


class MatrixGroup(FiniteGroup):
    """Enumerated matrix group over a tabled ring.

    ``elems`` is the canonical element array (flat packed rows); index 0 is
    the identity for BFS closures and for the closed-form K_i alike.  The
    key index behind the lookups (``_index``, a ``KeyIndex``) is built on
    first use, so a group that is only read by its entries never indexes
    its keys.  A group that fills more than an eighth of its key space, as
    sl_group(2,2,2) fills 43,008 of 4**9 keys, is indexed by a
    direct-address table; a sparser one by binary search.  A right table
    maps the keys through the kernel's row maps (``right_mult_table``),
    which table the row products for a large enough group: 22 row
    products, ceil(4^3/3), serve the 43,008 elements of sl_group(2,2,2).
    """

    def __init__(self, ring: RingTable, m: int, elems: np.ndarray,
                 generators: Sequence[int] | None = None):
        self.ring = ring
        self.m = m
        self.elems = np.ascontiguousarray(elems, dtype=np.uint32)
        self.size = len(self.elems)
        ident = identity_flat(m)
        # closures list the identity first
        hits = ([0] if np.array_equal(self.elems[:1], ident[None, :]) else
                np.flatnonzero((self.elems == ident).all(axis=1)))
        if len(hits) == 0:
            raise StructureError("element set does not contain the identity")
        self.identity = int(hits[0])
        self.generators = list(generators) if generators is not None else []

    @functools.cached_property
    def keys(self) -> np.ndarray:
        return pack_keys(self.elems, self.ring.q)

    @functools.cached_property
    def _index(self) -> KeyIndex:
        return KeyIndex(self.keys)

    # -- lookups -----------------------------------------------------------

    def lookup_rows(self, rows: np.ndarray) -> np.ndarray:
        return self._index.lookup(pack_keys(rows, self.ring.q))

    # -- group ops ----------------------------------------------------------

    def mult(self, a: int, b: int) -> int:
        prod = matmul_batch(self.elems[a], self.elems[b],
                            self.ring.mul, self.ring.add, self.m)
        idx = self.lookup_rows(prod)[0]
        if idx < 0:
            raise StructureError("product escaped the element set; not a group")
        return int(idx)

    def inverse(self, a: int) -> int:
        ring = self.ring
        inv = inverse_batch(self.elems[a], ring.mul, ring.add, ring.neg,
                            self.m, ring.p)
        idx = int(self.lookup_rows(inv)[0])
        if idx < 0:
            raise StructureError("inverse escaped the element set; not a group")
        return idx

    def right_mult_table(self, b: int) -> np.ndarray:
        """Array r with r[a] = mult(a, b) for all a.

        The keys map through the kernel's row maps for b (``RowMaps``),
        which table the row products once for a large enough group and
        multiply every element by b otherwise; the kernel states the rule.
        Measured on a 2-core host, four right tables, dense -> tabled, in
        ms: the tables win where the lookups are direct-address and the
        group is large, sl_group(2, 2, 2) (|G| = 43,008, ceil(Q/m) = 22)
        3.0 -> 1.3, sl_group(3, 2, 1) 2.2 -> 0.9; where the lookups are
        binary searches they dominate and the two tie, sl_group(1, 5, 2)
        2.8 -> 2.6, sl_group(1, 7, 2) 21.0 -> 21.5; below about a
        thousand elements both take under 0.2 ms, the tables about 0.02
        ms more, sl_group(2, 2, 1) 0.095 -> 0.117.
        """
        ring = self.ring
        # a budget of the elements' own size, which every group past the
        # switch to tables meets
        maps = RowMaps(self.elems[b:b + 1], ring.mul, ring.add, self.m, ring.q,
                       self.elems.size)
        out = self._index.lookup(next(maps.images(self.keys, self.elems)))
        if (out < 0).any():
            raise StructureError("right-multiplication escaped the element set")
        return out

    def left_mult_table(self, a: int) -> np.ndarray:
        prods = matmul_batch(self.elems[a], self.elems,
                             self.ring.mul, self.ring.add, self.m)
        out = self.lookup_rows(prods)
        if (out < 0).any():
            raise StructureError("left-multiplication escaped the element set")
        return out


def elementary_subgroup(n: int, p: int, s: int, d: int,
                        cap: int = DEFAULT_CAP) -> MatrixGroup:
    """<e_{i,j}(c t^k) : i != j, k <= d> inside SL_{n+1}(F_p[t]/t^s)."""
    check_ring_params(p, s)
    if n < 1:
        raise ParameterError(f"need n >= 1, got {n}")
    if not (0 <= d < s):
        raise ParameterError(f"need 0 <= d < s, got d={d}, s={s}")
    if d == s - 1 and (order := sl_order(n + 1, p, s)) > cap:
        # the elementaries generate all of SL, whose order is known up front
        raise ResourceLimitError(
            f"|SL_{n + 1}(F_{p}[t]/t^{s})| = {order} exceeds cap {cap}",
            partial_count=0)
    ring = RingTable(p, s)
    gens = elementary(n, *_elementary_terms(n, p, range(d + 1)))
    elems = closure_bfs(gens, ring.mul, ring.add, n + 1, ring.q, cap)
    # BFS layer 1 is the generators, distinct and none the identity, at 1..k
    return MatrixGroup(ring, n + 1, elems,
                       generators=list(range(1, len(gens) + 1)))


def _elementary_terms(n: int, p: int, degrees: Iterable[int]) -> np.ndarray:
    """Rows (i, j, r) of each e_{i,j}(c t^k): i != j, k in degrees,
    0 < c < p, and r = c p^k the ring index of c t^k; one column each."""
    return np.array([(i, j, c * p**k) for i in range(1, n + 2)
                     for j in range(1, n + 2) if i != j
                     for k in degrees for c in range(1, p)],
                    dtype=np.int64).reshape(-1, 3).T


def sl_group(n: int, p: int, s: int, cap: int = DEFAULT_CAP
             ) -> MatrixGroup:
    """All of SL_{n+1}(F_p[t]/t^s), generated by every elementary e_{i,j}(c t^k).

    Over this local ring the elementary subgroup is the whole special linear
    group, so BFS closure of the elementaries enumerates it.
    """
    return elementary_subgroup(n, p, s, s - 1, cap=cap)


def sl_order(m: int, p: int, s: int) -> int:
    """|SL_m(F_p[t]/t^s)| in closed form.

    |SL_m(F_q)| = q^(m(m-1)/2) * prod_{k=2..m} (q^k - 1), and each extra
    truncation level multiplies by p^(m^2-1) (kernel of one reduction step).
    """
    base = p ** (m * (m - 1) // 2)
    for k in range(2, m + 1):
        base *= p**k - 1
    return base * p ** ((s - 1) * (m * m - 1))


# ---------------------------------------------------------------------------
# closures, cosets, quotients


_EDGE_BLOCK = 1 << 13


def component_labels(V: int, pairs: Iterable[tuple[np.ndarray, np.ndarray]]
                     ) -> np.ndarray:
    """The least vertex of each vertex's component, in the graph on
    [0, V) with an edge u[k] - v[k] for every pair (u, v) of index arrays
    in ``pairs``.

    Hook and jump: a label is a vertex of its component at or below its
    own.  Each round drops the edges whose ends share a label, hooks the
    larger label of each other edge to the smaller (``np.minimum.at``)
    and jumps pointers until every label is a root; when no edge joins
    two labels, every label is its component's least vertex.  The first
    round hooks the ends themselves, which are views of the pairs: the
    pairs are never concatenated, and the edges go in blocks, so that the
    allocator reuses every temporary without page faults.
    """
    label, spare = np.arange(V), np.empty(V, dtype=np.intp)
    live = [(u[lo:lo + _EDGE_BLOCK], v[lo:lo + _EDGE_BLOCK])
            for u, v in pairs for lo in range(0, len(u), _EDGE_BLOCK)]
    first = True
    while live:
        edges, live = live, []
        for u, v in edges:
            a, b = u, v
            if not first:
                a, b = label.take(u), label.take(v)
                # a gather by positions beats a boolean mask at any density
                cross = np.flatnonzero(a != b)
                if not len(cross):
                    continue
                u, v, a, b = (x.take(cross) for x in (u, v, a, b))
            np.minimum.at(label, np.maximum(a, b), np.minimum(a, b))
            live.append((u, v))
        first = False
        while True:
            # every label is in range, so the take need not buffer
            np.take(label, label, out=spare, mode="clip")
            if np.array_equal(spare, label):
                break
            label, spare = spare, label
    return label


def _ranks(n: int, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct keys in [0, n), ascending, and each key's rank, in the
    narrowest unsigned dtypes that hold an index and a rank."""
    keys = keys.astype(np.intp, copy=False)  # an index twice: cast once
    seen = np.zeros(n, dtype=bool)
    seen[keys] = True
    distinct = np.flatnonzero(seen).astype(np.min_scalar_type(n - 1))
    # written at the distinct keys only: the other pages stay untouched
    rank = np.empty(n, dtype=np.min_scalar_type(len(distinct) - 1))
    rank[distinct] = np.arange(len(distinct))
    return distinct, rank.take(keys)


@dataclasses.dataclass
class CosetPartition:
    """Left cosets gK of a subgroup, labeled deterministically.

    ``labels[a]`` is the smallest element index in aK; ``ordinal[a]`` numbers
    the cosets 0..n_cosets-1 by ascending representative index.  Each is
    in the narrowest unsigned dtype that holds its values (``reps``, too).
    """

    group: FiniteGroup
    labels: np.ndarray
    reps: np.ndarray
    ordinal: np.ndarray

    @classmethod
    def from_keys(cls, group: FiniteGroup, keys: np.ndarray) -> "CosetPartition":
        """The partition of G whose classes share a key in [0, |G|).

        O(|G|) with no sort over G: the classes are ranked by key, each
        one's smallest index is found in an array sized by the classes,
        and only those indices are sorted, to number the classes.
        """
        n = group.size
        distinct, klass = _ranks(n, keys)
        # every class holds an index, so n - 1 bounds its smallest one
        first = np.full(len(distinct), n - 1, dtype=distinct.dtype)
        np.minimum.at(first, klass, np.arange(n, dtype=first.dtype))
        order = np.argsort(first)
        rank = np.argsort(order).astype(np.min_scalar_type(len(first) - 1))
        # take gathers about twice as fast as [] on these narrow indices
        return cls(group, first.take(klass), first[order], rank.take(klass))

    @classmethod
    def from_labels(cls, group: FiniteGroup, labels: np.ndarray) -> "CosetPartition":
        """The partition whose class of a has smallest index labels[a]."""
        reps, ordinal = _ranks(group.size, labels)
        return cls(group, labels.astype(reps.dtype, copy=False), reps, ordinal)

    @property
    def n_cosets(self) -> int:
        return len(self.reps)


def cosets(G: FiniteGroup, sub_indices: Sequence[int],
           sub_generators: Sequence[int] | None = None) -> CosetPartition:
    """Partition of G into left cosets g*K.

    The left cosets are the orbits of K acting on G by right
    multiplication, that is the components of the graph with the edges
    a - r[a] of the right tables r of a generating set of K
    (``component_labels``), labelled by their smallest index, so the
    labels do not depend on the generators chosen.  The tables of
    ``sub_generators`` (indices into G) are built first and labelled
    once; while the identity's component, the subgroup they generate, is
    smaller than K, the least element of K outside it adds its table and
    the graph is labelled again, at least doubling the component.  An
    element of that component outside ``sub_indices`` proves K is not a
    subgroup, and a component of |K| elements proves it is.
    """
    sub = sorted_distinct(np.asarray(sub_indices, dtype=np.int64))
    if len(sub) == 0 or (sub < 0).any() or (sub >= G.size).any():
        raise StructureError("subgroup indices out of range")
    if G.size % len(sub) != 0:
        raise StructureError(
            f"|K|={len(sub)} does not divide |G|={G.size}; not a subgroup")
    in_sub = np.zeros(G.size, dtype=bool)
    in_sub[sub] = True
    seeds = [] if sub_generators is None else [int(g) for g in sub_generators]
    if not all(0 <= g < G.size and in_sub[g] for g in seeds):
        raise StructureError("subgroup generators must lie in the subgroup")
    if not in_sub[G.identity]:
        raise StructureError("claimed subgroup does not contain the identity")
    idx = np.arange(G.size)
    edges = [(idx, G.right_mult_table(g))
             for g in dict.fromkeys(seeds) if g != G.identity]
    while True:
        labels = component_labels(G.size, edges)
        reached = labels == labels[G.identity]
        if (reached & ~in_sub).any():
            raise StructureError(
                "claimed subgroup is not closed under multiplication")
        if np.count_nonzero(reached) == len(sub):
            return CosetPartition.from_labels(G, labels)
        g = int(sub[np.argmin(reached[sub])])
        edges.append((idx, G.right_mult_table(g)))


def subgroup_closure_indices(G: FiniteGroup, seed: Iterable[int]) -> np.ndarray:
    """Indices of <seed> inside G, ascending: the identity's component
    under the seeds' right tables (in a finite group the products of the
    seeds are already closed under inverses)."""
    seed = sorted_distinct(np.fromiter(seed, dtype=np.int64))
    if ((seed < 0) | (seed >= G.size)).any():
        raise StructureError("seed indices out of range")
    idx = np.arange(G.size)
    labels = component_labels(
        G.size, [(idx, G.right_mult_table(int(g))) for g in seed])
    return np.flatnonzero(labels == labels[G.identity])


def quotient(G: FiniteGroup, normal_indices: Sequence[int]
             ) -> tuple[TableGroup, np.ndarray]:
    """Quotient G/N as a TableGroup plus the projection index array.

    ``cosets()`` verifies that N is a subgroup, and N is normal when
    conjugation by each generator g of G, the index map R_{g^-1}[L_g],
    carries N into N; the left tables L_g must connect G, one component.
    """
    N = sorted_distinct(np.asarray(normal_indices, dtype=np.int64))
    part = cosets(G, N)
    in_n = part.labels == part.labels[G.identity]
    lefts = [G.left_mult_table(g) for g in G.generators]
    idx = np.arange(G.size)
    # one component: every element is labelled 0, the least index
    if component_labels(G.size, [(idx, left) for left in lefts]).any():
        raise StructureError("the generators of G do not generate it")
    for g, left in zip(G.generators, lefts):
        if not in_n[G.right_mult_table(G.inverse(g))[left][N]].all():
            raise StructureError("subgroup is not normal under the generators")
    reps = part.reps
    k = len(reps)
    table = np.empty((k, k), dtype=np.int64)
    for b in range(k):
        col = G.right_mult_table(int(reps[b]))
        table[:, b] = part.ordinal[col[reps]]
    proj = part.ordinal.copy()
    gen_images = sorted_distinct(proj[G.generators]).tolist()
    Q = TableGroup(table, generators=gen_images, validate=False)
    return Q, proj


# ---------------------------------------------------------------------------
# the KO subgroups in closed form


def k0_degree_bounds(n: int, s: int, d: int) -> np.ndarray:
    """D with D[a, b] = min(s-1, (b-a)d) for a < b and -1 elsewhere.

    Entry (a, b) of an element of K_0 is any polynomial of degree <= D[a, b];
    -1 marks the fixed entries, 1 on the diagonal and 0 below it.
    """
    a, b = np.indices((n + 1, n + 1))
    return np.where(a < b, np.minimum(s - 1, (b - a) * d), -1)


def k0_order(n: int, p: int, s: int, d: int) -> int:
    """|K_0| = p^(sum of D_ab + 1 over a < b), known before enumerating."""
    return p ** int((k0_degree_bounds(n, s, d) + 1).sum())


def ko_intersection_bounds(n: int, s: int, d: int, j: int) -> np.ndarray:
    """Degree bounds of K_0 n K_j in the layout of ``k0_degree_bounds``.

    x lies in K_j = g K_0 g^-1, g = gamma_0^j, when g^-1 x g lies in K_0,
    and that conjugate holds x's entry (a, b) at (h(a), h(b)), h = gamma_0^-j.
    So entry (a, b) is bounded by D_ab and by D_h(a)h(b): it is forced to
    zero unless h(a) < h(b), and then bounded by min(D_ab, (h(b)-h(a))d).
    """
    D = k0_degree_bounds(n, s, d)
    h = np.array(perm_pow(gamma0(n), -j)) - 1
    return np.minimum(D, D[h[:, None], h[None, :]])


def _place_values(D: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Radix p^(D+1) of each flat entry and its place value in the mixed
    radix, row-major with the first entry most significant; a fixed entry
    has radix 1 and place value 0."""
    radix = (p ** (D + 1)).ravel()
    place = np.append(np.cumprod(radix[::-1])[-2::-1], 1)
    return radix, np.where(radix > 1, place, 0)


def k0_entries(n: int, p: int, s: int, d: int) -> np.ndarray:
    """``subgroup_K(n, p, s, d, 0).elems.T`` at the free entries a < b, in
    uint32 with no element table: entry k of element x is its mixed-radix
    digit k, so each row is filled by broadcast."""
    radix, place = _place_values(k0_degree_bounds(n, s, d), p)
    free = np.flatnonzero(radix > 1)
    rows = np.empty((len(free), k0_order(n, p, s, d)), dtype=np.uint32)
    for row, k in zip(rows, free):  # each digit held for place[k] elements
        row.reshape(-1, radix[k], place[k])[:] = np.arange(radix[k])[:, None]
    return rows


class _ClosedFormGroup(MatrixGroup):
    """A K_i of ``subgroup_K``: its table is listed on first access to
    ``elems``, and element 0 is the identity by construction."""

    def __init__(self, ring, m: int, size: int, generators: list, table):
        self.ring, self.m, self.size, self.identity = ring, m, size, 0
        self.generators, self._table = generators, table

    elems = functools.cached_property(lambda self: self._table())


def subgroup_K(n: int, p: int, s: int, d: int, i: int,
               cap: int = DEFAULT_CAP) -> MatrixGroup:
    """K_i <= SL_{n+1}(F_p[t]/t^s), enumerated in closed form.

    K_0 is generated by e_{j,j+1}(r), 1 <= j <= n, deg r <= d.  It is the
    unitriangular group whose entry (a, b) is any polynomial of degree
    <= D_ab = min(s-1, (b-a)d) (``k0_degree_bounds``).  Ring indices put low
    degrees in the low digits, so that degree bound is "index <
    p^(D_ab+1)", and the elements are listed in the mixed-radix order of
    their entries: row-major, the first entry most significant, element 0
    the identity.  K_i = gamma_0^i K_0 gamma_0^-i is ``rotate_rows`` of that
    list, in the same order, built from ``k0_entries`` on first access.
    |K_0| is checked against ``cap`` before anything is allocated.
    ``generators`` are the n(d+1) elements e(t^k), k <= d, in the rotated
    simple-root positions; they generate, since e(c t^k) = e(t^k)^c.
    """
    check_ring_params(p, s)
    if n < 1:
        raise ParameterError(f"need n >= 1, got {n}")
    if not (0 <= d < s):
        raise ParameterError(f"need 0 <= d < s, got d={d}, s={s}")
    if not (0 <= i <= n):
        raise ParameterError(f"color index must be in 0..{n}, got {i}")
    order = k0_order(n, p, s, d)
    if order > cap:
        raise ResourceLimitError(f"|K_0| = {order} exceeds cap {cap}",
                                 partial_count=0)
    m = n + 1
    _, place = _place_values(k0_degree_bounds(n, s, d), p)

    def table() -> np.ndarray:
        elems = np.tile(identity_flat(m), (order, 1))
        elems[:, place > 0] = k0_entries(n, p, s, d).T
        return rotate_rows(elems, i) if i else elems

    gens = sorted(int(place[a * m + a + 1]) * p**k
                  for a in range(n) for k in range(d + 1))
    return _ClosedFormGroup(RingTable(p, s), m, order, gens, table)


def rotate_rows(rows: np.ndarray, k: int) -> np.ndarray:
    """gamma_0^k x gamma_0^-k for each flat m x m row x: entry (a, b)
    moves to (g(a), g(b)), g = gamma_0^k, so K_i maps onto K_{i+k}: a
    gather of entry (h(x), h(y)) into (x, y), h = g^-1."""
    m = math.isqrt(rows.shape[1])
    h = np.array(perm_pow(gamma0(m - 1), -k)) - 1
    return rows.take((h[:, None] * m + h[None, :]).ravel(), axis=1)


def ko_coset_codes(K0: MatrixGroup, d: int, j: int,
                   entries: np.ndarray) -> np.ndarray:
    """Code of each element's left coset g(K_0 n K_j) in K_0.

    The code is the mixed-radix index (as in ``subgroup_K``) of the coset's
    reduced representative: the one element whose entry (a, b) has no
    term of degree <= B_ab, B = ``ko_intersection_bounds``.  All of K_0 is
    reduced at once, column b = 1..n, rows a = b-1 down to 0: with low the
    terms of g_ab of degree <= B_ab and r = -low, g <- g e_ab(r) sets
    g_ab -= low and g_ib += g_ia r for i < a.  That leaves the entries
    below a in column b and all earlier columns alone, so every cleared
    entry stays cleared.  Each e_ab(r) lies in H = K_0 n K_j, so the
    result lies in gH; the reduced elements number prod p^(D_ab - B_ab) =
    |K_0|/|H|, one per coset at least, hence exactly one.  ``entries``
    (``k0_entries``) are only read, and the codes, below |K_0|, are uint32
    (int64 past 2^32).
    """
    m, ring = K0.m, K0.ring
    q, mul, add = ring.q, ring.mul.reshape(-1), ring.add.reshape(-1)
    D = k0_degree_bounds(m - 1, ring.s, d)
    B = ko_intersection_bounds(m - 1, ring.s, d, j)
    # lows[a, b, x]: the terms of degree <= B_ab of ring index x
    lows = (np.arange(q) % ring.p ** (B[:, :, None] + 1)).astype(np.uint32)
    # g[a, b]: entry (a, b) of every element, None once it is cleared to 0
    g = dict(zip(zip(*np.nonzero(D >= 0)), entries))
    for b in range(1, m):
        for a in np.flatnonzero(B[:b, b] >= 0)[::-1]:
            if B[a, b] < D[a, b]:
                low = lows[a, b].take(g[a, b])
                g[a, b] = g[a, b] - low
            else:
                low, g[a, b] = g[a, b], None
            r = ring.neg.take(low) if a else None
            for i in range(a):
                if g[i, a] is not None:
                    g[i, b] = add.take(g[i, b] * q + mul.take(g[i, a] * q + r))
    dtype = np.uint32 if K0.size <= 1 << 32 else np.int64
    place = _place_values(D, ring.p)[1].astype(dtype)
    return sum((col * place[a * m + b] for (a, b), col in g.items()
                if col is not None), np.zeros(K0.size, dtype))


def ko_link_cosets(K0: MatrixGroup, d: int) -> list[CosetPartition]:
    """Left cosets of K_0 n K_j in K_0 for j = 1..n, by normal form.

    ``K0`` is ``subgroup_K(n, p, s, d, 0)``, read through ``k0_entries``
    only.  Classes are the ``ko_coset_codes`` classes, labeled as
    ``cosets()`` labels them (smallest element index), and checked at
    runtime: each holds |H| elements, H = K_0 n K_j found by
    membership (x in H when gamma_0^-j x gamma_0^j has K_0's fixed entries
    and degree bounds), and the identity's class is H.  A reduction
    without the products g_ib += g_ia r passes that check with wrong
    partitions, which ``spectral.ko_link_report`` catches by their
    disconnected walk.  The arithmetic is certified by the tests against
    ``cosets()`` (``TestKOLinkCosets::test_normal_form_matches_cosets``)
    and the BFS-built complex (``test_ko_links_match_literal_links``).
    """
    n, p, s = K0.m - 1, K0.ring.p, K0.ring.s
    lim, _ = _place_values(k0_degree_bounds(n, s, d), p)
    free = lim > 1
    entries = k0_entries(n, p, s, d)  # read once for every j
    parts = []
    for j in range(1, K0.m):
        # x's entry (a, b) sits at (h(a), h(b)) in the conjugate, so it must
        # stay below lim there; x's fixed entries pass for every j
        in_sub = np.ones(K0.size, dtype=bool)
        for row, top, bound in zip(entries, lim[free],
                                   rotate_rows(lim[None, :], j)[0, free]):
            if bound < top:
                in_sub &= row < bound
        part = CosetPartition.from_keys(K0, ko_coset_codes(K0, d, j, entries))
        # the identity, element 0, is in the class of ordinal 0
        if ((np.bincount(part.ordinal) != np.count_nonzero(in_sub)).any()
                or not np.array_equal(part.ordinal == 0, in_sub)):
            raise StructureError(
                f"normal form of K_0 n K_{j} does not give |K_0|/|H| "
                f"classes of |H| elements")
        parts.append(part)
    return parts


# ---------------------------------------------------------------------------
# congruence kernels


def reduction_kernel(n: int, p: int, s_hi: int, s_lo: int,
                     cap: int = DEFAULT_CAP) -> MatrixGroup:
    """Kernel of SL_{n+1}(F_p[t]/t^s_hi) -> SL_{n+1}(F_p[t]/t^s_lo).

    BFS closure of e_{i,j}(c t^k) and h_i(1 + t^k) = diag(.., u, u^-1, ..),
    u at (i, i), for s_lo <= k < s_hi; ``generators`` lists them all.
    They generate the kernel: with I = (t^s_lo), row and column operations
    e_{i,j}(x), x in I, bring a kernel element (1 mod I, so with a unit
    diagonal) to diag(u_1, .., u_m) = h_1(u_1) h_2(u_1 u_2) .. h_n(u_1 ..
    u_n), u_i in 1 + I, and the (1 + t^k)^c = 1 + c t^k + O(t^(k+1))
    generate 1 + I one valuation at a time.  The elementaries alone do not:
    their products have diagonal entries 1 mod I^2.  Every generator lies
    in the kernel, so reaching its order p^((s_hi-s_lo)(m^2-1)) certifies
    equality; a shortfall raises StructureError.
    """
    check_ring_params(p, s_hi)
    if not (1 <= s_lo < s_hi):
        raise ParameterError(f"need 1 <= s_lo < s_hi, got {s_lo}, {s_hi}")
    if n < 1:
        raise ParameterError(f"need n >= 1, got {n}")
    m = n + 1
    expected = p ** ((s_hi - s_lo) * (m * m - 1))
    if expected > cap:
        raise ResourceLimitError(
            f"kernel order {expected} exceeds cap {cap}", partial_count=0)
    ring = RingTable(p, s_hi)
    gens = [elementary(n, *_elementary_terms(n, p, range(s_lo, s_hi)))]
    us = 1 + p ** np.arange(s_lo, s_hi, dtype=np.uint32)  # u = 1 + t^k
    inv = inverse_batch(us[:, None], ring.mul, ring.add, ring.neg, 1, p)
    for u, u_inv in zip(us, inv[:, 0]):
        for i in range(n):
            h = identity_flat(m)
            h[[i * (m + 1), (i + 1) * (m + 1)]] = u, u_inv
            gens.append(h[None, :])
    gens = np.concatenate(gens)
    group = MatrixGroup(ring, m, closure_bfs(gens, ring.mul, ring.add, m,
                                             ring.q, cap))
    if group.size != expected:
        raise StructureError(
            f"kernel closure has {group.size} elements, not "
            f"p^((s_hi-s_lo)(m^2-1)) = {expected}")
    group.generators = sorted_distinct(group.lookup_rows(gens)).tolist()
    return group
