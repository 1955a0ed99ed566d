"""Finite groups: exact matrices over F_p[t]/<t^s> and multiplication-table groups.

Matrix groups are enumerated by deterministic BFS closure (layer order,
ascending canonical key within a layer), and that numbering is the contract
everything downstream relies on: coset labels, complex vertex ids, dump
files.  MatElement arithmetic is exact coefficient arithmetic and never
needs ring tables, so order computations work in rings far too large to
table.

The KO subgroups K_i are the exception: they have a closed form and no
closure runs for them.  K_0 is unitriangular, and its entry (a, b), a < b,
is any polynomial of degree <= D_ab = min(s-1, (b-a)d).  A ring index puts
low degrees in its low digits, so "degree <= D" reads "index < p^(D+1)"
and K_0 is a box of coordinates, listed in mixed-radix order; K_i is its
gamma_0^i rotation.  With h = gamma_0^-j, K_0 n K_j is again a box: entry
(a, b) is bounded by min(D_ab, (h(b)-h(a))d) when h(a) < h(b) and is zero
otherwise.  So each left coset g(K_0 n K_j) has a normal form.  Right
multiplication by e_ab(r) adds r to g_ab and g_ia r to the entries above
it in column b, so clearing the bounded low terms column by column, bottom
up, never disturbs a cleared entry.  The reduced elements number
|K_0|/|K_0 n K_j| and every coset holds one, so each holds exactly one:
the coset labels need no closure, no key lookup and no ``cosets()``.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
from typing import Iterable, Sequence

import numpy as np

from ._kernels import KeyIndex, closure_bfs, identity_flat, matmul_batch, pack_keys
from .errors import ParameterError, ResourceLimitError, StructureError
from .ring import RingTable, TruncPoly, check_ring_params
from .roots import gamma0, perm_pow

DEFAULT_CLOSURE_CAP = 1 << 24


# ---------------------------------------------------------------------------
# exact matrices


@dataclasses.dataclass(frozen=True)
class MatElement:
    """Square matrix over one ring, entries in row-major tuple-of-tuples."""

    entries: tuple[tuple[TruncPoly, ...], ...]

    def __post_init__(self):
        m = len(self.entries)
        if m == 0 or any(len(row) != m for row in self.entries):
            raise ParameterError("matrix must be square and nonempty")
        p, s = self.entries[0][0].p, self.entries[0][0].s
        for row in self.entries:
            for e in row:
                if (e.p, e.s) != (p, s):
                    raise ParameterError("mixed rings in one matrix")

    @property
    def m(self) -> int:
        return len(self.entries)

    @property
    def p(self) -> int:
        return self.entries[0][0].p

    @property
    def s(self) -> int:
        return self.entries[0][0].s

    @classmethod
    def identity(cls, m: int, p: int, s: int) -> "MatElement":
        one, zero = TruncPoly.one(p, s), TruncPoly.zero(p, s)
        return cls(tuple(tuple(one if i == j else zero for j in range(m))
                         for i in range(m)))

    @classmethod
    def from_flat(cls, p: int, s: int, m: int, flat) -> "MatElement":
        flat = list(flat)
        if len(flat) != m * m:
            raise ParameterError(f"need {m*m} packed entries, got {len(flat)}")
        es = [TruncPoly.from_index(p, s, int(v)) for v in flat]
        return cls(tuple(tuple(es[i * m + j] for j in range(m)) for i in range(m)))

    def flat(self) -> np.ndarray:
        return np.array([e.index() for row in self.entries for e in row],
                        dtype=np.uint32)

    def __matmul__(self, other: "MatElement") -> "MatElement":
        if self.m != other.m or (self.p, self.s) != (other.p, other.s):
            raise ParameterError("matrix shape/ring mismatch")
        m = self.m
        rows = []
        for i in range(m):
            row = []
            for j in range(m):
                acc = self.entries[i][0] * other.entries[0][j]
                for k in range(1, m):
                    acc = acc + self.entries[i][k] * other.entries[k][j]
                row.append(acc)
            rows.append(tuple(row))
        return MatElement(tuple(rows))

    def pow(self, k: int) -> "MatElement":
        if k < 0:
            return self.inverse().pow(-k)
        acc = MatElement.identity(self.m, self.p, self.s)
        base = self
        while k:
            if k & 1:
                acc = acc @ base
            base = base @ base
            k >>= 1
        return acc

    def det(self) -> TruncPoly:
        """Determinant by cofactor expansion along the first row."""
        return _det_rows(self.entries, self.p, self.s)

    def adjugate(self) -> "MatElement":
        m, p, s = self.m, self.p, self.s
        if m == 1:
            return MatElement.identity(1, p, s)
        rows = []
        for i in range(m):
            row = []
            for j in range(m):
                minor = _drop(self.entries, j, i)
                c = _det_rows(minor, p, s)
                if (i + j) % 2:
                    c = -c
                row.append(c)
            rows.append(tuple(row))
        return MatElement(tuple(rows))

    def inverse(self) -> "MatElement":
        d = self.det()
        if not d.is_unit():
            raise ParameterError("matrix is not invertible (det is a non-unit)")
        dinv = d.inverse()
        adj = self.adjugate()
        return MatElement(tuple(tuple(e * dinv for e in row) for row in adj.entries))

    def reduce_to(self, s_lo: int) -> "MatElement":
        return MatElement(tuple(tuple(e.reduce_to(s_lo) for e in row)
                                for row in self.entries))

    def __str__(self) -> str:
        return "[" + "; ".join(", ".join(str(e) for e in row)
                               for row in self.entries) + "]"


def _drop(rows, i: int, j: int):
    return tuple(tuple(e for c, e in enumerate(row) if c != j)
                 for r, row in enumerate(rows) if r != i)


def _det_rows(rows, p: int, s: int) -> TruncPoly:
    m = len(rows)
    if m == 1:
        return rows[0][0]
    acc = TruncPoly.zero(p, s)
    for j in range(m):
        if rows[0][j].deg() == float("-inf"):
            continue
        term = rows[0][j] * _det_rows(_drop(rows, 0, j), p, s)
        acc = acc + term if j % 2 == 0 else acc - term
    return acc


def det(mat: MatElement) -> TruncPoly:
    return mat.det()


def elementary(n: int, i: int, j: int, r: TruncPoly) -> MatElement:
    """e_{i,j}(r): identity plus r in (1-based) position (i, j), size n+1."""
    m = n + 1
    if not (1 <= i <= m and 1 <= j <= m) or i == j:
        raise ParameterError(f"need 1 <= i != j <= {m}, got ({i}, {j})")
    ident = MatElement.identity(m, r.p, r.s)
    rows = [list(row) for row in ident.entries]
    rows[i - 1][j - 1] = r
    return MatElement(tuple(tuple(row) for row in rows))


def commutator(a: MatElement, b: MatElement) -> MatElement:
    return a @ b @ a.inverse() @ b.inverse()


def mat_element_order(mat: MatElement, cap: int = 10**6) -> int:
    """Multiplicative order by iterated product; works in untabled rings."""
    ident = MatElement.identity(mat.m, mat.p, mat.s)
    acc = mat
    for k in range(1, cap + 1):
        if acc == ident:
            return k
        acc = acc @ mat
    raise ResourceLimitError(f"order exceeds cap {cap}", partial_count=cap)


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
        return np.array([self.mult(a, b) for b in range(self.size)],
                        dtype=np.int64)

    def label(self, a: int) -> str:
        raise NotImplementedError

    def element_order(self, a: int) -> int:
        k, cur = 1, a
        while cur != self.identity:
            cur = self.mult(cur, a)
            k += 1
            if k > self.size:
                raise StructureError("element order exceeds group size; table corrupt")
        return k

    def conjugate(self, g: int, x: int) -> int:
        return self.mult(self.mult(g, x), self.inverse(g))


class TableGroup(FiniteGroup):
    """Group given by an explicit multiplication table."""

    def __init__(self, table: np.ndarray, labels: Sequence[str] | None = None,
                 generators: Sequence[int] | None = None, validate: bool = True):
        table = np.asarray(table, dtype=np.int64)
        n = table.shape[0]
        if table.shape != (n, n):
            raise StructureError("multiplication table must be square")
        self.table = table
        self.size = n
        self.labels = list(labels) if labels is not None else [str(i) for i in range(n)]
        ident = _find_identity(table)
        if ident is None:
            raise StructureError("table has no two-sided identity")
        self.identity = ident
        self._inv = np.empty(n, dtype=np.int64)
        for a in range(n):
            hits = np.nonzero(table[a] == ident)[0]
            if len(hits) != 1 or table[hits[0], a] != ident:
                raise StructureError(f"element {a} lacks a unique two-sided inverse")
            self._inv[a] = hits[0]
        if validate and n <= 256:
            _check_associative(table)
        self.generators = list(generators) if generators is not None else \
            [i for i in range(n) if i != ident]

    def mult(self, a: int, b: int) -> int:
        return int(self.table[a, b])

    def inverse(self, a: int) -> int:
        return int(self._inv[a])

    def right_mult_table(self, b: int) -> np.ndarray:
        return self.table[:, b].copy()

    def left_mult_table(self, a: int) -> np.ndarray:
        return self.table[a, :].copy()

    def label(self, a: int) -> str:
        return self.labels[a]


def _find_identity(table: np.ndarray) -> int | None:
    n = table.shape[0]
    idx = np.arange(n)
    for e in range(n):
        if np.array_equal(table[e], idx) and np.array_equal(table[:, e], idx):
            return e
    return None


def _check_associative(table: np.ndarray) -> None:
    # (a*b)*c == a*(b*c) for all triples; vectorized over c
    n = table.shape[0]
    left = table[table, :]          # left[a,b,c] = (a*b)*c
    right = table[:, table]         # right[a,b,c] = a*(b*c)
    if not np.array_equal(left, right):
        raise StructureError("multiplication table is not associative")


def symmetric_group(k: int) -> TableGroup:
    """Sym(k) on {0..k-1}; elements in itertools.permutations order."""
    if not (1 <= k <= 7):
        raise ParameterError(f"symmetric_group supports 1 <= k <= 7, got {k}")
    perms = list(itertools.permutations(range(k)))
    pos = {p: i for i, p in enumerate(perms)}
    n = len(perms)
    table = np.empty((n, n), dtype=np.int64)
    for a, pa in enumerate(perms):
        for b, pb in enumerate(perms):
            table[a, b] = pos[tuple(pa[pb[i]] for i in range(k))]
    gens = []
    if k >= 2:
        swap = tuple([1, 0] + list(range(2, k)))
        cyc = tuple(list(range(1, k)) + [0])
        gens = [pos[swap], pos[cyc]]
    return TableGroup(table, labels=[repr(list(p)) for p in perms],
                      generators=gens, validate=False)


class MatrixGroup(FiniteGroup):
    """Enumerated matrix group over a tabled ring.

    ``elems`` is the canonical element array (flat packed rows); index 0 is
    the identity for BFS closures and for the closed-form K_i alike.  The
    key index behind the lookups is built on first use, so a group that is
    only read by its entries never sorts its keys.
    """

    def __init__(self, ring: RingTable, m: int, elems: np.ndarray,
                 generators: Sequence[int] | None = None):
        self.ring = ring
        self.m = m
        self.elems = np.ascontiguousarray(elems, dtype=np.uint32)
        self.size = len(self.elems)
        ident = identity_flat(m)
        # closures and the closed-form K_i list the identity first
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

    def index_of_flat(self, flat: np.ndarray) -> int:
        pos = self._index.lookup(pack_keys(np.asarray(flat)[None, :], self.ring.q))[0]
        return int(pos)

    def index_of(self, mat: MatElement) -> int:
        return self.index_of_flat(mat.flat())

    def lookup_rows(self, rows: np.ndarray) -> np.ndarray:
        return self._index.lookup(pack_keys(rows, self.ring.q))

    def mat(self, a: int) -> MatElement:
        return MatElement.from_flat(self.ring.p, self.ring.s, self.m, self.elems[a])

    # -- group ops ----------------------------------------------------------

    def mult(self, a: int, b: int) -> int:
        prod = matmul_batch(self.elems[a], self.elems[b],
                            self.ring.mul, self.ring.add, self.m)
        idx = self.lookup_rows(prod)[0]
        if idx < 0:
            raise StructureError("product escaped the element set; not a group")
        return int(idx)

    def inverse(self, a: int) -> int:
        idx = self.index_of(self.mat(a).inverse())
        if idx < 0:
            raise StructureError("inverse escaped the element set; not a group")
        return idx

    def right_mult_table(self, b: int) -> np.ndarray:
        prods = matmul_batch(self.elems, self.elems[b],
                             self.ring.mul, self.ring.add, self.m)
        out = self.lookup_rows(prods)
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

    def label(self, a: int) -> str:
        return str(self.mat(a))

    def contains_flat_rows(self, rows: np.ndarray) -> np.ndarray:
        return self.lookup_rows(rows) >= 0


def bfs_closure(gens: Sequence[MatElement], cap: int = DEFAULT_CLOSURE_CAP,
                ring: RingTable | None = None) -> MatrixGroup:
    """Subgroup generated by ``gens``, in the canonical element order."""
    if not gens:
        raise ParameterError("need at least one generator")
    m, p, s = gens[0].m, gens[0].p, gens[0].s
    for g in gens:
        if (g.m, g.p, g.s) != (m, p, s):
            raise ParameterError("generators live in different matrix rings")
    if ring is None:
        ring = RingTable(p, s)
    flat = np.stack([g.flat() for g in gens])
    flat = np.unique(flat, axis=0)
    elems = closure_bfs(flat, ring.mul, ring.add, m, ring.q, cap)
    group = MatrixGroup(ring, m, elems)
    group.generators = sorted(int(i) for i in group.lookup_rows(flat))
    return group


def elementary_subgroup(n: int, p: int, s: int, d: int,
                        cap: int = DEFAULT_CLOSURE_CAP,
                        ring: RingTable | None = None) -> MatrixGroup:
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
    gens = []
    for i in range(1, n + 2):
        for j in range(1, n + 2):
            if i == j:
                continue
            for k in range(d + 1):
                for c in range(1, p):
                    gens.append(elementary(n, i, j, TruncPoly.t_power(p, s, k, c)))
    return bfs_closure(gens, cap=cap, ring=ring)


def sl_group(n: int, p: int, s: int, cap: int = DEFAULT_CLOSURE_CAP,
             ring: RingTable | None = None) -> MatrixGroup:
    """All of SL_{n+1}(F_p[t]/t^s), generated by every elementary e_{i,j}(c t^k).

    Over this local ring the elementary subgroup is the whole special linear
    group, so BFS closure of the elementaries enumerates it.
    """
    return elementary_subgroup(n, p, s, s - 1, cap=cap, ring=ring)


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
# cosets, normal closures, quotients


def _orbit_min_labels(n: int, arrs: Sequence[np.ndarray]) -> np.ndarray:
    """Min-index label of each element's orbit under the given permutations."""
    labels = np.arange(n, dtype=np.int64)
    while True:
        prev = labels.copy()
        for arr in arrs:
            # i and arr[i] share an orbit: push the smaller label both ways
            labels = np.minimum(labels, labels[arr])
            np.minimum.at(labels, arr, labels)
        # path compression: a label is itself an element index
        labels = labels[labels]
        if np.array_equal(prev, labels):
            return labels


@dataclasses.dataclass
class CosetPartition:
    """Left cosets gK of a subgroup, labeled deterministically.

    ``labels[a]`` is the smallest element index in aK; ``ordinal[a]`` numbers
    the cosets 0..n_cosets-1 by ascending representative index.
    """

    group: FiniteGroup
    labels: np.ndarray
    reps: np.ndarray
    ordinal: np.ndarray

    @property
    def n_cosets(self) -> int:
        return len(self.reps)

    def of(self, a: int) -> int:
        return int(self.ordinal[a])


def cosets(G: FiniteGroup, sub_indices: Sequence[int],
           sub_generators: Sequence[int] | None = None) -> CosetPartition:
    """Partition of G into left cosets g*K.

    The left cosets are the orbits of K acting on G by right
    multiplication, so only the right tables of a generating set of K are
    needed.  That set is derived here: starting from the identity, the
    smallest element of K not reached yet becomes a generator, and the
    reached set is closed by BFS over the right tables built so far, until
    it holds |K| elements.  ``sub_generators`` (indices into G), when
    given, are tried first.  Every reached element is a product of
    generators, so one outside ``sub_indices`` proves K is not a subgroup,
    and reaching |K| elements proves it is.  Labels are the smallest index
    in each coset, so they do not depend on the generators chosen.
    """
    sub = np.unique(np.asarray(sub_indices, dtype=np.int64))
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
    reached = np.zeros(G.size, dtype=bool)
    reached[G.identity] = True
    n_reached = 1
    arrs: list[np.ndarray] = []
    candidates = itertools.chain(seeds, sub.tolist())
    while n_reached < len(sub):
        g = next(c for c in candidates if not reached[c])
        arrs.append(G.right_mult_table(g))
        # the reached set is a subgroup, closed under the old generators,
        # so the first layer needs only the new one
        frontier, step = np.flatnonzero(reached), arrs[-1:]
        while len(frontier):
            img = np.concatenate([arr[frontier] for arr in step])
            frontier = np.unique(img[~reached[img]])
            if not in_sub[frontier].all():
                raise StructureError(
                    "claimed subgroup is not closed under multiplication")
            reached[frontier] = True
            n_reached += len(frontier)
            step = arrs
    labels = _orbit_min_labels(G.size, arrs)
    reps = np.unique(labels)
    ordinal = np.searchsorted(reps, labels)
    return CosetPartition(G, labels, reps, ordinal)


def subgroup_closure_indices(G: FiniteGroup, seed: Iterable[int]) -> np.ndarray:
    """Indices of <seed> inside G (plain BFS on the index set)."""
    seen = {G.identity}
    frontier = [G.identity]
    seed = sorted(set(int(x) for x in seed))
    while frontier:
        nxt = []
        for x in frontier:
            for g in seed:
                y = G.mult(x, g)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return np.array(sorted(seen), dtype=np.int64)


def normal_closure(G: FiniteGroup, seed: Iterable[int]) -> np.ndarray:
    """Indices of the normal closure of ``seed`` in G.

    Conjugation-orbit of the seed under the group generators first (a small
    set), then plain subgroup closure of that orbit.
    """
    conj_gens = list(G.generators) + [G.inverse(g) for g in G.generators]
    orbit = set(int(x) for x in seed)
    frontier = list(orbit)
    while frontier:
        nxt = []
        for x in frontier:
            for g in conj_gens:
                y = G.conjugate(g, x)
                if y not in orbit:
                    orbit.add(y)
                    nxt.append(y)
        frontier = nxt
    return subgroup_closure_indices(G, orbit)


def quotient(G: FiniteGroup, normal_indices: Sequence[int]
             ) -> tuple[TableGroup, np.ndarray]:
    """Quotient G/N as a TableGroup plus the projection index array.

    Verifies normality (conjugation by every group generator stays in N).
    """
    N = np.unique(np.asarray(normal_indices, dtype=np.int64))
    n_set = set(int(x) for x in N)
    if G.identity not in n_set:
        raise StructureError("normal subgroup must contain the identity")
    for g in G.generators:
        for x in N:
            if G.conjugate(g, int(x)) not in n_set:
                raise StructureError("subgroup is not normal under the generators")
    part = cosets(G, N)
    reps = part.reps
    k = len(reps)
    table = np.empty((k, k), dtype=np.int64)
    for b in range(k):
        col = G.right_mult_table(int(reps[b]))
        table[:, b] = part.ordinal[col[reps]]
    labels = [G.label(int(r)) for r in reps]
    proj = part.ordinal.copy()
    gen_images = sorted(set(int(proj[g]) for g in G.generators))
    Q = TableGroup(table, labels=labels, generators=gen_images, validate=False)
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


def subgroup_K(n: int, p: int, s: int, d: int, i: int,
               cap: int = DEFAULT_CLOSURE_CAP) -> MatrixGroup:
    """K_i <= SL_{n+1}(F_p[t]/t^s), enumerated in closed form.

    K_0 is generated by e_{j,j+1}(r), 1 <= j <= n, deg r <= d.  It is the
    unitriangular group whose entry (a, b) is any polynomial of degree
    <= D_ab = min(s-1, (b-a)d) (``k0_degree_bounds``).  Ring indices put low
    degrees in the low digits, so that degree bound is "index <
    p^(D_ab+1)", and the elements are listed in the mixed-radix order of
    their entries: row-major, the first entry most significant, element 0
    the identity.  K_i = gamma_0^i K_0 gamma_0^-i is ``rotate_rows`` of that
    list, in the same order.  |K_0| is checked against ``cap`` before
    anything is allocated.  ``generators`` are the n(d+1) elements
    e(t^k), k <= d, in the rotated simple-root positions; they generate,
    since e(c t^k) = e(t^k)^c.
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
    radix, place = _place_values(k0_degree_bounds(n, s, d), p)
    elems = np.empty((order, m * m), dtype=np.uint32)
    elems[:] = identity_flat(m)
    for k in np.flatnonzero(radix > 1):
        # entry k counts 0..radix-1, each value held for place[k] rows
        elems.reshape(-1, radix[k], place[k], m * m)[..., k] = \
            np.arange(radix[k], dtype=np.uint32)[:, None]
    gens = sorted(int(place[a * m + a + 1]) * p**k
                  for a in range(n) for k in range(d + 1))
    return MatrixGroup(RingTable(p, s), m,
                       rotate_rows(elems, i) if i else elems, gens)


def rotate_rows(rows: np.ndarray, k: int) -> np.ndarray:
    """gamma_0^k x gamma_0^-k for each flat m x m row x: entry (a, b)
    moves to (g(a), g(b)), g = gamma_0^k, so K_i maps onto K_{i+k}."""
    m = math.isqrt(rows.shape[1])
    g = np.array(perm_pow(gamma0(m - 1), k)) - 1
    out = np.empty_like(rows)
    out[:, (g[:, None] * m + g[None, :]).ravel()] = rows
    return out


def ko_coset_codes(K0: MatrixGroup, d: int, j: int) -> np.ndarray:
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
    |K_0|/|H|, one per coset at least, hence exactly one.
    """
    m, ring = K0.m, K0.ring
    B = ko_intersection_bounds(m - 1, ring.s, d, j)
    _, place = _place_values(k0_degree_bounds(m - 1, ring.s, d), ring.p)
    # g[a, b]: entry (a, b) of every element, a < b, one contiguous copy each
    g = {(a, b): K0.elems[:, a * m + b].copy()
         for b in range(1, m) for a in range(b)}
    for b in range(1, m):
        for a in range(b - 1, -1, -1):
            if B[a, b] < 0:
                continue
            low = g[a, b] % ring.p ** (int(B[a, b]) + 1)
            g[a, b] -= low
            r = ring.neg[low]
            for i in range(a):
                g[i, b] = ring.add[g[i, b], ring.mul[g[i, a], r]]
    return sum(int(place[a * m + b]) * col.astype(np.int64)
               for (a, b), col in g.items())


def ko_link_cosets(K0: MatrixGroup, d: int) -> list[CosetPartition]:
    """Left cosets of K_0 n K_j in K_0 for j = 1..n, by normal form.

    ``K0`` is ``subgroup_K(n, p, s, d, 0)``; only its element set matters.
    Classes are the ``ko_coset_codes`` classes, labeled as ``cosets()``
    labels them (smallest element index), and checked at runtime: H =
    K_0 n K_j is found by membership, x in H when gamma_0^-j x gamma_0^j
    has K_0's fixed entries and degree bounds, and every class must hold
    exactly |H| elements, the identity's class being H itself.  Every
    bounded e_ab(r) reduces to the identity, so it then lies in H, each
    class lies in one coset, and the classes are the |K_0|/|H| cosets of
    H for any bounds within K_0's.
    """
    m, N = K0.m, K0.size
    lim, _ = _place_values(k0_degree_bounds(m - 1, K0.ring.s, d), K0.ring.p)
    free = np.flatnonzero(lim > 1)
    idx = np.arange(N)
    parts = []
    for j in range(1, m):
        # x's entry (a, b) sits at (h(a), h(b)) in the conjugate, so it must
        # stay below lim there; x's fixed entries pass for every j
        bound = rotate_rows(lim[None, :], j)[0]
        in_sub = (K0.elems[:, free] < bound[free]).all(axis=1)
        codes = ko_coset_codes(K0, d, j)
        sizes = np.bincount(codes)
        if ((sizes[sizes > 0] != np.count_nonzero(in_sub)).any()
                or not np.array_equal(codes == codes[K0.identity], in_sub)):
            raise StructureError(
                f"normal form of K_0 n K_{j} does not give |K_0|/|H| "
                f"classes of |H| elements")
        first = np.full(N, N)
        np.minimum.at(first, codes, idx)
        labels = first[codes]
        is_rep = labels == idx
        parts.append(CosetPartition(K0, labels, np.flatnonzero(is_rep),
                                    (np.cumsum(is_rep) - 1)[labels]))
    return parts


# ---------------------------------------------------------------------------
# congruence kernels


def _ambient_elementary_flats(n: int, p: int, s: int, k_lo: int = 0) -> list[MatElement]:
    out = []
    for i in range(1, n + 2):
        for j in range(1, n + 2):
            if i == j:
                continue
            for k in range(k_lo, s):
                for c in range(1, p):
                    out.append(elementary(n, i, j, TruncPoly.t_power(p, s, k, c)))
    return out


def reduction_kernel(n: int, p: int, s_hi: int, s_lo: int,
                     cap: int = DEFAULT_CLOSURE_CAP,
                     ring: RingTable | None = None) -> MatrixGroup:
    """Kernel of SL_{n+1}(F_p[t]/t^s_hi) -> SL_{n+1}(F_p[t]/t^s_lo).

    Strategy: close the congruence elementaries e_{i,j}(c t^k), k >= s_lo,
    under conjugation by the ambient elementary generators (a small set),
    then BFS-close that.  The bare elementaries alone never suffice: with
    I = (t^s_lo), every product of e_{i,j}(x), x in I, has its diagonal
    entries congruent to 1 mod I^2, while the kernel holds
    diag(1 + t^s_lo, (1 + t^s_lo)^-1, 1, ...).  The result is certified
    against the exact kernel order p^((s_hi-s_lo)(m^2-1)); on a shortfall
    we fall back to filtering the fully enumerated ambient group.  Every stage stays inside the kernel
    by construction, so the cardinality check is a proof of equality.
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
    if ring is None:
        ring = RingTable(p, s_hi)

    seeds = _ambient_elementary_flats(n, p, s_hi, k_lo=s_lo)
    seed_flats = np.unique(np.stack([g.flat() for g in seeds]), axis=0)
    # conjugation orbit of the seeds under the ambient elementaries
    ambient = _ambient_elementary_flats(n, p, s_hi, k_lo=0)
    conj_pairs = [(a.flat(), a.inverse().flat()) for a in ambient]
    orbit = seed_flats
    orbit_keys = set(int(k) for k in pack_keys(orbit, ring.q))
    frontier = orbit
    while len(frontier):
        fresh = []
        for g, ginv in conj_pairs:
            prods = matmul_batch(matmul_batch(g, frontier, ring.mul, ring.add, m),
                                 ginv, ring.mul, ring.add, m)
            for row, key in zip(prods, pack_keys(prods, ring.q)):
                if int(key) not in orbit_keys:
                    orbit_keys.add(int(key))
                    fresh.append(row)
        if not fresh:
            break
        frontier = np.stack(fresh)
        orbit = np.concatenate([orbit, frontier])
        if len(orbit) > cap:
            raise ResourceLimitError(
                f"conjugation orbit exceeded cap {cap}", partial_count=len(orbit))
    group = _try_kernel_closure(ring, m, orbit, cap)
    if group is not None and group.size == expected:
        group.generators = sorted(int(i) for i in group.lookup_rows(seed_flats))
        return group

    # last resort: enumerate the ambient group and filter congruent elements
    ambient_order = sl_order(m, p, s_hi)
    if ambient_order > cap:
        raise ResourceLimitError(
            f"ambient group order {ambient_order} exceeds cap {cap}",
            partial_count=group.size if group is not None else 0)
    G = sl_group(n, p, s_hi, cap=cap, ring=ring)
    q_lo = p**s_lo
    ident = identity_flat(m) % q_lo
    mask = (G.elems % q_lo == ident[None, :]).all(axis=1)
    kernel = MatrixGroup(ring, m, G.elems[mask])
    if kernel.size != expected:
        raise StructureError(
            f"kernel size {kernel.size} != p^((s_hi-s_lo)(m^2-1)) = {expected}")
    kernel.generators = sorted(int(i) for i in kernel.lookup_rows(seed_flats))
    return kernel


def _try_kernel_closure(ring: RingTable, m: int, gen_flats: np.ndarray,
                        cap: int) -> MatrixGroup | None:
    try:
        elems = closure_bfs(gen_flats, ring.mul, ring.add, m, ring.q, cap)
    except ResourceLimitError:
        return None
    return MatrixGroup(ring, m, elems)


def element_order(G: FiniteGroup, a: int) -> int:
    return G.element_order(a)

