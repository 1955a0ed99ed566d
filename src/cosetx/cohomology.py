"""Non-Abelian cochain calculus in degrees -1, 0, 1 and expansion constants.

Coefficients live in a finite group Lambda given by a multiplication table.
A 0-cochain is an array of Lambda indices over the vertices; a 1-cochain
stores one value per unordered edge, oriented low-to-high, with the reverse
orientation read off as the inverse.  Coboundaries follow

    d0 psi((u, v))    = psi(u) psi(v)^-1
    d1 phi((u, v, w)) = phi((u, v)) phi((v, w)) phi((w, u))

and C^0 acts on cocycles by psi.phi((u, v)) = psi(u) phi((u, v)) psi(v)^-1.

H^1 triviality is decided by spanning-tree gauge fixing: the C^0-stabilizer
of "identity on every tree edge" consists of the constant cochains alone
(a gauge psi fixing a tree edge value e forces psi(u) = psi(v) across it,
hence constancy on a connected complex), so tree-trivial cocycles meet
every cohomology class and two of them are equivalent iff conjugate by a
constant.  Triviality therefore reduces to "the all-identity assignment is
the unique tree-trivial cocycle", searched by backtracking over non-tree
edge values with triangle-equation propagation.  This reduction is not
taken on faith: the brute mode re-decides everything by enumerating all of
C^1 and C^0, and the test suite cross-validates the two mode answers.

Norms are exact rationals; the distance between cochains is the weighted
measure of their disagreement set, which is orientation-independent since
phi and psi agree at (u, v) iff they agree at (v, u).

Exact degree-1 expansion computes each constant once.  h1_cobound is 0
when some cocycle is not a coboundary; otherwise B^1 = Z^1 as sets (B^1,
the gauge orbit of the identity cocycle, lies in Z^1), so every distance
to B^1 is the distance to Z^1 and h1_cobound = h1_cosys.  A Lambda of prime
order p is cyclic, so g^k -> k for any g != e maps it onto Z/p.  Then d1 is
F_p-linear with kernel Z^1, and translation by a cocycle permutes Z^1, so
||d1 a|| and dist(a, Z^1) are constant on each coset a + Z^1; the scan
visits one cochain per coset.  Other Lambda are swept over all of C^1.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import random
from fractions import Fraction
from typing import Iterable, Mapping

import numpy as np

from .complexes import SimplicialComplex, WeightTable
from .errors import (InputError, ParameterError, ResourceLimitError,
                     StructureError)
from .groups import FiniteGroup, TableGroup
from .ring import is_prime

DEFAULT_CAP = 1 << 24
MAX_COEFF_ORDER = 4096


# ---------------------------------------------------------------------------
# coefficient groups


class CoefficientGroup:
    """Finite coefficient group Lambda with dense lookup tables."""

    def __init__(self, group: FiniteGroup, name: str | None = None):
        if group.size > MAX_COEFF_ORDER:
            raise ResourceLimitError(
                f"coefficient group order {group.size} exceeds "
                f"{MAX_COEFF_ORDER}")
        self.group = group
        self.size = group.size
        self.identity = group.identity
        self.table = np.vstack([group.left_mult_table(a)
                                for a in range(group.size)])
        self.inv = np.array([group.inverse(a) for a in range(group.size)],
                            dtype=np.int64)
        self.name = name if name is not None else f"table:{group.size}"

    def mult(self, a: int, b: int) -> int:
        return int(self.table[a, b])

    def inverse(self, a: int) -> int:
        return int(self.inv[a])

    def label(self, a: int) -> str:
        return self.group.label(a)

    def __repr__(self):
        return f"CoefficientGroup({self.name}, order={self.size})"


def zmod(m: int) -> CoefficientGroup:
    """Cyclic group Z/m, identity 0."""
    if m < 1:
        raise ParameterError(f"modulus must be positive, got {m}")
    idx = np.arange(m)
    table = (idx[:, None] + idx[None, :]) % m
    return CoefficientGroup(TableGroup(table, labels=[str(i) for i in idx]),
                            name=f"zmod:{m}")


def sym(k: int) -> CoefficientGroup:
    """Symmetric group on k letters in lexicographic permutation order."""
    if k < 1 or k > 7:
        raise ParameterError(f"sym(k) supports 1 <= k <= 7, got {k}")
    perms = list(itertools.permutations(range(k)))
    index = {q: i for i, q in enumerate(perms)}
    table = np.array([[index[tuple(a[b[i]] for i in range(k))]
                       for b in perms] for a in perms])
    labels = ["".join(map(str, q)) for q in perms]
    return CoefficientGroup(TableGroup(table, labels=labels, validate=False),
                            name=f"sym:{k}")


def coefficients_from_table(text: str, name: str = "table"
                            ) -> CoefficientGroup:
    """Parse the CLI table format: first line the order m, then m rows."""
    toks = text.split()
    if not toks:
        raise InputError("empty coefficient table")
    try:
        m = int(toks[0])
        vals = [int(x) for x in toks[1:]]
    except ValueError as exc:
        raise InputError(f"bad coefficient table: {exc}") from exc
    if m < 1 or len(vals) != m * m:
        raise InputError(
            f"coefficient table needs {m}*{m} entries, got {len(vals)}")
    table = np.array(vals, dtype=np.int64).reshape(m, m)
    if (table < 0).any() or (table >= m).any():
        raise InputError("coefficient table entries out of range")
    return CoefficientGroup(TableGroup(table), name=name)


def parse_coefficients(spec: str) -> CoefficientGroup:
    """zmod:m | sym:k | table:FILE"""
    kind, _, arg = spec.partition(":")
    if kind == "zmod" and arg:
        return zmod(int(arg))
    if kind == "sym" and arg:
        return sym(int(arg))
    if kind == "table" and arg:
        with open(arg) as fh:
            return coefficients_from_table(fh.read(), name=f"table:{arg}")
    raise InputError(f"cannot parse coefficient spec {spec!r}")


# ---------------------------------------------------------------------------
# cochains


@dataclasses.dataclass(frozen=True)
class Cochain0:
    """Vertex labeling by Lambda indices, total on X(0)."""

    lam: CoefficientGroup
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values",
                           np.asarray(self.values, dtype=np.int64))
        if self.values.ndim != 1:
            raise InputError("0-cochain needs a flat value array")
        if (self.values < 0).any() or (self.values >= self.lam.size).any():
            raise InputError("0-cochain value out of range")

    def __call__(self, v: int) -> int:
        return int(self.values[int(v)])


@dataclasses.dataclass(frozen=True)
class Cochain1:
    """Edge labeling by Lambda indices, one value per unordered edge.

    values[i] is phi((u, v)) for the i-th row (u, v), u < v, of X.faces(1);
    the reverse orientation is the inverse, so antisymmetry holds by
    construction.
    """

    lam: CoefficientGroup
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values",
                           np.asarray(self.values, dtype=np.int64))
        if self.values.ndim != 1:
            raise InputError("1-cochain needs a flat value array")
        if (self.values < 0).any() or (self.values >= self.lam.size).any():
            raise InputError("1-cochain value out of range")

    def value(self, X: SimplicialComplex, u: int, v: int) -> int:
        """phi((u, v)) for an oriented edge, inverting when u > v."""
        a, b = (u, v) if u < v else (v, u)
        pos = X.face_position((a, b))
        if pos < 0:
            raise InputError(f"({u}, {v}) is not an edge")
        val = int(self.values[pos])
        return val if u < v else int(self.lam.inv[val])

    @classmethod
    def from_edge_map(cls, X: SimplicialComplex, lam: CoefficientGroup,
                      mapping: Mapping) -> "Cochain1":
        """Build from oriented-edge values, verifying antisymmetry.

        Values may be given for either or both orientations; supplying
        phi((u,v)) and phi((v,u)) that are not mutually inverse is an
        error, as is omitting an edge of X.
        """
        E = X.face_count(1)
        vals = np.full(E, -1, dtype=np.int64)
        for (u, v), raw in mapping.items():
            val = int(raw)
            if not 0 <= val < lam.size:
                raise InputError(f"value {val} out of range for {lam.name}")
            a, b = (u, v) if u < v else (v, u)
            pos = X.face_position((a, b))
            if pos < 0:
                raise InputError(f"({u}, {v}) is not an edge")
            canon = val if u < v else int(lam.inv[val])
            if vals[pos] >= 0 and vals[pos] != canon:
                raise InputError(
                    f"antisymmetry violated on edge ({a}, {b})")
            vals[pos] = canon
        if (vals < 0).any():
            missing = int(np.flatnonzero(vals < 0)[0])
            raise InputError(
                f"no value for edge {tuple(X.faces(1)[missing])}")
        return cls(lam, vals)

    def identity_support_free(self) -> bool:
        return bool((self.values == self.lam.identity).all())


def identity_cochain1(X: SimplicialComplex, lam: CoefficientGroup
                      ) -> Cochain1:
    return Cochain1(lam, np.full(X.face_count(1), lam.identity,
                                 dtype=np.int64))


# ---------------------------------------------------------------------------
# skeleton bookkeeping (cached per complex)


@dataclasses.dataclass
class _Skeleton:
    edges: np.ndarray          # (E, 2) canonical rows of faces(1)
    tri_edges: np.ndarray      # (T, 3) edge indices: (ab, bc, ac)
    edge_cnt: np.ndarray       # maximal-face counts per edge
    vert_cnt: np.ndarray
    tri_cnt: np.ndarray
    parent: np.ndarray         # BFS forest, -1 at roots
    parent_edge: np.ndarray    # edge index to parent, -1 at roots
    bfs_order: np.ndarray
    tree_mask: np.ndarray      # (E,) tree-edge flags
    n_components: int


def _bfs_forest(edges: np.ndarray, V: int
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """(parent, parent_edge, bfs_order, n_components), one layer at a time.

    The CSR adjacency is sorted by (source, neighbour), so the frontier's
    neighbour lists, concatenated in frontier order, are the FIFO scan of
    that layer; the first occurrence of each unseen neighbour in that scan
    is its discovery, and its position there orders the next layer.
    """
    E = len(edges)
    src = np.concatenate([edges[:, 0], edges[:, 1]])
    dst = np.concatenate([edges[:, 1], edges[:, 0]])
    eid = np.concatenate([np.arange(E), np.arange(E)])
    by = np.lexsort((dst, src))
    src, dst, eid = src[by], dst[by], eid[by]
    deg = np.bincount(src, minlength=V)
    indptr = np.concatenate([[0], np.cumsum(deg)])
    parent = np.full(V, -1, dtype=np.int64)
    parent_edge = np.full(V, -1, dtype=np.int64)
    unseen = np.ones(V, dtype=bool)
    layers = []
    comps = 0
    root = 0
    while root < V and unseen[root]:
        comps += 1
        frontier = np.array([root], dtype=np.int64)
        unseen[root] = False
        while len(frontier):
            layers.append(frontier)
            cnt = deg[frontier]
            pos = (np.repeat(indptr[frontier] - np.cumsum(cnt) + cnt, cnt)
                   + np.arange(int(cnt.sum())))
            pos = pos[unseen[dst[pos]]]
            _, first = np.unique(dst[pos], return_index=True)
            pos = pos[np.sort(first)]
            frontier = dst[pos]
            unseen[frontier] = False
            parent[frontier] = src[pos]
            parent_edge[frontier] = eid[pos]
        # the next root is the least unseen vertex; argmax stops there
        root += int(np.argmax(unseen[root:]))
    order = np.concatenate(layers) if layers else np.empty(0, np.int64)
    return parent, parent_edge, order, comps


def _skeleton(X: SimplicialComplex) -> _Skeleton:
    """Edge and triangle incidence, weights and a BFS forest, cached on X.

    The forest is the plain BFS that tree_gauge_fix documents and the
    gauge search depends on: each component is searched from its least
    vertex (vertex 0 first), roots in increasing order; a vertex's
    neighbours are scanned in increasing order and the queue is FIFO, so
    a vertex's parent is its first discoverer and bfs_order lists the
    vertices in discovery order.
    """
    sk = getattr(X, "_coho_skeleton", None)
    if sk is not None:
        return sk
    edges = X.faces(1)
    V = X.vertex_count
    tris = X.faces(2)
    if len(tris):
        ab = X.face_index_array(tris[:, [0, 1]])
        bc = X.face_index_array(tris[:, [1, 2]])
        ac = X.face_index_array(tris[:, [0, 2]])
        tri_edges = np.stack([ab, bc, ac], axis=1)
    else:
        tri_edges = np.empty((0, 3), dtype=np.int64)
    parent, parent_edge, order, comps = _bfs_forest(edges, V)
    tree_mask = np.zeros(len(edges), dtype=bool)
    tree_mask[parent_edge[parent_edge >= 0]] = True
    sk = _Skeleton(edges=edges, tri_edges=tri_edges,
                   edge_cnt=X.containment_counts(1),
                   vert_cnt=X.containment_counts(0),
                   tri_cnt=X.containment_counts(2) if X.n >= 2 else
                   np.empty(0, dtype=np.int64),
                   parent=parent, parent_edge=parent_edge,
                   bfs_order=order, tree_mask=tree_mask,
                   n_components=comps)
    X._coho_skeleton = sk
    return sk


def _require_connected(X: SimplicialComplex):
    sk = _skeleton(X)
    if sk.n_components != 1:
        raise InputError(
            f"1-skeleton is disconnected ({sk.n_components} components)")
    return sk


# ---------------------------------------------------------------------------
# coboundary maps and the gauge action


def d0(X: SimplicialComplex, psi: Cochain0) -> Cochain1:
    """d0 psi((u, v)) = psi(u) psi(v)^-1 per canonical edge."""
    if len(psi.values) != X.vertex_count:
        raise InputError("0-cochain size does not match the complex")
    lam = psi.lam
    e = _skeleton(X).edges
    vals = lam.table[psi.values[e[:, 0]], lam.inv[psi.values[e[:, 1]]]]
    return Cochain1(lam, vals)


def d1(X: SimplicialComplex, phi: Cochain1) -> np.ndarray:
    """Triangle values phi(ab) phi(bc) phi(ca), aligned with X.faces(2)."""
    if len(phi.values) != X.face_count(1):
        raise InputError("1-cochain size does not match the complex")
    lam = phi.lam
    te = _skeleton(X).tri_edges
    v = phi.values
    return lam.table[lam.table[v[te[:, 0]], v[te[:, 1]]],
                     lam.inv[v[te[:, 2]]]]


def is_cocycle(X: SimplicialComplex, phi: Cochain1) -> bool:
    return bool((d1(X, phi) == phi.lam.identity).all())


def _apply_gauge(X: SimplicialComplex, psi_vals: np.ndarray, phi: Cochain1
                 ) -> Cochain1:
    lam = phi.lam
    e = _skeleton(X).edges
    left = lam.table[psi_vals[e[:, 0]], phi.values]
    return Cochain1(lam, lam.table[left, lam.inv[psi_vals[e[:, 1]]]])


def gauge_act(X: SimplicialComplex, psi: Cochain0, phi: Cochain1
              ) -> Cochain1:
    """psi.phi((u, v)) = psi(u) phi((u, v)) psi(v)^-1 on a cocycle."""
    if len(psi.values) != X.vertex_count:
        raise InputError("0-cochain size does not match the complex")
    if psi.lam is not phi.lam and psi.lam.name != phi.lam.name:
        raise InputError("cochains use different coefficient groups")
    if not is_cocycle(X, phi):
        raise InputError("gauge action is defined on cocycles only")
    return _apply_gauge(X, psi.values, phi)


def _tree_potential(X: SimplicialComplex, phi: Cochain1) -> np.ndarray:
    """psi(root) = e and psi(v) = phi((u, v))^-1 psi(u) down the BFS forest.

    d0 psi agrees with phi on every tree edge, so phi is a coboundary iff
    d0 psi = phi, and the gauge by psi^-1 makes phi the identity on the tree.
    """
    sk = _skeleton(X)
    lam = phi.lam
    psi = np.full(X.vertex_count, lam.identity, dtype=np.int64)
    edges = sk.edges
    for v in sk.bfs_order:
        u = sk.parent[v]
        if u < 0:
            continue
        ei = sk.parent_edge[v]
        val = int(phi.values[ei])
        if edges[ei, 0] != u:          # canonical row is (v, u)
            val = int(lam.inv[val])
        psi[v] = lam.table[lam.inv[val], psi[u]]
    return psi


def tree_gauge_fix(X: SimplicialComplex, phi: Cochain1) -> Cochain1:
    """Gauge phi to the identity on a fixed BFS spanning tree.

    The tree is rooted at vertex 0 with neighbors scanned in increasing
    order, so the result is deterministic.  Requires a connected complex
    and a cocycle.
    """
    _require_connected(X)
    if not is_cocycle(X, phi):
        raise InputError("tree gauge fixing is defined on cocycles only")
    return _apply_gauge(X, phi.lam.inv[_tree_potential(X, phi)], phi)


def is_coboundary(X: SimplicialComplex, phi: Cochain1) -> Cochain0 | None:
    """A psi with d0 psi = phi, or None.  Works per component."""
    if len(phi.values) != X.face_count(1):
        raise InputError("1-cochain size does not match the complex")
    cand = Cochain0(phi.lam, _tree_potential(X, phi))
    if np.array_equal(d0(X, cand).values, phi.values):
        return cand
    return None


# ---------------------------------------------------------------------------
# norms and distances


def _weight_counts(w: WeightTable, k: int) -> tuple[np.ndarray, int]:
    return w.X.containment_counts(k), w.denominator(k)


def norm(phi, w: WeightTable) -> Fraction:
    """Sum of weights over the support of a 0- or 1-cochain."""
    if isinstance(phi, Cochain0):
        cnt, den = _weight_counts(w, 0)
    elif isinstance(phi, Cochain1):
        cnt, den = _weight_counts(w, 1)
    else:
        raise InputError(f"cannot take the norm of {type(phi).__name__}")
    if len(phi.values) != len(cnt):
        raise InputError("cochain does not match the weight table")
    supp = phi.values != phi.lam.identity
    return Fraction(int(cnt[supp].sum()), den)


def distance(a, b, w: WeightTable) -> Fraction:
    """Weighted disagreement ||a b^-1||; orientation-independent."""
    if type(a) is not type(b):
        raise InputError("cochain degree mismatch")
    k = 0 if isinstance(a, Cochain0) else 1
    cnt, den = _weight_counts(w, k)
    if len(a.values) != len(cnt) or len(b.values) != len(cnt):
        raise InputError("cochain does not match the weight table")
    diff = a.values != b.values
    return Fraction(int(cnt[diff].sum()), den)


# ---------------------------------------------------------------------------
# tree-gauge H^1 decision


@dataclasses.dataclass
class H1Result:
    trivial: bool
    witness: Cochain1 | None
    mode: str
    classes: int | None = None

    def summary(self) -> str:
        out = f"H1 {'trivial' if self.trivial else 'NON-trivial'} " \
              f"({self.mode} mode"
        if self.classes is not None:
            out += f", {self.classes} classes"
        return out + ")"


def _gauge_solutions(X: SimplicialComplex, lam: CoefficientGroup,
                     cap: int, stop_after: int | None = None
                     ) -> list[tuple[int, ...]]:
    """All tree-trivial cocycles, in lexicographic order of value tuples.

    Iterative DFS over non-tree edge values with unit propagation through
    the triangle equations.  Branching always picks the lowest-index
    unassigned edge and tries values in increasing order; propagation is
    deterministic, so two solutions first differ exactly at some branch
    edge and the emission order is the lex order.  The all-identity
    assignment is therefore always emitted first.
    """
    sk = _require_connected(X)
    E = len(sk.edges)
    m, e0 = lam.size, lam.identity
    t, inv = lam.table.tolist(), lam.inv.tolist()
    # memoryviews of int64 arrays read and write plain ints with no numpy
    # scalar in between, and unlike lists they hold no int object per entry
    flat = np.ascontiguousarray(sk.tri_edges, dtype=np.int64).reshape(-1)
    tri = memoryview(flat)
    # edge -> triangle incidence as CSR; the stable sort lists each edge's
    # triangles in increasing order
    inc = memoryview(np.argsort(flat, kind="stable") // 3)
    ptr = memoryview(np.concatenate(
        [[0], np.cumsum(np.bincount(flat, minlength=E))]))
    assign = memoryview(np.full(E, -1, dtype=np.int64))
    trail: list[int] = []

    def set_edge(epos: int, val: int, pending: list[int]) -> bool:
        cur = assign[epos]
        if cur >= 0:
            return cur == val
        assign[epos] = val
        trail.append(epos)
        pending.extend(inc[ptr[epos]:ptr[epos + 1]])
        return True

    def propagate(pending: list[int]) -> bool:
        while pending:
            k = 3 * pending.pop()
            ea, eb, ec = tri[k], tri[k + 1], tri[k + 2]
            a, b, c = assign[ea], assign[eb], assign[ec]
            nun = (a < 0) + (b < 0) + (c < 0)
            if nun >= 2:
                continue
            if nun == 0:
                if t[t[a][b]][inv[c]] != e0:
                    return False
                continue
            # product a.b.c^-1 = e with one unknown slot
            if a < 0:
                ok = set_edge(ea, t[c][inv[b]], pending)
            elif b < 0:
                ok = set_edge(eb, t[inv[a]][c], pending)
            else:
                ok = set_edge(ec, t[a][b], pending)
            if not ok:
                return False
        return True

    def undo_to(mark: int):
        while len(trail) > mark:
            assign[trail.pop()] = -1

    pending: list[int] = []
    ok = True
    for epos in np.flatnonzero(sk.tree_mask).tolist():
        ok = ok and set_edge(epos, e0, pending)
    ok = ok and propagate(pending)
    if not ok:
        return []

    def next_unassigned(start: int) -> int:
        while start < E and assign[start] >= 0:
            start += 1
        return start

    sols: list[tuple[int, ...]] = []

    def record() -> bool:
        sols.append(tuple(assign.tolist()))
        return stop_after is not None and len(sols) >= stop_after

    pos = next_unassigned(0)
    if pos == E:
        record()
        return sols
    nodes = 0
    stack = [[pos, 0, len(trail)]]
    while stack:
        frame = stack[-1]
        epos, val, mark = frame
        undo_to(mark)
        if val == m:
            stack.pop()
            continue
        frame[1] += 1
        nodes += 1
        if nodes > cap:
            raise ResourceLimitError(
                f"gauge search exceeded {cap} nodes", partial_count=nodes)
        pending = []
        if set_edge(epos, val, pending) and propagate(pending):
            nxt = next_unassigned(epos + 1)
            if nxt == E:
                if record():
                    return sols
            else:
                stack.append([nxt, 0, len(trail)])
    return sols


def _conjugation_classes(sols: Iterable[tuple[int, ...]],
                         lam: CoefficientGroup) -> int:
    """Orbits of tree-trivial cocycles under constant conjugation."""
    # conj[c, v] = c v c^-1, one row per constant c
    conj = lam.table[lam.table, lam.inv[:, None]]
    seen: set[tuple[int, ...]] = set()
    classes = 0
    for s in sols:
        if s in seen:
            continue
        classes += 1
        orbit = conj[:, np.asarray(s, dtype=np.int64)]
        seen.update(map(tuple, orbit.tolist()))
    return classes


def h1_trivial(X: SimplicialComplex, lam: CoefficientGroup,
               mode: str = "gauge", cap: int = DEFAULT_CAP) -> H1Result:
    """Decide whether H^1(X, Lambda) is trivial.

    gauge mode backtracks over tree-trivial cocycles (see module notes);
    the witness is the lexicographically least nontrivial one.  brute mode
    independently enumerates C^1, filters Z^1 by checking every triangle,
    computes B^1 from all of C^0, and counts gauge orbits; it is the
    oracle the gauge mode is validated against and requires
    |Lambda|^|X(1)| and |Lambda|^|X(0)| within cap.
    """
    if X.n < 1:
        raise InputError("H^1 needs a complex with edges")
    if mode == "gauge":
        sols = _gauge_solutions(X, lam, cap, stop_after=2)
        if not sols:
            raise StructureError("tree propagation failed; the identity "
                                 "cochain must always survive")
        if len(sols) == 1:
            return H1Result(True, None, "gauge")
        return H1Result(False, Cochain1(lam, np.array(sols[1])), "gauge")
    if mode == "brute":
        return _h1_brute(X, lam, cap)
    raise InputError(f"unknown mode {mode!r}")


def h1_class_census(X: SimplicialComplex, lam: CoefficientGroup,
                    cap: int = DEFAULT_CAP) -> H1Result:
    """Gauge-mode census: count every cohomology class.

    Classes biject with constant-conjugation orbits of tree-trivial
    cocycles; cross-checked against the brute census in the tests.
    """
    sols = _gauge_solutions(X, lam, cap)
    classes = _conjugation_classes(sols, lam)
    witness = None
    for s in sols[1:]:
        witness = Cochain1(lam, np.array(s))
        break
    return H1Result(classes == 1, witness, "gauge", classes=classes)


# ---------------------------------------------------------------------------
# brute-force H^1 (the oracle mode)


def _enumerate_coboundaries(X: SimplicialComplex, lam: CoefficientGroup,
                            cap: int) -> set[tuple[int, ...]]:
    V = X.vertex_count
    m = lam.size
    if m ** V > cap:
        raise ResourceLimitError(
            f"|Lambda|^|X(0)| = {m}**{V} exceeds cap {cap}")
    out: set[tuple[int, ...]] = set()
    for psi in itertools.product(range(m), repeat=V):
        c = d0(X, Cochain0(lam, np.array(psi, dtype=np.int64)))
        out.add(tuple(int(x) for x in c.values))
    return out


_BRUTE_CHUNK = 1 << 16


def _enumerate_cocycles(X: SimplicialComplex, lam: CoefficientGroup,
                        cap: int) -> list[tuple[int, ...]]:
    """Every cocycle, by checking all triangles on all of C^1.

    Cochains are decoded from mixed-radix indices with edge 0 as the most
    significant digit, so the output comes back in lexicographic order.
    The low digits are decoded once into a table that every chunk shares,
    and each chunk fills in its own high digits; a cochain is dropped at
    the first triangle it fails.
    """
    sk = _skeleton(X)
    E = len(sk.edges)
    m = lam.size
    total = m ** E
    if total > cap:
        raise ResourceLimitError(
            f"|Lambda|^|X(1)| = {m}**{E} exceeds cap {cap}")
    t, inv = lam.table, lam.inv
    te = sk.tri_edges.tolist()
    e0 = lam.identity
    low = 0
    while low < E and m ** (low + 1) <= _BRUTE_CHUNK:
        low += 1
    high = E - low

    def digits(k: int) -> np.ndarray:
        """Row i: the k base-m digits of i, most significant first."""
        place = m ** np.arange(k - 1, -1, -1, dtype=np.int64)
        return np.arange(m ** k, dtype=np.int64)[:, None] // place % m

    low_digits = digits(low)
    out: list[tuple[int, ...]] = []
    for hi in digits(high):
        # int16 holds every index below MAX_COEFF_ORDER in a quarter of
        # the bytes that int64 takes
        vals = np.empty((len(low_digits), E), dtype=np.int16)
        vals[:, :high] = hi
        vals[:, high:] = low_digits
        for ea, eb, ec in te:
            if not len(vals):
                break
            prod = t[t[vals[:, ea], vals[:, eb]], inv[vals[:, ec]]]
            vals = vals[prod == e0]
        out.extend(map(tuple, vals.tolist()))
    return out


def _h1_brute(X: SimplicialComplex, lam: CoefficientGroup, cap: int
              ) -> H1Result:
    _require_connected(X)
    b1 = _enumerate_coboundaries(X, lam, cap)
    cocycles = _enumerate_cocycles(X, lam, cap)
    witness = None
    for phi in cocycles:
        if phi not in b1:
            witness = Cochain1(lam, np.array(phi))
            break
    abelian = bool(np.array_equal(lam.table, lam.table.T))
    if abelian:
        # orbits are cosets phi.B^1, so the census is a division
        if len(cocycles) % len(b1):
            raise StructureError("B^1 does not partition Z^1 evenly")
        classes = len(cocycles) // len(b1)
    else:
        V = X.vertex_count
        m = lam.size
        psis = [np.array(p, dtype=np.int64)
                for p in itertools.product(range(m), repeat=V)]
        zset = set(cocycles)
        seen: set[tuple[int, ...]] = set()
        classes = 0
        for phi in cocycles:
            if phi in seen:
                continue
            classes += 1
            base = Cochain1(lam, np.array(phi))
            for psi in psis:
                img = tuple(int(x)
                            for x in _apply_gauge(X, psi, base).values)
                if img not in zset:
                    raise StructureError("gauge action left Z^1")
                seen.add(img)
    return H1Result(classes == 1, witness, "brute", classes=classes)


# ---------------------------------------------------------------------------
# expansion constants


def _stirling2_total(V: int, bmax: int) -> int:
    """Number of partitions of V labeled items into 2..bmax blocks."""
    row = [1] + [0] * V            # S(0, j)
    prev = row
    for i in range(1, V + 1):
        cur = [0] * (V + 1)
        for j in range(1, i + 1):
            cur[j] = prev[j - 1] + j * prev[j]
        prev = cur
    return sum(prev[2:bmax + 1])


def _partitions_upto(V: int, bmax: int):
    """Restricted growth strings with at most bmax blocks."""
    a = [0] * V
    mx = [0] * V                  # running max of a[:i+1]
    i = V - 1
    yield a
    while i > 0:
        limit = min(mx[i - 1] + 1, bmax - 1)
        if a[i] < limit:
            a[i] += 1
            mx[i] = max(mx[i - 1], a[i])
            for j in range(i + 1, V):
                a[j] = 0
                mx[j] = mx[i]
            yield a
            i = V - 1
        else:
            i -= 1


def expansion_h0(X: SimplicialComplex, lam: CoefficientGroup,
                 cap: int = DEFAULT_CAP) -> Fraction:
    """h^0_cobound: min ||d0 phi|| / dist(phi, constants), exact.

    The ratio depends only on the partition of the vertices into level
    sets of phi, so the search runs over partitions with at most |Lambda|
    blocks instead of all |Lambda|^|X(0)| cochains; |Lambda| = 2 gets a
    vectorized subset scan.
    """
    if lam.size < 2:
        raise ParameterError("expansion needs a non-trivial group")
    if X.n < 1:
        raise InputError("expansion_h0 needs a 1-skeleton")
    sk = _skeleton(X)
    V = X.vertex_count
    ecnt = sk.edge_cnt
    vcnt = sk.vert_cnt
    wt = WeightTable(X)
    d_edge, d_vert = wt.denominator(1), wt.denominator(0)
    total_v = int(vcnt.sum())
    if lam.size == 2:
        if V - 1 > 24 or 2 ** (V - 1) > cap:
            raise ResourceLimitError(
                f"2**{V - 1} vertex subsets exceed cap {cap}")
        # vertex V-1 pinned outside; {S, S^c} pairs then appear once
        subs = np.arange(1, 2 ** (V - 1), dtype=np.uint64)
        u, w = sk.edges[:, 0], sk.edges[:, 1]
        num = np.zeros(len(subs), dtype=np.int64)
        for ei in range(len(sk.edges)):
            cross = ((subs >> np.uint64(u[ei])) ^
                     (subs >> np.uint64(w[ei]))) & np.uint64(1)
            num += cross.astype(np.int64) * int(ecnt[ei])
        side = np.zeros(len(subs), dtype=np.int64)
        for v in range(V):
            inside = (subs >> np.uint64(v)) & np.uint64(1)
            side += inside.astype(np.int64) * int(vcnt[v])
        den = np.minimum(side, total_v - side)
        ratio = num.astype(float) / den.astype(float)
        lo = ratio.min()
        cand = np.flatnonzero(ratio <= lo * (1 + 1e-9) + 1e-300)
        best = min(Fraction(int(num[i]) * d_vert, int(den[i]) * d_edge)
                   for i in cand)
        return best
    bmax = min(lam.size, V)
    if _stirling2_total(V, bmax) > cap:
        raise ResourceLimitError(
            f"partition count exceeds cap {cap}")
    eu, ev = sk.edges[:, 0], sk.edges[:, 1]
    best = None
    for lab in _partitions_upto(V, bmax):
        arr = lab  # list of ints, block ids 0..bmax-1
        if max(arr) == 0:
            continue                       # constant phi, in B^0
        num = 0
        for ei in range(len(eu)):
            if arr[eu[ei]] != arr[ev[ei]]:
                num += int(ecnt[ei])
        blocks: dict[int, int] = {}
        for v in range(V):
            blocks[arr[v]] = blocks.get(arr[v], 0) + int(vcnt[v])
        den = total_v - max(blocks.values())
        r = Fraction(num * d_vert, den * d_edge)
        if best is None or r < best:
            best = r
    if best is None:
        raise InputError("no non-constant cochain exists")
    return best


@dataclasses.dataclass
class ExpansionH1Report:
    h1_cobound: Fraction | None
    h1_cosys: Fraction | None
    min_systole: Fraction | None
    mode: str
    exact: bool

    def summary(self) -> str:
        tag = "exact" if self.exact else "upper bounds (search)"
        return (f"h1_cobound={self.h1_cobound}  h1_cosys={self.h1_cosys}  "
                f"min_systole={self.min_systole}  [{tag}]")


def _exact_min_ratio(num: np.ndarray, den: np.ndarray, valid: np.ndarray,
                     d_num: int, d_den: int) -> Fraction | None:
    """min over valid of (num/d_num) / (den/d_den), exact."""
    idx = np.flatnonzero(valid)
    if len(idx) == 0:
        return None
    nf = num[idx].astype(float)
    df = den[idx].astype(float)
    r = nf / df
    lo = r.min()
    cand = idx[r <= lo * (1 + 1e-9) + 1e-300]
    return min(Fraction(int(num[i]) * d_den, int(den[i]) * d_num)
               for i in cand)


def _rref_mod_p(rows: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Reduced row echelon form of an integer matrix over F_p, p prime.

    Returns (R, pivots): the rank-many nonzero rows, entries in 0..p-1;
    row i has a leading 1 in column pivots[i], where every other row is 0.
    So v lies in the row space iff v - v[pivots] @ R is 0 mod p.
    """
    R = rows % p
    pivots = []
    for c in range(R.shape[1]):
        r = len(pivots)
        nz = np.flatnonzero(R[r:, c])
        if len(nz):
            R[[r, r + nz[0]]] = R[[r + nz[0], r]]
            R[r] = R[r] * pow(int(R[r, c]), p - 2, p) % p
            f = R[:, c] * (np.arange(len(R)) != r)
            R = (R - f[:, None] * R[r]) % p
            pivots.append(c)
    return R[:len(pivots)], np.array(pivots, dtype=np.int64)


_SCAN_ROWS = 1 << 9


def _span_blocks(basis: np.ndarray, p: int):
    """All p^k combinations of the k basis rows mod p, in blocks."""
    place = p ** np.arange(len(basis), dtype=np.int64)
    total = p ** len(basis)
    for lo in range(0, total, _SCAN_ROWS):
        idx = np.arange(lo, min(lo + _SCAN_ROWS, total), dtype=np.int64)
        yield (idx[:, None] // place % p) @ basis % p


def _expansion_h1_zp(X: SimplicialComplex, lam: CoefficientGroup,
                     cap: int) -> ExpansionH1Report:
    """Exact (h1_cobound, h1_cosys, min_systole) for |Lambda| = p prime.

    Z^1 = ker d1 gets the basis that is the identity on the free columns of
    d1, so each coset a + Z^1 has one member supported on the pivot
    columns of d1; the scan visits those p^rank(d1) cochains.  dist(a, Z^1)
    is W - max_z sum_e w_e [a_e = z_e], a float64 product of one-hot rows,
    exact as the counts stay far below 2^53.  The systole is the least
    weight in Z^1 outside B^1, the row space of d0^T.
    """
    sk = _skeleton(X)
    E, p = len(sk.edges), lam.size
    if p ** E > cap:
        raise ResourceLimitError(
            f"|Lambda|^|X(1)| = {p}**{E} exceeds cap {cap}")
    # residues res[g^k] = k for the least non-identity g: checked to turn
    # the table into addition mod p, under which d1 has rows ab + bc - ac
    g = 1 if lam.identity == 0 else 0
    res = np.full(p, -1, dtype=np.int64)
    cur = lam.identity
    for k in range(p):
        res[cur] = k
        cur = int(lam.table[cur, g])
    if not np.array_equal(res[lam.table], (res[:, None] + res[None, :]) % p):
        raise StructureError(f"{lam.name} is not cyclic of order {p}")
    ecnt, tcnt = sk.edge_cnt, sk.tri_cnt
    wt = WeightTable(X)
    d_edge, d_tri = wt.denominator(1), wt.denominator(2)
    d1m = np.zeros((len(sk.tri_edges), E), dtype=np.int64)
    d1m[np.arange(len(d1m))[:, None], sk.tri_edges] = [1, 1, -1]
    d0t = np.zeros((X.vertex_count, E), dtype=np.int64)
    d0t[sk.edges, np.arange(E)[:, None]] = [1, -1]
    R, pivots = _rref_mod_p(d1m, p)
    free = np.setdiff1d(np.arange(E), pivots)
    z_basis = np.eye(E, dtype=np.int64)[free]
    z_basis[:, pivots] = -R[:, free].T % p
    b_rref, b_pivots = _rref_mod_p(d0t, p)
    nontrivial = len(z_basis) > len(b_rref)
    total_w = int(ecnt.sum())
    systole = None
    if nontrivial:
        best = total_w
        for z in _span_blocks(z_basis, p):
            in_b1 = ((z - z[:, b_pivots] @ b_rref) % p == 0).all(axis=1)
            best = int(((z != 0) @ ecnt)[~in_b1].min(initial=best))
        systole = Fraction(best, d_edge)
    h1_cosys: Fraction | None = None
    for a in _span_blocks(np.eye(E, dtype=np.int64)[pivots], p):
        num = ((a @ d1m.T) % p != 0) @ tcnt
        a_hot = (np.eye(p)[a] * ecnt[:, None]).reshape(len(a), -1)
        agree = np.zeros(len(a))
        for z in _span_blocks(z_basis, p):
            z_hot = np.eye(p)[z].reshape(len(z), -1)
            np.maximum(agree, (a_hot @ z_hot.T).max(axis=1), out=agree)
        dist = total_w - agree.astype(np.int64)
        r = _exact_min_ratio(num, dist, dist > 0, d_tri, d_edge)
        if r is not None and (h1_cosys is None or r < h1_cosys):
            h1_cosys = r
    # H^1 nontrivial forces the coboundary min to 0; otherwise B^1 = Z^1
    h1_cobound = Fraction(0) if nontrivial else h1_cosys
    return ExpansionH1Report(h1_cobound, h1_cosys, systole,
                             mode="exact", exact=True)


def _ratio_to(X: SimplicialComplex, lam: CoefficientGroup):
    """ratio(vals, ref): ||d1 vals|| over the distance from vals to ref.

    Both norms are exact in the normalized weights; the ratio is None when
    vals lies in ref, where the distance is 0.
    """
    sk = _skeleton(X)
    E = len(sk.edges)
    t, inv = lam.table, lam.inv
    e0 = lam.identity
    te = sk.tri_edges
    ecnt = sk.edge_cnt
    tcnt = sk.tri_cnt
    wt = WeightTable(X)
    d_edge, d_tri = wt.denominator(1), wt.denominator(2)

    def ratio(vals, ref) -> Fraction | None:
        dv = None
        for other in ref:
            d = sum(int(ecnt[ei]) for ei in range(E)
                    if vals[ei] != other[ei])
            if dv is None or d < dv:
                dv = d
                if dv == 0:
                    return None
        num = 0
        for ti, (ea, eb, ec) in enumerate(te):
            if t[t[vals[ea], vals[eb]], inv[vals[ec]]] != e0:
                num += int(tcnt[ti])
        return Fraction(num * d_edge, dv * d_tri)

    return ratio


def _expansion_h1_generic(X: SimplicialComplex, lam: CoefficientGroup,
                          cap: int) -> ExpansionH1Report:
    sk = _skeleton(X)
    E = len(sk.edges)
    m = lam.size
    if m ** E > cap:
        raise ResourceLimitError(
            f"|Lambda|^|X(1)| = {m}**{E} exceeds cap {cap}")
    b1set = _enumerate_coboundaries(X, lam, cap)
    z1 = _enumerate_cocycles(X, lam, cap)
    ecnt = sk.edge_cnt
    e0 = lam.identity
    nontriv = [v for v in z1 if v not in b1set]
    systole = None
    if nontriv:
        systole = Fraction(
            min(sum(int(ecnt[ei]) for ei in range(E) if v[ei] != e0)
                for v in nontriv),
            WeightTable(X).denominator(1))
    ratio = _ratio_to(X, lam)
    h1_cosys: Fraction | None = None
    for vals in itertools.product(range(m), repeat=E):
        r = ratio(vals, z1)
        if r is not None and (h1_cosys is None or r < h1_cosys):
            h1_cosys = r
    # H^1 nontrivial forces the coboundary min to 0; otherwise B^1 = Z^1
    h1_cobound = Fraction(0) if nontriv else h1_cosys
    return ExpansionH1Report(h1_cobound, h1_cosys, systole,
                             mode="exact", exact=True)


def _expansion_h1_search(X: SimplicialComplex, lam: CoefficientGroup,
                         cap: int, seed: int, iters: int
                         ) -> ExpansionH1Report:
    """Randomized upper bound on h^1_cobound: best ratio over proposals.

    Distances to B^1 are exact (full coboundary enumeration, so the
    reported value is a true upper bound); the minimization over C^1 is
    heuristic.  h^1_cosys and the systole are not estimated.
    """
    E = len(_skeleton(X).edges)
    m = lam.size
    b1 = sorted(_enumerate_coboundaries(X, lam, cap))
    ratio = _ratio_to(X, lam)
    rng = random.Random(seed)
    best: Fraction | None = None
    for _ in range(max(1, iters)):
        vals = [rng.randrange(m) for _ in range(E)]
        r = ratio(vals, b1)
        improved = True
        while improved:
            improved = False
            for ei in range(E):
                old = vals[ei]
                for nv in range(m):
                    if nv == old:
                        continue
                    vals[ei] = nv
                    r2 = ratio(vals, b1)
                    if r2 is not None and (r is None or r2 < r):
                        r = r2
                        old = nv
                        improved = True
                vals[ei] = old
        if r is not None and (best is None or r < best):
            best = r
    return ExpansionH1Report(best, None, None, mode="search", exact=False)


def expansion_h1(X: SimplicialComplex, lam: CoefficientGroup,
                 mode: str = "exact", cap: int = DEFAULT_CAP,
                 seed: int = 0, iters: int = 32) -> ExpansionH1Report:
    """Coboundary/cosystolic expansion in degree 1.

    exact mode returns (h1_cobound, h1_cosys, min systole norm) as exact
    rationals from one scan for h1_cosys, within |Lambda|^|X(1)| <= cap.
    h1_cobound is read off it: 0 when Z^1 != B^1, else equal to h1_cosys,
    since then the two reference sets coincide.  Prime |Lambda| scans one
    cochain per coset of Z^1 over F_p; other groups scan all of C^1.
    search mode returns the best ratio found by randomized local descent,
    a true upper bound on h1_cobound, with the other fields unset.
    """
    if lam.size < 2:
        raise ParameterError("expansion needs a non-trivial group")
    if X.n < 2:
        raise InputError("expansion_h1 needs a 2-dimensional complex")
    _require_connected(X)
    if mode == "exact":
        if is_prime(lam.size):
            return _expansion_h1_zp(X, lam, cap)
        return _expansion_h1_generic(X, lam, cap)
    if mode == "search":
        return _expansion_h1_search(X, lam, cap, seed, iters)
    raise InputError(f"unknown mode {mode!r}")


def dd_bound(lam_2: float, beta: float) -> float:
    """(1 - lambda) beta / 24 - e lambda, at double precision.

    The trickling-down style guarantee for 1-cosystolic expansion given a
    links-spectral bound lambda and a local constant beta; negative
    output means the bound is vacuous at these parameters.
    """
    lam_2 = float(lam_2)
    beta = float(beta)
    if not 0 <= lam_2 < 1:
        raise ParameterError(f"need 0 <= lambda < 1, got {lam_2}")
    if beta <= 0:
        raise ParameterError(f"need beta > 0, got {beta}")
    return (1.0 - lam_2) * beta / 24.0 - math.e * lam_2
