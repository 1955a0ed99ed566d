"""Pure partite simplicial complexes and the coset-complex construction.

A complex is stored by its maximal faces: an (M, n+1) array of strictly
increasing vertex indices, rows unique and lexicographically sorted.  All
lower-dimensional face tables are derived on demand and cached together
with maximal-face containment counts, which is exactly the data the weight
function needs.  Weights are exact rationals throughout.

Connectivity is one routine, ``groups.component_labels``: a complex
caches the root count of its 1-skeleton's labels as ``component_count``,
which ``spectral.walk_matrix`` and ``cohomology`` read, and
``spectral.coset_walk`` counts the roots of the labels of the edges it
reads off its colour blocks.  The one spanning forest, which only the
tree gauge of H^1 reads, is the cached BFS of ``spanning_forest``, whose
order contract ``bfs_forest`` states.

Coset complexes are built from the group orbit of the base chamber
{K_0, ..., K_n}: every face with pairwise intersecting cosets lies in some
translate g.{K_0, ..., K_n}, so the orbit enumeration is O(|G|) instead of
quadratic in the vertex count.  The equivalence with the literal pairwise
intersection rule is re-checked against a naive builder in the test suite.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from ._kernels.common import (KeyIndex, key_runs, lex_keys, sorted_distinct,
                              stable_order, unique_rows)
from .errors import DEFAULT_CAP, InputError, ParameterError, StructureError
from .groups import (CosetPartition, FiniteGroup, component_labels, cosets,
                     quotient, rotate_rows, sl_group, subgroup_K)


# the edges ab, bc, ac of a triangle abc, the column order of triangle_edges
_TRIANGLE_EDGES = [[0, 1], [1, 2], [0, 2]]


def _same_rows(A: np.ndarray, B: np.ndarray, base: int) -> bool:
    """Do two arrays of rows in [0, base) hold the same multiset of rows?"""
    return A.shape == B.shape and bool(np.array_equal(
        np.sort(lex_keys(A, base)), np.sort(lex_keys(B, base))))


def bfs_forest(edges: np.ndarray, V: int
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(parent, parent_edge, order) of a graph's BFS forest.

    The order contract: each component is searched from its least vertex,
    roots in increasing order; a vertex scans its neighbours in increasing
    order, whatever the order of the edge rows, and the queue is FIFO.  So
    a vertex's parent is its first discoverer, and ``order`` lists the
    vertices in discovery order.  ``parent_edge`` holds row indices into
    ``edges``; both it and ``parent`` are -1 at the roots.

    The arcs are sorted once by their (source, neighbour) keys, in one
    packed sort (``stable_order``), so the frontier's neighbour lists,
    concatenated in frontier order, are the FIFO scan of a layer.  The
    least scan position of each unseen neighbour, found by
    ``np.minimum.at``, is its discovery, and the next layer keeps the
    discoveries in scan order.
    """
    parent = np.full(V, -1, dtype=np.int64)
    parent_edge = np.full(V, -1, dtype=np.int64)
    E = len(edges)
    if not E:                      # every vertex is a component of its own
        return parent, parent_edge, np.arange(V, dtype=np.int64)
    src = np.concatenate([edges[:, 0], edges[:, 1]])
    dst = np.concatenate([edges[:, 1], edges[:, 0]])
    arcs = stable_order(src * V + dst)
    nbr = dst[arcs]
    deg = np.bincount(src, minlength=V)
    start = np.cumsum(deg) - deg
    first = np.full(V, len(arcs), dtype=np.int64)
    # a sentinel at V stops the scan for the next root
    unseen = np.ones(V + 1, dtype=bool)
    layers, root = [], 0
    while root < V:
        unseen[root] = False
        frontier = np.array([root], dtype=np.int64)
        while len(frontier):
            layers.append(frontier)
            cnt = deg[frontier]
            pos = (np.repeat(start[frontier] - np.cumsum(cnt) + cnt, cnt)
                   + np.arange(int(cnt.sum())))
            pos = pos[unseen[nbr[pos]]]
            found, at = nbr[pos], np.arange(len(pos))
            # a vertex is found in one layer only, so first needs no reset
            np.minimum.at(first, found, at)
            arc = arcs[pos[first[found] == at]]
            frontier = dst[arc]
            unseen[frontier] = False
            parent[frontier] = src[arc]
            parent_edge[frontier] = arc % E
        root += int(np.argmax(unseen[root:]))
    return parent, parent_edge, np.concatenate(layers)


class SimplicialComplex:
    """Pure n-dimensional complex given by its maximal faces.

    ``colors`` is optional: coset complexes always carry the partite
    coloring, while some test fixtures (e.g. the 7-vertex torus) are not
    colorable at all.  When colors are present, partiteness is enforced.

    A vertex is its index.  ``coset_data`` is the CosetStructure that
    ``coset_complex`` sets on the complexes it builds, ``origin_vertices``
    the original indices that ``link()`` sets on the link of a nonempty
    face; every other complex keeps None in each.

    The complex owns every derived table and caches each on first use:
    the face tables with their containment counts, the triangle -> edge
    index (``triangle_edges``) and its slots grouped by edge
    (``edge_slots``), the vertex incidence, the one BFS forest of the
    1-skeleton (``spanning_forest``) and its component count.  On a
    2-dimensional complex the edge table, the triangle -> edge index and
    the slots by edge all come from one sort, whose order the edge table
    keeps as int32.
    """

    def __init__(self, n: int, vertex_count: int, max_faces, colors=None):
        if n < -1:
            raise ParameterError(f"dimension must be >= -1, got {n}")
        w = n + 1
        mf = np.asarray(max_faces, dtype=np.int64)
        if mf.ndim != 2 or mf.shape[1] != w:
            raise StructureError(
                f"maximal faces must be rows of {w} vertices, "
                f"got shape {mf.shape}")
        # rows that coset_complex and link() build arrive increasing: one
        # comparison pass spares them the sort, and spares _validate its
        # check for a repeated vertex
        increasing = w < 2 or bool((mf[:, 1:] > mf[:, :-1]).all())
        if not increasing:
            mf = np.sort(mf, axis=1)
        # the keys are injective only on rows in range: check before keying
        if (mf < 0).any() or (mf >= vertex_count).any():
            raise StructureError("vertex index out of range")
        self.n = n
        self.vertex_count = int(vertex_count)
        self.max_faces = unique_rows(mf, self.vertex_count)
        self.colors = None if colors is None else \
            np.asarray(colors, dtype=np.int64)
        self.coset_data: CosetStructure | None = None
        self.origin_vertices: np.ndarray | None = None
        self._tables: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._index: dict[int, KeyIndex] = {}
        self._incidence: tuple[np.ndarray, np.ndarray] | None = None
        self._tri_edges: np.ndarray | None = None
        self._slot_order: np.ndarray | None = None
        self._forest: tuple | None = None
        self._components: int | None = None
        self._validate(increasing)

    def _validate(self, increasing: bool):
        """Checks the complex; ``increasing`` says that every row was
        already strictly increasing before any sort."""
        mf, w, V = self.max_faces, self.n + 1, self.vertex_count
        if len(mf) == 0:
            raise StructureError("a pure complex needs at least one "
                                 "maximal face")
        if w == 0:
            if V:
                raise StructureError("dimension -1 admits no vertices")
            return
        if not increasing and not (mf[:, 1:] > mf[:, :-1]).all():
            raise StructureError("a face may not repeat a vertex")
        # the least unused vertex is at most mf.size, however large V is.
        # A larger index clips onto the last slot; mf.size entries holding
        # one cannot cover 0..mf.size - 1, so the slot never hides a gap
        seen = np.zeros(min(V, mf.size) + 1, dtype=bool)
        np.put(seen, mf, True, mode="clip")
        if (orphan := int(np.argmin(seen))) < V:
            raise StructureError(
                f"vertex {orphan} lies in no maximal face; complex not pure")
        if self.colors is not None:
            if self.colors.shape != (V,):
                raise StructureError("need one color per vertex")
            if (self.colors < 0).any() or (self.colors > self.n).any():
                raise StructureError(f"colors must lie in [0, {self.n}]")
            # w colors in [0, n] on a row's w vertices: all of them iff
            # their bits, ORed column by column, fill the mask (of int64
            # bits, below 63 colors)
            if w < 63:
                bit = np.left_shift(1, self.colors)
                seen = bit[mf[:, 0]]
                for c in range(1, w):
                    seen |= bit[mf[:, c]]
                partite = (seen == (1 << w) - 1).all()
            else:
                partite = (np.sort(self.colors[mf], axis=1) == np.arange(w)).all()
            if not partite:
                raise StructureError(
                    "not partite: some maximal face misses a color")

    # -- face tables --------------------------------------------------

    def _table(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """(faces, containment counts) for dimension k, cached.

        Below the dimension the k-faces of every maximal face are stacked
        and sorted once.  For n == 2 and k == 1 the keys of the edges ab,
        bc, ac of each triangle abc are sorted, triangle by triangle, so
        slot 3t + c holds edge c of triangle t, and the sort's stable
        order is kept, as int32, for ``triangle_edges`` and
        ``edge_slots``.
        """
        if k in self._tables:
            return self._tables[k]
        w = self.n + 1
        if k < -1 or k > self.n:
            faces = np.empty((0, k + 1), dtype=np.int64)
            cnt = np.empty(0, dtype=np.int64)
        elif k == -1:
            faces = np.empty((1, 0), dtype=np.int64)
            cnt = np.array([len(self.max_faces)])
        elif k == self.n:
            faces = self.max_faces
            cnt = np.ones(len(faces), dtype=np.int64)
        elif k == 0:
            used = np.bincount(self.max_faces.ravel(),
                               minlength=self.vertex_count)
            faces = np.arange(self.vertex_count,
                              dtype=np.int64).reshape(-1, 1)
            cnt = used
        elif (self.n, k) == (2, 1):
            # the lex key a*V + b of each edge ab, no stacked copy of rows
            V, mf = self.vertex_count, self.max_faces
            keys = np.empty((len(mf), 3), dtype=np.int64)
            for c, (a, b) in enumerate(_TRIANGLE_EDGES):
                np.multiply(mf[:, a], V, out=keys[:, c])
                keys[:, c] += mf[:, b]
            order, keys, first = key_runs(keys.reshape(-1))
            faces = np.stack(np.divmod(keys.take(first), V), axis=1)
            cnt = np.diff(np.append(first, len(keys)))
            self._slot_order = order.astype(np.int32)
        else:
            combos = list(itertools.combinations(range(w), k + 1))
            stacked = np.vstack([self.max_faces[:, c] for c in combos])
            faces, cnt = unique_rows(stacked, self.vertex_count,
                                     counts=True)
        self._tables[k] = (faces, cnt)
        return faces, cnt

    def faces(self, k: int) -> np.ndarray:
        """All k-faces, one sorted row each; empty above the dimension."""
        return self._table(k)[0]

    def containment_counts(self, k: int) -> np.ndarray:
        """|{sigma in X(n) : tau subset sigma}| aligned with faces(k)."""
        return self._table(k)[1]

    def face_count(self, k: int) -> int:
        return len(self.faces(k))

    def f_vector(self) -> tuple[int, ...]:
        return tuple(self.face_count(k) for k in range(self.n + 1))

    def euler_characteristic(self) -> int:
        return sum((-1) ** k * self.face_count(k)
                   for k in range(self.n + 1))

    def _face_index(self, k: int) -> KeyIndex:
        """The key index of faces(k), cached; its keys are already sorted."""
        if k not in self._index:
            self._index[k] = KeyIndex(lex_keys(self.faces(k),
                                                self.vertex_count))
        return self._index[k]

    def face_position(self, tau) -> int:
        """Index of tau in faces(len(tau)-1), or -1."""
        tau = sorted(int(v) for v in tau)
        k = len(tau) - 1
        if k == -1:
            return 0
        if k > self.n or len(set(tau)) != len(tau):
            return -1
        if tau[0] < 0 or tau[-1] >= self.vertex_count:
            return -1
        return int(self._face_index(k).lookup(
            lex_keys([tau], self.vertex_count))[0])

    def _vertex_incidence(self) -> tuple[np.ndarray, np.ndarray]:
        """Vertex -> maximal-face incidence in CSR form, cached.

        The maximal faces containing v are ``faces[offsets[v]:offsets[v+1]]``.
        The stable order of the flattened face array (``stable_order``, one
        packed sort) groups positions by vertex, and a face holds each
        vertex at most once, so every group lists its face indices in
        ascending order.
        """
        if self._incidence is None:
            flat = self.max_faces.ravel()
            offsets = np.zeros(self.vertex_count + 1, dtype=np.int64)
            np.cumsum(np.bincount(flat, minlength=self.vertex_count),
                      out=offsets[1:])
            faces = stable_order(flat) // (self.n + 1)
            self._incidence = (offsets, faces)
        return self._incidence

    def face_index_array(self, rows) -> np.ndarray:
        """Vectorized face_position over rows of equal width; a row that is
        not a strictly increasing row of vertices, or not a face, raises
        InputError."""
        rows = np.asarray(rows, dtype=np.int64)
        if rows.ndim != 2:
            raise InputError("expected a 2-d array of faces")
        k = rows.shape[1] - 1
        if k > self.n:
            raise InputError(f"no faces of dimension {k}")
        if ((rows < 0) | (rows >= self.vertex_count)).any() or \
                (rows[:, 1:] <= rows[:, :-1]).any():
            raise InputError("some row is not a strictly increasing row of "
                             "vertices")
        pos = self._face_index(k).lookup(lex_keys(rows, self.vertex_count))
        if (pos < 0).any():
            raise InputError("some row is not a face of the complex")
        return pos

    def triangle_edges(self) -> np.ndarray:
        """(T, 3) int32 positions in faces(1) of the edges ab, bc, ac of
        each triangle abc of faces(2), cached; no rows below dimension 2.

        For n == 2 they invert the sort behind faces(1): the slots in its
        order hold the edges in ascending position, each as often as its
        count, so no edge is searched.  For n >= 3 the triangles are not
        the rows that sort ran on, and each edge is searched in faces(1).
        """
        if self._tri_edges is None:
            tris = self.faces(2)
            te = np.empty((0, 3), dtype=np.int32)
            if self.n == 2:
                edges, cnt = self._table(1)
                te = np.empty(3 * len(tris), dtype=np.int32)
                te[self._slot_order] = np.repeat(
                    np.arange(len(edges), dtype=np.int32), cnt)
                te = te.reshape(-1, 3)
            elif self.n > 2:
                te = np.stack([self.face_index_array(tris[:, c])
                               for c in _TRIANGLE_EDGES], axis=1
                              ).astype(np.int32)
            self._tri_edges = te
        return self._tri_edges

    def edge_slots(self) -> np.ndarray:
        """The slots of ``triangle_edges().ravel()`` grouped by edge,
        edges in faces(1) order and each edge's slots ascending, that is
        ``np.argsort(triangle_edges().ravel(), kind="stable")``, as int32,
        cached.  For n == 2 this is the order of the one sort behind
        faces(1); otherwise a sort of its own."""
        self._table(1)                 # keeps that order when n == 2
        if self._slot_order is None:
            self._slot_order = stable_order(
                self.triangle_edges().ravel()).astype(np.int32)
        return self._slot_order

    # -- 1-skeleton ----------------------------------------------------

    def spanning_forest(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(parent, parent_edge, order), cached.

        The one breadth-first search of the 1-skeleton, with the order
        contract of ``bfs_forest``; parent_edge indexes faces(1).
        """
        if self._forest is None:
            self._forest = bfs_forest(self.faces(1), self.vertex_count)
        return self._forest

    def component_count(self) -> int:
        """Number of connected components of the 1-skeleton, cached: the
        roots of its ``component_labels``."""
        if self._components is None:
            e = self.faces(1)
            labels = component_labels(self.vertex_count, [(e[:, 0], e[:, 1])])
            self._components = int(np.count_nonzero(
                labels == np.arange(self.vertex_count)))
        return self._components

    def is_connected(self) -> bool:
        return self.component_count() <= 1

    def __repr__(self):
        cs = "partite" if self.colors is not None else "uncolored"
        return (f"SimplicialComplex(n={self.n}, vertices={self.vertex_count},"
                f" max_faces={len(self.max_faces)}, {cs})")


# ---------------------------------------------------------------------------
# weights


class WeightTable:
    """Exact rational face weights.

    w(tau) = #(maximal faces over tau) / (C(n+1, k+1) * #maximal), so for
    each k the weights sum to exactly one: every maximal face contributes
    C(n+1, k+1) containments.
    """

    def __init__(self, X: SimplicialComplex):
        self.X = X

    def denominator(self, k: int) -> int:
        return math.comb(self.X.n + 1, k + 1) * len(self.X.max_faces)

    def weight(self, tau) -> Fraction:
        pos = self.X.face_position(tau)
        if pos < 0:
            raise InputError(f"{tuple(tau)} is not a face")
        k = len(tuple(tau)) - 1
        return Fraction(int(self.X.containment_counts(k)[pos]),
                        self.denominator(k))

    __getitem__ = weight

    def total(self, k: int) -> Fraction:
        return Fraction(int(self.X.containment_counts(k).sum()),
                        self.denominator(k))

    def items(self, k: int):
        faces = self.X.faces(k)
        cnt = self.X.containment_counts(k)
        den = self.denominator(k)
        for row, c in zip(faces, cnt):
            yield tuple(int(v) for v in row), Fraction(int(c), den)


def weights(X: SimplicialComplex) -> WeightTable:
    return WeightTable(X)


# ---------------------------------------------------------------------------
# links


def link(X: SimplicialComplex, tau) -> SimplicialComplex:
    """The complex {eta : tau and eta disjoint, tau + eta a face}.

    Vertices are renumbered densely; the original indices are kept on the
    result as ``origin_vertices``.  Colors, when present, are compacted to
    the surviving color set.  link(X, ()) is X itself.

    Only the maximal faces at tau's rarest vertex are scanned, read from
    the complex's cached vertex incidence, so after that index is built
    once a link costs O(faces at tau) rather than O(all maximal faces).
    A tau that no maximal face contains raises InputError.
    """
    tau = tuple(sorted(int(v) for v in tau))
    if len(tau) == 0:
        return X
    if (len(set(tau)) != len(tau) or tau[0] < 0
            or tau[-1] >= X.vertex_count):
        raise InputError(f"{tau} is not a face of the complex")
    offsets, at = X._vertex_incidence()
    t = np.asarray(tau)
    r = tau[int(np.argmin(offsets[t + 1] - offsets[t]))]
    sub = X.max_faces[at[offsets[r]:offsets[r + 1]]]
    mask = np.ones(len(sub), dtype=bool)
    for v in tau:
        mask &= (sub == v).any(axis=1)
    sub = sub[mask]
    if len(sub) == 0:
        raise InputError(f"{tau} is not a face of the complex")
    keep = ~np.isin(sub, tau)
    rest = sub[keep].reshape(len(sub), X.n + 1 - len(tau))
    verts = sorted_distinct(rest)
    renum = np.searchsorted(verts, rest)
    colors = None
    if X.colors is not None and len(verts):
        palette = sorted_distinct(X.colors[verts])
        colors = np.searchsorted(palette, X.colors[verts])
    lk = SimplicialComplex(X.n - len(tau), len(verts), renum, colors=colors)
    lk.origin_vertices = verts
    return lk


# ---------------------------------------------------------------------------
# coset complexes


@dataclasses.dataclass
class CosetStructure:
    """Bookkeeping that ties coset-complex vertices back to the group."""

    partitions: list[CosetPartition]
    offsets: np.ndarray  # offsets[i] is the first vertex id of color i


def coset_vertices(G: FiniteGroup, subgroups: Sequence) -> tuple:
    """(partitions, offsets) of CC(G, {K_i}): vertex offsets[i] + c is the
    coset of ordinal c of colour i, so g's chamber is the k vertices
    offsets[i] + partitions[i].ordinal[g].  ``subgroups`` holds one entry
    per color: an element-index collection, whose coset partition
    ``cosets()`` derives, or a ready CosetPartition of G
    (``groups.ko_link_cosets``)."""
    if len(subgroups) < 2:
        raise ParameterError("need at least two subgroups (n >= 1)")
    parts = [sub if isinstance(sub, CosetPartition) else cosets(G, sub)
             for sub in subgroups]
    if any(part.group is not G for part in parts):
        raise InputError("coset partition of a different group")
    return parts, np.concatenate([[0], np.cumsum([p.n_cosets for p in parts])])


def coset_complex(G: FiniteGroup, subgroups: Sequence) -> SimplicialComplex:
    """CC(G, {K_i}): vertices gK_i colored i, faces from the chamber orbit.

    Vertices as in ``coset_vertices``, kept in ``coset_data``; maximal faces
    {gK_0, ..., gK_n} over all g.  The base chamber's stabilizer is the
    intersection of the K_i, so there are |G|/|n_i K_i| faces.

    Every face of color type T is a translate g.{K_i : i in T} of the base
    chamber's T-face, so G acts transitively on the faces of each color
    type, and left translation (see ``left_translation_action``) carries
    one such face's weighted link isomorphically onto another's.
    """
    parts, offsets = coset_vertices(G, subgroups)
    rows = np.stack([o + part.ordinal for o, part in zip(offsets, parts)],
                    axis=1)
    colors = np.repeat(np.arange(len(parts)), np.diff(offsets))
    X = SimplicialComplex(len(parts) - 1, int(offsets[-1]), rows, colors)
    X.coset_data = CosetStructure(parts, offsets)
    return X


def left_translation_action(X: SimplicialComplex, G: FiniteGroup,
                            elements: Iterable[int]) -> list[np.ndarray]:
    """Vertex permutations g.(hK_i) = (gh)K_i for each listed g, an
    element index of the complex's own group G."""
    data = X.coset_data
    if data is None:
        raise InputError("complex does not carry coset structure")
    if G is not data.partitions[0].group:
        raise InputError("group is not the one the complex's cosets partition")
    elements = [int(g) for g in elements]  # possibly a generator: read once
    if any(not 0 <= g < G.size for g in elements):
        raise InputError(f"group elements must lie in [0, {G.size})")
    out = []
    for g in elements:
        lt = G.left_mult_table(g)
        perm = np.empty(X.vertex_count, dtype=np.int64)
        for i, part in enumerate(data.partitions):
            lo = data.offsets[i]
            perm[lo:lo + part.n_cosets] = lo + part.ordinal[lt[part.reps]]
        out.append(perm)
    return out


# ---------------------------------------------------------------------------
# quotients by simplicial actions


def quotient_by_action(X: SimplicialComplex, perms: Sequence[np.ndarray]
                       ) -> tuple[SimplicialComplex, np.ndarray]:
    """Identify vertices along the orbits of the given automorphisms.

    Every permutation must be a color-preserving simplicial automorphism;
    the face rule is the literal one (a face of the quotient is an orbit
    tuple containing some face of X), which under color preservation is
    just the image of the maximal-face list.  Returns the quotient and
    the vertex projection array.
    """
    V = X.vertex_count
    mf = X.max_faces
    checked = []
    for perm in perms:
        perm = np.asarray(perm, dtype=np.int64)
        if perm.shape != (V,) or not np.array_equal(
                np.sort(perm), np.arange(V)):
            raise StructureError("action generator is not a vertex "
                                 "permutation")
        if X.colors is not None and not np.array_equal(
                X.colors[perm], X.colors):
            raise StructureError("action does not preserve colors")
        mapped = np.sort(perm[mf], axis=1)
        if not _same_rows(mapped, mf, V):
            raise StructureError("action generator is not simplicial")
        checked.append(perm)
    idx = np.arange(V)
    labels = component_labels(V, [(idx, perm) for perm in checked])
    reps = np.flatnonzero(labels == idx)
    proj = np.searchsorted(reps, labels)
    qf = proj[mf]
    qf.sort(axis=1)
    if X.n >= 1 and not (qf[:, 1:] > qf[:, :-1]).all():
        raise StructureError(
            "orbits collapse a face; quotient would not be rigid")
    q_colors = None if X.colors is None else X.colors[reps]
    Y = SimplicialComplex(X.n, len(reps), qf, colors=q_colors)
    return Y, proj


def verify_quotient_proposition(G: FiniteGroup, subgroups: Sequence,
                                normal_indices) -> bool:
    """Is N\\CC(G, {K_i}) = CC(G/N, {K_iN/N}) by the explicit map?

    The map sends the N-orbit of the vertex gK_i to the vertex
    (gN).image(K_i).  It is well defined because N is normal: the orbit
    N.gK_i is the set gK_iN, which only depends on gK_i's image in G/N.
    The check reads the map off each color's coset representatives and
    confirms that it is constant on the orbits of the left N-translation
    action, a bijection onto the vertices of CC(G/N, ...), color
    preserving, and carries the quotient's maximal faces onto exactly the
    maximal faces of CC(G/N, ...).
    """
    X = coset_complex(G, subgroups)
    N = sorted_distinct(np.asarray(normal_indices, dtype=np.int64))
    perms = left_translation_action(X, G, (int(x) for x in N))
    Xq, proj = quotient_by_action(X, perms)
    Q, gproj = quotient(G, N)
    images = [sorted_distinct(gproj[np.asarray(sub, dtype=np.int64)])
              for sub in subgroups]
    Y = coset_complex(Q, images)
    # phi[v] for the vertex v = gK_i of X, with g its coset representative
    ydata = Y.coset_data
    phi = np.concatenate([
        ydata.offsets[i] + ydata.partitions[i].ordinal[gproj[part.reps]]
        for i, part in enumerate(X.coset_data.partitions)])
    psi = np.empty(Xq.vertex_count, dtype=np.int64)
    psi[proj] = phi
    return (np.array_equal(psi[proj], phi)
            and np.array_equal(np.sort(psi), np.arange(Y.vertex_count))
            and np.array_equal(Y.colors[psi], Xq.colors)
            and _same_rows(np.sort(psi[Xq.max_faces], axis=1), Y.max_faces,
                           Y.vertex_count))


# ---------------------------------------------------------------------------
# serialization


def dumps_complex(X: SimplicialComplex) -> str:
    header = {"n": X.n, "vertex_count": X.vertex_count,
              "colors": None if X.colors is None else
              [int(c) for c in X.colors]}
    lines = [json.dumps(header, sort_keys=True, separators=(",", ":"))]
    for row in X.max_faces:
        lines.append(json.dumps([int(v) for v in row],
                                separators=(",", ":")))
    return "\n".join(lines) + "\n"


def save_complex(X: SimplicialComplex, path) -> None:
    with open(path, "w") as fh:
        fh.write(dumps_complex(X))


def _int_list(vals, width: int | None = None) -> bool:
    """Is vals a JSON list of int64 integers, of the given width if any?"""
    return (isinstance(vals, list) and width in (None, len(vals))
            and all(type(v) is int and abs(v) < 2 ** 63 for v in vals))


def loads_complex(text: str) -> SimplicialComplex:
    """Parse the dumps_complex format: a JSON header line, then one JSON
    list of n + 1 integer vertices per maximal face.  Anything else, such
    as a ragged row or a float vertex, raises InputError."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise InputError("empty complex file")
    try:
        header = json.loads(lines[0])
        n, vc = header["n"], header["vertex_count"]
        colors = header.get("colors")
        rows = [json.loads(ln) for ln in lines[1:]]
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise InputError(f"malformed complex file: {exc}") from exc
    if not _int_list([n, vc]) or n < -1 or vc < 0:
        raise InputError("malformed complex file: need integers n >= -1 "
                         "and vertex_count >= 0")
    if colors is not None and not _int_list(colors):
        raise InputError("malformed complex file: colors must be integers")
    for i, row in enumerate(rows, 2):
        if not _int_list(row, n + 1):
            raise InputError(f"malformed complex file: line {i} is not a "
                             f"list of {n + 1} integers")
    mf = np.array(rows, dtype=np.int64).reshape(len(rows), n + 1)
    return SimplicialComplex(n, vc, mf, colors=colors)


def load_complex(path) -> SimplicialComplex:
    # undecodable bytes become U+FFFD, so a binary file fails to parse
    with open(path, errors="replace") as fh:
        return loads_complex(fh.read())


# ---------------------------------------------------------------------------
# the KO preset


def build_ko_complex(n: int, p: int, s: int, d: int,
                     cap: int = DEFAULT_CAP) -> SimplicialComplex:
    """CC(SL_{n+1}(F_p[t]/t^s), {K_i}) from one coset partition, of K_0.

    K_i = gamma_0^i K_0 gamma_0^-i, so with c_i(g) = gamma_0^-i g gamma_0^i,
    g^-1 h lies in K_i exactly when c_i(g)^-1 c_i(h) lies in K_0: colour i
    keys each g by the K_0 coset of c_i(g), and ``cosets()`` runs once,
    from K_0's own generators.  Each partition labels a coset by its
    smallest index, as ``cosets()`` would for K_i itself.  The conjugation
    c_1 is looked up in G once, as an index map, and c_i is its i-th
    power.  K_0 and every conjugate must be found in G.
    """
    G = sl_group(n, p, s, cap=cap)
    K = subgroup_K(n, p, s, d, 0, cap=cap)
    K0 = G.lookup_rows(K.elems)
    if (K0 < 0).any():
        raise StructureError("K_0 escapes the ambient group")
    part0 = cosets(G, K0, K0[K.generators])
    # c_1 as an index map, looked up once; c_i is its i-th power
    c1 = G.lookup_rows(rotate_rows(G.elems, -1))
    if (c1 < 0).any():
        raise StructureError("a conjugate by gamma_0 escapes the ambient group")
    parts, conj = [part0], c1
    for i in range(n):
        if i:
            conj = c1[conj]
        parts.append(CosetPartition.from_keys(G, part0.labels[conj]))
    return coset_complex(G, parts)
