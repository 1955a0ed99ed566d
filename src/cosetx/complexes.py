"""Pure partite simplicial complexes and the coset-complex construction.

A complex is stored by its maximal faces: an (M, n+1) array of strictly
increasing vertex indices, rows unique and lexicographically sorted.  All
lower-dimensional face tables are derived on demand and cached together
with maximal-face containment counts, which is exactly the data the weight
function needs.  Weights are exact rationals throughout.

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
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from .errors import (InputError, ParameterError, ResourceLimitError,
                     StructureError)
from .groups import (CosetPartition, FiniteGroup, _orbit_min_labels,
                     cosets, quotient)


def _pack_cols(rows: np.ndarray, base: int) -> np.ndarray | None:
    """Row keys base^w-adic if they fit in int64, else None."""
    w = rows.shape[1]
    if w == 0 or base <= 0 or base ** w >= 2 ** 63:
        return None
    keys = rows[:, 0].astype(np.int64)
    for c in range(1, w):
        keys = keys * base + rows[:, c]
    return keys


def _same_rows(A: np.ndarray, B: np.ndarray, base: int) -> bool:
    """Do two arrays hold the same set of rows?"""
    if A.shape != B.shape:
        return False
    ka, kb = _pack_cols(A, base), _pack_cols(B, base)
    if ka is not None and kb is not None:
        return bool(np.array_equal(np.sort(ka), np.sort(kb)))
    return bool(np.array_equal(np.unique(A, axis=0), np.unique(B, axis=0)))


def _unique_rows(rows: np.ndarray, base: int, counts: bool = False):
    if rows.shape[1] == 0:
        out = rows[:1]
        return (out, np.array([len(rows)])) if counts else out
    keys = _pack_cols(rows, base)
    if keys is None:
        if counts:
            return np.unique(rows, axis=0, return_counts=True)
        return np.unique(rows, axis=0)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    fresh = np.ones(len(keys), dtype=bool)
    fresh[1:] = keys[1:] != keys[:-1]
    uniq = rows[order[fresh]]
    if not counts:
        return uniq
    starts = np.flatnonzero(fresh)
    cnt = np.diff(np.append(starts, len(keys)))
    return uniq, cnt


class SimplicialComplex:
    """Pure n-dimensional complex given by its maximal faces.

    ``colors`` is optional: coset complexes always carry the partite
    coloring, while some test fixtures (e.g. the 7-vertex torus) are not
    colorable at all.  When colors are present, partiteness is enforced.

    ``coset_data`` is the CosetStructure that ``coset_complex`` sets on
    the complexes it builds; every other complex (fixtures, loaded files,
    links of nonempty faces, quotients) keeps None.
    """

    def __init__(self, n: int, vertex_count: int, max_faces,
                 colors=None, labels: Sequence[str] | None = None):
        if n < -1:
            raise ParameterError(f"dimension must be >= -1, got {n}")
        w = n + 1
        mf = np.asarray(max_faces, dtype=np.int64)
        if mf.ndim != 2 or mf.shape[1] != w:
            raise StructureError(
                f"maximal faces must be rows of {w} vertices, "
                f"got shape {mf.shape}")
        if w:
            mf = np.sort(mf, axis=1)
        mf = _unique_rows(mf, vertex_count)
        self.n = n
        self.vertex_count = int(vertex_count)
        self.max_faces = mf
        self.colors = None if colors is None else \
            np.asarray(colors, dtype=np.int64)
        self.labels = None if labels is None else tuple(labels)
        self.coset_data: CosetStructure | None = None
        self._tables: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._keys: dict[int, np.ndarray] = {}
        self._incidence: tuple[np.ndarray, np.ndarray] | None = None
        self._validate()

    def _validate(self):
        mf, w, V = self.max_faces, self.n + 1, self.vertex_count
        if len(mf) == 0:
            raise StructureError("a pure complex needs at least one "
                                 "maximal face")
        if w == 0:
            if V:
                raise StructureError("dimension -1 admits no vertices")
            return
        if (mf < 0).any() or (mf >= V).any():
            raise StructureError("vertex index out of range")
        if w > 1 and not (mf[:, 1:] > mf[:, :-1]).all():
            raise StructureError("a face may not repeat a vertex")
        used = np.bincount(mf.ravel(), minlength=V)
        if (used == 0).any():
            orphan = int(np.flatnonzero(used == 0)[0])
            raise StructureError(
                f"vertex {orphan} lies in no maximal face; complex not pure")
        if self.colors is not None:
            if self.colors.shape != (V,):
                raise StructureError("need one color per vertex")
            if (self.colors < 0).any() or (self.colors > self.n).any():
                raise StructureError(f"colors must lie in [0, {self.n}]")
            face_colors = np.sort(self.colors[mf], axis=1)
            if not (face_colors == np.arange(w)).all():
                raise StructureError(
                    "not partite: some maximal face misses a color")
        if self.labels is not None and len(self.labels) != V:
            raise StructureError("need one label per vertex")

    # -- face tables --------------------------------------------------

    def _table(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """(faces, containment counts) for dimension k, cached."""
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
        else:
            combos = list(itertools.combinations(range(w), k + 1))
            stacked = np.vstack([self.max_faces[:, c] for c in combos])
            faces, cnt = _unique_rows(stacked, self.vertex_count,
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

    def _face_keys(self, k: int) -> np.ndarray:
        if k not in self._keys:
            keys = _pack_cols(self.faces(k), self.vertex_count)
            if keys is None:
                raise ResourceLimitError(
                    "face keys exceed 63 bits; complex too large to index")
            self._keys[k] = keys
        return self._keys[k]

    def face_position(self, tau) -> int:
        """Index of tau in faces(len(tau)-1), or -1."""
        tau = tuple(sorted(int(v) for v in tau))
        k = len(tau) - 1
        if k == -1:
            return 0
        if k > self.n or len(set(tau)) != len(tau):
            return -1
        if min(tau) < 0 or max(tau) >= self.vertex_count:
            return -1
        keys = self._face_keys(k)
        key = 0
        for v in tau:
            key = key * self.vertex_count + v
        # keys are ascending because faces are lexsorted
        pos = int(np.searchsorted(keys, key))
        if pos < len(keys) and keys[pos] == key:
            return pos
        return -1

    def _vertex_incidence(self) -> tuple[np.ndarray, np.ndarray]:
        """Vertex -> maximal-face incidence in CSR form, cached.

        The maximal faces containing v are ``faces[offsets[v]:offsets[v+1]]``.
        A stable argsort of the flattened face array groups positions by
        vertex, and a face holds each vertex at most once, so every group
        lists its face indices in ascending order.
        """
        if self._incidence is None:
            flat = self.max_faces.ravel()
            offsets = np.zeros(self.vertex_count + 1, dtype=np.int64)
            np.cumsum(np.bincount(flat, minlength=self.vertex_count),
                      out=offsets[1:])
            faces = np.argsort(flat, kind="stable") // (self.n + 1)
            self._incidence = (offsets, faces)
        return self._incidence

    def face_index_array(self, rows) -> np.ndarray:
        """Vectorized face_position over sorted rows of equal width."""
        rows = np.asarray(rows, dtype=np.int64)
        if rows.ndim != 2:
            raise InputError("expected a 2-d array of faces")
        k = rows.shape[1] - 1
        if k > self.n:
            raise InputError(f"no faces of dimension {k}")
        keys = self._face_keys(k)
        q = _pack_cols(rows, self.vertex_count)
        if q is None:
            raise ResourceLimitError("face keys exceed 63 bits")
        pos = np.searchsorted(keys, q)
        pos_c = np.minimum(pos, len(keys) - 1)
        if (pos >= len(keys)).any() or (keys[pos_c] != q).any():
            raise InputError("some row is not a face of the complex")
        return pos

    # -- 1-skeleton ----------------------------------------------------

    def adjacency(self):
        """Symmetric sparse 0/1 adjacency of the 1-skeleton."""
        e = self.faces(1)
        V = self.vertex_count
        ones = np.ones(len(e), dtype=np.int64)
        return coo_matrix(
            (np.concatenate([ones, ones]),
             (np.concatenate([e[:, 0], e[:, 1]]),
              np.concatenate([e[:, 1], e[:, 0]]))),
            shape=(V, V)).tocsr()

    def is_connected(self) -> bool:
        if self.vertex_count <= 1:
            return True
        ncomp = connected_components(self.adjacency(), directed=False,
                                     return_labels=False)
        return int(ncomp) == 1

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
    verts = np.unique(rest)
    renum = np.searchsorted(verts, rest)
    colors = None
    if X.colors is not None and len(verts):
        palette = np.unique(X.colors[verts])
        colors = np.searchsorted(palette, X.colors[verts])
    lk_labels = None
    if X.labels is not None:
        lk_labels = [X.labels[int(v)] for v in verts]
    lk = SimplicialComplex(X.n - len(tau), len(verts), renum,
                           colors=colors, labels=lk_labels)
    lk.origin_vertices = verts
    return lk


# ---------------------------------------------------------------------------
# coset complexes


@dataclasses.dataclass
class CosetStructure:
    """Bookkeeping that ties coset-complex vertices back to the group."""

    partitions: list[CosetPartition]
    offsets: np.ndarray  # offsets[i] is the first vertex id of color i

    def vertex_of(self, color: int, element: int) -> int:
        return int(self.offsets[color]
                   + self.partitions[color].ordinal[element])


def coset_complex(G: FiniteGroup, subgroups: Sequence, *,
                  labels: bool = False) -> SimplicialComplex:
    """CC(G, {K_i}): vertices gK_i colored i, faces from the chamber orbit.

    ``subgroups`` holds one entry per color: an element-index collection,
    whose coset partition ``cosets()`` derives, or a ready CosetPartition
    of G (such as ``groups.ko_link_cosets`` builds).  Maximal faces are
    {gK_0, ..., gK_n} over all g; the stabilizer of the base chamber is
    the intersection of the K_i, so the face count is |G| divided by the
    intersection order.

    Every face of color type T is a translate g.{K_i : i in T} of the base
    chamber's T-face, so G acts transitively on the faces of each color
    type, and left translation (see ``left_translation_action``) carries
    one such face's weighted link isomorphically onto another's.
    """
    k = len(subgroups)
    if k < 2:
        raise ParameterError("need at least two subgroups (n >= 1)")
    parts = [sub if isinstance(sub, CosetPartition) else cosets(G, sub)
             for sub in subgroups]
    if any(part.group is not G for part in parts):
        raise InputError("coset partition of a different group")
    sizes = np.array([p.n_cosets for p in parts], dtype=np.int64)
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    V = int(offsets[-1])
    rows = np.empty((G.size, k), dtype=np.int64)
    for i, part in enumerate(parts):
        rows[:, i] = offsets[i] + part.ordinal
    colors = np.repeat(np.arange(k, dtype=np.int64), sizes)
    lab = None
    if labels:
        lab = [f"{G.label(int(r))}.K{i}"
               for i, part in enumerate(parts) for r in part.reps]
    X = SimplicialComplex(k - 1, V, rows, colors=colors, labels=lab)
    X.coset_data = CosetStructure(parts, offsets)
    return X


def left_translation_action(X: SimplicialComplex, G: FiniteGroup,
                            elements: Iterable[int]) -> list[np.ndarray]:
    """Vertex permutations g.(hK_i) = (gh)K_i for each listed g."""
    data = X.coset_data
    if data is None:
        raise InputError("complex does not carry coset structure")
    out = []
    for g in elements:
        lt = G.left_mult_table(int(g))
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
    labels = _orbit_min_labels(V, checked)
    reps = np.unique(labels)
    proj = np.searchsorted(reps, labels)
    qf = proj[mf]
    qf.sort(axis=1)
    if X.n >= 1 and not (qf[:, 1:] > qf[:, :-1]).all():
        raise StructureError(
            "orbits collapse a face; quotient would not be rigid")
    q_colors = None if X.colors is None else X.colors[reps]
    q_labels = None
    if X.labels is not None:
        q_labels = [X.labels[int(r)] for r in reps]
    Y = SimplicialComplex(X.n, len(reps), qf, colors=q_colors,
                          labels=q_labels)
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
    N = np.unique(np.asarray(normal_indices, dtype=np.int64))
    perms = left_translation_action(X, G, (int(x) for x in N))
    Xq, proj = quotient_by_action(X, perms)
    Q, gproj = quotient(G, N)
    images = [np.unique(gproj[np.asarray(sub, dtype=np.int64)])
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


def loads_complex(text: str) -> SimplicialComplex:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise InputError("empty complex file")
    try:
        header = json.loads(lines[0])
        n = int(header["n"])
        vc = int(header["vertex_count"])
        colors = header.get("colors")
        rows = [json.loads(ln) for ln in lines[1:]]
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed complex file: {exc}") from exc
    mf = np.array(rows, dtype=np.int64).reshape(len(rows), n + 1)
    return SimplicialComplex(n, vc, mf, colors=colors)


def load_complex(path) -> SimplicialComplex:
    with open(path) as fh:
        return loads_complex(fh.read())


# ---------------------------------------------------------------------------
# the KO preset


def build_ko_complex(n: int, p: int, s: int, d: int,
                     cap: int = 1 << 24, labels: bool = False
                     ) -> SimplicialComplex:
    """CC(SL_{n+1}(F_p[t]/t^s), {K_i}), each K_i the rotated rows of K_0."""
    from .groups import rotate_rows, sl_group, subgroup_K
    G = sl_group(n, p, s, cap=cap)
    K0 = subgroup_K(n, p, s, d, 0, cap=cap).elems
    subs = []
    for i in range(n + 1):
        idx = G.lookup_rows(rotate_rows(K0, i))
        if (idx < 0).any():
            raise StructureError(f"K_{i} escapes the ambient group")
        subs.append(idx)
    return coset_complex(G, subs, labels=labels)
