"""Random-walk spectra of weighted 1-skeletons and local expansion reports.

The walk moves from a vertex along an incident edge with probability
proportional to the edge weight.  Because every edge weight is its
maximal-face containment count over a fixed denominator, integer counts
drive all matrix assembly and the stationary distribution is exactly the
normalized vertex weight vector.  Floating point enters only in the
eigensolver: one Lanczos run per walk, from a seeded start vector, on the
complement of the known top eigenvector; every computed eigenvalue is
certified by the residual of its Ritz pair.  On a coset complex the
report solves one link per color type of face, since left translation
makes all links of a type isomorphic; on any other complex it solves
every link.  The KO report solves one vertex link, which gamma_0^i
conjugates onto the color-i one; its walk comes from coset partitions
(``coset_walk``), with no complex, every other walk from face tables
(``walk_matrix``).  Both count components with ``groups.component_labels``
and build no spanning forest.

The symmetric form that Lanczos multiplies by is per-row neighbour
tables grouped by degree (``SymmetricForm``), each row's terms in the
order of the walk's lex-sorted edges, so the floats do not depend on the
builder.  ``coset_walk`` builds one group per colour from its colour
blocks, which are regular (|H_i|/|H_i n H_j| neighbours of colour j at
every colour-i vertex, each edge with count |H_i n H_j|/c) and so carry
one value each.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
from typing import Sequence

import numpy as np
# numpy 2 loads np.random on first use; load it here so that no solve pays
# for the import
import numpy.random  # noqa: F401

from ._kernels.common import stable_order
from .complexes import SimplicialComplex, coset_vertices, link
from .errors import (DEFAULT_CAP, InputError, NumericalError, ParameterError,
                     ResourceLimitError, StructureError)
from .groups import (FiniteGroup, component_labels, ko_link_cosets,
                     subgroup_K)

EIG_TOL = 1e-9  # residual bound; eigenvalue error is at most this
# Lanczos stops once its Ritz residual estimate is this small; ||S|| = 1,
# so this is the size of the rounding error in one product S @ x
_NEGLIGIBLE = 1e-15


# ---------------------------------------------------------------------------
# walk matrices


@dataclasses.dataclass(frozen=True)
class SymmetricForm:
    """A symmetric V x V matrix as neighbour tables, rows grouped by degree.

    A group of n rows of degree deg is a triple: the row ids (a slice or
    an index array), an intp (deg, n) table whose column t lists the
    neighbours of row t, and their values, a (deg, 1) column, one value
    per colour block, or a (deg, n) array.  ``S @ x`` is, per group, the
    gather x[table] times the values, summed down the columns from 0.0.
    A column lists its row's entries in the order in which a
    ``bincount`` over the entries (u, v) and then (v, u) of the walk's
    edges adds them: the edges with the row as u, in edge order, then
    those with it as v, in edge order.  So every row adds the same floats
    in the same order, and ``S @ x`` equals that ``bincount`` bit for bit.
    """

    size: int
    groups: tuple

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        out = np.empty(self.size)
        for rows, table, values in self.groups:
            terms = x.take(table)
            terms *= values
            out[rows] = np.add.reduce(terms, axis=0, initial=0.0)
        return out


def _group(rows, table: np.ndarray, values: np.ndarray) -> tuple:
    """One group of a ``SymmetricForm``.  numpy sums a one-column table
    pairwise, but two or more columns row by row, so a lone row is listed
    twice; its values are one column, which broadcasts."""
    if table.shape[1] == 1:
        if isinstance(rows, slice):
            rows = np.arange(rows.start, rows.stop)
        rows, table = rows.repeat(2), table.repeat(2, axis=1)
    return rows, table, values


@dataclasses.dataclass(frozen=True)
class WalkMatrix:
    """Reversible walk on a weighted 1-skeleton.

    ``edges`` lists each edge once as (u, v), u < v, in lex order.
    ``edge_counts[e]`` is the number of maximal faces containing edge e and
    ``strength[v]`` the sum over edges at v, so the transition probability
    u -> v is edge_counts(uv)/strength(u).  Detailed balance holds with
    stationary mass proportional to strength, which equals dim(X) times the
    vertex containment count.
    """

    vertex_count: int
    edges: np.ndarray
    edge_counts: np.ndarray
    strength: np.ndarray
    _form: SymmetricForm = dataclasses.field(repr=False, compare=False)

    def symmetric(self) -> SymmetricForm:
        """D^{1/2} P D^{-1/2}; same spectrum, symmetric.

        Entry (u, v) is edge_counts(uv) / (sqrt(strength(u)) *
        sqrt(strength(v))).  Its neighbour tables are built once, with the
        walk, from the data its builder holds: ``walk_matrix`` groups rows
        by degree from the lex-sorted edges, ``coset_walk`` by colour
        block, with one value per block.  Every call returns that form.
        """
        return self._form


def _check_connected(nc: int) -> None:
    if nc != 1:
        raise StructureError(f"1-skeleton is disconnected ({nc} components)")


def _edge_form(V: int, edges: np.ndarray, vals: np.ndarray) -> SymmetricForm:
    """The neighbour tables of lex-sorted edges u < v, one value each.

    Rows are grouped by ascending degree, ascending ids within a group,
    and the groups' tables are consecutive pieces of one buffer of 2E
    slots, so row r's entry in slot s sits at base[r] + s * n[r], n[r]
    the row count of r's group.  The edges with r as u are a run of the
    lex order and fill slots 0, 1, ... in that order; those with r as v
    fill the next slots in the stable order of the v column.
    """
    u, v = edges[:, 0], edges[:, 1]
    E = len(u)
    up, down = np.bincount(u, minlength=V), np.bincount(v, minlength=V)
    degree = up + down
    by_degree = stable_order(degree)
    degree = degree.take(by_degree)
    starts = np.flatnonzero(np.diff(degree, prepend=-1))
    sizes = np.diff(starts, append=V)
    degrees = degree.take(starts)
    ends = np.cumsum(degrees * sizes)
    base, n = np.empty(V, dtype=np.intp), np.empty(V, dtype=np.intp)
    base[by_degree] = np.arange(V) + np.repeat(ends - degrees * sizes - starts,
                                               sizes)
    n[by_degree] = np.repeat(sizes, sizes)
    table, value = np.empty(2 * E, dtype=np.intp), np.empty(2 * E)
    # edge e is slot e - first_u[u] of row u: at base[u] + that * n[u]
    slot = np.arange(E)
    slot *= n.take(u)
    slot += (base - (np.cumsum(up) - up) * n).take(u)
    table[slot] = v
    value[slot] = vals
    # position q of the v column's stable order is slot up[v] + q -
    # first_v[v] of row v
    order = stable_order(v)
    at = v.take(order)
    slot = np.arange(E)
    slot *= n.take(at)
    slot += (base + (up - np.cumsum(down) + down) * n).take(at)
    table[slot] = u.take(order)
    value[slot] = vals.take(order)
    del slot, order, at
    return SymmetricForm(V, tuple(
        _group(by_degree[lo:lo + m], table[hi - d * m:hi].reshape(d, m),
               value[hi - d * m:hi].reshape(d, m))
        for lo, m, d, hi in zip(starts.tolist(), sizes.tolist(),
                                degrees.tolist(), ends.tolist())))


def walk_matrix(X: SimplicialComplex) -> WalkMatrix:
    """The weighted walk on the 1-skeleton of X, from its face tables.

    The walk only depends on the edge containment counts.  A vertex's
    strength, the sum of the counts of its edges, is n times its own
    containment count: each maximal face at v holds n of v's edges.  A
    disconnected 1-skeleton raises StructureError; the component count is
    the complex's cached ``component_count``, which H^1 reuses on the same
    complex.  No spanning forest is built.
    """
    if X.n < 1:
        raise ParameterError("a 0-dimensional complex has no 1-skeleton walk")
    _check_connected(X.component_count())
    V, edges = X.vertex_count, X.faces(1)
    counts = X.containment_counts(1).astype(np.int64)
    strength = X.n * X.containment_counts(0).astype(np.int64)
    root = np.sqrt(strength.astype(np.float64))
    vals = counts / (root[edges[:, 0]] * root[edges[:, 1]])
    return WalkMatrix(V, edges, counts, strength, _edge_form(V, edges, vals))


def coset_walk(G: FiniteGroup, subgroups: Sequence) -> WalkMatrix:
    """``walk_matrix(coset_complex(G, subgroups))``, with no complex built.

    g's chamber (``coset_vertices``) is shared by c = |n_i K_i| elements,
    so an edge's count is the number of elements whose chamber holds both
    ends, over c: the run of its key among the |G| keys u << b | v of its
    colour pair (i, j), b the bit length of V - 1, in the narrowest
    unsigned dtype that holds them, each pair's keys sorted in place on
    their own.  The walk is block-regular.  The edges of colours (i, j)
    are the cosets of H_i n H_j, so each has count |H_i n H_j|/c, and
    every colour-i vertex has |H_i|/|H_i n H_j| neighbours of colour j.
    So the runs of a block have one length, a multiple of c, and its
    distinct keys, reshaped to (n_i, d_ij), list each colour-i vertex's
    colour-j neighbours in ascending order; re-keyed v << b | u and
    sorted again, they list the colour-j side.  A block that breaks
    either fact raises InputError, which the cosets of subgroups never do.

    Colour i's rows are one group of the symmetric form.  Its table lists
    the blocks of colours j > i, then those of colours j < i, which is
    the order ``walk_matrix`` gives a row's entries, and it has one value
    per block, count / (root_i * root_j), the float ``walk_matrix``
    computes.  A colour-i vertex's strength is (k - 1)|K_i|/c, the roots
    of ``component_labels`` count the components, and edges, counts and
    strength equal ``walk_matrix``'s arrays, dtypes and lex order.
    """
    parts, offsets = coset_vertices(G, subgroups)
    k, V, N, sizes = len(parts), int(offsets[-1]), G.size, np.diff(offsets)
    c = int(np.logical_and.reduce(
        [part.ordinal == part.ordinal[G.identity] for part in parts]).sum())
    b = (V - 1).bit_length()
    dtype = np.min_scalar_type((1 << 2 * b) - 1)
    starts = offsets.tolist()
    # blocks[i]: (j, count, the (n_i, d_ij) colour-j neighbours), in any order
    blocks: list = [[] for _ in range(k)]

    def add_block(keys, i, j, count):
        # sorted distinct keys r << b | w, r of colour i and w of colour j
        d, rest = divmod(len(keys), int(sizes[i]))
        ids = np.arange(starts[i], starts[i + 1])
        if rest or not d or not (np.array_equal(keys[::d] >> b, ids) and
                                 np.array_equal(keys[d - 1::d] >> b, ids)):
            raise InputError(f"colour-{i} vertices have unequal numbers of "
                             f"colour-{j} neighbours")
        blocks[i].append((j, count, (keys & (1 << b) - 1).reshape(-1, d)))

    for (i, u), (j, v) in itertools.combinations(enumerate(parts), 2):
        # (o + u) << b | (w + v) is (u << b) + v + (o << b) + w: w + v < 2**b
        keys = np.left_shift(u.ordinal, b, dtype=dtype)
        keys += v.ordinal
        keys += (starts[i] << b) + starts[j]
        keys.sort()
        # the pieces of r keys, r the first run's length, are the runs
        # when each piece is constant and neighbouring pieces differ
        r = int(np.searchsorted(keys, keys[0], side="right"))
        runs = keys[:len(keys) // r * r].reshape(-1, r)
        if (len(keys) % r or r % c  # never for the cosets of subgroups
                or not np.array_equal(runs[:, 0], runs[:, -1])
                or not (runs[1:, 0] != runs[:-1, -1]).all()):
            raise InputError(f"the edge counts of colours {i} and {j} "
                             f"differ or are not multiples of {c}")
        keys, count = np.ascontiguousarray(runs[:, 0]), r // c
        del runs
        add_block(keys, i, j, count)
        # the same edges keyed v << b | u, in place
        swapped = keys >> b
        keys &= (1 << b) - 1
        keys <<= b
        keys |= swapped
        del swapped
        keys.sort()
        add_block(keys, j, i, count)
        del keys
    strength = (k - 1) * (N // (sizes * c))
    root = np.sqrt(strength.astype(np.float64))
    groups, up_sides = [], []
    for i in range(k):
        # colours j > i, then j < i: the order of a row's entries
        held = sorted(blocks[i], key=lambda blk: (blk[0] < i, blk[0]))
        blocks[i] = None
        degs = [t.shape[1] for _, _, t in held]
        table = np.empty((sum(degs), int(sizes[i])), dtype=np.intp)
        np.concatenate([t.T for _, _, t in held], out=table)
        vals = np.repeat([cnt / (root[i] * root[j]) for j, cnt, _ in held],
                         degs)
        groups.append(_group(slice(starts[i], starts[i + 1]), table,
                             vals[:, None]))
        up = sum(d for (j, _, _), d in zip(held, degs) if j > i)
        up_sides.append((table[:up].T, np.repeat(
            [cnt for _, cnt, _ in held], degs)[:up]))
        del held
    # the edges at their u ends, colour by colour: lex order
    E = sum(side.size for side, _ in up_sides)
    edges = np.empty((E, 2), dtype=np.int64)
    counts = np.empty(E, dtype=np.int64)
    lo = 0
    for o, (side, cnt) in zip(starts, up_sides):
        n, up = side.shape
        pair = edges[lo:lo + side.size].reshape(n, up, 2)
        pair[..., 0] = np.arange(o, o + n)[:, None]
        pair[..., 1] = side
        counts[lo:lo + side.size].reshape(n, up)[...] = cnt
        lo += side.size
    del up_sides, pair, side
    labels = component_labels(V, [(edges[:, 0], edges[:, 1])])
    _check_connected(int(np.count_nonzero(labels == np.arange(V))))
    return WalkMatrix(V, edges, counts, np.repeat(strength, sizes),
                      SymmetricForm(V, tuple(groups)))


# ---------------------------------------------------------------------------
# second eigenvalue


def second_eigenvalue(M: WalkMatrix, cap: int = DEFAULT_CAP) -> float:
    """Second-largest eigenvalue of the walk, certified to ``EIG_TOL``.

    The top eigenpair of the symmetric form S is known: eigenvalue 1, with
    unit eigenvector u proportional to sqrt(strength).  So lambda_2 is the
    largest eigenvalue of S on the complement of u, and a Lanczos run
    finds it there from a start vector drawn with seed 0.  Each new
    Lanczos vector is orthogonalized twice against u and every earlier
    one (full reorthogonalization).  After step j, the largest eigenpair
    (theta, s) of the j x j tridiagonal matrix T_j gives the Ritz pair
    (theta, Q_j s), whose residual is |beta_j s_j| in exact arithmetic.
    The run stops when that is negligible, which covers beta_j ~ 0 (the
    Krylov space is invariant, and a random start has a component in
    every eigenspace), or after V - 1 steps, the dimension of the
    complement.

    For a symmetric S some eigenvalue lies within ||Sx - lam x|| of lam
    for any unit x, so that residual, computed afresh from S, is the
    certificate: above ``EIG_TOL`` it raises NumericalError carrying it.  A
    connected walk on two vertices is a single edge with spectrum
    {1, -1}.

    The basis Q holds u and the Lanczos vectors, V floats each, in
    min(V, 32) rows at first, touched only as they are written, and grows
    by doubling into a new array that the old rows are copied to, so that
    both bases are held at once.  ``cap`` bounds the floats of both: an
    allocation that would pass it raises ResourceLimitError beforehand,
    carrying the steps taken.  KO links converge in 6-12 steps.
    """
    V = M.vertex_count
    if V < 2:
        raise ParameterError("the walk needs at least two vertices")
    if V == 2:
        return -1.0
    S = M.symmetric()
    root = np.sqrt(M.strength.astype(np.float64))

    def grow(Q: np.ndarray, rows: int, steps: int) -> np.ndarray:
        # the copy holds the old and the new basis at once
        if (len(Q) + rows) * V > cap:
            raise ResourceLimitError(
                f"Lanczos basis of {rows} x {V} floats exceeds cap {cap} "
                f"next to the {len(Q)} rows it grows from",
                partial_count=steps)
        out = np.empty((rows, V))
        out[:len(Q)] = Q
        return out

    # row 0 is u, rows 1..j the Lanczos vectors; grown by doubling
    Q = grow(np.empty((0, V)), min(V, 32), 0)
    Q[0] = root / np.linalg.norm(root)
    w = np.random.default_rng(0).standard_normal(V)
    alphas: list[float] = []
    betas: list[float] = []
    j, check = 0, 1
    while True:
        B = Q[:j + 1]
        for _ in range(2):
            w -= (B @ w) @ B
        beta = float(np.linalg.norm(w))
        if j == check or beta <= _NEGLIGIBLE or j == V - 1:
            T = np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)
            theta, s = np.linalg.eigh(T)
            if beta * abs(s[-1, -1]) <= _NEGLIGIBLE or j == V - 1:
                break
            # a long run checks every ~j/8 steps, so the O(j^3) checks
            # cost a constant factor over the last one
            check = j + 1 + j // 8
        if j:
            betas.append(beta)
        j += 1
        if j == len(Q):
            Q = grow(Q, j + min(j, V - j), j)
        Q[j] = w / beta
        w = S @ Q[j]
        alphas.append(float(Q[j] @ w))
    lam = float(theta[-1])
    x = s[:, -1] @ Q[1:j + 1]
    x /= np.linalg.norm(x)
    res = float(np.linalg.norm(S @ x - lam * x))
    if res > EIG_TOL:
        raise NumericalError(
            f"Lanczos residual {res:.3e} exceeds tolerance {EIG_TOL:.1e}",
            residual=res)
    return lam


# ---------------------------------------------------------------------------
# local spectral reports


@dataclasses.dataclass
class LinkEntry:
    """One link's walk spectrum inside a report.

    ``face`` is the face of the ambient complex (empty tuple for the
    complex itself) or None when the link was built directly from group
    data and no ambient face is materialized.

    ``solver`` says where ``second`` came from:

    - ``"lanczos"``: a certified Lanczos solve of this link's walk;
    - ``"reused"``: copied, with ``vertices`` and ``connected``, from an
      isomorphic link solved earlier in the report (see
      ``local_spectral_report`` and ``ko_link_report``), so it is None if
      that link is disconnected;
    - ``"none"``: the link is disconnected and nothing was solved.
    """

    face: tuple[int, ...] | None
    colors: tuple[int, ...] | None
    vertices: int
    connected: bool
    second: float | None
    solver: str

    def to_dict(self) -> dict:
        return {
            "face": None if self.face is None else list(self.face),
            "colors": None if self.colors is None else list(self.colors),
            "vertices": self.vertices,
            "connected": self.connected,
            "second_eigenvalue": self.second,
            "solver": self.solver,
        }


@dataclasses.dataclass
class LocalSpectralReport:
    threshold: float
    entries: list[LinkEntry]
    max_second: float | None
    connected_ok: bool
    passed: bool

    def to_dict(self) -> dict:
        return {
            "threshold": self.threshold,
            "max_second_eigenvalue": self.max_second,
            "all_links_connected": self.connected_ok,
            "passed": self.passed,
            "links": [e.to_dict() for e in self.entries],
        }

    def summary(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        top = "n/a" if self.max_second is None else f"{self.max_second:.9f}"
        return (f"{verdict}: {len(self.entries)} links, max second "
                f"eigenvalue {top}, threshold {self.threshold:.9f}")


def _finish_report(entries: list[LinkEntry], threshold: float
                   ) -> LocalSpectralReport:
    seconds = [e.second for e in entries if e.second is not None]
    max_second = max(seconds) if seconds else None
    connected_ok = all(e.connected for e in entries)
    passed = (connected_ok and max_second is not None
              and max_second <= threshold)
    return LocalSpectralReport(threshold, entries, max_second,
                               connected_ok, passed)


def _check_threshold(threshold: float) -> None:
    if not math.isfinite(threshold):
        raise ParameterError(f"threshold must be finite, got {threshold}")


def _solve_entry(walk, vertices: int, face, colors, cap: int) -> LinkEntry:
    # walk() builds the walk; its component count is the one connectivity check
    try:
        M = walk()
    except StructureError:
        return LinkEntry(face, colors, vertices, False, None, "none")
    return LinkEntry(face, colors, vertices, True,
                     second_eigenvalue(M, cap=cap), "lanczos")


def local_spectral_report(X: SimplicialComplex, lam_threshold: float,
                          cap: int = DEFAULT_CAP) -> LocalSpectralReport:
    """Walk spectra of X and of every link of dimension >= 1.

    Iterates tau over the faces of dimension -1..n-2 (the empty face gives
    X itself) and keys each face by its orbit.  Only the first face of an
    orbit has its link solved, with one certified Lanczos solve; the other
    faces of the orbit copy its vertex count, connectivity and eigenvalue
    as ``"reused"`` entries.

    The orbits are known only for coset complexes (``X.coset_data`` set).
    There every face of color type T is g.{K_i : i in T} for some g in G,
    and left translation by g is a weight-preserving isomorphism from the
    link of the base face onto the link of g.tau, so the key is (dimension,
    colors).  For any other complex the key is the face itself: no link
    borrows another's eigenvalue and no symmetry of X is assumed.
    Disconnected links appear as failure entries.  ``cap`` bounds each
    solve's Lanczos basis (``second_eigenvalue``).
    """
    _check_threshold(lam_threshold)
    if X.n < 1:
        raise ParameterError("a 0-dimensional complex has no 1-skeleton walk")
    by_orbit = X.coset_data is not None
    solved: dict[tuple, LinkEntry] = {}
    entries: list[LinkEntry] = []
    for k in range(-1, X.n - 1):
        faces = X.faces(k)
        rows = faces.tolist()
        cols = (X.colors[faces].tolist() if X.colors is not None and k >= 0
                else [None] * len(rows))
        for row, col in zip(rows, cols):
            tau = tuple(row)
            colors = None if col is None else tuple(col)
            key = (k, colors) if by_orbit else tau
            rep = solved.get(key)
            if rep is None:
                lk = link(X, tau)
                entry = solved[key] = _solve_entry(
                    functools.partial(walk_matrix, lk), lk.vertex_count, tau,
                    colors, cap)
            else:
                entry = LinkEntry(tau, colors, rep.vertices, rep.connected,
                                  rep.second, "reused")
            entries.append(entry)
    return _finish_report(entries, lam_threshold)


# ---------------------------------------------------------------------------
# KO links, built in the small groups


def ko_link_report(n: int, p: int, s: int, d: int,
                   threshold: float | None = None,
                   cap: int = DEFAULT_CAP) -> LocalSpectralReport:
    """Spectral check of the KO vertex links against 1/(sqrt(p) - n).

    The color-0 link CC(K_0, {K_0 n K_j : j = 1..n}) is solved, from
    K_0 in closed form (``groups.subgroup_K``) and normal-form cosets
    (``groups.ko_link_cosets``), by ``coset_walk``: no complex, and the
    float of ``walk_matrix`` on the link as a complex; K_0's element table
    is never built.  Conjugation by gamma_0^i maps K_0 n K_j onto
    K_i n K_{i+j}, so colors 1..n are its rotations and ``"reused"``.  The
    ambient walk is deliberately absent: for interesting parameters the
    full group is out of reach, and the local criterion quantifies over
    links.  ``threshold`` defaults to the theorem bound, which requires
    sqrt(p) > n.  ``cap`` bounds |K_0| (closed form, checked before any
    allocation) and the Lanczos basis.
    """
    if threshold is None:
        if math.sqrt(p) <= n:
            raise ParameterError(
                f"default bound 1/(sqrt(p)-n) needs sqrt(p) > n; "
                f"pass an explicit threshold for p={p}, n={n}")
        threshold = 1.0 / (math.sqrt(p) - n)
    _check_threshold(threshold)
    if n < 2:
        raise ParameterError("vertex links of a graph carry no walk; "
                             "need n >= 2")
    parts = ko_link_cosets(subgroup_K(n, p, s, d, 0, cap=cap), d)
    vertices = sum(part.n_cosets for part in parts)

    def walk() -> WalkMatrix:
        # the partitions, and K_0 through them, are let go once the walk
        # is built, before the Lanczos basis is allocated
        nonlocal parts
        held, parts = parts, None
        return coset_walk(held[0].group, held)

    first = _solve_entry(walk, vertices, None, (0,), cap)
    return _finish_report([first] + [
        dataclasses.replace(first, colors=(i,), solver="reused")
        for i in range(1, n + 1)], threshold)
