"""Random-walk spectra of weighted 1-skeletons and local expansion reports.

The walk moves from a vertex along an incident edge with probability
proportional to the edge weight.  Because every edge weight is its
maximal-face containment count over a fixed denominator, integer counts
drive all matrix assembly and the stationary distribution is exactly the
normalized vertex weight vector.  Floating point enters only in the
eigensolver, one sparse Lanczos solve per walk from a seeded start vector,
and every computed eigenvalue is certified by the residual of its Ritz
pair.  On a coset complex the report solves one link per color type of
face, since left translation makes all links of a type isomorphic; on any
other complex it solves every link.  The KO report solves one vertex
link, which gamma_0^i conjugates onto the color-i one.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from fractions import Fraction
from typing import Sequence

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import ArpackNoConvergence, eigsh

from .complexes import SimplicialComplex, WeightTable, coset_complex, link
from .errors import InputError, NumericalError, ParameterError, StructureError

EIG_TOL = 1e-9  # residual bound; eigenvalue error is at most this


# ---------------------------------------------------------------------------
# walk matrices


@dataclasses.dataclass(frozen=True)
class WalkMatrix:
    """Reversible walk on a weighted 1-skeleton.

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

    def transition(self) -> np.ndarray:
        """Dense row-stochastic transition matrix (small complexes only)."""
        V = self.vertex_count
        P = np.zeros((V, V))
        u, v = self.edges[:, 0], self.edges[:, 1]
        P[u, v] = self.edge_counts / self.strength[u]
        P[v, u] = self.edge_counts / self.strength[v]
        return P

    def symmetric(self):
        """Sparse D^{1/2} P D^{-1/2}; same spectrum, symmetric.

        Built once per walk; every call returns the same CSR matrix.
        """
        return self._symmetric

    @functools.cached_property
    def _symmetric(self):
        u, v = self.edges[:, 0], self.edges[:, 1]
        root = np.sqrt(self.strength.astype(np.float64))
        val = self.edge_counts / (root[u] * root[v])
        V = self.vertex_count
        return coo_matrix(
            (np.concatenate([val, val]),
             (np.concatenate([u, v]), np.concatenate([v, u]))),
            shape=(V, V)).tocsr()

    def stationary(self) -> np.ndarray:
        return self.strength / self.strength.sum()

    def stationary_exact(self) -> list[Fraction]:
        tot = int(self.strength.sum())
        return [Fraction(int(s), tot) for s in self.strength]


def walk_matrix(X: SimplicialComplex, w: WeightTable | None = None
                ) -> WalkMatrix:
    """The weighted walk on the 1-skeleton of X.

    ``w`` may be passed for interface symmetry; it must belong to X.  The
    walk only ever depends on the containment counts, so the table itself
    is not consulted.  A disconnected 1-skeleton raises StructureError.
    """
    if X.n < 1:
        raise ParameterError("a 0-dimensional complex has no 1-skeleton walk")
    if w is not None and w.X is not X:
        raise InputError("weight table was built from a different complex")
    edges = X.faces(1)
    ec = X.containment_counts(1).astype(np.int64)
    strength = np.zeros(X.vertex_count, dtype=np.int64)
    np.add.at(strength, edges[:, 0], ec)
    np.add.at(strength, edges[:, 1], ec)
    M = WalkMatrix(X.vertex_count, edges, ec, strength)
    # edge weights are positive, so S has the 1-skeleton's sparsity pattern;
    # S is symmetric, so its strong components are the undirected ones, and
    # the directed search reads the CSR as is, with no conversion to CSC
    ncomp = int(connected_components(M.symmetric(), directed=True,
                                     connection="strong", return_labels=False))
    if ncomp != 1:
        raise StructureError(
            f"1-skeleton is disconnected ({ncomp} components)")
    return M


# ---------------------------------------------------------------------------
# second eigenvalue


def second_eigenvalue(M: WalkMatrix, tol: float = EIG_TOL,
                      seed: int = 0) -> float:
    """Second-largest eigenvalue of the walk, certified to ``tol``.

    Lanczos (ARPACK's ``eigsh``, the two largest algebraic eigenvalues,
    run to machine precision) on the symmetric form S, with its start
    vector and restarts drawn from ``seed``.  For a symmetric S some
    eigenvalue lies within ||Sx - lam x|| of lam for any unit x, so that
    residual is the certificate: above ``tol`` it raises NumericalError
    carrying it.  ARPACK needs more vertices than requested eigenvalues;
    a connected walk on two vertices is a single edge with spectrum
    {1, -1}.
    """
    V = M.vertex_count
    if V < 2:
        raise ParameterError("the walk needs at least two vertices")
    if V == 2:
        return -1.0
    S = M.symmetric()
    # the generator also feeds ARPACK's restarts, which it takes whenever
    # the Krylov space closes early (few distinct eigenvalues); without it
    # they draw from OS entropy and the last bits differ between calls
    rng = np.random.default_rng(seed)
    try:
        vals, vecs = eigsh(S, k=2, which="LA", tol=0,
                           v0=rng.standard_normal(V), rng=rng)
    except ArpackNoConvergence as exc:
        raise NumericalError(f"Lanczos did not converge: {exc}") from exc
    lam, x = float(vals[0]), vecs[:, 0]
    res = float(np.linalg.norm(S @ x - lam * x))
    if res > tol:
        raise NumericalError(
            f"Lanczos residual {res:.3e} exceeds tolerance {tol:.1e}",
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


def _solve_entry(lnk: SimplicialComplex, face, colors) -> LinkEntry:
    # walk_matrix's component count is the link's one connectivity check
    try:
        M = walk_matrix(lnk)
    except StructureError:
        return LinkEntry(face, colors, lnk.vertex_count, False, None, "none")
    return LinkEntry(face, colors, lnk.vertex_count, True,
                     second_eigenvalue(M), "lanczos")


def local_spectral_report(X: SimplicialComplex, lam_threshold: float
                          ) -> LocalSpectralReport:
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
    Disconnected links appear as failure entries.
    """
    by_orbit = X.coset_data is not None
    solved: dict[tuple, LinkEntry] = {}
    entries: list[LinkEntry] = []
    for k in range(-1, X.n - 1):
        for row in X.faces(k):
            tau = tuple(int(v) for v in row)
            colors = (tuple(int(c) for c in X.colors[list(tau)])
                      if X.colors is not None and tau else None)
            key = (k, colors) if by_orbit else tau
            rep = solved.get(key)
            if rep is None:
                entry = solved[key] = _solve_entry(link(X, tau), tau, colors)
            else:
                entry = dataclasses.replace(rep, face=tau, colors=colors,
                                            solver="reused")
            entries.append(entry)
    return _finish_report(entries, lam_threshold)


# ---------------------------------------------------------------------------
# KO links, built in the small groups


def ko_vertex_link(n: int, p: int, s: int, d: int,
                   cap: int = 1 << 24) -> SimplicialComplex:
    """The link CC(K_0, {K_0 n K_j : j = 1..n}) of a color-0 vertex.

    Only K_0 is enumerated, never the far larger ambient group, and in
    closed form (``groups.subgroup_K``).  Each K_0 n K_j is the set of
    elements whose entry (a, b) has degree <= B_ab
    (``groups.ko_intersection_bounds``), and its left cosets are labeled by
    normal form: each coset has exactly one element with no term of degree
    <= B_ab in any entry (``groups.ko_coset_codes``).  No closure, key
    lookup or ``cosets()`` call is made; ``groups.ko_link_cosets`` checks
    every partition's class sizes against K_0 n K_j found by membership.
    Conjugation by gamma_0^i maps K_0 n K_j onto K_i n K_{i+j}: the color-i
    link is this one with its colors rotated by i.
    """
    from .groups import ko_link_cosets, subgroup_K

    if n < 2:
        raise ParameterError("vertex links of a graph carry no walk; "
                             "need n >= 2")
    K0 = subgroup_K(n, p, s, d, 0, cap=cap)
    return coset_complex(K0, ko_link_cosets(K0, d))


def ko_link_report(n: int, p: int, s: int, d: int,
                   threshold: float | None = None,
                   cap: int = 1 << 24) -> LocalSpectralReport:
    """Spectral check of the KO vertex links against 1/(sqrt(p) - n).

    Color 0 is solved; colors 1..n are its gamma_0^i conjugates (see
    ``ko_vertex_link``) and ``"reused"``.  The ambient walk is deliberately
    absent: for interesting parameters the full group is out of reach, and
    the local criterion quantifies over links.  ``threshold`` defaults to
    the theorem bound, which requires sqrt(p) > n.
    """
    if threshold is None:
        if math.sqrt(p) <= n:
            raise ParameterError(
                f"default bound 1/(sqrt(p)-n) needs sqrt(p) > n; "
                f"pass an explicit threshold for p={p}, n={n}")
        threshold = 1.0 / (math.sqrt(p) - n)
    first = _solve_entry(ko_vertex_link(n, p, s, d, cap=cap), None, (0,))
    return _finish_report([first] + [
        dataclasses.replace(first, colors=(i,), solver="reused")
        for i in range(1, n + 1)], threshold)
