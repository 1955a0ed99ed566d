"""Weighted walks, second eigenvalues, and local spectral reports.

Eigenvalues of the fixture walks are known in closed form (complete
graphs, cycles, the Petersen graph), so they are pinned exactly and also
cross-checked against an independent dense eigensolver in oracles.py
that never touches the package's WalkMatrix plumbing.
"""

import dataclasses
import functools
import gc
import hashlib
import itertools
import json
import math
import sys
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cosetx import fixtures as fx
from cosetx import spectral
from cosetx.complexes import (
    SimplicialComplex,
    bfs_forest,
    build_ko_complex,
    coset_complex,
    dumps_complex,
    link,
    loads_complex,
)
from cosetx.errors import (
    DEFAULT_CAP,
    InputError,
    NumericalError,
    ParameterError,
    ResourceLimitError,
    StructureError,
)
from cosetx.groups import (CosetPartition, component_labels, cosets,
                           subgroup_closure_indices, symmetric_group)
from cosetx.roots import perm_rank
from cosetx.spectral import (
    _finish_report,
    _solve_entry,
    coset_walk,
    ko_link_report,
    local_spectral_report,
    second_eigenvalue,
    walk_matrix,
)

import oracles
from oracles import ko_vertex_link

TOL = 1e-9


# ---------------------------------------------------------------------------
# walk matrices


def test_transition_is_stochastic_and_reversible():
    for X in (fx.octahedron(), fx.torus_7(), fx.petersen_graph()):
        M = walk_matrix(X)
        P = oracles.walk_transition(M)
        assert np.allclose(P.sum(axis=1), 1.0)
        pi = M.strength / M.strength.sum()
        assert pi.sum() == pytest.approx(1.0)
        assert np.allclose(pi @ P, pi)
        # detailed balance: diag(pi) P is symmetric
        B = pi[:, None] * P
        assert np.allclose(B, B.T)
        exact = oracles.stationary_exact(M)
        assert sum(exact) == 1
        assert np.allclose([float(f) for f in exact], pi)


def test_symmetric_form_has_same_spectrum():
    X = fx.torus_7()
    M = walk_matrix(X)
    vals_p = np.sort(np.linalg.eigvals(oracles.walk_transition(M)).real)
    S = M.symmetric()
    dense = np.column_stack([S @ e for e in np.eye(M.vertex_count)])
    vals_s = np.sort(np.linalg.eigvalsh(dense))
    assert np.allclose(vals_p, vals_s)


def _cone_over_cycle(m):
    # the apex has degree m, every other vertex degree 3
    return SimplicialComplex(2, m + 1, [sorted([i, (i + 1) % m, m])
                                        for i in range(m)])


def _product_walks():
    """Walks whose forms have several degree groups, lone rows included,
    and the KO link walks through both builders."""
    for name, make in [("torus-7", fx.torus_7),
                       ("petersen", fx.petersen_graph),
                       ("cycle-9", lambda: fx.cycle_complex(9)),
                       ("K7", lambda: fx.complete_graph(7)),
                       ("cone-40", lambda: _cone_over_cycle(40)),
                       ("ko-2-2-2-1", lambda: build_ko_complex(2, 2, 2, 1))]:
        yield name, walk_matrix(make())
    for params in COSET_WALK_LINKS:
        L = ko_vertex_link(*params)
        parts = L.coset_data.partitions
        yield f"complex-{params}", walk_matrix(L)
        yield f"cosets-{params}", coset_walk(parts[0].group, parts)


def test_symmetric_form_product_is_the_bincount_bit_for_bit():
    rng = np.random.default_rng(7)
    for name, M in _product_walks():
        V = M.vertex_count
        for x in (*rng.standard_normal((3, V)),
                  rng.choice([0.0, -0.0, 1.0, -2.5], size=V),
                  np.full(V, -0.0)):
            got = (M.symmetric() @ x).view(np.int64)
            want = oracles.bincount_product(M, x).view(np.int64)
            assert np.array_equal(got, want), name


def test_walk_matrix_validation():
    with pytest.raises(StructureError):
        walk_matrix(oracles.two_triangles_disjoint())
    with pytest.raises(ParameterError):
        walk_matrix(SimplicialComplex(0, 2, [[0], [1]]))


STRENGTH_CASES = {
    "single-triangle": fx.single_triangle,
    "triangle-strip": oracles.triangle_strip,
    "tetrahedron-sphere": fx.tetrahedron_sphere,
    "octahedron": fx.octahedron,
    "torus-7": fx.torus_7,
    "bowtie": oracles.bowtie,
    "petersen": fx.petersen_graph,
    "fan": lambda: SimplicialComplex(2, 5, [[0, 1, 2], [0, 1, 3], [0, 1, 4],
                                            [1, 2, 3]]),
    "ko-2-2-2-1": lambda: build_ko_complex(2, 2, 2, 1),
    "link-3-2-2-1": lambda: ko_vertex_link(3, 2, 2, 1),
    "link-3-2-3-1": lambda: ko_vertex_link(3, 2, 3, 1),
    "two-tetrahedra": lambda: SimplicialComplex(3, 5, [[0, 1, 2, 3],
                                                       [1, 2, 3, 4]]),
}


@pytest.mark.parametrize("make", STRENGTH_CASES.values(),
                         ids=STRENGTH_CASES.keys())
def test_walk_strength_is_the_sum_over_each_vertex_edges(make):
    X = make()
    M = walk_matrix(X)
    edges, ec = X.faces(1), X.containment_counts(1)
    want = np.zeros(X.vertex_count, dtype=np.int64)
    np.add.at(want, edges[:, 0], ec)
    np.add.at(want, edges[:, 1], ec)
    assert M.strength.dtype == np.int64
    assert np.array_equal(M.strength, want)


def _scipy_labels(edges, V):
    """Undirected components by scipy's csgraph, the test-only oracle,
    each labelled by its least vertex."""
    sparse = pytest.importorskip("scipy.sparse")
    csgraph = pytest.importorskip("scipy.sparse.csgraph")
    A = sparse.coo_matrix((np.ones(len(edges)), (edges[:, 0], edges[:, 1])),
                          shape=(V, V))
    _, comp = csgraph.connected_components(A, directed=False)
    least = np.full(V, V)
    np.minimum.at(least, comp, np.arange(V))
    return least[comp]


def _roots(labels):
    return int(np.count_nonzero(labels == np.arange(len(labels))))


@pytest.mark.parametrize("X", [
    oracles.two_triangles_disjoint(),
    link(oracles.bowtie(), (0,)),
    # a path with isolated edges on either side: three components
    SimplicialComplex(1, 7, [[0, 1], [2, 3], [3, 4], [5, 6]]),
], ids=["two-triangles", "bowtie-link", "three-pieces"])
def test_walk_matrix_component_count_is_undirected(X):
    """component_count, is_connected and walk_matrix's error all see the
    undirected components of the 1-skeleton."""
    want = _roots(_scipy_labels(X.faces(1), X.vertex_count))
    assert want > 1
    assert X.component_count() == want and not X.is_connected()
    with pytest.raises(StructureError, match=rf"disconnected \({want} components\)"):
        walk_matrix(X)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 24).flatmap(lambda V: st.tuples(
    st.just(V),
    st.lists(st.tuples(st.integers(0, V - 1), st.integers(0, V - 1)),
             max_size=2 * V))))
def test_component_count_matches_csgraph_on_random_graphs(graph):
    # vertices that no edge touches are components of their own
    V, pairs = graph
    edges = np.array(sorted({(min(a, b), max(a, b)) for a, b in pairs
                             if a != b}), dtype=np.int64).reshape(-1, 2)
    assert _roots(component_labels(V, [(edges[:, 0], edges[:, 1])])) == \
        _roots(_scipy_labels(edges, V))


# ---------------------------------------------------------------------------
# component labels


def _edge_rows(pairs, rng):
    """The pairs as int64 edge rows in shuffled order, each row's ends in
    either order."""
    rows = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    flip = rng.random(len(rows)) < 0.5
    rows[flip] = rows[flip, ::-1]
    return rows[rng.permutation(len(rows))]


def _split(edges, rng):
    """The edge rows as one to four (u, v) pairs of index arrays."""
    cuts = np.sort(rng.integers(0, len(edges) + 1, size=rng.integers(0, 4)))
    return [(part[:, 0], part[:, 1]) for part in np.split(edges, cuts)]


def _bfs_labels(edges, V):
    """Each vertex's root in the BFS forest, which the order contract makes
    its component's least vertex."""
    parent, _, order = bfs_forest(edges, V)
    labels = np.arange(V)
    for v in order.tolist():
        if parent[v] >= 0:
            labels[v] = labels[parent[v]]
    return labels


@pytest.mark.parametrize("V", [0, 1, 7])
def test_count_components_of_no_edges_is_the_vertex_count(V):
    edges = np.zeros((0, 2), dtype=np.int64)
    for pairs in ([], [(edges[:, 0], edges[:, 1])]):
        assert np.array_equal(component_labels(V, pairs), np.arange(V))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 30).flatmap(lambda V: st.tuples(
    st.just(V),
    st.lists(st.tuples(st.integers(0, V - 1), st.integers(0, V - 1)),
             max_size=3 * V),
    st.integers(0, 2**32 - 1))))
def test_component_labels_match_csgraph_on_random_graphs(graph):
    # isolated vertices, loops, repeated edges, either orientation, rows
    # in any order and split over several pairs
    V, pairs, seed = graph
    rng = np.random.default_rng(seed)
    edges = _edge_rows(pairs, rng)
    got = component_labels(V, _split(edges, rng))
    assert np.array_equal(got, _scipy_labels(edges, V))


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 30).flatmap(lambda V: st.tuples(
    st.just(V),
    st.lists(st.tuples(st.integers(0, V - 1), st.integers(0, V - 1))
             .filter(lambda e: e[0] != e[1]), max_size=2 * V),
    st.integers(0, 2**32 - 1))))
def test_count_components_matches_the_bfs_on_random_graphs(graph):
    # isolated vertices, repeated edges, rows in any order and orientation
    V, pairs, seed = graph
    rng = np.random.default_rng(seed)
    edges = _edge_rows(pairs, rng)
    assert np.array_equal(component_labels(V, _split(edges, rng)),
                          _bfs_labels(edges, V))


def test_count_components_adds_over_disjoint_unions():
    rng = np.random.default_rng(20261021)
    for _ in range(50):
        sizes = rng.integers(1, 20, size=rng.integers(1, 5))
        parts, pairs, base = [], [], 0
        for V in sizes:
            part = [(a, b) for a, b in rng.integers(0, V, size=(V, 2))
                    if a != b]
            parts.append(_roots(_bfs_labels(_edge_rows(part, rng), int(V))))
            pairs += [(base + a, base + b) for a, b in part]
            base += int(V)
        # vertex labels shuffled across the parts
        perm = rng.permutation(base)
        edges = perm[_edge_rows(pairs, rng)]
        labels = component_labels(base, _split(edges, rng))
        assert np.array_equal(labels, _bfs_labels(edges, base))
        assert _roots(labels) == sum(parts)


@pytest.mark.parametrize("closed", [False, True], ids=["path", "cycle"])
def test_count_components_of_a_shuffled_path_and_cycle(closed):
    # about 2 * 10^4 vertices in one component; with the labels shuffled
    # the labelling takes about 10 hook rounds, where a sorted path takes
    # one
    V = 20011
    rng = np.random.default_rng(V)
    perm = rng.permutation(V)
    pairs = list(zip(perm[:-1], perm[1:])) + [(perm[-1], perm[0])] * closed
    edges = _edge_rows(pairs, rng)
    labels = component_labels(V, [(edges[:, 0], edges[:, 1])])
    assert np.array_equal(labels, _bfs_labels(edges, V))
    assert (labels == 0).all()
    # one edge fewer splits the path in two and opens the cycle
    rest = edges[1:]
    labels = component_labels(V, _split(rest, rng))
    assert np.array_equal(labels, _bfs_labels(rest, V))
    assert _roots(labels) == 2 - closed


def test_component_labels_of_a_shuffled_cycle_permutation():
    # the cycle as one (arange, perm) pair, as cosets() passes a right
    # table: one label, however the cycle visits the vertices
    V = 20011
    order = np.random.default_rng(V).permutation(V)
    perm = np.empty(V, dtype=np.int64)
    perm[order] = np.roll(order, -1)
    labels = component_labels(V, [(np.arange(V), perm)])
    assert (labels == 0).all()


# ---------------------------------------------------------------------------
# second eigenvalues


CLOSED_FORM = [
    (fx.single_triangle, -0.5),             # K_3
    (fx.complete_graph(4), -1 / 3),         # K_m: -1/(m-1)
    (fx.complete_graph(7), -1 / 6),
    (fx.cycle_complex(6), 0.5),             # cos(2 pi / 6)
    (fx.petersen_graph(), 1 / 3),
    (fx.octahedron, 0.0),
    (fx.torus_7, -1 / 6),                   # skeleton is K_7
    (oracles.complete_bipartite(2, 3), 0.0),
]


@pytest.mark.parametrize("X,expect", CLOSED_FORM)
def test_second_eigenvalue_closed_forms(X, expect):
    if callable(X):
        X = X()
    lam = second_eigenvalue(walk_matrix(X))
    assert lam == pytest.approx(expect, abs=TOL)


def test_second_eigenvalue_matches_oracle():
    for X, _ in CLOSED_FORM:
        if callable(X):
            X = X()
        got = second_eigenvalue(walk_matrix(X))
        assert got == pytest.approx(oracles.walk_second_eigenvalue(X),
                                    abs=TOL)


def _small_graphs():
    """Graphs on 2..12 vertices whose walks the solver must get right."""
    for k in range(2, 13):
        yield f"path-{k}", oracles.path_complex(k)
        yield f"K{k}", fx.complete_graph(k)
    for k in range(3, 13):
        yield f"cycle-{k}", fx.cycle_complex(k)
    for a in range(1, 7):
        for b in range(a, 13 - a):
            yield f"K{a},{b}", oracles.complete_bipartite(a, b)
    yield "petersen", fx.petersen_graph()


def test_lanczos_matches_oracle_on_small_graphs():
    for name, X in _small_graphs():
        M = walk_matrix(X)
        got = second_eigenvalue(M)
        assert got == pytest.approx(oracles.walk_second_eigenvalue(X),
                                    abs=TOL), name
        assert second_eigenvalue(M) == got, name   # fixed seed


def _arpack_second(M):
    """lambda_2 by scipy's ARPACK, the test-only oracle for the solver."""
    sparse = pytest.importorskip("scipy.sparse")
    linalg = pytest.importorskip("scipy.sparse.linalg")
    V = M.vertex_count
    rows, cols, vals = oracles.symmetric_entries(M)
    A = sparse.coo_matrix((vals, (rows, cols)), shape=(V, V)).tocsr()
    v0 = np.random.default_rng(0).standard_normal(V)
    vals = linalg.eigsh(A, k=2, which="LA", tol=0, v0=v0,
                        return_eigenvectors=False)
    return float(np.sort(vals)[0])


@pytest.mark.parametrize("build", [
    lambda: ko_vertex_link(3, 2, 3, 1),
    lambda: ko_vertex_link(2, 5, 3, 1),
    lambda: ko_vertex_link(2, 3, 2, 1),
    lambda: build_ko_complex(2, 2, 2, 1),
], ids=["link-3-2-3-1", "link-2-5-3-1", "link-2-3-2-1", "ko-2-2-2-1"])
def test_lanczos_matches_arpack(build):
    M = walk_matrix(build())
    assert abs(second_eigenvalue(M) - _arpack_second(M)) <= 1e-12


def test_residual_certificate_rejects_tight_tolerance(monkeypatch):
    M = walk_matrix(fx.torus_7())
    monkeypatch.setattr(spectral, "EIG_TOL", 1e-30)
    with pytest.raises(NumericalError) as exc:
        second_eigenvalue(M)
    assert exc.value.residual > 0


def test_lanczos_basis_is_capped():
    """The 5000-cycle needs far more than 32 Lanczos steps: a cap that
    holds the first 32-row basis but not its doubling stops the run at
    step 32, before the 64-row basis is allocated."""
    M = walk_matrix(fx.cycle_complex(5000))
    with pytest.raises(ResourceLimitError) as exc:
        second_eigenvalue(M, cap=32 * 5000)
    assert exc.value.partial_count == 32
    with pytest.raises(ResourceLimitError) as exc:
        second_eigenvalue(M, cap=32 * 5000 - 1)
    assert exc.value.partial_count == 0
    with pytest.raises(ResourceLimitError):
        local_spectral_report(fx.cycle_complex(5000), 1.0, cap=32 * 5000)


def test_lanczos_cap_bounds_the_growth_copy():
    """A doubling holds the old and the new basis at once, and the cap
    counts both: at a cap of 128 rows of the 4000-cycle the run stops
    before growing from 64 to 128 rows, and the traced peak stays near
    the cap's 8 bytes per float.  Counting only the new basis let the run
    grow to 128 rows, with 192 rows live during the copy, about twice the
    cap."""
    V = 4000
    cap = 128 * V
    M = walk_matrix(fx.cycle_complex(V))
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError) as exc:
            second_eigenvalue(M, cap=cap)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert exc.value.partial_count == 64
    assert peak < 1.25 * 8 * cap


@pytest.mark.parametrize("n,p", [(2, 3), (2, 5), (3, 2), (3, 3)])
def test_ko_link_eigenvalues_fit_the_first_basis(n, p):
    """KO vertex links converge inside the first 32-row basis, so the
    tightest cap that admits it changes no bit of the eigenvalue."""
    L = ko_vertex_link(n, p, 2, 1)
    M = walk_matrix(L)
    assert second_eigenvalue(M, cap=32 * L.vertex_count) == \
        second_eigenvalue(M)


def test_second_eigenvalue_validation():
    # two vertices: closed form, whatever the edge weight
    tiny = walk_matrix(SimplicialComplex(1, 2, [[0, 1]]))
    assert second_eigenvalue(tiny) == -1.0
    heavy = dataclasses.replace(tiny, edge_counts=tiny.edge_counts * 5,
                                strength=tiny.strength * 5)
    assert second_eigenvalue(heavy) == -1.0
    M1 = dataclasses.replace(tiny, vertex_count=1, edges=tiny.edges[:0],
                             edge_counts=tiny.edge_counts[:0],
                             strength=tiny.strength[:1])
    with pytest.raises(ParameterError):
        second_eigenvalue(M1)


# ---------------------------------------------------------------------------
# local spectral reports


def test_report_single_triangle():
    rep = local_spectral_report(fx.single_triangle(), 0.9)
    assert len(rep.entries) == 4                   # empty face + 3 vertices
    assert rep.entries[0].face == ()
    assert rep.max_second == pytest.approx(-0.5, abs=TOL)
    assert rep.connected_ok and rep.passed
    assert rep.summary().startswith("PASS")


def test_report_octahedron_solves_every_link():
    rep = local_spectral_report(fx.octahedron(), 0.9)
    assert len(rep.entries) == 7
    assert rep.max_second == pytest.approx(0.0, abs=TOL)
    assert [e.solver for e in rep.entries] == ["lanczos"] * 7
    assert all(e.colors is not None for e in rep.entries[1:])


def test_report_torus_threshold():
    rep = local_spectral_report(fx.torus_7(), 0.4)
    assert len(rep.entries) == 8                   # ambient + 7 vertex links
    assert rep.max_second == pytest.approx(0.5, abs=TOL)   # links are C_6
    assert not rep.passed and rep.summary().startswith("FAIL")
    assert [e.face for e in rep.entries[1:]] == [(v,) for v in range(7)]
    for e in rep.entries[1:]:
        assert e.second == pytest.approx(0.5, abs=TOL)
    assert local_spectral_report(fx.torus_7(), 0.5 + 1e-9).passed


def test_report_flags_disconnected_link():
    rep = local_spectral_report(oracles.bowtie(), 0.99)
    assert not rep.connected_ok and not rep.passed
    bad = [e for e in rep.entries if not e.connected]
    assert [e.face for e in bad] == [(0,)]
    assert bad[0].second is None and bad[0].solver == "none"


def test_report_to_dict_shape():
    rep = local_spectral_report(fx.single_triangle(), 0.9)
    d = rep.to_dict()
    assert set(d) == {"threshold", "max_second_eigenvalue",
                      "all_links_connected", "passed", "links"}
    assert len(d["links"]) == 4
    assert set(d["links"][0]) == {"face", "colors", "vertices", "connected",
                                  "second_eigenvalue", "solver"}


def _per_face_entries(X):
    """One independent solve of every link, with no orbit shortcut."""
    out = []
    for k in range(-1, X.n - 1):
        for row in X.faces(k):
            tau = tuple(int(v) for v in row)
            colors = (tuple(int(c) for c in X.colors[list(tau)])
                      if X.colors is not None and tau else None)
            lk = link(X, tau)
            out.append(_solve_entry(functools.partial(walk_matrix, lk),
                                    lk.vertex_count, tau, colors,
                                    DEFAULT_CAP))
    return out


def _assert_matches_per_face(rep, X):
    oracle = _per_face_entries(X)
    assert len(rep.entries) == len(oracle)
    for got, want in zip(rep.entries, oracle):
        assert (got.face, got.colors) == (want.face, want.colors)
        assert got.vertices == want.vertices
        assert got.connected == want.connected
        if want.second is None:
            assert got.second is None
        else:
            assert got.second == pytest.approx(want.second, abs=1e-9)


def _s4_parabolic_sphere():
    # maximal parabolics of S4: the 14-vertex 2-sphere of the suite's
    # quotient-cohomology check; K_0 and K_2 are S3, K_1 is Z/2 x Z/2
    G = symmetric_group(4)
    s1, s2, s3 = (1, 0, 2, 3), (0, 2, 1, 3), (0, 1, 3, 2)
    idx = list(itertools.permutations(range(4))).index
    subs = [subgroup_closure_indices(G, [idx(a), idx(b)])
            for a, b in ((s2, s3), (s1, s3), (s1, s2))]
    return coset_complex(G, subs)


def test_report_ko_complex_matches_per_face_solves():
    # G acts transitively on each color's vertices, so the 2016 vertex links
    # are isomorphic: one solve per color, the rest reused
    X = build_ko_complex(2, 2, 2, 1)
    rep = local_spectral_report(X, 0.999)
    assert len(rep.entries) == 2017
    assert rep.connected_ok and rep.passed
    solvers = [e.solver for e in rep.entries]
    assert solvers.count("lanczos") == 4     # the empty face + one per color
    assert solvers.count("reused") == 2013
    assert rep.entries[0].face == ()
    assert rep.entries[0].second == pytest.approx(0.5395780988, abs=1e-9)
    assert [e.face for e in rep.entries[1:]] == [(v,) for v in range(2016)]
    for e in rep.entries[1:]:
        assert e.second == pytest.approx(1 / math.sqrt(2), abs=1e-9)
    assert rep.max_second == pytest.approx(1 / math.sqrt(2), abs=1e-9)
    _assert_matches_per_face(rep, X)


def test_report_ko_complex_is_pinned():
    """The whole KO(2,2,2,1) report, entry by entry and in order, hashes
    to the value the per-face dataclass copies gave."""
    d = local_spectral_report(build_ko_complex(2, 2, 2, 1), 0.999).to_dict()
    digest = hashlib.sha256(json.dumps(d, sort_keys=True).encode())
    assert digest.hexdigest() == ("a475f52767ba702976d41cea848119fb"
                                  "d3638ac1a5412e42eb2b8297bb47f4ee")


def test_report_coset_colors_with_unlike_links():
    # colors 0 and 2 have hexagon links, color 1 has 4-cycle links, so a
    # shortcut that ignored the color type would copy the wrong spectrum
    X = _s4_parabolic_sphere()
    rep = local_spectral_report(X, 0.9)
    assert len(rep.entries) == 15
    assert [e.solver for e in rep.entries].count("lanczos") == 4
    assert rep.entries[0].second == pytest.approx(
        oracles.walk_second_eigenvalue(X), abs=TOL)
    want = {(0,): (6, 0.5), (1,): (4, 0.0), (2,): (6, 0.5)}
    for e in rep.entries[1:]:
        assert (e.vertices, round(e.second, 9)) == want[e.colors]
    _assert_matches_per_face(rep, X)

    # the same complex read back from a file carries no coset data, so
    # every link is solved and the entries agree one by one
    Y = loads_complex(dumps_complex(X))
    plain = local_spectral_report(Y, 0.9)
    assert [e.solver for e in plain.entries] == ["lanczos"] * 15
    for a, b in zip(rep.entries, plain.entries):
        assert (a.face, a.colors, a.vertices, a.connected) == \
            (b.face, b.colors, b.vertices, b.connected)
        assert a.second == pytest.approx(b.second, abs=1e-9)


def test_report_colored_fixture_solves_every_link():
    # partite but not a coset complex: the color-0 vertices 0 and 3 have
    # links with 2 and 3 vertices, so colors alone must not key a solve
    X = oracles.triangle_strip()
    rep = local_spectral_report(X, 0.9)
    assert [e.solver for e in rep.entries] == ["lanczos"] * 6
    assert [(e.colors, e.vertices) for e in rep.entries[1:]] == \
        [((0,), 2), ((1,), 3), ((2,), 4), ((0,), 3), ((1,), 2)]
    _assert_matches_per_face(rep, X)


# ---------------------------------------------------------------------------
# KO vertex links


def test_ko_links_small_instance():
    lnk = ko_vertex_link(2, 2, 2, 1)
    assert lnk.vertex_count == 32                  # |K_0| / |K_0 n K_j|
    assert lnk.f_vector() == (32, 64)
    assert lnk.is_connected()


def test_ko_links_match_literal_links():
    # link(K_i) in X = CC(G, {K_j}) is the color-0 link CC(K_0, {K_0 n K_j})
    # through the explicit map k(K_0 n K_j) -> (g k g^-1) K_{i+j}, k in K_0,
    # g = gamma_0^i
    from cosetx.groups import rotate_rows, sl_group

    G = sl_group(2, 2, 2)
    X = build_ko_complex(2, 2, 2, 1)
    Y = ko_vertex_link(2, 2, 2, 1)
    K0 = Y.coset_data.partitions[0].group
    for i in range(3):
        L = link(X, (oracles.vertex_of(X.coset_data, i, G.identity),))
        image = np.concatenate([
            [oracles.vertex_of(X.coset_data, (i + j) % 3, int(g))
             for g in G.lookup_rows(rotate_rows(K0.elems[part.reps], i))]
            for j, part in enumerate(Y.coset_data.partitions, start=1)])
        phi = np.searchsorted(L.origin_vertices, image)
        assert np.array_equal(L.origin_vertices[phi], image)
        assert np.array_equal(np.sort(phi), np.arange(L.vertex_count))
        assert np.array_equal(X.colors[image], (i + 1 + Y.colors) % 3)
        mapped = np.sort(phi[Y.max_faces], axis=1)
        assert len(mapped) == len(L.max_faces)
        assert set(map(tuple, mapped.tolist())) == \
            set(map(tuple, L.max_faces.tolist()))


def test_ko_link_report_p2():
    # sqrt(2) < 2, so the theorem bound is unavailable and the observed
    # bipartite-flavored value 1/sqrt(2) is checked explicitly
    with pytest.raises(ParameterError):
        ko_link_report(2, 2, 2, 1)
    rep = ko_link_report(2, 2, 2, 1, threshold=1 / math.sqrt(2) + 1e-9)
    assert rep.passed and len(rep.entries) == 3
    assert rep.max_second == pytest.approx(1 / math.sqrt(2), abs=TOL)
    rep3 = ko_link_report(2, 2, 3, 1, threshold=1 / math.sqrt(2) + 1e-9)
    assert rep3.passed
    assert rep3.max_second == pytest.approx(1 / math.sqrt(2), abs=1e-9)


@pytest.mark.parametrize("n,p,s,d", [(2, 2, 2, 1), (2, 3, 2, 1),
                                     (3, 2, 2, 1)])
def test_ko_link_colors_share_spectrum(n, p, s, d):
    # gamma_0 conjugates K_i onto K_{i+1}, so one solve serves every color;
    # each color's link built on its own, from its own K_i BFS, agrees
    rep = ko_link_report(n, p, s, d, threshold=1.0)
    assert [e.solver for e in rep.entries] == ["lanczos"] + ["reused"] * n
    assert [e.colors for e in rep.entries] == [(i,) for i in range(n + 1)]
    for e, L in zip(rep.entries,
                    oracles.ko_vertex_links_per_color(n, p, s, d),
                    strict=True):
        assert e.vertices == L.vertex_count
        assert e.connected == L.is_connected()
        assert abs(e.second - second_eigenvalue(walk_matrix(L))) <= 1e-12


def test_ko_link_report_builds_one_link(monkeypatch):
    # one closed-form K_0, normal-form cosets: no closure, no cosets(), no
    # key index and no SimplicialComplex on the way to the one link's walk;
    # the walk sorts its pair keys in place and counts components without
    # a spanning forest: no bfs_forest, key_runs or stable_order
    import cosetx._kernels.common as common_mod
    import cosetx.complexes as complexes_mod
    import cosetx.groups as groups_mod
    import cosetx.spectral as spectral_mod

    modules = [mod for key, mod in sys.modules.items()
               if key == "cosetx" or key.startswith("cosetx.")]
    calls = []
    for home, name in ((groups_mod, "closure_bfs"), (groups_mod, "cosets"),
                       (groups_mod, "KeyIndex"),
                       (complexes_mod, "coset_complex"),
                       (complexes_mod, "bfs_forest"),
                       (common_mod, "key_runs"), (common_mod, "stable_order"),
                       (spectral_mod, "walk_matrix"),
                       (spectral_mod, "coset_walk")):
        fn = getattr(home, name)
        spy = (lambda *a, _fn=fn, _name=name, **k:
               calls.append(_name) or _fn(*a, **k))
        # at every module that binds the function by name
        for mod in modules:
            if getattr(mod, name, None) is fn:
                monkeypatch.setattr(mod, name, spy)
    init = SimplicialComplex.__init__
    monkeypatch.setattr(SimplicialComplex, "__init__",
                        lambda *a, **k: calls.append("complex") or init(*a, **k))
    ko_link_report(3, 2, 2, 1, threshold=1.0)
    assert calls == ["coset_walk"]


def test_ko_link_report_lets_k0_go_before_the_solve(monkeypatch):
    # K_0's element table and the partitions are not held through the
    # Lanczos run: once the walk is built, nothing refers to K_0
    import cosetx.spectral as spectral_mod

    make, solve, refs, held = (spectral_mod.subgroup_K,
                               spectral_mod.second_eigenvalue, [], [])

    def subgroup_K(*a, **k):
        K0 = make(*a, **k)
        refs.append(weakref.ref(K0))
        return K0

    def second_eigenvalue(M, **k):
        held.append(refs[0]() is not None)
        return solve(M, **k)

    monkeypatch.setattr(spectral_mod, "subgroup_K", subgroup_K)
    monkeypatch.setattr(spectral_mod, "second_eigenvalue", second_eigenvalue)
    gc.disable()  # freed by reference counts alone, not by a collection
    try:
        ko_link_report(3, 2, 2, 1, threshold=1.0)
    finally:
        gc.enable()
    assert held == [False]


def test_ko_link_report_never_lists_k0(monkeypatch):
    # K_0 is read through its closed-form entry columns: neither its
    # element table nor the keys built from it ever exist
    import cosetx.spectral as spectral_mod

    make, made = spectral_mod.subgroup_K, []
    monkeypatch.setattr(spectral_mod, "subgroup_K",
                        lambda *a, **k: made.append(make(*a, **k)) or made[-1])
    ko_link_report(3, 2, 3, 1, threshold=1.0)
    assert len(made) == 1
    assert not {"elems", "keys", "_index"} & set(vars(made[0]))


def test_ko_link_report_peak_traced_memory():
    # (3,3,2,1), |K_0| = 3^12: K_0's element table alone would be 32 MiB
    # (86 MiB peak with it); the entry columns are 12 MiB, and the traced
    # peak is 29.9 MiB
    tracemalloc.start()
    try:
        ko_link_report(3, 3, 2, 1, threshold=1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 35 << 20


def test_ko_link_report_at_p11_peaks_under_185_mb():
    # a fresh interpreter's VmHWM: 303 MB with K_0's 64 MB element table,
    # |K_0| = 11^6 and 29,282 vertices; 215 MB with the int64 entries of
    # both triangles, 154 MB with neighbour tables by colour block
    r, peak_mb = oracles.run_with_peak(
        "from cosetx.spectral import ko_link_report\n"
        "assert ko_link_report(2, 11, 2, 1).passed\n")
    assert r.returncode == 0, r.stderr
    assert peak_mb < 185


def _codes_without_products(K0, d, j, entries):
    """``groups.ko_coset_codes`` with the update g_ib += g_ia r deleted:
    each class still holds |H| elements and the identity's class is H."""
    from cosetx.groups import k0_degree_bounds, ko_intersection_bounds

    m, ring = K0.m, K0.ring
    D = k0_degree_bounds(m - 1, ring.s, d)
    B = ko_intersection_bounds(m - 1, ring.s, d, j)
    lows = (np.arange(ring.q) % ring.p ** (B[:, :, None] + 1)).astype(np.uint32)
    g = dict(zip(zip(*np.nonzero(D >= 0)), entries))
    for b in range(1, m):
        for a in np.flatnonzero(B[:b, b] >= 0)[::-1]:
            g[a, b] = (g[a, b] - lows[a, b].take(g[a, b])
                       if B[a, b] < D[a, b] else None)
    radix = (ring.p ** (D + 1)).ravel()
    place = np.append(np.cumprod(radix[::-1])[-2::-1], 1).astype(np.uint32)
    return sum((col * place[a * m + b] for (a, b), col in g.items()
                if col is not None), np.zeros(K0.size, np.uint32))


@pytest.mark.parametrize("params", [
    (2, 2, 2, 1), (2, 3, 2, 1), (3, 2, 2, 1), (3, 2, 3, 1), (2, 3, 3, 1),
    (2, 5, 3, 1), (3, 3, 2, 1)], ids=str)
def test_ko_link_report_catches_the_slip(params, monkeypatch):
    # a reduction slip passes ko_link_cosets' class check with wrong
    # partitions, whose walk is disconnected (4 to 125 components here):
    # the report cannot pass
    import cosetx.groups as groups_mod

    calls = []
    monkeypatch.setattr(groups_mod, "ko_coset_codes",
                        lambda *a: calls.append(a[2]) or
                        _codes_without_products(*a))
    try:
        rep = ko_link_report(*params, threshold=1.0)
    except StructureError:
        rep = None
    assert calls
    assert rep is None or not (rep.passed or rep.connected_ok)


def test_ko_link_report_error_paths():
    # a graph's vertex links carry no walk, with or without a threshold
    with pytest.raises(ParameterError, match="need n >= 2"):
        ko_link_report(1, 5, 2, 1)
    with pytest.raises(ParameterError, match="need n >= 2"):
        ko_link_report(1, 5, 2, 1, threshold=1.0)
    # |K_0| = 3^12 at (3, 3, 2, 1) is known in closed form: a cap one below
    # it fails before the element table (531441 x 16 int64) is allocated
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match="531441 exceeds cap"):
            ko_link_report(3, 3, 2, 1, threshold=1.0, cap=3**12 - 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# ---------------------------------------------------------------------------
# walks built from coset partitions

COSET_WALK_LINKS = [(2, 2, 2, 1), (2, 3, 2, 1), (3, 2, 2, 1), (3, 2, 3, 1),
                    (2, 5, 3, 1)]


def _assert_same_walk(got, want):
    """Array for array, dtypes included, so Lanczos sees the same bits."""
    assert got.vertex_count == want.vertex_count
    for name in ("edges", "edge_counts", "strength"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert np.array_equal(a, b), name


@pytest.mark.parametrize("params", COSET_WALK_LINKS, ids=str)
def test_coset_walk_equals_the_complex_walk_on_ko_links(params):
    L = ko_vertex_link(*params)
    parts = L.coset_data.partitions
    _assert_same_walk(coset_walk(parts[0].group, parts), walk_matrix(L))


def test_coset_walk_divides_by_the_chamber_stabiliser():
    # <(01),(23)> n <(01),(12)> = <(01)>: every chamber holds 2 elements
    G = symmetric_group(4)
    subs = [subgroup_closure_indices(G, perm_rank(gens))
            for gens in ([(1, 0, 2, 3), (0, 1, 3, 2)],
                         [(1, 0, 2, 3), (0, 2, 1, 3)])]
    X = coset_complex(G, subs)
    assert X.f_vector() == (10, 12)
    # |K_i|/2 chambers at each vertex: 4/2 for six cosets, 6/2 for four
    assert np.array_equal(X.containment_counts(0), [2] * 6 + [3] * 4)
    M = coset_walk(G, subs)
    _assert_same_walk(M, walk_matrix(X))
    assert second_eigenvalue(M) == second_eigenvalue(walk_matrix(X))


@pytest.mark.parametrize("sub", [[(1, 0, 2, 3)], [(0, 1, 2, 3)]],
                         ids=["order-2", "trivial"])
def test_coset_walk_refuses_classes_of_unequal_size(sub):
    # classes of 1 and 23 elements against cosets of <(01)>: edge counts 1
    # and 2; against the trivial cosets: 1 and 23 neighbours
    G = symmetric_group(4)
    lopsided = CosetPartition.from_labels(G, np.array([0] + [1] * 23))
    H = cosets(G, subgroup_closure_indices(G, perm_rank(sub)))
    with pytest.raises(InputError):
        coset_walk(G, [lopsided, H])


def test_coset_walk_of_disconnected_partitions_solves_nothing():
    # the same subgroup twice: each coset meets only itself, 3 components
    G = symmetric_group(3)
    H = cosets(G, subgroup_closure_indices(G, perm_rank([(1, 0, 2)])))
    with pytest.raises(StructureError, match=r"disconnected \(3 components\)"):
        coset_walk(G, [H, H])
    with pytest.raises(StructureError, match=r"disconnected \(3 components\)"):
        walk_matrix(coset_complex(G, [H, H]))
    entry = _solve_entry(functools.partial(coset_walk, G, [H, H]), 6, None,
                         (0,), DEFAULT_CAP)
    assert (entry.connected, entry.second, entry.solver) == (False, None,
                                                             "none")


@pytest.mark.parametrize("params", COSET_WALK_LINKS + [(3, 3, 2, 1)], ids=str)
def test_ko_link_report_equals_the_complex_walk_report(params):
    # the report that solved walk_matrix(ko_vertex_link(...)), float for float
    L = ko_vertex_link(*params)
    want = _solve_entry(functools.partial(walk_matrix, L), L.vertex_count,
                        None, (0,), DEFAULT_CAP)
    old = _finish_report([want] + [
        dataclasses.replace(want, colors=(i,), solver="reused")
        for i in range(1, params[0] + 1)], 1.0)
    got = ko_link_report(*params, threshold=1.0).to_dict()
    assert json.dumps(got) == json.dumps(old.to_dict())
    assert got["links"][0]["second_eigenvalue"] == want.second


@pytest.mark.parametrize("p", [3, 5, 7])
def test_ko_link_p_sweep_is_one_over_sqrt_p(p):
    # n = 2, s = 2, d = 1: the vertex link's walk has lambda_2 = 1/sqrt(p)
    L = ko_vertex_link(2, p, 2, 1)
    assert L.f_vector() == (2 * p**4, p**6)
    assert abs(second_eigenvalue(walk_matrix(L)) - p**-0.5) <= 1e-9


def test_ko_link_n3_p3_pinned():
    L = ko_vertex_link(3, 3, 2, 1)
    assert L.f_vector() == (8019, 177147, 531441)
    assert abs(second_eigenvalue(walk_matrix(L)) - 0.5) <= 1e-9


def test_ko_links_validation():
    with pytest.raises(ParameterError):
        ko_vertex_link(1, 3, 2, 1)
