"""Weighted walks, second eigenvalues, and local spectral reports.

Eigenvalues of the fixture walks are known in closed form (complete
graphs, cycles, the Petersen graph), so they are pinned exactly and also
cross-checked against an independent dense eigensolver in oracles.py
that never touches the package's WalkMatrix plumbing.
"""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from cosetx import fixtures as fx
from cosetx.complexes import (
    SimplicialComplex,
    build_ko_complex,
    coset_complex,
    dumps_complex,
    link,
    loads_complex,
    weights,
)
from cosetx.errors import (
    InputError,
    NumericalError,
    ParameterError,
    StructureError,
)
from cosetx.groups import subgroup_closure_indices, symmetric_group
from cosetx.spectral import (
    _solve_entry,
    ko_link_report,
    ko_vertex_link,
    local_spectral_report,
    second_eigenvalue,
    walk_matrix,
)

import oracles

TOL = 1e-9


# ---------------------------------------------------------------------------
# walk matrices


def test_transition_is_stochastic_and_reversible():
    for X in (fx.octahedron(), fx.torus_7(), fx.petersen_graph()):
        M = walk_matrix(X)
        P = M.transition()
        assert np.allclose(P.sum(axis=1), 1.0)
        pi = M.stationary()
        assert pi.sum() == pytest.approx(1.0)
        assert np.allclose(pi @ P, pi)
        # detailed balance: diag(pi) P is symmetric
        B = pi[:, None] * P
        assert np.allclose(B, B.T)
        exact = M.stationary_exact()
        assert sum(exact) == 1
        assert np.allclose([float(f) for f in exact], pi)


def test_symmetric_form_has_same_spectrum():
    X = fx.torus_7()
    M = walk_matrix(X)
    vals_p = np.sort(np.linalg.eigvals(M.transition()).real)
    vals_s = np.sort(np.linalg.eigvalsh(M.symmetric().toarray()))
    assert np.allclose(vals_p, vals_s)


def test_walk_matrix_validation():
    with pytest.raises(StructureError):
        walk_matrix(fx.two_triangles_disjoint())
    with pytest.raises(ParameterError):
        walk_matrix(SimplicialComplex(0, 2, [[0], [1]]))
    with pytest.raises(InputError):
        walk_matrix(fx.torus_7(), w=weights(fx.octahedron()))
    # interface symmetry: the matching table is accepted
    X = fx.torus_7()
    walk_matrix(X, w=weights(X))


@pytest.mark.parametrize("X", [
    fx.two_triangles_disjoint(),
    link(fx.bowtie(), (0,)),
    # a path with isolated edges on either side: three components
    SimplicialComplex(1, 7, [[0, 1], [2, 3], [3, 4], [5, 6]]),
], ids=["two-triangles", "bowtie-link", "three-pieces"])
def test_walk_matrix_component_count_is_undirected(X):
    """walk_matrix counts the strong components of its symmetric matrix;
    they must be the undirected components of the 1-skeleton."""
    edges = X.faces(1)
    V = X.vertex_count
    A = coo_matrix((np.ones(len(edges)), (edges[:, 0], edges[:, 1])), shape=(V, V))
    want = connected_components(A, directed=False, return_labels=False)
    assert want > 1
    with pytest.raises(StructureError, match=rf"disconnected \({want} components\)"):
        walk_matrix(X)


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
    (fx.complete_bipartite(2, 3), 0.0),
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
        yield f"path-{k}", fx.path_complex(k)
        yield f"K{k}", fx.complete_graph(k)
    for k in range(3, 13):
        yield f"cycle-{k}", fx.cycle_complex(k)
    for a in range(1, 7):
        for b in range(a, 13 - a):
            yield f"K{a},{b}", fx.complete_bipartite(a, b)
    yield "petersen", fx.petersen_graph()


def test_lanczos_matches_oracle_on_small_graphs():
    for name, X in _small_graphs():
        M = walk_matrix(X)
        got = second_eigenvalue(M)
        assert got == pytest.approx(oracles.walk_second_eigenvalue(X),
                                    abs=TOL), name
        assert second_eigenvalue(M) == got, name   # fixed seed


def test_residual_certificate_rejects_tight_tolerance():
    M = walk_matrix(fx.torus_7())
    with pytest.raises(NumericalError) as exc:
        second_eigenvalue(M, tol=1e-30)
    assert exc.value.residual > 0


def test_second_eigenvalue_validation():
    # two vertices: closed form, whatever the edge weight
    tiny = walk_matrix(SimplicialComplex(1, 2, [[0, 1]]))
    assert second_eigenvalue(tiny) == -1.0
    heavy = dataclasses.replace(tiny, edge_counts=tiny.edge_counts * 5,
                                strength=tiny.strength * 5)
    assert second_eigenvalue(heavy) == -1.0
    M1 = tiny.__class__(1, tiny.edges[:0], tiny.edge_counts[:0],
                        tiny.strength[:1])
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
    rep = local_spectral_report(fx.bowtie(), 0.99)
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
            out.append(_solve_entry(link(X, tau), tau, colors))
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
    X = fx.triangle_strip()
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
        L = link(X, (X.coset_data.vertex_of(i, G.identity),))
        image = np.concatenate([
            [X.coset_data.vertex_of((i + j) % 3, int(g))
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
    # one closed-form K_0, normal-form cosets: no closure, no cosets() and
    # no key index anywhere on the way to the one link
    import cosetx.complexes as complexes_mod
    import cosetx.groups as groups_mod
    import cosetx.spectral as spectral_mod

    calls = []
    for mod, name in ((groups_mod, "closure_bfs"), (groups_mod, "cosets"),
                      (complexes_mod, "cosets"), (groups_mod, "KeyIndex"),
                      (spectral_mod, "coset_complex")):
        fn = getattr(mod, name)
        monkeypatch.setattr(mod, name, lambda *a, _fn=fn, _name=name, **k:
                            calls.append(_name) or _fn(*a, **k))
    ko_link_report(3, 2, 2, 1, threshold=1.0)
    assert calls == ["coset_complex"]


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
