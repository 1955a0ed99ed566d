"""Non-Abelian 1-cohomology: cochains, gauge machinery, expansion.

The gauge-mode H^1 decision is validated against the brute-force mode
(full C^1 enumeration) on every fixture where the latter fits, and the
class censuses are cross-checked against an independent GF(p) linear
algebra oracle for Abelian coefficients.  Expansion constants are pinned
as exact rationals and checked against complete enumerations in
oracles.py: h^0 against the partition brute force and the Cheeger subset
scan, exact h^1 over Z/2 against a sweep of all of C^1 with Z^1 filtered
by triangle parity and B^1 taken from every vertex subset.  The F_p coset
scan that serves every prime-order Lambda is also held to the generic
sweep over all of C^1, on labellings with the identity off index 0.
At KO size, the Z/2 gauge witness on KO(2,2,2,1) is pinned by digest and
the (3,2,2,1) vertex-link censuses by value, the Abelian ones against the
sparse GF(p) oracle.  The BFS forest behind the tree gauge is held field
by field to a plain queue-based BFS in oracles.py.
"""

import hashlib
import inspect
import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cosetx import cohomology
from cosetx import fixtures as fx
from cosetx.cohomology import (
    Cochain0,
    Cochain1,
    coefficients_from_table,
    d0,
    d1,
    dd_bound,
    expansion_h0,
    expansion_h1,
    gauge_act,
    h1_class_census,
    h1_trivial,
    identity_cochain1,
    is_coboundary,
    is_cocycle,
    norm,
    distance,
    parse_coefficients,
    sym,
    tree_gauge_fix,
    zmod,
)
from cosetx.complexes import SimplicialComplex, build_ko_complex, weights
from cosetx.errors import InputError, ParameterError, ResourceLimitError
from cosetx.spectral import ko_vertex_link

import oracles


def two_fold_triangle():
    # two triangles glued along an edge; simply connected, 5 edges
    return SimplicialComplex(2, 4, [[0, 1, 2], [1, 2, 3]])


def punctured_torus():
    faces = [list(f) for f in fx.torus_7().max_faces[:-1]]
    return SimplicialComplex(2, 7, faces)


def mobius_strip():
    # five triangles {i, i+1, i+2} mod 5; every edge of K_5, H^1(Z/2) = Z/2
    return SimplicialComplex(2, 5, [sorted({i, (i + 1) % 5, (i + 2) % 5})
                                    for i in range(5)])


def projective_plane():
    # the 6-vertex RP^2: hemi-icosahedron, every edge in two triangles
    return SimplicialComplex(2, 6, [
        [0, 1, 2], [0, 2, 3], [0, 3, 4], [0, 4, 5], [0, 1, 5],
        [1, 2, 4], [2, 3, 5], [1, 3, 4], [2, 4, 5], [1, 3, 5]])


# ---------------------------------------------------------------------------
# coefficient groups


def test_zmod_is_modular_addition():
    lam = zmod(5)
    assert lam.size == 5 and lam.identity == 0
    for a in range(5):
        for b in range(5):
            assert lam.mult(a, b) == (a + b) % 5
        assert lam.inverse(a) == (-a) % 5
        assert lam.label(a) == str(a)
    assert lam.name == "zmod:5"


def test_sym3_is_nonabelian():
    lam = sym(3)
    assert lam.size == 6
    assert not np.array_equal(lam.table, lam.table.T)
    # zmod tables are symmetric
    assert np.array_equal(zmod(6).table, zmod(6).table.T)


def test_parse_coefficients(tmp_path):
    assert parse_coefficients("zmod:4").size == 4
    assert parse_coefficients("sym:3").name == "sym:3"
    path = tmp_path / "z3.txt"
    path.write_text("3\n0 1 2\n1 2 0\n2 0 1\n")
    lam = parse_coefficients(f"table:{path}")
    assert lam.size == 3
    assert np.array_equal(lam.table, zmod(3).table)
    for bad in ("", "zmod", "table:", "foo:3"):
        with pytest.raises(InputError):
            parse_coefficients(bad)


def test_table_parse_errors():
    with pytest.raises(InputError):
        coefficients_from_table("")
    with pytest.raises(InputError):
        coefficients_from_table("2 0 1 1")          # 3 of 4 entries
    with pytest.raises(InputError):
        coefficients_from_table("2 0 1 1 2")        # entry out of range
    with pytest.raises(InputError):
        coefficients_from_table("x 0")


def test_coefficient_limits():
    with pytest.raises(ParameterError):
        zmod(0)
    with pytest.raises(ParameterError):
        sym(8)
    with pytest.raises(ResourceLimitError):
        zmod(4097)


# ---------------------------------------------------------------------------
# cochains


def test_cochain_validation():
    lam = zmod(3)
    with pytest.raises(InputError):
        Cochain0(lam, np.array([0, 3]))
    with pytest.raises(InputError):
        Cochain0(lam, np.zeros((2, 2), dtype=np.int64))
    with pytest.raises(InputError):
        Cochain1(lam, np.array([-1, 0]))


def test_cochain1_orientation_inverts():
    X = fx.torus_7()
    lam = zmod(5)
    rng = np.random.default_rng(3)
    phi = Cochain1(lam, rng.integers(0, 5, X.face_count(1)))
    for u, v in X.faces(1)[:10]:
        u, v = int(u), int(v)
        assert phi.value(X, u, v) == lam.inverse(phi.value(X, v, u))
    with pytest.raises(InputError):
        phi.value(X, 0, 0)


def test_from_edge_map():
    X = fx.single_triangle()
    lam = zmod(3)
    phi = Cochain1.from_edge_map(
        X, lam, {(0, 1): 1, (1, 0): 2, (1, 2): 0, (0, 2): 1})
    assert phi.value(X, 0, 1) == 1
    with pytest.raises(InputError):        # (1,0) must be the inverse of (0,1)
        Cochain1.from_edge_map(X, lam, {(0, 1): 1, (1, 0): 1,
                                        (1, 2): 0, (0, 2): 0})
    with pytest.raises(InputError):        # edge (1,2) missing
        Cochain1.from_edge_map(X, lam, {(0, 1): 1, (0, 2): 0})
    with pytest.raises(InputError):        # not an edge
        Cochain1.from_edge_map(X, lam, {(0, 3): 1})
    with pytest.raises(InputError):        # value out of range
        Cochain1.from_edge_map(X, lam, {(0, 1): 5, (1, 2): 0, (0, 2): 0})


def test_identity_cochain():
    X = fx.octahedron()
    phi = identity_cochain1(X, zmod(2))
    assert phi.identity_support_free()
    assert norm(phi, weights(X)) == 0


# ---------------------------------------------------------------------------
# d0, d1, gauge action


@settings(max_examples=40)
@given(st.lists(st.integers(0, 5), min_size=7, max_size=7))
def test_d1_after_d0_is_trivial_sym3(vals):
    X = fx.torus_7()
    lam = sym(3)
    phi = d0(X, Cochain0(lam, np.array(vals)))
    assert is_cocycle(X, phi)
    assert (d1(X, phi) == lam.identity).all()


@settings(max_examples=40)
@given(st.lists(st.integers(0, 2), min_size=6, max_size=6))
def test_coboundary_recognized(vals):
    X = fx.octahedron()
    lam = zmod(3)
    phi = d0(X, Cochain0(lam, np.array(vals)))
    psi = is_coboundary(X, phi)
    assert psi is not None
    assert np.array_equal(d0(X, psi).values, phi.values)
    # and is_coboundary certifies by reconstruction, so gauge-fixing
    # a coboundary must land on the identity cochain
    assert tree_gauge_fix(X, phi).identity_support_free()


def test_gauge_act_requires_cocycle():
    X = fx.single_triangle()
    lam = zmod(2)
    bad = Cochain1(lam, np.array([1, 0, 0]))     # d1 != e on the triangle
    assert not is_cocycle(X, bad)
    psi = Cochain0(lam, np.zeros(3, dtype=np.int64))
    with pytest.raises(InputError):
        gauge_act(X, psi, bad)
    with pytest.raises(InputError):              # coefficient group mismatch
        gauge_act(X, Cochain0(zmod(3), np.zeros(3, dtype=np.int64)),
                  identity_cochain1(X, lam))


def test_tree_gauge_fix_requires_cocycle():
    X = fx.single_triangle()
    with pytest.raises(InputError):
        tree_gauge_fix(X, Cochain1(zmod(2), np.array([1, 0, 0])))


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(0, 5), min_size=7, max_size=7))
def test_gauge_orbits_land_in_conjugation_class(vals):
    """Gauge acting and re-fixing moves a witness only by conjugation."""
    X = fx.torus_7()
    lam = sym(3)
    wit = h1_class_census(X, lam).witness
    assert wit is not None
    assert np.array_equal(tree_gauge_fix(X, wit).values, wit.values)
    moved = gauge_act(X, Cochain0(lam, np.array(vals)), wit)
    fixed = tree_gauge_fix(X, moved)
    t, inv = lam.table, lam.inv
    orbit = {tuple(int(t[t[c, v], inv[c]]) for v in wit.values)
             for c in range(lam.size)}
    assert tuple(int(x) for x in fixed.values) in orbit


# ---------------------------------------------------------------------------
# H^1 triviality: gauge mode vs brute force


H1_CASES = [
    (fx.single_triangle, "zmod:2", True),
    (fx.single_triangle, "zmod:3", True),
    (fx.single_triangle, "sym:3", True),
    (fx.tetrahedron_sphere, "zmod:2", True),
    (fx.tetrahedron_sphere, "sym:3", True),
    (fx.octahedron, "zmod:2", True),
    (fx.torus_7, "zmod:2", False),
]


@pytest.mark.parametrize("build,spec,expect", H1_CASES)
def test_h1_gauge_matches_brute(build, spec, expect):
    X = build()
    lam = parse_coefficients(spec)
    g = h1_trivial(X, lam, mode="gauge")
    b = h1_trivial(X, lam, mode="brute")
    assert g.trivial is expect and b.trivial is expect
    cg = h1_class_census(X, lam)
    assert cg.classes == b.classes
    if not expect:
        for res in (g, b):
            assert res.witness is not None
            assert is_cocycle(X, res.witness)
            assert is_coboundary(X, res.witness) is None


def test_h1_census_pins():
    tor = fx.torus_7()
    assert h1_class_census(tor, zmod(2)).classes == 4
    assert h1_class_census(tor, zmod(3)).classes == 9
    # Hom(Z^2, S_3) up to conjugation: Burnside over commuting pairs
    assert h1_class_census(tor, sym(3)).classes == 8
    assert h1_class_census(fx.octahedron(), zmod(2)).classes == 1


def test_h1_census_matches_gf_p_oracle():
    cases = [fx.single_triangle(), fx.tetrahedron_sphere(),
             fx.octahedron(), fx.torus_7(), two_fold_triangle(),
             punctured_torus()]
    for X in cases:
        for p in (2, 3):
            got = h1_class_census(X, zmod(p)).classes
            assert got == oracles.abelian_h1_classes(X, p)


def test_h1_brute_census_on_punctured_torus():
    # pi_1 is free of rank 2, so Z/2 classes number 2^2
    X = punctured_torus()
    b = h1_trivial(X, zmod(2), mode="brute")
    assert not b.trivial and b.classes == 4
    assert h1_class_census(X, zmod(2)).classes == 4


def test_h1_enumerated_subfamilies_agree():
    tets = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    picks = [tets[:1], tets[:2], tets[:3], tets]
    for tris in picks:
        vc = max(v for t in tris for v in t) + 1
        X = SimplicialComplex(2, vc, [list(t) for t in tris])
        for p in (2, 3):
            lam = zmod(p)
            g = h1_trivial(X, lam, mode="gauge")
            b = h1_trivial(X, lam, mode="brute")
            assert g.trivial == b.trivial
            assert h1_class_census(X, lam).classes == b.classes


def test_h1_needs_connected():
    X = fx.two_triangles_disjoint()
    for mode in ("gauge", "brute"):
        with pytest.raises(InputError):
            h1_trivial(X, zmod(2), mode=mode)
    with pytest.raises(InputError):
        h1_class_census(X, zmod(2))


def test_h1_mode_and_cap_validation():
    X = fx.single_triangle()
    with pytest.raises(InputError):
        h1_trivial(X, zmod(2), mode="fast")
    with pytest.raises(ResourceLimitError):
        h1_trivial(fx.torus_7(), zmod(3), mode="brute")   # 3**21 cochains


def test_h1_gauge_deterministic():
    X = fx.torus_7()
    a = h1_trivial(X, zmod(2)).witness
    b = h1_trivial(X, zmod(2)).witness
    assert np.array_equal(a.values, b.values)


# ---------------------------------------------------------------------------
# H^1 at KO size


@pytest.fixture(scope="module")
def ko2221():
    return build_ko_complex(2, 2, 2, 1)


# SHA-256 of the comma-joined values of the Z/2 gauge witness on KO(2,2,2,1)
KO2221_Z2_WITNESS_SHA256 = (
    "34db546accac1d730bd93f59549b1e45ffcb6b9943e7dc6b283f99b3bd27a008")


def test_ko_complex_h1_witness_is_pinned(ko2221):
    X = ko2221
    res = h1_trivial(X, zmod(2))
    assert not res.trivial
    w = res.witness
    assert is_cocycle(X, w)
    assert is_coboundary(X, w) is None
    text = ",".join(map(str, w.values.tolist()))
    assert hashlib.sha256(text.encode()).hexdigest() == \
        KO2221_Z2_WITNESS_SHA256


def test_ko_vertex_link_census_pins():
    L = ko_vertex_link(3, 2, 2, 1)
    z2 = h1_class_census(L, zmod(2))
    z3 = h1_class_census(L, zmod(3))
    s3 = h1_class_census(L, sym(3))
    assert (z2.classes, z3.classes, s3.classes) == (8, 9, 12)
    assert z2.classes == oracles.abelian_h1_classes(L, 2)
    assert z3.classes == oracles.abelian_h1_classes(L, 3)
    # Z/2 = {e, (1 2)} is a retract of S_3 through the sign, so a
    # non-trivial Z/2 class stays non-trivial in S_3
    lam = sym(3)
    transposition = lam.group.labels.index("021")
    lifted = Cochain1(lam, np.where(z2.witness.values == 1, transposition,
                                    lam.identity))
    assert is_cocycle(L, lifted)
    assert is_coboundary(L, lifted) is None
    assert not s3.trivial


# ---------------------------------------------------------------------------
# BFS forest of the 1-skeleton


def _forest(sk):
    return (sk.parent.tolist(), sk.parent_edge.tolist(),
            sk.bfs_order.tolist(), sk.n_components)


# every builder in cosetx.fixtures, with arguments where it takes some
FIXTURE_ARGS = {
    "single_triangle": (), "triangle_strip": (), "tetrahedron_sphere": (),
    "octahedron": (), "torus_7": (), "cycle_complex": (6,),
    "path_complex": (5,), "complete_graph": (6,),
    "complete_bipartite": (2, 4), "petersen_graph": (),
    "two_triangles_disjoint": (), "bowtie": (),
}


def test_fixture_args_cover_the_module():
    names = {name for name, f in inspect.getmembers(fx, inspect.isfunction)
             if f.__module__ == fx.__name__}
    assert set(FIXTURE_ARGS) == names


@pytest.mark.parametrize("name", sorted(FIXTURE_ARGS))
def test_skeleton_matches_bfs_oracle_on_fixtures(name):
    X = getattr(fx, name)(*FIXTURE_ARGS[name])
    want = oracles.bfs_forest(X.faces(1).tolist(), X.vertex_count)
    assert _forest(cohomology._skeleton(X)) == want


@pytest.mark.parametrize("p", [3, 5])
def test_skeleton_matches_bfs_oracle_on_ko_graphs(p):
    X = build_ko_complex(1, p, 2, 1)
    want = oracles.bfs_forest(X.faces(1).tolist(), X.vertex_count)
    assert _forest(cohomology._skeleton(X)) == want


def test_skeleton_matches_bfs_oracle_on_ko_complex(ko2221):
    X = ko2221
    want = oracles.bfs_forest(X.faces(1).tolist(), X.vertex_count)
    assert _forest(cohomology._skeleton(X)) == want


def test_bfs_forest_matches_oracle_on_random_graphs():
    rng = random.Random(20241105)
    hit = {"components": 0, "isolated": 0, "single": 0, "edgeless": 0}
    for _ in range(200):
        V = rng.randint(1, 30)
        dens = rng.choice([0.0, 0.03, 0.08, 0.2, 0.5])
        pairs = [(u, v) for u in range(V) for v in range(u + 1, V)
                 if rng.random() < dens]
        want = oracles.bfs_forest(pairs, V)
        # rows in any order: edge i is row i whatever its position
        rows = pairs[:]
        rng.shuffle(rows)
        got = cohomology._bfs_forest(
            np.array(rows, dtype=np.int64).reshape(-1, 2), V)
        assert (got[0].tolist(), got[1].tolist(), got[2].tolist(),
                got[3]) == oracles.bfs_forest(rows, V)
        covered = {v for e in pairs for v in e}
        if not pairs:
            X = SimplicialComplex(0, V, [[v] for v in range(V)])
        elif len(covered) == V:
            X = SimplicialComplex(1, V, pairs)
        else:
            X = None
        if X is not None:
            assert _forest(cohomology._skeleton(X)) == want
        hit["components"] += want[3] > 1
        hit["isolated"] += len(covered) < V
        hit["single"] += V == 1
        hit["edgeless"] += not pairs
    assert all(hit.values()), hit


# ---------------------------------------------------------------------------
# expansion in degree 0


def test_h0_pinned_values():
    tri = fx.single_triangle()
    assert expansion_h0(tri, zmod(2)) == 2
    # with a third value available the optimum drops
    assert expansion_h0(tri, zmod(3)) == Fraction(3, 2)
    assert expansion_h0(tri, sym(3)) == Fraction(3, 2)
    oct_ = fx.octahedron()
    for spec in ("zmod:2", "zmod:3", "sym:3"):
        assert expansion_h0(oct_, parse_coefficients(spec)) == 1
    tor = fx.torus_7()
    assert expansion_h0(tor, zmod(2)) == Fraction(4, 3)
    assert expansion_h0(tor, zmod(3)) == Fraction(5, 4)
    assert expansion_h0(tor, sym(3)) == Fraction(6, 5)
    assert expansion_h0(fx.complete_graph(4), zmod(2)) == Fraction(4, 3)
    assert expansion_h0(fx.cycle_complex(6), zmod(2)) == Fraction(2, 3)


def test_h0_matches_partition_brute_force():
    cases = [fx.single_triangle(), fx.octahedron(), fx.torus_7(),
             fx.cycle_complex(6), fx.path_complex(4),
             fx.complete_graph(4), fx.complete_bipartite(2, 3),
             two_fold_triangle()]
    for X in cases:
        for m in (2, 3):
            assert expansion_h0(X, zmod(m)) == oracles.brute_h0(X, m)


def test_h0_z2_matches_cheeger_oracle():
    for X in [fx.octahedron(), fx.torus_7(), fx.complete_graph(5),
              fx.petersen_graph(), two_fold_triangle()]:
        assert expansion_h0(X, zmod(2)) == oracles.cheeger_h0(X)


def test_h0_validation():
    with pytest.raises(ParameterError):
        expansion_h0(fx.single_triangle(), zmod(1))
    X0 = SimplicialComplex(0, 3, [[0], [1], [2]])
    with pytest.raises(InputError):
        expansion_h0(X0, zmod(2))


# ---------------------------------------------------------------------------
# expansion in degree 1


def test_h1_expansion_torus_pins():
    rep = expansion_h1(fx.torus_7(), zmod(2))
    assert rep.exact and rep.mode == "exact"
    assert rep.h1_cobound == 0          # Z^1 != B^1
    assert rep.h1_cosys == 1
    assert rep.min_systole == Fraction(2, 7)


def test_h1_expansion_trivial_cases():
    rep = expansion_h1(fx.single_triangle(), zmod(2))
    assert (rep.h1_cobound, rep.h1_cosys, rep.min_systole) == (3, 3, None)
    rep = expansion_h1(fx.tetrahedron_sphere(), zmod(2))
    assert (rep.h1_cobound, rep.h1_cosys, rep.min_systole) == (3, 3, None)
    rep = expansion_h1(fx.octahedron(), zmod(2))
    assert (rep.h1_cobound, rep.h1_cosys, rep.min_systole) == (1, 1, None)


def test_h1_expansion_pins():
    # punctured torus: unequal edge weights; Moebius and RP^2: |Z^1| > |B^1|
    for X, expect in ((punctured_torus(), (0, Fraction(3, 5),
                                           Fraction(10, 39))),
                      (mobius_strip(), (0, 3, Fraction(4, 15))),
                      (projective_plane(), (0, Fraction(3, 2),
                                            Fraction(1, 3)))):
        rep = expansion_h1(X, zmod(2))
        assert rep.exact
        assert (rep.h1_cobound, rep.h1_cosys, rep.min_systole) == expect


@pytest.mark.parametrize("build", [
    fx.single_triangle, fx.tetrahedron_sphere, fx.octahedron,
    two_fold_triangle, mobius_strip, projective_plane])
def test_h1_expansion_gf2_matches_full_sweep(build):
    X = build()
    rep = expansion_h1(X, zmod(2))
    assert (rep.h1_cobound, rep.h1_cosys, rep.min_systole) == \
        oracles.brute_h1_gf2(X)


def test_h1_expansion_zp_agrees_with_generic():
    # every prime order takes the F_p coset scan; the generic sweep, called
    # directly, shares no code with it.  The flipped Z/2 and relabelled Z/3
    # tables put the identity off index 0, so the residue map is exercised.
    flipped = coefficients_from_table("2 1 0 0 1", name="z2-flipped")
    z3_relabelled = coefficients_from_table("3 2 0 1 0 1 2 1 2 0",
                                            name="z3-relabelled")
    assert flipped.identity == 1 and z3_relabelled.identity == 1
    # two_fold_triangle has unequal edge weights; Z/5 on the tetrahedron
    # is left out, the sweep takes several seconds there
    for lam, builds in ((zmod(2), (fx.single_triangle, two_fold_triangle,
                                   fx.tetrahedron_sphere, mobius_strip)),
                        (flipped, (fx.single_triangle, two_fold_triangle,
                                   fx.tetrahedron_sphere, mobius_strip)),
                        (zmod(3), (fx.single_triangle, two_fold_triangle,
                                   fx.tetrahedron_sphere)),
                        (z3_relabelled, (fx.single_triangle,
                                         two_fold_triangle,
                                         fx.tetrahedron_sphere)),
                        (zmod(5), (fx.single_triangle, two_fold_triangle))):
        for build in builds:
            a = expansion_h1(build(), lam)
            b = cohomology._expansion_h1_generic(build(), lam,
                                                 cohomology.DEFAULT_CAP)
            assert (a.h1_cobound, a.h1_cosys, a.min_systole) == \
                   (b.h1_cobound, b.h1_cosys, b.min_systole), \
                   (lam.name, build.__name__)


def test_h1_expansion_zp_pins():
    # Moebius over Z/3 matches the generic sweep (about a minute there);
    # Moebius over Z/5 and RP^2 over Z/3 are beyond its reach
    for X, p, expect in (
            (mobius_strip(), 3, (0, 3, Fraction(4, 15))),
            (mobius_strip(), 5, (0, 3, Fraction(4, 15))),
            (projective_plane(), 3, (Fraction(3, 10), Fraction(3, 10),
                                     None))):
        rep = expansion_h1(X, zmod(p))
        assert rep.exact
        assert (rep.h1_cobound, rep.h1_cosys, rep.min_systole) == expect
        classes = oracles.abelian_h1_classes(X, p)
        assert (rep.h1_cobound == 0) == (classes > 1)
        assert (rep.min_systole is None) == (classes == 1)
        bound = expansion_h1(X, zmod(p), mode="search", seed=0, iters=2)
        assert bound.h1_cobound >= rep.h1_cobound


def test_h1_expansion_routes_by_prime_order(monkeypatch):
    generic = cohomology._expansion_h1_generic
    calls = []

    def spy(X, lam, cap):
        calls.append(lam.name)
        return generic(X, lam, cap)

    monkeypatch.setattr(cohomology, "_expansion_h1_generic", spy)
    for lam in (zmod(4), sym(3)):
        rep = expansion_h1(two_fold_triangle(), lam)
        assert (rep.h1_cobound, rep.h1_cosys, rep.min_systole) == \
            (3, 3, None)
    expansion_h1(two_fold_triangle(), zmod(3))
    assert calls == ["zmod:4", "sym:3"]

    def no_scan(*args):
        raise AssertionError("scan started")

    monkeypatch.setattr(cohomology, "_span_blocks", no_scan)
    with pytest.raises(ResourceLimitError, match="3\\*\\*21"):
        expansion_h1(fx.torus_7(), zmod(3))


def test_h1_expansion_zmod3_small():
    rep = expansion_h1(two_fold_triangle(), zmod(3))
    assert rep.exact and rep.min_systole is None
    assert rep.h1_cobound == rep.h1_cosys > 0


def test_h1_expansion_search_is_upper_bound():
    exact = expansion_h1(fx.octahedron(), zmod(2)).h1_cobound
    rep = expansion_h1(fx.octahedron(), zmod(2), mode="search", seed=11)
    assert rep.mode == "search" and not rep.exact
    assert rep.h1_cosys is None and rep.min_systole is None
    assert rep.h1_cobound >= exact
    again = expansion_h1(fx.octahedron(), zmod(2), mode="search", seed=11)
    assert again.h1_cobound == rep.h1_cobound


def test_h1_expansion_validation():
    with pytest.raises(InputError):
        expansion_h1(fx.cycle_complex(6), zmod(2))      # no triangles
    with pytest.raises(ParameterError):
        expansion_h1(fx.single_triangle(), zmod(1))
    with pytest.raises(InputError):
        expansion_h1(fx.two_triangles_disjoint(), zmod(2))
    with pytest.raises(InputError):
        expansion_h1(fx.single_triangle(), zmod(2), mode="??")


# ---------------------------------------------------------------------------
# norms, distances, descent bound


def test_norm_and_distance_basics():
    X = fx.torus_7()
    w = weights(X)
    lam = zmod(3)
    full = Cochain1(lam, np.ones(X.face_count(1), dtype=np.int64))
    assert norm(full, w) == 1                    # weights sum to one
    assert distance(full, full, w) == 0
    empty = identity_cochain1(X, lam)
    assert distance(full, empty, w) == norm(full, w)
    with pytest.raises(InputError):
        norm(np.ones(3), w)
    with pytest.raises(InputError):
        distance(full, empty, weights(fx.single_triangle()))
    with pytest.raises(InputError):
        distance(full, Cochain0(lam, np.zeros(7, dtype=np.int64)), w)


@settings(max_examples=40)
@given(st.lists(st.integers(0, 2), min_size=6, max_size=6),
       st.lists(st.integers(0, 2), min_size=6, max_size=6),
       st.lists(st.integers(0, 2), min_size=6, max_size=6))
def test_distance_is_a_metric(a, b, c):
    X = fx.cycle_complex(6)
    w = weights(X)
    lam = zmod(3)
    ca, cb, cc = (Cochain1(lam, np.array(v)) for v in (a, b, c))
    assert distance(ca, cb, w) == distance(cb, ca, w)
    assert distance(ca, cc, w) <= distance(ca, cb, w) + distance(cb, cc, w)
    assert (distance(ca, cb, w) == 0) == (a == b)


def test_dd_bound():
    assert dd_bound(0.0, 0.5) == pytest.approx(0.5 / 24)
    assert dd_bound(0.01, 1 / 3) < 0             # vacuous at weak spectra
    assert dd_bound(0.001, 1.0) > dd_bound(0.002, 1.0)
    for lam2, beta in ((1.0, 0.5), (-0.1, 0.5), (0.5, 0.0), (0.5, -1.0)):
        with pytest.raises(ParameterError):
            dd_bound(lam2, beta)
