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
sweep over all of C^1, on labellings with the identity off index 0.  The
generic sweep and the search mode are held to references in oracles.py
that measure one cochain against one cocycle at a time.
At KO size, the Z/2 gauge witness on KO(2,2,2,1) is pinned by digest and
the (3,2,2,1) vertex-link censuses by value, the Abelian ones against the
sparse GF(p) oracle.  The BFS forest behind the tree gauge is held field
by field to a plain queue-based BFS in oracles.py.  The gauge search's
solution lists are held to the queue-propagated search from the tree
edges down in oracles.py, and its forcing labels, edge by edge, to a
sequential closure that never looks at a value; on the (3,3,2,1) vertex
link, where no edge is left to branch on, the queue search confirms the
Z/2 decision.
"""

import hashlib
import inspect
import itertools
import random
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cosetx import cohomology, complexes
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
    h1_class_census,
    h1_trivial,
    is_cocycle,
    norm,
    distance,
    parse_coefficients,
    sym,
    zmod,
)
from cosetx.complexes import SimplicialComplex, build_ko_complex, weights
from cosetx.errors import (InputError, ParameterError, ResourceLimitError,
                           StructureError)
from cosetx.groups import TableGroup, symmetric_group
from cosetx.roots import perm_rank
from cosetx.spectral import local_spectral_report

import oracles
from oracles import (cochain1_from_edge_map, gauge_act, identity_cochain1,
                     identity_support_free, is_coboundary, ko_vertex_link)


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
    for bad in ("", "zmod", "table:", "foo:3", "zmod:x", "sym:y",
                "zmod:2.5"):
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


@pytest.mark.parametrize("text", [
    "2 0 1 x 0", "2 0 1 1.5 0", "2 0 1 0x1 0", "2\n0 1\n1 0 junk",
    "2 0 1 1 0 1", "2 0 1 -1 0", "2 99999999999999999999 1 1 0"])
def test_table_body_errors(text):
    """Tokens after the order that are not decimal integers, one entry too
    many, and entries out of range (an overflowing one too)."""
    with pytest.raises(InputError):
        coefficients_from_table(text)


def test_table_parse_keeps_no_token_objects():
    """(Z/2)^10 as a 1024 x 1024 table text (4 MB) parses with a traced
    peak under 40 MB; through one str and one int object per token the
    peak is near 110 MB."""
    import tracemalloc

    idx = np.arange(1024)
    text = "1024\n" + "\n".join(
        " ".join(map(str, row)) for row in (idx[:, None] ^ idx).tolist())
    tracemalloc.start()
    try:
        lam = coefficients_from_table(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 << 20
    assert np.array_equal(lam.table, idx[:, None] ^ idx)
    assert lam.identity == 0


def test_coefficient_limits():
    with pytest.raises(ParameterError):
        zmod(0)
    with pytest.raises(ParameterError):
        sym(8)
    with pytest.raises(ResourceLimitError):
        zmod(4097)
    with pytest.raises(ResourceLimitError):
        sym(7)
    # the order on the first line trips the cap before the entries are read
    with pytest.raises(ResourceLimitError):
        coefficients_from_table("4097\n" + " ".join(map(str, range(4097))))


@pytest.mark.parametrize("k", range(1, 6))
def test_sym_is_the_symmetric_group(k):
    lam, G = sym(k), symmetric_group(k)
    assert isinstance(lam, TableGroup) and lam.name == f"sym:{k}"
    assert np.array_equal(lam.table, G.table)
    assert np.array_equal(lam.inv, G.inv)
    assert lam.identity == G.identity == 0


# ---------------------------------------------------------------------------
# cochains


def test_cochain_validation():
    lam = zmod(3)
    with pytest.raises(InputError, match="^0-cochain value out of range$"):
        Cochain0(lam, np.array([0, 3]))
    with pytest.raises(InputError, match="^0-cochain needs a flat value array$"):
        Cochain0(lam, np.zeros((2, 2), dtype=np.int64))
    with pytest.raises(InputError, match="^1-cochain value out of range$"):
        Cochain1(lam, np.array([-1, 0]))
    with pytest.raises(InputError, match="^1-cochain needs a flat value array$"):
        Cochain1(lam, np.zeros((2, 2), dtype=np.int64))
    phi = Cochain0(lam, [1, 2])
    assert phi.values.dtype == np.int64 and phi(1) == 2
    assert repr(phi).startswith("Cochain0(lam=")


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
    phi = cochain1_from_edge_map(
        X, lam, {(0, 1): 1, (1, 0): 2, (1, 2): 0, (0, 2): 1})
    assert phi.value(X, 0, 1) == 1
    with pytest.raises(InputError):        # (1,0) must be the inverse of (0,1)
        cochain1_from_edge_map(X, lam, {(0, 1): 1, (1, 0): 1,
                                       (1, 2): 0, (0, 2): 0})
    with pytest.raises(InputError):        # edge (1,2) missing
        cochain1_from_edge_map(X, lam, {(0, 1): 1, (0, 2): 0})
    with pytest.raises(InputError):        # not an edge
        cochain1_from_edge_map(X, lam, {(0, 3): 1})
    with pytest.raises(InputError):        # value out of range
        cochain1_from_edge_map(X, lam, {(0, 1): 5, (1, 2): 0, (0, 2): 0})


def test_identity_cochain():
    X = fx.octahedron()
    phi = identity_cochain1(X, zmod(2))
    assert identity_support_free(phi)
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
    assert identity_support_free(oracles.tree_gauge_fix(X, phi))


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


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(0, 5), min_size=7, max_size=7))
def test_gauge_orbits_land_in_conjugation_class(vals):
    """Gauge acting and re-fixing moves a witness only by conjugation."""
    X = fx.torus_7()
    lam = sym(3)
    wit = h1_class_census(X, lam).witness
    assert wit is not None
    assert np.array_equal(oracles.tree_gauge_fix(X, wit).values, wit.values)
    moved = gauge_act(X, Cochain0(lam, np.array(vals)), wit)
    fixed = oracles.tree_gauge_fix(X, moved)
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


def test_h1_census_caps_kept_solutions():
    # the census keeps all 9 tree-trivial cocycles of the torus over Z/3,
    # 21 edge values each: a cap of 9 * 21 holds them and one less does not
    tor = fx.torus_7()
    assert h1_class_census(tor, zmod(3), cap=9 * 21).classes == 9
    with pytest.raises(ResourceLimitError, match="edge values") as exc:
        h1_class_census(tor, zmod(3), cap=9 * 21 - 1)
    assert exc.value.partial_count == 9


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


# the pruned brute cocycles and batched coboundaries against full sweeps;
# each group runs where |Lambda|^|X(1)| stays within the sweep budget
BRUTE_FIXTURES = [fx.single_triangle, oracles.triangle_strip,
                  fx.tetrahedron_sphere, fx.octahedron, fx.torus_7,
                  oracles.bowtie,
                  lambda: fx.cycle_complex(6), two_fold_triangle,
                  mobius_strip, projective_plane, punctured_torus]
SWEEP_BUDGET = 1 << 21


@pytest.mark.parametrize("build", BRUTE_FIXTURES)
def test_brute_enumerations_match_full_sweeps(build):
    X = build()
    swept = 0
    for lam in (zmod(2), zmod(3), sym(3)):
        if lam.size ** X.face_count(1) > SWEEP_BUDGET:
            continue
        swept += 1
        got = cohomology._enumerate_cocycles(X, lam, cohomology.DEFAULT_CAP)
        assert_lex_unique(got)
        assert set(map(tuple, got.tolist())) == \
            set(oracles.full_sweep_cocycles(X, lam)), lam.name
        if lam.size ** X.vertex_count <= SWEEP_BUDGET:
            got = cohomology._enumerate_coboundaries(
                X, lam, cohomology.DEFAULT_CAP)
            assert_lex_unique(got)
            assert set(map(tuple, got.tolist())) == \
                oracles.all_coboundaries(X, lam), lam.name
    assert swept


def test_coboundaries_past_uint64_keys_match_numpy_unique():
    """B^1 over Z/2 on the 66 edges of the 11-simplex's 2-skeleton: its
    rows are 2^66 keys wide, and deduplicate as np.unique(axis=0) does."""
    X = SimplicialComplex(2, 12, [list(f) for f in
                                  itertools.combinations(range(12), 3)])
    b1 = cohomology._enumerate_coboundaries(X, zmod(2), cohomology.DEFAULT_CAP)
    psi = (np.arange(1 << 12)[:, None] >> np.arange(12)) & 1
    e = X.faces(1)
    want = np.unique(psi[:, e[:, 0]] ^ psi[:, e[:, 1]], axis=0)
    assert len(want) == 1 << 11
    assert np.array_equal(b1, want)


def assert_lex_unique(rows):
    """Rows strictly increasing in lexicographic order."""
    rows = rows.tolist()
    assert all(a < b for a, b in zip(rows, rows[1:]))


def test_h1_needs_connected():
    X = oracles.two_triangles_disjoint()
    for mode in ("gauge", "brute"):
        with pytest.raises(InputError):
            h1_trivial(X, zmod(2), mode=mode)
    with pytest.raises(InputError):
        h1_class_census(X, zmod(2))


def test_h1_mode_and_cap_validation():
    X = fx.single_triangle()
    with pytest.raises(InputError):
        h1_trivial(X, zmod(2), mode="fast")
    with pytest.raises(ResourceLimitError,
                       match=r"\|Lambda\|\^\|X\(1\)\| = 3\*\*21 exceeds cap"):
        h1_trivial(fx.torus_7(), zmod(3), mode="brute")   # 3**21 cochains
    with pytest.raises(ResourceLimitError,
                       match=r"\|Lambda\|\^\|X\(0\)\| = 6\*\*7 exceeds cap 1000"):
        h1_trivial(fx.torus_7(), sym(3), mode="brute", cap=1000)
    # 2^66 cochains on the 66 edges of K_12 overflow the int64 indices
    # that number them, whatever the cap
    with pytest.raises(ResourceLimitError, match="2\\*\\*66 cochains overflow"):
        h1_trivial(fx.complete_graph(12), zmod(2), mode="brute", cap=1 << 70)


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
    transposition = int(perm_rank([(0, 2, 1)])[0])
    lifted = Cochain1(lam, np.where(z2.witness.values == 1, transposition,
                                    lam.identity))
    assert is_cocycle(L, lifted)
    assert is_coboundary(L, lifted) is None
    assert not s3.trivial


# ---------------------------------------------------------------------------
# BFS forest of the 1-skeleton


def _forest(forest):
    """A forest tuple as the Python lists oracles.bfs_forest returns, but
    for the component count."""
    return tuple(a.tolist() for a in forest)


# every builder in cosetx.fixtures and oracles.SMALL_COMPLEXES, with
# arguments where it takes some
BUILDERS = {**{name: f
               for name, f in inspect.getmembers(fx, inspect.isfunction)
               if f.__module__ == fx.__name__},
            **{f.__name__: f for f in oracles.SMALL_COMPLEXES}}
FIXTURE_ARGS = {
    "single_triangle": (), "triangle_strip": (), "tetrahedron_sphere": (),
    "octahedron": (), "torus_7": (), "cycle_complex": (6,),
    "path_complex": (5,), "complete_graph": (6,),
    "complete_bipartite": (2, 4), "petersen_graph": (),
    "two_triangles_disjoint": (), "bowtie": (),
}


def test_fixture_args_cover_the_module():
    assert set(FIXTURE_ARGS) == set(BUILDERS)


@pytest.mark.parametrize("name", sorted(FIXTURE_ARGS))
def test_skeleton_matches_bfs_oracle_on_fixtures(name):
    X = BUILDERS[name](*FIXTURE_ARGS[name])
    want = oracles.bfs_forest(X.faces(1).tolist(), X.vertex_count)
    assert _forest(X.spanning_forest()) == want[:3]
    assert X.component_count() == want[3]


@pytest.mark.parametrize("p", [3, 5])
def test_skeleton_matches_bfs_oracle_on_ko_graphs(p):
    X = build_ko_complex(1, p, 2, 1)
    want = oracles.bfs_forest(X.faces(1).tolist(), X.vertex_count)
    assert _forest(X.spanning_forest()) == want[:3]
    assert X.component_count() == want[3]


def test_skeleton_matches_bfs_oracle_on_ko_complex(ko2221):
    X = ko2221
    want = oracles.bfs_forest(X.faces(1).tolist(), X.vertex_count)
    assert _forest(X.spanning_forest()) == want[:3]
    assert X.component_count() == want[3]


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
        got = complexes.bfs_forest(
            np.array(rows, dtype=np.int64).reshape(-1, 2), V)
        assert _forest(got) == oracles.bfs_forest(rows, V)[:3]
        covered = {v for e in pairs for v in e}
        if not pairs:
            X = SimplicialComplex(0, V, [[v] for v in range(V)])
        elif len(covered) == V:
            X = SimplicialComplex(1, V, pairs)
        else:
            X = None
        if X is not None:
            assert _forest(X.spanning_forest()) == want[:3]
            assert X.component_count() == want[3]
        hit["components"] += want[3] > 1
        hit["isolated"] += len(covered) < V
        hit["single"] += V == 1
        hit["edgeless"] += not pairs
    assert all(hit.values()), hit


def test_spectral_report_and_h1_search_the_skeleton_once(monkeypatch):
    X = fx.torus_7()
    bfs, searched = complexes.bfs_forest, []

    def spy(edges, V):
        searched.append(edges is X.faces(1))
        return bfs(edges, V)

    monkeypatch.setattr(complexes, "bfs_forest", spy)
    local_spectral_report(X, 0.999)
    h1_trivial(X, zmod(2))
    # X once, for H^1; the walks count components without a search
    assert searched == [True]


# ---------------------------------------------------------------------------
# gauge search against the queue-based search and the closure oracle


# the connected fixtures with edges, and this module's own complexes
GAUGE_COMPLEXES = {
    **{name: (lambda name=name: BUILDERS[name](*FIXTURE_ARGS[name]))
       for name in FIXTURE_ARGS if name != "two_triangles_disjoint"},
    "two_fold_triangle": two_fold_triangle, "mobius_strip": mobius_strip,
    "projective_plane": projective_plane, "punctured_torus": punctured_torus,
}
# every solution is listed where |Lambda|^(branch edges) stays within
# this, and the first GAUGE_PREFIX solutions elsewhere
GAUGE_LIST_BUDGET = 1 << 12
GAUGE_PREFIX = 64


def _branch_edges(X):
    mu, _ = cohomology._forcing_labels(X)
    return np.flatnonzero(mu == np.arange(len(mu))).tolist()


@pytest.mark.parametrize("name", sorted(GAUGE_COMPLEXES))
def test_gauge_solutions_match_queue_oracle(name):
    X = GAUGE_COMPLEXES[name]()
    r = len(_branch_edges(X))
    for lam in (zmod(2), zmod(3), sym(3)):
        stop = None if lam.size ** r <= GAUGE_LIST_BUDGET else GAUGE_PREFIX
        got, stats = cohomology._gauge_solutions(
            X, lam, cohomology.DEFAULT_CAP, stop_after=stop)
        assert got == oracles.queue_gauge_solutions(X, lam, stop), lam.name
        assert stats["branch_edges"] == r


def _sym3_times_z2():
    """S_3 x Z/2: non-Abelian with a centre of order 2."""
    s3, z2 = sym(3).table, zmod(2).table
    return TableGroup((2 * s3[:, None, :, None] + z2[None, :, None, :])
                      .reshape(12, 12), name="sym:3xzmod:2")


@pytest.mark.parametrize("name", sorted(GAUGE_COMPLEXES))
def test_burnside_census_matches_set_orbits(name):
    X = GAUGE_COMPLEXES[name]()
    r = len(_branch_edges(X))
    for lam in (zmod(2), zmod(3), sym(3), _sym3_times_z2()):
        if lam.size ** r > 1 << 16:
            continue
        sols, _ = cohomology._gauge_solutions(X, lam, cohomology.DEFAULT_CAP)
        assert cohomology._conjugation_classes(sols, lam) == \
            oracles.set_conjugation_classes(sols, lam), lam.name


def test_burnside_census_on_petersen_over_sym3():
    lam = sym(3)
    sols, _ = cohomology._gauge_solutions(fx.petersen_graph(), lam,
                                          cohomology.DEFAULT_CAP)
    assert len(sols) == 6 ** 6
    classes = cohomology._conjugation_classes(sols, lam)
    assert type(classes) is int  # reports carry it into JSON
    assert classes == 8051 == oracles.set_conjugation_classes(sols, lam)
    with pytest.raises(StructureError, match="not closed"):
        cohomology._conjugation_classes(sols[:-1], lam)


@pytest.mark.parametrize("name", sorted(GAUGE_COMPLEXES))
def test_forcing_labels_match_closure_oracle(name):
    X = GAUGE_COMPLEXES[name]()
    mu, _ = cohomology._forcing_labels(X)
    assert mu.tolist() == oracles.closure_labels(X)


def test_forcing_labels_on_ko_complex(ko2221):
    mu, _ = cohomology._forcing_labels(ko2221)
    assert mu.tolist() == oracles.closure_labels(ko2221)
    branches = _branch_edges(ko2221)
    assert (len(branches), branches[-1]) == (295, 4236)


def test_ko_slot_tables_take_one_sort_and_no_search(monkeypatch):
    """faces(1), triangle_edges() and the gauge search's edge -> triangle
    incidence on KO(2,2,2,1) sort the 3T triangle slots once, in the edge
    table, and search no edge; the search counts stay pinned."""
    from cosetx._kernels import common
    from cosetx._kernels.common import KeyIndex

    X = build_ko_complex(2, 2, 2, 1)
    slots = 3 * X.face_count(2)
    sorts, searches = [], []
    real_order, real_lookup = common.stable_order, KeyIndex.lookup

    def order_spy(keys):
        if len(keys) == slots:
            sorts.append(len(keys))
        return real_order(keys)

    def lookup_spy(self, keys):
        searches.append(len(keys))
        return real_lookup(self, keys)

    # key_runs sorts in common, edge_slots' own sort is complexes'
    monkeypatch.setattr(common, "stable_order", order_spy)
    monkeypatch.setattr(complexes, "stable_order", order_spy)
    monkeypatch.setattr(cohomology, "stable_order", order_spy, raising=False)
    monkeypatch.setattr(KeyIndex, "lookup", lookup_spy)
    X.faces(1)
    X.triangle_edges()
    sols, stats = cohomology._gauge_solutions(X, zmod(2),
                                              cohomology.DEFAULT_CAP,
                                              stop_after=2)
    assert (len(sorts), searches) == (1, [])
    assert stats == {"branch_edges": 295, "label_rounds": 41,
                     "search_nodes": 1}
    assert len(sols) == 2


def test_gauge_witness_with_identity_off_index_0():
    # Z/2 with the identity at index 1: values tried by index alone would
    # make the identity the second solution, and so the witness
    X = fx.cycle_complex(4)
    lam = coefficients_from_table("2\n1 0\n0 1")
    assert lam.identity == 1
    census = h1_class_census(X, lam)
    assert census.classes == 2 == h1_trivial(X, lam, mode="brute").classes
    for res in (h1_trivial(X, lam), census):
        assert not res.trivial
        assert is_cocycle(X, res.witness)
        assert is_coboundary(X, res.witness) is None
    got, _ = cohomology._gauge_solutions(X, lam, cohomology.DEFAULT_CAP)
    assert got[0] == (1,) * 4
    assert sorted(got) == sorted(oracles.queue_gauge_solutions(X, lam))


def test_gauge_cap_charges_propagation_pops():
    # the 8 tree-trivial cocycles over Z/2 on the 3072 edges of the
    # (3,2,2,1) vertex link fit in 8 * 3072 kept values, but the search
    # that finds them pops more triangles than that
    L = ko_vertex_link(3, 2, 2, 1)
    assert L.face_count(1) == 3072
    with pytest.raises(ResourceLimitError, match="nodes and pops") as exc:
        h1_class_census(L, zmod(2), cap=8 * 3072)
    assert exc.value.partial_count > 8 * 3072


def test_ko_complex_census_cap_fails_fast(ko2221):
    t0 = time.perf_counter()
    with pytest.raises(ResourceLimitError):
        h1_class_census(ko2221, zmod(2), cap=1 << 20)
    assert time.perf_counter() - t0 < 10


def test_ko_n3_vertex_link_h1_pins():
    # every edge is forced from the tree: no branch edge, so H^1 is
    # trivial whatever Lambda, and the search visits no node
    L = ko_vertex_link(3, 3, 2, 1)
    assert _branch_edges(L) == []
    for lam in (zmod(2), zmod(3), sym(3)):
        res = h1_trivial(L, lam)
        assert res.trivial, lam.name
        assert (res.search["branch_edges"], res.search["search_nodes"]) == \
            (0, 0)
    assert oracles.queue_gauge_solutions(L, zmod(2), stop_after=2) == \
        [(0,) * L.face_count(1)]


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
             fx.cycle_complex(6), oracles.path_complex(4),
             fx.complete_graph(4), oracles.complete_bipartite(2, 3),
             two_fold_triangle()]
    # m = 4 is below the vertex count on the octahedron, the torus, the
    # 6-cycle and K_{2,3}, and not below it on the other four
    for X in cases:
        for m in (2, 3, 4):
            assert expansion_h0(X, zmod(m)) == oracles.brute_h0(X, m)


def test_h0_scans_respect_cap():
    # the 7 torus vertices have S(7,2) + S(7,3) = 63 + 301 partitions into
    # two or three blocks
    tor = fx.torus_7()
    with pytest.raises(ResourceLimitError,
                       match="partition count exceeds cap 363"):
        expansion_h0(tor, zmod(3), cap=363)
    assert expansion_h0(tor, zmod(3), cap=364) == Fraction(5, 4)
    with pytest.raises(ResourceLimitError,
                       match="partition count exceeds cap 62"):
        expansion_h0(tor, zmod(2), cap=62)
    assert expansion_h0(tor, zmod(2), cap=63) == Fraction(4, 3)


def test_partition_blocks_are_lazy_and_lex(monkeypatch):
    monkeypatch.setattr(cohomology, "_H0_CHUNK", 16)
    for V, bmax in ((1, 3), (5, 2), (6, 3), (7, 4), (5, 5)):
        blocks = list(cohomology._partition_blocks(V, bmax))
        assert max(map(len, blocks)) <= 16
        rows = np.concatenate(blocks)
        assert_lex_unique(rows)
        assert len(rows) == cohomology._partition_count(V, bmax) == \
            oracles.partition_count(V, bmax)
        # restricted growth: each label at most one past the ones before
        top = np.maximum.accumulate(rows, axis=1)
        assert (rows[:, 0] == 0).all()
        assert (rows[:, 1:] <= top[:, :-1] + 1).all() and top.max() < bmax
    # about 10^28 partitions of 60 vertices: the first block comes without
    # the rest being built
    first = next(cohomology._partition_blocks(60, 3))
    assert len(first) <= 16 and first.shape[1] == 60


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


@pytest.mark.parametrize("build,p", [
    (fx.single_triangle, 2), (fx.single_triangle, 3), (fx.single_triangle, 5),
    (fx.tetrahedron_sphere, 2), (fx.tetrahedron_sphere, 3),
    (fx.tetrahedron_sphere, 5), (fx.octahedron, 2), (fx.octahedron, 3),
    (oracles.triangle_strip, 2), (oracles.triangle_strip, 3),
    (oracles.triangle_strip, 5),
    (fx.torus_7, 2)])
def test_coset_min_weights_match_syndrome_sweep(build, p):
    # the octahedron over Z/5 (5^12 cochains) is beyond the sweep's reach
    X = build()
    _, pivots, z_basis = cohomology._z1_basis(X, p)
    got = cohomology._coset_min_weights(z_basis, pivots,
                                        X.containment_counts(1), p)
    d1m, least = oracles.coset_min_weights(X, p)
    assert len(got) == len(least)
    c = np.zeros(X.face_count(1), dtype=np.int64)
    for i, dist in enumerate(got.tolist()):
        c[pivots] = [i // p ** j % p for j in range(len(pivots))]
        assert least[tuple((d1m @ c % p).tolist())] == dist, i


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


# the Klein four-group, relabelled so that the identity is 2
KLEIN_TABLE = "4 " + " ".join(str(i ^ j ^ 2) for i in range(4)
                               for j in range(4))


@pytest.mark.parametrize("build", [fx.single_triangle, two_fold_triangle])
def test_h1_expansion_generic_matches_one_cochain_sweep(build):
    klein = coefficients_from_table(KLEIN_TABLE, name="klein")
    assert klein.identity == 2
    for lam in (zmod(4), sym(3), klein):
        X = build()
        rep = cohomology._expansion_h1_generic(X, lam, cohomology.DEFAULT_CAP)
        assert (rep.h1_cobound, rep.h1_cosys, rep.min_systole) == \
            oracles.sweep_expansion_h1(X, lam), lam.name


def test_h1_expansion_generic_systole_matches_one_cochain_sweep():
    # nontrivial H^1, so the systole and the zero h1_cobound are exercised
    X = mobius_strip()
    rep = cohomology._expansion_h1_generic(X, zmod(2), cohomology.DEFAULT_CAP)
    assert (rep.h1_cobound, rep.h1_cosys, rep.min_systole) == \
        oracles.sweep_expansion_h1(X, zmod(2)) == (0, 3, Fraction(4, 15))


@pytest.mark.parametrize("seed", range(5))
def test_h1_search_matches_one_proposal_loop(seed):
    # with one start the octahedron bound over Z/2 depends on the seed
    # (3/2 at seed 2, else 1), so a changed trajectory shows
    for X, lam, iters in ((fx.octahedron(), zmod(2), 1),
                          (mobius_strip(), zmod(5), 2),
                          (mobius_strip(), zmod(2), 1),
                          (two_fold_triangle(), sym(3), 2)):
        rep = expansion_h1(X, lam, mode="search", seed=seed, iters=iters)
        assert rep.h1_cobound == \
            oracles.search_h1_cobound(X, lam, seed, iters), lam.name


def test_h1_search_and_brute_past_int64_codes():
    # the 2-skeleton of the 11-simplex: 2^66 cochains on its 66 edges
    # need void keys, but its 2^12 gauges are within the cap
    X = SimplicialComplex(2, 12, [list(f) for f in
                                  itertools.combinations(range(12), 3)])
    rep = expansion_h1(X, zmod(2), mode="search", seed=0, iters=1)
    assert rep.h1_cobound == oracles.search_h1_cobound(X, zmod(2), 0, 1)
    with pytest.raises(ResourceLimitError,
                       match=r"\|Lambda\|\^\|X\(1\)\| = 2\*\*66 exceeds cap"):
        h1_trivial(X, zmod(2), mode="brute")


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
    for iters in (0, -3):
        with pytest.raises(ParameterError, match="iters"):
            expansion_h1(fx.single_triangle(), zmod(2), mode="search",
                         iters=iters)
    with pytest.raises(InputError):
        expansion_h1(oracles.two_triangles_disjoint(), zmod(2))
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
