import itertools
from fractions import Fraction

import numpy as np
import pytest

import oracles
from cosetx import complexes, fixtures
from cosetx._kernels.common import unique_rows
from cosetx.complexes import (SimplicialComplex, build_ko_complex,
                              coset_complex, dumps_complex,
                              left_translation_action, link, load_complex,
                              loads_complex, quotient_by_action, save_complex,
                              verify_quotient_proposition, weights)
from cosetx.errors import InputError, StructureError
from cosetx.groups import cosets, subgroup_closure_indices, symmetric_group


def _sym_index(k, perm):
    return list(itertools.permutations(range(k))).index(perm)


class TestSimplicialComplex:
    def test_octahedron_basics(self):
        X = fixtures.octahedron()
        assert X.f_vector() == (6, 12, 8)
        assert X.euler_characteristic() == 2
        assert X.is_connected()
        assert X.faces(-1).shape == (1, 0)
        assert len(X.faces(0)) == 6

    def test_faces_sorted_unique(self):
        X = fixtures.torus_7()
        E = X.faces(1)
        assert (E[:, 0] < E[:, 1]).all()
        as_tuples = [tuple(r) for r in E.tolist()]
        assert as_tuples == sorted(set(as_tuples))

    def test_containment_counts(self):
        X = fixtures.octahedron()
        # every edge of a 2-sphere triangulation lies in exactly 2 triangles
        assert set(X.containment_counts(1).tolist()) == {2}
        assert set(X.containment_counts(0).tolist()) == {4}

    def test_spanning_forest_walks_edges_both_ways(self):
        # vertex 1 is reached only across (1, 2), from the edge's high end
        X = SimplicialComplex(1, 3, [[0, 2], [1, 2]])
        assert X.spanning_forest()[0].tolist() == [-1, 2, 0]
        assert X.is_connected()

    @pytest.mark.parametrize("X", [fixtures.petersen_graph(),
                                   oracles.two_triangles_disjoint()],
                             ids=["petersen", "two-triangles"])
    def test_spanning_forest_is_a_bfs_forest(self, X):
        parent, parent_edge, order = X.spanning_forest()
        assert X.spanning_forest()[0] is parent            # cached
        assert sorted(order.tolist()) == list(range(X.vertex_count))
        roots = parent < 0
        assert np.array_equal(roots, parent_edge < 0)
        assert int(roots.sum()) == X.component_count()
        kids = np.flatnonzero(~roots)
        # each tree edge joins a vertex to its parent, found earlier
        tree = X.faces(1)[parent_edge[kids]]
        pairs = np.sort(np.stack([kids, parent[kids]], axis=1), axis=1)
        assert np.array_equal(tree, pairs)
        rank = np.argsort(order)
        assert (rank[parent[kids]] < rank[kids]).all()

    def test_disconnected_detected(self):
        assert not oracles.two_triangles_disjoint().is_connected()

    def test_face_position(self):
        X = fixtures.single_triangle()
        for i, row in enumerate(X.faces(1).tolist()):
            assert X.face_position(tuple(row)) == i

    def test_unsorted_rows_give_the_sorted_complex(self):
        """Rows in any vertex order make the complex of their sorted rows;
        a repeated vertex and a face that misses a color raise whether or
        not the rows arrive increasing, and so do colors out of range."""
        rows = [[0, 1, 2], [3, 2, 1], [1, 3, 4], [2, 1, 0]]
        colors = [0, 1, 2, 0, 2]
        X = SimplicialComplex(2, 5, rows, colors)
        Y = SimplicialComplex(2, 5, [[0, 1, 2], [1, 2, 3], [1, 3, 4]], colors)
        assert np.array_equal(X.max_faces, Y.max_faces)
        assert X.max_faces.tolist() == [[0, 1, 2], [1, 2, 3], [1, 3, 4]]
        assert X.f_vector() == Y.f_vector() == (5, 7, 3)
        for bad in ([[0, 1, 2], [1, 1, 3]], [[0, 1, 2], [3, 1, 1]]):
            with pytest.raises(StructureError, match="repeat a vertex"):
                SimplicialComplex(2, 4, bad)
        for bad in ([[0, 1, 2], [1, 2, 3]], [[0, 1, 2], [3, 2, 1]]):
            with pytest.raises(StructureError, match="not partite"):
                SimplicialComplex(2, 4, bad, [0, 1, 2, 1])
            with pytest.raises(StructureError, match="colors must lie"):
                SimplicialComplex(2, 4, bad, [0, 1, 2, 3])

    @pytest.mark.parametrize("rows", [[[0, 1], [1, 2], [0, 5]],
                                      [[0, 5], [0, 1], [1, 2]]])
    def test_out_of_range_row_raises_in_either_order(self, rows):
        # (0, 5) has the base-3 key of (1, 2): the range is checked before
        # the rows are keyed and deduplicated, so it never collides
        with pytest.raises(StructureError, match="out of range"):
            SimplicialComplex(1, 3, rows)
        text = ('{"n":1,"vertex_count":3,"colors":null}\n'
                + "".join(f"[{a},{b}]\n" for a, b in rows))
        with pytest.raises(StructureError, match="out of range"):
            loads_complex(text)

    def test_face_index_array_rejects_rows_outside_the_vertices(self):
        X = SimplicialComplex(1, 3, [[0, 1], [1, 2]])
        assert X.face_index_array([[1, 2], [0, 1]]).tolist() == [1, 0]
        assert X.face_position((0, 5)) == -1
        # (0, 5) has the key of (1, 2); (2, 1) and (1, 1) are not sorted
        for bad in ([[0, 5]], [[-1, 2]], [[0, 3]], [[2, 1]], [[1, 1]]):
            with pytest.raises(InputError, match="strictly increasing"):
                X.face_index_array(bad)
        with pytest.raises(InputError, match="not a face"):
            X.face_index_array([[0, 2]])

    @pytest.mark.parametrize("count", [16384, 16385],
                             ids=["V=2^16-uint64-keys", "V=65540-void-keys"])
    def test_face_lookups_on_wide_keys_match_a_dict(self, count):
        """Disjoint tetrahedra on V = 4 * count vertices: V**4 is 2**64 at
        16384, past int64 keys, and past uint64 keys at 16385."""
        V = 4 * count
        X = SimplicialComplex(3, V, np.arange(V).reshape(count, 4))
        w = weights(X)
        rng = np.random.default_rng(3)
        for k in range(4):
            faces = X.faces(k)
            position = {f: i for i, f in enumerate(map(tuple, faces.tolist()))}
            # every face lies in one tetrahedron, of C(4, k+1) k-faces
            assert len(position) == count * len(
                list(itertools.combinations(range(4), k + 1)))
            perm = rng.permutation(len(faces))
            assert X.face_index_array(faces[perm]).tolist() == [
                position[f] for f in map(tuple, faces[perm].tolist())]
            for f in map(tuple, faces[perm[:200]].tolist()):
                assert X.face_position(f) == position[f]
                assert w[f] == Fraction(1, len(faces))
            if k:
                # the first tetrahedron's vertices and the last vertex
                far = tuple(range(k)) + (V - 1,)
                assert X.face_position(far) == -1
                with pytest.raises(InputError, match="not a face"):
                    X.face_index_array([far])


class TestWeights:
    @pytest.mark.parametrize("make", [
        fixtures.single_triangle, fixtures.octahedron, fixtures.torus_7,
        fixtures.tetrahedron_sphere, lambda: fixtures.cycle_complex(5)])
    def test_each_dimension_sums_to_one(self, make):
        X = make()
        wt = weights(X)
        for k in range(X.n + 1):
            total = sum((w for _, w in wt.items(k)), Fraction(0))
            assert total == 1
            assert wt.total(k) == 1

    def test_weight_values_match_definition(self):
        X = fixtures.torus_7()
        wt = weights(X)
        ew, _ = oracles._edge_weights(X)
        for (u, v), w in ew.items():
            assert wt.weight((u, v)) == w

    def test_getitem_alias(self):
        X = fixtures.single_triangle()
        wt = weights(X)
        assert wt[(0, 1)] == wt.weight((0, 1)) == Fraction(1, 3)


class TestLink:
    def test_empty_face_link_is_self(self):
        X = fixtures.octahedron()
        assert link(X, ()) is X

    def test_vertex_link_of_octahedron_is_4cycle(self):
        X = fixtures.octahedron()
        lk = link(X, (0,))
        assert lk.n == 1
        assert lk.f_vector() == (4, 4)
        assert lk.is_connected()

    def test_edge_link_of_sphere_is_two_points(self):
        X = fixtures.tetrahedron_sphere()
        edge = tuple(X.faces(1)[0].tolist())
        lk = link(X, edge)
        assert lk.f_vector() == (2,)

    def test_origin_vertices_recorded(self):
        X = fixtures.octahedron()
        lk = link(X, (0,))
        assert lk.origin_vertices is not None
        assert len(lk.origin_vertices) == lk.vertex_count
        assert 0 not in set(lk.origin_vertices.tolist())

    def test_origin_vertices_none_unless_a_link(self):
        # only link() of a nonempty face has original vertices to record
        X = fixtures.octahedron()
        assert X.origin_vertices is None
        assert link(X, ()).origin_vertices is None

    @staticmethod
    def _assert_matches_brute(X, tau):
        lk = link(X, tau)
        faces, colors, origin = oracles.brute_link(X, tau)
        for got, want in ((lk.max_faces, faces), (lk.colors, colors),
                          (lk.origin_vertices, origin)):
            if want is None:
                assert got is None
            else:
                assert got.dtype == want.dtype
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("make", [fixtures.octahedron, fixtures.torus_7,
                                      oracles.bowtie])
    def test_every_face_matches_brute_force(self, make):
        X = make()
        for k in range(X.n):
            for row in X.faces(k).tolist():
                self._assert_matches_brute(X, tuple(row))

    def test_ko_sample_matches_brute_force(self):
        X = build_ko_complex(2, 2, 2, 1)
        rng = np.random.default_rng(7)
        for k in range(X.n):
            faces = X.faces(k)
            for i in rng.choice(len(faces), size=12, replace=False):
                self._assert_matches_brute(X, tuple(faces[i].tolist()))

    # (0, 1) and (4, 5) are antipodal pairs, which share no face
    @pytest.mark.parametrize("tau", [(0, 1), (0, 2, 4, 5), (0, 2, 4, 1),
                                     (0, 0), (6,), (-1,)])
    def test_non_face_rejected(self, tau):
        with pytest.raises(InputError):
            link(fixtures.octahedron(), tau)


class TestCosetComplex:
    def test_matches_literal_construction_s3(self):
        G = symmetric_group(3)
        subs = [subgroup_closure_indices(G, [_sym_index(3, (1, 0, 2))]),
                subgroup_closure_indices(G, [_sym_index(3, (0, 2, 1))])]
        X = coset_complex(G, subs)
        counts, chambers = oracles.literal_coset_chambers(
            G.size, G.mult, [list(map(int, s)) for s in subs])
        assert X.f_vector()[0] == sum(counts)
        assert len(X.max_faces) == len(chambers)
        # the hexagon
        assert X.f_vector() == (6, 6)
        assert X.is_connected()

    def test_matches_literal_construction_s4(self):
        G = symmetric_group(4)
        s1, s2, s3 = (1, 0, 2, 3), (0, 2, 1, 3), (0, 1, 3, 2)
        subs = [subgroup_closure_indices(
            G, [_sym_index(4, a), _sym_index(4, b)])
            for a, b in ((s2, s3), (s1, s3), (s1, s2))]
        X = coset_complex(G, subs)
        counts, chambers = oracles.literal_coset_chambers(
            G.size, G.mult, [list(map(int, s)) for s in subs])
        assert X.f_vector() == (14, 36, 24)
        assert X.f_vector()[0] == sum(counts)
        assert len(X.max_faces) == len(chambers)
        got = sorted(tuple(r) for r in np.sort(X.max_faces, axis=1).tolist())
        assert got == chambers

    def test_pairwise_intersection_definition(self):
        # every pairwise-intersecting coset tuple is a face and vice versa
        G = symmetric_group(3)
        subs = [subgroup_closure_indices(G, [_sym_index(3, (1, 0, 2))]),
                subgroup_closure_indices(G, [_sym_index(3, (0, 2, 1))])]
        X = coset_complex(G, subs)
        _, faces = oracles.pairwise_intersection_faces(
            G.size, G.mult, [list(map(int, s)) for s in subs])
        got_edges = {tuple(r) for r in X.faces(1).tolist()}
        oracle_edges = {f for f in faces if len(f) == 2}
        assert got_edges == {tuple(sorted(e)) for e in oracle_edges}

    def test_partite_colors_balanced(self):
        G = symmetric_group(3)
        subs = [subgroup_closure_indices(G, [_sym_index(3, (1, 0, 2))]),
                subgroup_closure_indices(G, [_sym_index(3, (0, 2, 1))])]
        X = coset_complex(G, subs)
        assert X.colors is not None
        assert np.bincount(X.colors).tolist() == [3, 3]
        assert X.coset_data is not None

    def test_ready_partitions(self):
        # a CosetPartition of G stands in for its index list; one of
        # another group is refused
        G = symmetric_group(3)
        subs = [subgroup_closure_indices(G, [_sym_index(3, (1, 0, 2))]),
                subgroup_closure_indices(G, [_sym_index(3, (0, 2, 1))])]
        X = coset_complex(G, subs)
        Y = coset_complex(G, [subs[0], cosets(G, subs[1])])
        assert np.array_equal(X.max_faces, Y.max_faces)
        other = symmetric_group(3)
        with pytest.raises(InputError):
            coset_complex(G, [subs[0], cosets(other, subs[1])])


class TestQuotients:
    def _hexagon(self):
        G = symmetric_group(3)
        subs = [subgroup_closure_indices(G, [_sym_index(3, (1, 0, 2))]),
                subgroup_closure_indices(G, [_sym_index(3, (0, 2, 1))])]
        return G, subs, coset_complex(G, subs)

    def test_coset_data_only_on_coset_complexes(self):
        # the report keys links by color type only when coset_data is set,
        # so nothing derived from a coset complex may inherit it
        G, subs, X = self._hexagon()
        assert fixtures.octahedron().coset_data is None
        assert link(X, ()) is X
        assert link(X, (0,)).coset_data is None
        assert loads_complex(dumps_complex(X)).coset_data is None
        a3 = subgroup_closure_indices(G, [_sym_index(3, (1, 2, 0))])
        Y, _ = quotient_by_action(
            X, left_translation_action(X, G, (int(x) for x in a3)))
        assert Y.coset_data is None
        with pytest.raises(InputError):
            left_translation_action(Y, G, [0])

    def test_translation_action_is_simplicial(self):
        G, subs, X = self._hexagon()
        a3 = subgroup_closure_indices(G, [_sym_index(3, (1, 2, 0))])
        perms = left_translation_action(X, G, (int(x) for x in a3))
        assert len(perms) == 3
        mf = {tuple(r) for r in np.sort(X.max_faces, axis=1).tolist()}
        for perm in perms:
            mapped = {tuple(sorted(perm[list(f)])) for f in mf}
            assert mapped == mf

    def test_translation_action_checks_its_inputs(self):
        from cosetx.cohomology import zmod
        G, subs, X = self._hexagon()
        # -1 is not element 5, and 6 is no element of S_3
        for bad in ([-1], [G.size], [0, G.size + 3]):
            with pytest.raises(InputError, match=r"\[0, 6\)"):
                left_translation_action(X, G, bad)
        # another group's elements would index the partitions wrongly
        for other in (symmetric_group(3), symmetric_group(4), zmod(6)):
            with pytest.raises(InputError, match="group"):
                left_translation_action(X, other, [1])
        # a generator is read once: every element gets its permutation
        perms = left_translation_action(X, G, (g for g in range(G.size)))
        assert len(perms) == G.size
        assert all(sorted(perm.tolist()) == list(range(X.vertex_count))
                   for perm in perms)

    def test_quotient_of_hexagon_by_rotation(self):
        G, subs, X = self._hexagon()
        a3 = subgroup_closure_indices(G, [_sym_index(3, (1, 2, 0))])
        perms = left_translation_action(X, G, (int(x) for x in a3))
        Y, proj = quotient_by_action(X, perms)
        assert Y.f_vector() == (2, 1)
        assert proj.shape == (6,)
        assert Y.colors is not None

    @staticmethod
    def _s4_v4():
        G = symmetric_group(4)
        subs = [subgroup_closure_indices(G, [_sym_index(4, perm)])
                for perm in ((1, 0, 2, 3), (0, 2, 1, 3), (0, 1, 3, 2))]
        v4 = subgroup_closure_indices(
            G, [_sym_index(4, (1, 0, 3, 2)), _sym_index(4, (2, 3, 0, 1))])
        return G, subs, v4

    def test_quotient_proposition_instances(self):
        G = symmetric_group(3)
        swaps = [subgroup_closure_indices(G, [_sym_index(3, (1, 0, 2))]),
                 subgroup_closure_indices(G, [_sym_index(3, (0, 2, 1))])]
        a3 = subgroup_closure_indices(G, [_sym_index(3, (1, 2, 0))])
        assert verify_quotient_proposition(G, swaps, a3)
        assert verify_quotient_proposition(*self._s4_v4())

    def test_quotient_proposition_fails_for_a_smaller_action(self, monkeypatch):
        # act by the order-2 subgroup <(01)(23)> of V4 only: its orbits
        # outnumber the vertices of CC(S4/V4, ...), so no map is a bijection
        G, subs, v4 = self._s4_v4()
        half = subgroup_closure_indices(G, [_sym_index(4, (1, 0, 3, 2))])
        assert len(half) == 2 and set(half) < set(v4)
        translate = complexes.left_translation_action
        monkeypatch.setattr(complexes, "left_translation_action",
                            lambda X, G, elements: translate(X, G, half))
        assert not verify_quotient_proposition(G, subs, v4)

    def test_non_simplicial_action_rejected(self):
        X = SimplicialComplex(2, 3, [[0, 1, 2]])  # uncolored triangle
        with pytest.raises(StructureError):
            quotient_by_action(X, [np.array([0, 0, 2])])
        with pytest.raises(StructureError):
            # color-breaking swap on the partite version
            quotient_by_action(fixtures.single_triangle(),
                               [np.array([1, 0, 2])])
        with pytest.raises(StructureError):
            # orbit collapses the face: not rigid
            quotient_by_action(X, [np.array([1, 0, 2])])
        pair = oracles.two_triangles_disjoint()
        swap = np.array([3, 4, 5, 0, 1, 2])
        if pair.colors is None:
            Y, _ = quotient_by_action(pair, [swap])
            assert Y.f_vector() == (3, 3, 1)


@pytest.mark.parametrize("base,w", [(7, 5), (3, 41), (2, 66), (625, 9),
                                    (70000, 4)])
def test_unique_and_same_rows_match_numpy(base, w):
    """Row keys of either width dedupe, count and compare rows as
    np.unique(axis=0) does, in lex order."""
    rng = np.random.default_rng(base + w)
    rows = rng.integers(0, min(base, 3), size=(300, w))
    rows[:, 0] = rng.integers(0, base, size=300)
    rows[100:200] = rows[rng.integers(0, 100, size=100)]
    got, cnt = unique_rows(rows, base, counts=True)
    want, want_cnt = np.unique(rows, axis=0, return_counts=True)
    assert np.array_equal(got, want) and np.array_equal(cnt, want_cnt)
    assert np.array_equal(unique_rows(rows, base), want)
    assert complexes._same_rows(rows, rows[rng.permutation(300)], base)
    other = rows.copy()
    other[5, -1] = (other[5, -1] + 1) % min(base, 3)
    assert complexes._same_rows(rows, other, base) == (
        sorted(map(tuple, rows.tolist())) == sorted(map(tuple, other.tolist())))
    assert not complexes._same_rows(rows, rows[1:], base)


class TestSerialization:
    def test_roundtrip_plain(self):
        X = fixtures.torus_7()
        Y = loads_complex(dumps_complex(X))
        assert Y.f_vector() == X.f_vector()
        assert np.array_equal(X.max_faces, Y.max_faces)

    def test_roundtrip_colored(self, tmp_path):
        G = symmetric_group(3)
        subs = [subgroup_closure_indices(G, [_sym_index(3, (1, 0, 2))]),
                subgroup_closure_indices(G, [_sym_index(3, (0, 2, 1))])]
        X = coset_complex(G, subs)
        path = tmp_path / "hex.jsonl"
        save_complex(X, path)
        Y = load_complex(path)
        assert np.array_equal(X.colors, Y.colors)
        assert np.array_equal(X.max_faces, Y.max_faces)

    def test_malformed_rejected(self):
        head = '{"n":2,"vertex_count":3,"colors":null}\n'
        for text in ["not a complex\n",
                     head + "[0,1,2]\n[0,1]\n",          # ragged
                     '{"n":1,"vertex_count":3}\n[0,1,2]\n',
                     head + '[0,"a",2]\n',
                     head + "[0,1,2.5]\n",                # no truncation
                     head + "[0,1,true]\n",
                     head + "[0,1,99999999999999999999]\n",
                     head + "{}\n",
                     '{"n":-3,"vertex_count":0}\n',
                     '{"n":2.0,"vertex_count":3}\n[0,1,2]\n',
                     '{"n":2,"vertex_count":-1}\n[0,1,2]\n',
                     '{"n":2,"vertex_count":3,"colors":"abc"}\n[0,1,2]\n',
                     '{"n":2,"vertex_count":3,"colors":[0,1,2.5]}\n[0,1,2]\n',
                     "[1]\n[0,1,2]\n"]:
            with pytest.raises(InputError):
                loads_complex(text)


class TestKOComplex:
    def test_small_build_pinned(self):
        X = build_ko_complex(2, 2, 2, 1)
        assert X.f_vector() == (2016, 32256, 43008)
        assert X.is_connected()
        assert X.colors is not None
        assert np.bincount(X.colors).tolist() == [672, 672, 672]

    def test_counts_against_orbit_stabilizer(self):
        from cosetx.groups import sl_group, subgroup_K
        G = sl_group(2, 2, 2)
        Ks = [subgroup_K(2, 2, 2, 1, i) for i in range(3)]
        X = build_ko_complex(2, 2, 2, 1)
        v_pred = sum(G.size // K.size for K in Ks)
        assert X.f_vector()[0] == v_pred

    def test_weights_normalized(self):
        X = build_ko_complex(2, 2, 2, 1)
        wt = weights(X)
        for k in range(3):
            assert wt.total(k) == 1

    @pytest.mark.parametrize("n,p,s,d", [(2, 2, 2, 1), (2, 2, 2, 0),
                                         (1, 3, 3, 1), (1, 5, 2, 1)])
    def test_rotated_colors_match_per_color_cosets(self, n, p, s, d):
        X = build_ko_complex(n, p, s, d)
        Y = oracles.ko_complex_per_color(n, p, s, d)
        assert X.max_faces.dtype == Y.max_faces.dtype
        assert X.max_faces.tobytes() == Y.max_faces.tobytes()
        assert X.colors.tobytes() == Y.colors.tobytes()
        for px, py in zip(X.coset_data.partitions, Y.coset_data.partitions,
                          strict=True):
            assert px.labels.dtype == py.labels.dtype
            assert px.labels.tobytes() == py.labels.tobytes()

    def test_cosets_runs_once(self, monkeypatch):
        # colors 1..n are read off K_0's partition through gamma_0
        calls = []

        def counting(*args, **kwargs):
            calls.append(len(args[1]))
            return cosets(*args, **kwargs)

        monkeypatch.setattr(complexes, "cosets", counting)
        build_ko_complex(2, 2, 2, 1)
        assert calls == [64]


# ---------------------------------------------------------------------------
# the edge table's one sort: triangle slots and slots by edge


def _ko_link(*params):
    return lambda: oracles.ko_vertex_link(*params)


SLOT_CASES = {
    # every 2-dimensional fixture
    "single_triangle": fixtures.single_triangle,
    "triangle_strip": oracles.triangle_strip,
    "tetrahedron_sphere": fixtures.tetrahedron_sphere,
    "octahedron": fixtures.octahedron,
    "torus_7": fixtures.torus_7,
    "two_triangles_disjoint": oracles.two_triangles_disjoint,
    "bowtie": oracles.bowtie,
    # edges in 3, 2 and 1 triangles, in no symmetric pattern
    "fan": lambda: SimplicialComplex(2, 5, [[0, 1, 2], [0, 1, 3], [0, 1, 4],
                                            [1, 2, 3]]),
    "ko-2-2-2-1": lambda: build_ko_complex(2, 2, 2, 1),
    "ko-2-2-2-0": lambda: build_ko_complex(2, 2, 2, 0),
    "link-3-2-2-1": _ko_link(3, 2, 2, 1),
    "link-3-2-3-1": _ko_link(3, 2, 3, 1),
    # above dimension 2 the triangles are searched in the edge table
    "two-tetrahedra": lambda: SimplicialComplex(3, 5, [[0, 1, 2, 3],
                                                       [1, 2, 3, 4]]),
    "three-tetrahedra": lambda: SimplicialComplex(
        3, 6, [[0, 1, 2, 3], [0, 1, 2, 4], [0, 2, 4, 5]]),
}


def _searched_triangle_edges(X):
    tris = X.faces(2)
    return np.stack([X.face_index_array(tris[:, c])
                     for c in ([0, 1], [1, 2], [0, 2])], axis=1)


@pytest.mark.parametrize("make", SLOT_CASES.values(), ids=SLOT_CASES.keys())
def test_triangle_edges_equal_the_edge_searches(make):
    X = make()
    te = X.triangle_edges()                  # before faces(1) is asked for
    assert te.dtype == np.int32 and te.shape == (X.face_count(2), 3)
    assert np.array_equal(te, _searched_triangle_edges(X))
    assert X.triangle_edges() is te          # cached


@pytest.mark.parametrize("make", SLOT_CASES.values(), ids=SLOT_CASES.keys())
def test_edge_slots_are_the_stable_order_of_the_slots(make):
    X = make()
    slots = X.edge_slots()
    assert slots.dtype == np.int32
    assert np.array_equal(
        slots, np.argsort(X.triangle_edges().ravel(), kind="stable"))
    assert X.edge_slots() is slots


def test_edge_table_keeps_its_slot_order_only_in_dimension_two():
    # a 2-dim complex keeps the order of the sort behind faces(1); the
    # slots themselves are worked out only when asked for
    X = build_ko_complex(2, 2, 2, 1)
    X.faces(1)
    assert X._slot_order is not None and X._tri_edges is None
    Y = SLOT_CASES["two-tetrahedra"]()
    Y.faces(1)
    assert Y._slot_order is None
