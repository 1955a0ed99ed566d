import itertools
from fractions import Fraction

import numpy as np
import pytest

import oracles
from cosetx import complexes, fixtures
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

    def test_adjacency_symmetric(self):
        X = fixtures.petersen_graph()
        A = X.adjacency()
        assert (A != A.T).nnz == 0
        assert A.sum() == 2 * len(X.faces(1))

    def test_disconnected_detected(self):
        assert not fixtures.two_triangles_disjoint().is_connected()

    def test_face_position(self):
        X = fixtures.single_triangle()
        for i, row in enumerate(X.faces(1).tolist()):
            assert X.face_position(tuple(row)) == i


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

    @staticmethod
    def _assert_matches_brute(X, tau):
        lk = link(X, tau)
        faces, colors, labels, origin = oracles.brute_link(X, tau)
        for got, want in ((lk.max_faces, faces), (lk.colors, colors),
                          (lk.origin_vertices, origin)):
            if want is None:
                assert got is None
            else:
                assert got.dtype == want.dtype
                assert np.array_equal(got, want)
        assert lk.labels == labels

    @pytest.mark.parametrize("make", [fixtures.octahedron, fixtures.torus_7,
                                      fixtures.bowtie])
    def test_every_face_matches_brute_force(self, make):
        X = make()
        for k in range(X.n):
            for row in X.faces(k).tolist():
                self._assert_matches_brute(X, tuple(row))

    def test_ko_sample_matches_brute_force(self):
        X = build_ko_complex(2, 2, 2, 1, labels=True)
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
        pair = fixtures.two_triangles_disjoint()
        swap = np.array([3, 4, 5, 0, 1, 2])
        if pair.colors is None:
            Y, _ = quotient_by_action(pair, [swap])
            assert Y.f_vector() == (3, 3, 1)


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
        with pytest.raises(InputError):
            loads_complex("not a complex\n")


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
