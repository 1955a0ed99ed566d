import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from cosetx.errors import ParameterError, ResourceLimitError, StructureError
from cosetx.groups import (MatElement, MatrixGroup, bfs_closure, commutator,
                           cosets, elementary, elementary_subgroup,
                           k0_degree_bounds, k0_order, ko_coset_codes,
                           ko_link_cosets, mat_element_order, normal_closure,
                           quotient, reduction_kernel, rotate_rows, sl_group,
                           sl_order, subgroup_K, subgroup_closure_indices,
                           symmetric_group)
from cosetx.ring import TruncPoly


def rand_mat(rng, m, p, s):
    while True:
        flat = [TruncPoly(p, s, tuple(rng.integers(0, p, size=s).tolist()))
                for _ in range(m * m)]
        cand = MatElement(tuple(tuple(flat[i * m + j] for j in range(m))
                                for i in range(m)))
        if cand.det() == TruncPoly.one(p, s):
            return cand


class TestMatElement:
    @pytest.mark.parametrize("m,p,s", [(2, 2, 2), (2, 3, 2), (3, 2, 2),
                                       (3, 3, 1), (4, 2, 1)])
    def test_det_matches_leibniz(self, m, p, s):
        rng = np.random.default_rng(m * 100 + p * 10 + s)
        for _ in range(20):
            flat = [TruncPoly(p, s, tuple(rng.integers(0, p, size=s).tolist()))
                    for _ in range(m * m)]
            mat = MatElement(tuple(tuple(flat[i * m + j] for j in range(m))
                                   for i in range(m)))
            expect = oracles.leibniz_det(
                [[e.coeffs for e in row] for row in mat.entries], p, s)
            assert mat.det().coeffs == expect

    def test_inverse_and_pow(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            x = rand_mat(rng, 3, 3, 2)
            ident = MatElement.identity(3, 3, 2)
            assert x @ x.inverse() == ident
            assert x.inverse() @ x == ident
            assert x.pow(0) == ident
            assert x.pow(3) == x @ x @ x

    def test_flat_roundtrip(self):
        x = elementary(2, 1, 3, TruncPoly.make(2, 2, (1, 1)))
        assert MatElement.from_flat(2, 2, 3, x.flat()) == x

    def test_elementary_relations(self):
        p, s = 3, 2
        r1 = TruncPoly.make(p, s, (1, 2))
        r2 = TruncPoly.make(p, s, (2, 1))
        from cosetx.ring import poly_add, poly_mul
        # additive in the same position
        assert elementary(2, 1, 2, r1) @ elementary(2, 1, 2, r2) == \
            elementary(2, 1, 2, poly_add(r1, r2))
        # Steinberg commutator
        assert commutator(elementary(2, 1, 2, r1), elementary(2, 2, 3, r2)) \
            == elementary(2, 1, 3, poly_mul(r1, r2))
        # disjoint roots commute
        assert commutator(elementary(3, 1, 2, r1), elementary(3, 3, 4, r2)) \
            == MatElement.identity(4, p, s)

    def test_order_of_elementary_is_p(self):
        for p in (2, 3, 5):
            x = elementary(2, 1, 2, TruncPoly.one(p, 2))
            assert mat_element_order(x) == p


class TestClosure:
    @pytest.mark.parametrize("n,p,s", [(1, 2, 1), (1, 3, 1), (1, 2, 2),
                                       (1, 3, 2), (2, 2, 1), (2, 2, 2),
                                       (2, 3, 1), (1, 5, 1)])
    def test_sl_sizes_match_formula(self, n, p, s):
        assert sl_group(n, p, s).size == \
            oracles.sl_order_formula(n + 1, p, s)
        assert sl_order(n + 1, p, s) == oracles.sl_order_formula(n + 1, p, s)

    def test_cap_enforced(self):
        with pytest.raises(ResourceLimitError) as ei:
            sl_group(1, 2, 3, cap=10)
        assert ei.value.partial_count is not None

    def test_closure_contains_generators_first(self):
        G = sl_group(1, 2, 2)
        ident = MatElement.identity(2, 2, 2)
        assert np.array_equal(G.elems[0], ident.flat())

    def test_elementary_subgroup_degree_zero_is_constants(self):
        assert elementary_subgroup(2, 2, 2, 0).size == \
            oracles.sl_order_formula(3, 2, 1)

    def test_elementary_subgroup_full_degree_is_sl(self):
        assert elementary_subgroup(1, 3, 2, 1).size == \
            oracles.sl_order_formula(2, 3, 2)

    def test_bad_params(self):
        with pytest.raises(ParameterError):
            elementary_subgroup(0, 2, 2, 1)
        with pytest.raises(ParameterError):
            elementary_subgroup(2, 2, 2, 2)  # d must stay below s


class TestSubgroupK:
    # (2,2,4,1) and (3,2,4,1) have 128 and 65536 elements, where the
    # count (j-i)(d+1) of coefficients would give 256 and 262144
    @pytest.mark.parametrize("n,p,s,d", [(2, 2, 2, 1), (2, 2, 3, 1),
                                         (2, 3, 2, 1), (1, 3, 3, 1),
                                         (2, 2, 4, 1), (3, 2, 4, 1)])
    def test_k0_is_bounded_unipotent(self, n, p, s, d):
        expect = oracles.unipotent_order_formula(n + 1, p, s, d)
        assert k0_order(n, p, s, d) == expect
        assert subgroup_K(n, p, s, d, 0).size == expect

    def test_all_colors_conjugate_size(self, ):
        sizes = {subgroup_K(2, 2, 2, 1, i).size for i in range(3)}
        assert sizes == {64}

    def test_k_elements_in_ambient(self):
        G = sl_group(2, 2, 2)
        K = subgroup_K(2, 2, 2, 1, 1)
        assert bool(G.contains_flat_rows(K.elems).all())

    @pytest.mark.parametrize("n,p,s,d", [(2, 2, 2, 1), (2, 3, 2, 1),
                                         (1, 3, 3, 1), (3, 2, 2, 1),
                                         (3, 2, 3, 1)])
    def test_rotated_k0_is_k_i(self, n, p, s, d):
        # subgroup_K(..., i), the rotated closed-form K_0, against the BFS
        # from K_i's own generators, as sets
        for i in range(n + 1):
            Ki = subgroup_K(n, p, s, d, i)
            bfs = oracles.ko_subgroup_bfs(n, p, s, d, i)
            pos = bfs.lookup_rows(Ki.elems)
            assert Ki.size == bfs.size
            assert np.array_equal(np.sort(pos), np.arange(bfs.size))
            assert Ki.identity == 0
            assert bfs_closure([Ki.mat(g) for g in Ki.generators]).size == \
                Ki.size

    @pytest.mark.parametrize("n,p,s,d", [(2, 2, 2, 1), (1, 3, 3, 1),
                                         (2, 2, 3, 1)])
    def test_closed_form_matches_set_bfs_oracle(self, n, p, s, d):
        # the same sets again, closed by exact products and a Python set
        for i in range(n + 1):
            layers = oracles.bfs_closure(oracles.ko_generators(n, p, s, d, i))
            expect = {tuple(row) for layer in layers for row in layer.tolist()}
            got = {tuple(row) for row in subgroup_K(n, p, s, d, i).elems.tolist()}
            assert got == expect

    def test_k0_is_listed_in_mixed_radix_order(self):
        # (2,3,2,1): entries (0,1), (0,2), (1,2) hold degree <= 1, 1, 1, so
        # each runs over 0..8 and the last one varies fastest
        K0 = subgroup_K(2, 3, 2, 1, 0)
        coords = K0.elems[:, [1, 2, 5]].astype(np.int64)
        assert np.array_equal(coords @ [81, 9, 1], np.arange(729))
        assert np.array_equal(K0.elems[:, [0, 4, 8]], np.ones((729, 3)))
        assert not K0.elems[:, [3, 6, 7]].any()

    def test_cap_fails_before_enumerating(self):
        # 3^16 elements: the closed-form order trips the cap up front
        assert k0_order(3, 3, 4, 1) == 3**16
        with pytest.raises(ResourceLimitError) as ei:
            subgroup_K(3, 3, 4, 1, 0)
        assert ei.value.partial_count == 0
        assert "|K_0| = 43046721 exceeds cap 16777216" in str(ei.value)


class TestKOLinkCosets:
    @pytest.mark.parametrize("n,p,s,d", [(2, 2, 2, 1), (2, 3, 2, 1),
                                         (3, 2, 2, 1), (3, 2, 3, 1)])
    def test_normal_form_matches_cosets(self, n, p, s, d):
        K0 = subgroup_K(n, p, s, d, 0)
        parts = ko_link_cosets(K0, d)
        for j in range(1, n + 1):
            sub = np.flatnonzero(
                K0.contains_flat_rows(rotate_rows(K0.elems, -j)))
            expect = cosets(K0, sub)
            # the codes and cosets()' labels induce the same partition
            codes = ko_coset_codes(K0, d, j)
            pairs = np.unique(np.stack([codes, expect.labels]), axis=1)
            assert pairs.shape[1] == len(np.unique(codes)) \
                == expect.n_cosets == K0.size // len(sub)
            # each code is the index of an element of its own coset
            assert np.array_equal(expect.labels[codes], expect.labels)
            part = parts[j - 1]
            assert part.group is K0
            assert np.array_equal(part.labels, expect.labels)
            assert np.array_equal(part.reps, expect.reps)
            assert np.array_equal(part.ordinal, expect.ordinal)

    @pytest.mark.parametrize("n", [2, 3])
    def test_loosened_bound_fails_the_class_check(self, n, monkeypatch):
        import cosetx.groups as groups_mod

        K0 = subgroup_K(n, 2, 2, 1, 0)
        D = k0_degree_bounds(n, 2, 1)
        exact = groups_mod.ko_intersection_bounds
        loosened = 0
        for j in range(1, n + 1):
            B = exact(n, 2, 1, j)
            for a, b in zip(*np.nonzero(B < D)):
                def loose(n_, s_, d_, j_, a=a, b=b, j=j):
                    out = exact(n_, s_, d_, j_)
                    if j_ == j:
                        out[a, b] += 1
                    return out
                monkeypatch.setattr(groups_mod, "ko_intersection_bounds",
                                    loose)
                with pytest.raises(StructureError, match="classes of"):
                    ko_link_cosets(K0, 1)
                loosened += 1
        monkeypatch.setattr(groups_mod, "ko_intersection_bounds", exact)
        assert len(ko_link_cosets(K0, 1)) == n
        assert loosened >= n


class TestGroupInterface:
    def test_symmetric_group_table(self):
        G = symmetric_group(4)
        perms = list(itertools.permutations(range(4)))
        assert G.size == 24
        rng = np.random.default_rng(0)
        for _ in range(40):
            a, b = rng.integers(0, 24, size=2)
            pa, pb = perms[a], perms[b]
            comp = tuple(pa[pb[i]] for i in range(4))
            assert perms[G.mult(int(a), int(b))] == comp

    @given(st.integers(0, 5))
    @settings(max_examples=20, deadline=None)
    def test_lagrange_on_matrix_group(self, seed):
        G = sl_group(1, 3, 2)
        rng = np.random.default_rng(seed)
        a = int(rng.integers(0, G.size))
        assert G.size % G.element_order(a) == 0

    def test_mult_tables_consistent(self):
        G = sl_group(1, 2, 2)
        for b in (0, 3, G.size - 1):
            col = G.right_mult_table(b)
            for a in (0, 1, G.size - 1):
                assert col[a] == G.mult(a, b)


class TestCosetsQuotients:
    def test_cosets_partition(self):
        G = symmetric_group(4)
        sub = subgroup_closure_indices(
            G, [list(itertools.permutations(range(4))).index((1, 0, 2, 3))])
        part = cosets(G, sub)
        assert part.n_cosets == 12
        assert len(set(part.labels.tolist())) == 12
        # same coset iff same label: g ~ h when g^-1 h in the subgroup
        sub_set = set(int(x) for x in sub)
        for g in range(0, 24, 5):
            for h in range(0, 24, 7):
                same = G.mult(G.inverse(g), h) in sub_set
                assert (part.labels[g] == part.labels[h]) == same

    def test_cosets_rejects_non_subgroups(self):
        G = symmetric_group(4)
        perms = list(itertools.permutations(range(4)))
        e, cyc = perms.index((0, 1, 2, 3)), perms.index((1, 2, 0, 3))
        swap = perms.index((1, 0, 2, 3))
        # sizes divide 24, but products leave the subset or miss e
        for bad in ([e, cyc], [e, swap, cyc], [1, 2, 3, 4, 5, 6]):
            with pytest.raises(StructureError):
                cosets(G, bad)
        for out_of_range in ([], [e, 24], [-1, e]):
            with pytest.raises(StructureError):
                cosets(G, out_of_range)
        with pytest.raises(StructureError):
            cosets(G, [e, swap], sub_generators=[cyc])

    @pytest.mark.parametrize("n,p", [(3, 2), (2, 3)])
    def test_cosets_match_brute_force_on_ko_links(self, n, p, monkeypatch):
        from cosetx._kernels import matmul_batch
        Ks = [subgroup_K(n, p, 2, 1, i) for i in range(n + 1)]
        ring = Ks[0].ring
        tables = []
        table = MatrixGroup.right_mult_table
        monkeypatch.setattr(MatrixGroup, "right_mult_table",
                            lambda G, b: tables.append(b) or table(G, b))
        for i, j in itertools.permutations(range(n + 1), 2):
            G = Ks[i]
            sub = np.flatnonzero(Ks[j].contains_flat_rows(G.elems))
            tables.clear()
            part = cosets(G, sub)
            # the link groups K_i n K_j need several generators
            assert 1 < len(tables) < len(sub)
            # literal cosets {g k : k in K}, smallest element first
            expect = np.full(G.size, -1, dtype=np.int64)
            for g in range(G.size):
                if expect[g] < 0:
                    coset = G.lookup_rows(matmul_batch(
                        G.elems[g], G.elems[sub], ring.mul, ring.add, G.m))
                    assert len(np.unique(coset)) == len(sub)
                    assert (expect[coset] < 0).all()
                    expect[coset] = g
            assert np.array_equal(part.labels, expect)
            assert np.array_equal(part.reps, np.unique(expect))
            assert np.array_equal(part.ordinal,
                                  np.searchsorted(part.reps, expect))
            seeded = cosets(G, sub, sub_generators=sub[::-1][:3])
            assert np.array_equal(seeded.labels, part.labels)

    def test_normal_closure_of_3cycle_is_a4(self):
        G = symmetric_group(4)
        perms = list(itertools.permutations(range(4)))
        nc = normal_closure(G, [perms.index((0, 2, 3, 1))])
        assert len(nc) == 12

    def test_quotient_s4_by_v4(self):
        G = symmetric_group(4)
        perms = list(itertools.permutations(range(4)))
        v4 = subgroup_closure_indices(
            G, [perms.index((1, 0, 3, 2)), perms.index((2, 3, 0, 1))])
        Q, proj = quotient(G, v4)
        assert Q.size == 6
        for a in range(24):
            for b in (0, 7, 23):
                assert proj[G.mult(a, b)] == Q.mult(int(proj[a]), int(proj[b]))

    def test_quotient_rejects_non_normal(self):
        G = symmetric_group(3)
        perms = list(itertools.permutations(range(3)))
        sub = subgroup_closure_indices(G, [perms.index((1, 0, 2))])
        with pytest.raises(StructureError):
            quotient(G, sub)


class TestReductionKernel:
    @pytest.mark.parametrize("n,p,s_hi,s_lo,size", [
        (1, 2, 2, 1, 8), (1, 3, 2, 1, 27), (2, 2, 2, 1, 256),
        (1, 2, 4, 2, 64), (2, 3, 3, 2, 6561)])
    def test_certified_size(self, n, p, s_hi, s_lo, size):
        K = reduction_kernel(n, p, s_hi, s_lo)
        assert K.size == size == p ** ((s_hi - s_lo) * ((n + 1) ** 2 - 1))

    def test_elements_reduce_to_identity(self):
        from cosetx.ring import RingTable
        K = reduction_kernel(1, 3, 2, 1)
        rt = RingTable(3, 2)
        low = rt.reduce_indices(K.elems, 1)
        ident_low = np.array([1, 0, 0, 1], dtype=low.dtype)
        assert np.array_equal(low, np.broadcast_to(ident_low, low.shape))

    def test_bad_params(self):
        with pytest.raises(ParameterError):
            reduction_kernel(1, 2, 2, 2)


def test_bfs_closure_deduplicates():
    x = elementary(1, 1, 2, TruncPoly.one(2, 1))
    G = bfs_closure([x, x, x])
    assert G.size == 2



# sha256 of the element rows in their numbering: BFS layers from the
# identity, ascending canonical key within a layer, except for subgroup_K,
# which lists K_0 in the mixed-radix order of its entries and K_i as its
# rotation (``test_rotated_k0_is_k_i`` proves the same sets as the BFS).
# Dumps, coset labels and complex vertex ids are all read off this order,
# so it must not move.
GOLDEN_ORDER = [
    (subgroup_K, (2, 2, 2, 1, 0),
     "b5b4cacf9443cf9a0fbaabf3d26fb19d07e185bf692a08b06f6782796dde8e29"),
    (subgroup_K, (2, 2, 2, 1, 1),
     "5ce687ba43fe19e0d4a1958c964a120b2cc224ced04929cbc4d44dafb9d16958"),
    (subgroup_K, (2, 2, 2, 1, 2),
     "316aa67ea2668e6893924f9a47fc45a963b4d36e07db1326ebaf23f527091bed"),
    (subgroup_K, (3, 2, 2, 1, 0),
     "da7ad6408e0b6b7198f543da3dcbb4ef7ca13850e2dc4fa71552e3f0a9ccfbe7"),
    (sl_group, (1, 3, 2),
     "59ee6492a9cca1c0130c03ce634c816821aa84e1cd3291d8f523ce9d1e06780f"),
    (reduction_kernel, (2, 2, 2, 1),
     "b9f4f6e7037fede43821d4494627bf9aa63f714f052b4d07a8122ba1a069f87e"),
    (reduction_kernel, (1, 2, 4, 2),
     "58bd62c4a33ec5f181438d028bc6b806d86b3b8bf90448e777790c3f41561d88"),
]


@pytest.mark.parametrize("build,args,digest", GOLDEN_ORDER,
                         ids=["-".join([b.__name__, *map(str, a)])
                              for b, a, _ in GOLDEN_ORDER])
def test_bfs_numbering_is_pinned(build, args, digest):
    elems = build(*args).elems
    assert elems.dtype == np.uint32
    assert hashlib.sha256(elems.tobytes()).hexdigest() == digest


def _assert_same_link_through_elements(X, Z):
    """X and Z are coset complexes on two numberings of one group: the
    vertex gH of X, g its representative, is the vertex of Z whose coset
    holds the same matrix g, and that map carries X onto Z face by face."""
    GX = X.coset_data.partitions[0].group
    GZ = Z.coset_data.partitions[0].group
    phi = np.concatenate([
        Z.coset_data.offsets[c] + pz.ordinal[GZ.lookup_rows(GX.elems[px.reps])]
        for c, (px, pz) in enumerate(zip(X.coset_data.partitions,
                                         Z.coset_data.partitions,
                                         strict=True))])
    assert np.array_equal(np.sort(phi), np.arange(Z.vertex_count))
    assert np.array_equal(Z.colors[phi], X.colors)
    mapped = np.sort(phi[X.max_faces], axis=1)
    assert len(mapped) == len(Z.max_faces)
    assert set(map(tuple, mapped.tolist())) == \
        set(map(tuple, Z.max_faces.tolist()))


@pytest.mark.parametrize("n,p,s,d", [(2, 3, 2, 1), (3, 2, 2, 1)])
def test_ko_link_equals_the_bfs_built_link(n, p, s, d):
    from cosetx.spectral import ko_vertex_link

    _assert_same_link_through_elements(
        ko_vertex_link(n, p, s, d),
        oracles.ko_vertex_links_per_color(n, p, s, d)[0])


def test_ko_link_coset_labels_are_pinned():
    # pinned only once the link equals, face by face, the one built with
    # cosets() on the BFS-numbered K_0 from its own generators
    from cosetx.spectral import ko_vertex_link

    X = ko_vertex_link(2, 2, 2, 1)
    _assert_same_link_through_elements(
        X, oracles.ko_vertex_links_per_color(2, 2, 2, 1)[0])
    digest = [hashlib.sha256(part.labels.astype(np.int64).tobytes()).hexdigest()
              for part in X.coset_data.partitions]
    assert digest == [
        "f9554aa58217c2a7acd00c60df85c438d232f42d6f18d8653e23c9e0f12665db",
        "721bbd897bdea7ab31da572e9a2e670db672868e7e724fdadcdd1e1a719a8a99"]
    faces = hashlib.sha256(X.max_faces.astype(np.int64).tobytes()).hexdigest()
    assert faces == "0aa816a8b1ad82d2109c31af73f46f8e62b545cce415d27de261f2be95dfa789"
