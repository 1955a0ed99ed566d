import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from cosetx._kernels import pack_keys
from cosetx.errors import ParameterError, ResourceLimitError, StructureError
from cosetx.groups import (CosetPartition, MatrixGroup, TableGroup, cosets,
                           elementary_subgroup, k0_degree_bounds, k0_entries,
                           k0_order, ko_coset_codes,
                           ko_link_cosets, quotient,
                           reduction_kernel, rotate_rows, sl_group, sl_order,
                           subgroup_K, subgroup_closure_indices,
                           symmetric_group)
from cosetx.ring import TruncPoly
from oracles import MatElement, commutator, elementary, make_poly, one_poly
from oracles import bfs_closure_group as bfs_closure


_GROUPS = {}


def _cached(name, build):
    """A group built once per session, for tests that draw many examples."""
    if name not in _GROUPS:
        _GROUPS[name] = build()
    return _GROUPS[name]


def rand_mat(rng, m, p, s):
    while True:
        flat = [TruncPoly(p, s, tuple(rng.integers(0, p, size=s).tolist()))
                for _ in range(m * m)]
        cand = MatElement(tuple(tuple(flat[i * m + j] for j in range(m))
                                for i in range(m)))
        if cand.det() == one_poly(p, s):
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
        x = elementary(2, 1, 3, make_poly(2, 2, (1, 1)))
        assert MatElement.from_flat(2, 2, 3, x.flat()) == x

    def test_elementary_relations(self):
        p, s = 3, 2
        r1 = make_poly(p, s, (1, 2))
        r2 = make_poly(p, s, (2, 1))
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
            x = elementary(2, 1, 2, one_poly(p, 2))
            assert oracles.mat_element_order(x) == p


class TestIntegerRows:
    """The package's matrices, flat uint32 rows, against the MatElements
    of the oracle."""

    def test_elementary_rows(self):
        from cosetx import groups

        n, p, s = 2, 3, 2
        terms = [(i, j, r) for i in range(1, n + 2) for j in range(1, n + 2)
                 if i != j for r in range(p**s)]
        rows = groups.elementary(n, *np.array(terms).T)
        assert rows.dtype == np.uint32 and rows.shape == (len(terms), 9)
        assert np.array_equal(rows, [
            elementary(n, i, j, TruncPoly.from_index(p, s, r)).flat()
            for i, j, r in terms])
        assert np.array_equal(groups.elementary(n, 1, 3, [4, 5]), rows[[13, 14]])
        for i, j in ((1, 1), (0, 2), (1, n + 2)):
            with pytest.raises(ParameterError):
                groups.elementary(n, i, j, 1)

    @pytest.mark.parametrize("n,p,s", [(1, 3, 2), (2, 2, 2)])
    def test_inverse(self, n, p, s):
        G = sl_group(n, p, s)
        m = n + 1
        for a in np.random.default_rng(n * p * s).choice(G.size, 200):
            x = MatElement.from_flat(p, s, m, G.elems[a])
            assert np.array_equal(G.elems[G.inverse(int(a))],
                                  x.inverse().flat())


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

    @pytest.mark.parametrize("n,p,s,d,with_identity", [
        (1, 2, 2, 1, False), (1, 3, 2, 1, True), (2, 2, 2, 0, False),
        (2, 2, 2, 0, True), (1, 3, 3, 1, True), (2, 3, 2, 1, False)])
    def test_generators_are_bfs_layer_one(self, n, p, s, d, with_identity):
        # the generator indices come from the BFS layer numbering; the key
        # index of the whole group finds the same ones, duplicates and the
        # identity included
        ident = MatElement.identity(n + 1, p, s)
        # e_{j,j+1}(0), the identity, is among K_0's generators
        gens = [g for g in oracles.ko_generators(n, p, s, d, 0)
                if g != ident]
        gens += gens[:2]
        if with_identity:
            gens.insert(1, ident)
        G = bfs_closure(gens)
        flat = np.stack([g.flat() for g in gens])
        assert G.generators == sorted(set(G.lookup_rows(flat).tolist()))
        assert (0 in G.generators) is with_identity

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
        assert (G.lookup_rows(K.elems) >= 0).all()

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
            assert bfs_closure([MatElement.from_flat(p, s, Ki.m, Ki.elems[g])
                                for g in Ki.generators]).size == Ki.size

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

    @pytest.mark.parametrize("n,p,s,d", [(2, 2, 2, 1), (2, 3, 2, 1),
                                         (3, 2, 2, 1), (3, 2, 3, 1),
                                         (2, 5, 3, 1), (3, 3, 2, 1),
                                         (2, 3, 3, 1)])
    def test_k0_entries_are_the_tables_free_columns(self, n, p, s, d):
        K0 = subgroup_K(n, p, s, d, 0)
        # the table is listed on first access, not by subgroup_K
        assert "elems" not in vars(K0)
        cols = k0_entries(n, p, s, d)
        assert cols.dtype == np.uint32 and cols.flags.c_contiguous
        assert np.array_equal(
            cols, K0.elems.T[(k0_degree_bounds(n, s, d) >= 0).ravel()])

    def test_cap_fails_before_enumerating(self):
        # 3^16 elements: the closed-form order trips the cap up front
        assert k0_order(3, 3, 4, 1) == 3**16
        with pytest.raises(ResourceLimitError) as ei:
            subgroup_K(3, 3, 4, 1, 0)
        assert ei.value.partial_count == 0
        assert "|K_0| = 43046721 exceeds cap 16777216" in str(ei.value)


@pytest.mark.parametrize("k", [-1, 1, 2, 3])
def test_rotate_rows_moves_entry_ab_to_g_of_a_g_of_b(k):
    # gamma_0 = (1 2 3) on 3 x 3 matrices: entry (a, b) of x lands at
    # (g(a), g(b)) of the image, g = gamma_0^k, written out entry by entry
    from cosetx.roots import gamma0, perm_pow
    rows = sl_group(2, 2, 1).elems
    g = [x - 1 for x in perm_pow(gamma0(2), k)]
    want = np.empty_like(rows)
    for a, b in itertools.product(range(3), repeat=2):
        want[:, g[a] * 3 + g[b]] = rows[:, a * 3 + b]
    got = rotate_rows(rows, k)
    assert got.dtype == rows.dtype and np.array_equal(got, want)
    assert np.array_equal(rotate_rows(got, -k), rows)


class TestKOLinkCosets:
    # odd p with s = 3 splits entries by % p^(B+1) at more than one degree
    @pytest.mark.parametrize("n,p,s,d", [(2, 2, 2, 1), (2, 3, 2, 1),
                                         (3, 2, 2, 1), (3, 2, 3, 1),
                                         (2, 3, 3, 1), (2, 5, 3, 1)])
    def test_normal_form_matches_cosets(self, n, p, s, d):
        K0 = subgroup_K(n, p, s, d, 0)
        parts = ko_link_cosets(K0, d)
        for j in range(1, n + 1):
            sub = np.flatnonzero(
                K0.lookup_rows(rotate_rows(K0.elems, -j)) >= 0)
            expect = cosets(K0, sub)
            # the codes and cosets()' labels induce the same partition
            codes = ko_coset_codes(
                K0, d, j, K0.elems.T[(k0_degree_bounds(n, s, d) >= 0).ravel()])
            # a code is an element index, so |K_0| <= 2^32 sums in uint32
            assert codes.dtype == np.uint32
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

    def test_table_group_rejects_a_non_associative_loop(self):
        # a loop of order 5: identity 0, every element its own two-sided
        # inverse, but (1*1)*2 = 2 while 1*(1*2) = 4
        loop = np.array([[0, 1, 2, 3, 4],
                         [1, 0, 3, 4, 2],
                         [2, 4, 0, 1, 3],
                         [3, 2, 4, 0, 1],
                         [4, 3, 1, 2, 0]])
        assert TableGroup(loop, validate=False).inv.tolist() == [0, 1, 2, 3, 4]
        with pytest.raises(StructureError, match="not associative"):
            TableGroup(loop)
        # Z/5 passes
        z5 = np.add.outer(np.arange(5), np.arange(5)) % 5
        assert TableGroup(z5).identity == 0

    def test_table_group_rejects_a_column_that_is_not_a_permutation(self):
        # identity 0, every element its own unique two-sided inverse, but
        # column 1 maps both 0 and 2 to 1: no group table does that
        t = np.array([[0, 1, 2, 3],
                      [1, 0, 3, 2],
                      [2, 1, 0, 3],
                      [3, 2, 1, 0]])
        assert TableGroup(t, validate=False).inv.tolist() == [0, 1, 2, 3]
        with pytest.raises(StructureError, match="not associative"):
            TableGroup(t)
        # an entry outside [0, 4) is no element
        for bad in (-1, 4):
            t[2, 1] = bad
            with pytest.raises(StructureError, match=r"\[0, 4\)"):
                TableGroup(t)

    def test_table_group_checks_associativity_at_every_order(self):
        # Z/300 with one intercalate swapped: rows 1 and 151 meet columns
        # 2 and 152 in {3, 153}.  Still a Latin square with identity 0 and
        # the same inverses, but (1*1)*2 = 4 while 1*(1*2) = 154.
        z300 = np.add.outer(np.arange(300), np.arange(300)) % 300
        assert TableGroup(z300).identity == 0
        bad = z300.copy()
        bad[1, 2], bad[1, 152], bad[151, 2], bad[151, 152] = 153, 3, 3, 153
        assert TableGroup(bad, validate=False).inv.tolist() == \
            (-np.arange(300) % 300).tolist()
        with pytest.raises(StructureError, match="not associative"):
            TableGroup(bad)
        # (Z/2)^8 needs log2(256) = 8 greedy generators, the most a group can
        idx = np.arange(256)
        assert TableGroup(idx[:, None] ^ idx[None, :]).size == 256

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

    # (group, whether its right tables go through row tables): ceil(q^m/m)
    # row products against |G| element products
    RIGHT_TABLES = {
        "sl-2-2-2": (lambda: sl_group(2, 2, 2), True),         # 22 <= 43008
        "sl-1-5-2": (lambda: sl_group(1, 5, 2), True),         # 313 <= 15000
        "kernel-1-3-2-1": (lambda: reduction_kernel(1, 3, 2, 1), False),
        # on the switch: ceil(16/2) = 8 = |G| < Q = 16
        "kernel-1-2-2-1": (lambda: reduction_kernel(1, 2, 2, 1), True),
        "k0-2-3-2-1": (lambda: subgroup_K(2, 3, 2, 1, 0), True),  # 243 <= 729
        # void keys, one byte per entry since 256**9 > 2**64: products
        "elementary-2-2-8-0": (lambda: elementary_subgroup(2, 2, 8, 0), False),
    }

    @pytest.mark.parametrize("make,tabled", RIGHT_TABLES.values(),
                             ids=RIGHT_TABLES.keys())
    def test_right_mult_table_matches_the_dense_products(self, make, tabled,
                                                         monkeypatch):
        from cosetx._kernels import matmul_batch, pure

        G = make()
        built = []
        real = pure.RowMaps._tabulate
        monkeypatch.setattr(pure.RowMaps, "_tabulate",
                            lambda self: built.append(len(self.gens)) or real(self))
        picks = sorted({*G.generators, G.identity, 1, G.size // 2,
                        G.size - 1})
        ring = G.ring
        for b in picks:
            got = G.right_mult_table(b)
            want = G.lookup_rows(matmul_batch(G.elems, G.elems[b], ring.mul,
                                              ring.add, G.m))
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
            for a in (0, 1, G.size - 1):
                assert got[a] == G.mult(a, b)
        assert built == ([1] * len(picks) if tabled else [])

    def test_right_mult_table_products_read_the_element_rows(self, monkeypatch):
        # the products path multiplies G's own rows, never decoding its keys
        from cosetx._kernels import pure

        G = reduction_kernel(1, 3, 2, 1)
        want = [G.right_mult_table(b) for b in range(G.size)]
        monkeypatch.setattr(pure, "unpack_keys", None)
        assert all(np.array_equal(G.right_mult_table(b), w)
                   for b, w in enumerate(want))


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
            sub = np.flatnonzero(Ks[j].lookup_rows(G.elems) >= 0)
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

    def test_cosets_labels_do_not_depend_on_the_seeds(self):
        G = subgroup_K(2, 3, 2, 1, 0)
        sub = np.flatnonzero(subgroup_K(2, 3, 2, 1, 1).lookup_rows(G.elems) >= 0)
        want = cosets(G, sub)
        g = int(sub[-1])
        for seeds in ([g], sub[-2:], sub, [g, g, g], [G.identity],
                      [G.identity, g, G.identity]):
            got = cosets(G, sub, sub_generators=seeds)
            for name in ("labels", "reps", "ordinal"):
                a, b = getattr(want, name), getattr(got, name)
                assert a.dtype == b.dtype and np.array_equal(a, b), name

    def test_ko_build_labels_its_seeded_cosets_once(self, monkeypatch):
        # K_0's generators generate it: their 4 right tables, one labelling
        import cosetx.groups as groups
        from cosetx.complexes import build_ko_complex

        tables, labelled = [], []
        table, label = MatrixGroup.right_mult_table, groups.component_labels
        monkeypatch.setattr(MatrixGroup, "right_mult_table",
                            lambda G, b: tables.append(b) or table(G, b))
        monkeypatch.setattr(groups, "component_labels",
                            lambda *a: labelled.append(a[0]) or label(*a))
        X = build_ko_complex(2, 2, 2, 1)
        assert len(tables) == 4
        assert labelled == [X.coset_data.partitions[0].group.size]

    @pytest.mark.parametrize("n,k", [(1, 1), (24, 5), (256, 256),
                                     (257, 40), (600, 600)])
    def test_from_keys_labels_each_class_by_its_least_index(self, n, k):
        # keys in [0, k) against a dictionary of first occurrences; n = 256
        # and 257 straddle uint8 labels, 600 keys give past 256 classes
        keys = np.random.default_rng(n).integers(0, k, size=n)
        least = {}
        for a, key in enumerate(keys.tolist()):
            least.setdefault(key, a)
        labels = np.array([least[key] for key in keys.tolist()])
        reps = np.array(sorted(least.values()))
        G = TableGroup(np.add.outer(np.arange(n), np.arange(n)) % n,
                       validate=False)
        part = CosetPartition.from_keys(G, keys)
        assert np.array_equal(part.labels, labels)
        assert np.array_equal(part.reps, reps)
        assert np.array_equal(part.ordinal, np.searchsorted(reps, labels))
        # the narrowest unsigned dtypes that hold an index and an ordinal
        assert part.labels.dtype == part.reps.dtype == np.min_scalar_type(n - 1)
        assert part.ordinal.dtype == np.min_scalar_type(len(reps) - 1)
        again = CosetPartition.from_labels(G, labels)
        for name in ("labels", "reps", "ordinal"):
            a, b = getattr(part, name), getattr(again, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name

    def test_quotient_s4_by_a4(self):
        # the 3-cycles generate A_4, which is normal of index 2
        G = symmetric_group(4)
        perms = list(itertools.permutations(range(4)))
        cycles = [i for i, p in enumerate(perms)
                  if sum(a != b for a, b in zip(p, range(4))) == 3]
        a4 = subgroup_closure_indices(G, cycles)
        assert len(cycles) == 8 and len(a4) == 12
        Q, proj = quotient(G, a4)
        assert Q.size == 2 and np.array_equal(np.flatnonzero(proj == 0), a4)

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

    def test_quotient_of_matrix_group_by_congruence_kernel(self):
        # SL_2(F_3[t]/t^2) over the kernel of reduction mod t is SL_2(F_3)
        G = sl_group(1, 3, 2)
        low = oracles.reduce_indices(G.elems, 3, 1)
        N = np.flatnonzero((low == [1, 0, 0, 1]).all(axis=1))
        Q, proj = quotient(G, N)
        assert len(N) == 27 and Q.size == sl_order(2, 3, 1) == 24
        rng = np.random.default_rng(1)
        for a, b in rng.integers(0, G.size, size=(40, 2)):
            assert proj[G.mult(int(a), int(b))] == \
                Q.mult(int(proj[a]), int(proj[b]))
        # <e_12(1)> has order 3 and is not normal
        e12 = int(G.lookup_rows(elementary(1, 1, 2, one_poly(3, 2))
                                .flat()[None, :])[0])
        sub = subgroup_closure_indices(G, [e12])
        assert len(sub) == 3
        with pytest.raises(StructureError, match="not normal"):
            quotient(G, sub)
        # normality is only checked under generators that generate G
        G.generators = G.generators[:1]
        with pytest.raises(StructureError, match="do not generate"):
            quotient(G, N)


class TestSetOracles:
    @pytest.mark.parametrize("k", range(1, 7))
    def test_symmetric_group_matches_product_by_product(self, k):
        assert np.array_equal(symmetric_group(k).table,
                              oracles.symmetric_group_table(k))

    @pytest.mark.parametrize("build", [lambda: symmetric_group(4),
                                       lambda: sl_group(1, 3, 2)],
                             ids=["sym4", "sl_1_3_2"])
    def test_subgroup_closure_matches_set_closure(self, build):
        G = build()
        rng = np.random.default_rng(0)
        seeds = [[], [G.identity], list(G.generators)] + [
            rng.integers(0, G.size, size=k).tolist() for k in (1, 1, 2, 2, 3)]
        sizes = set()
        for seed in seeds:
            got = subgroup_closure_indices(G, seed)
            assert np.array_equal(got, oracles.set_subgroup_closure(G, seed))
            sizes.add(len(got))
        assert len(subgroup_closure_indices(G, [])) == 1
        assert G.size in sizes and len(sizes) > 2
        with pytest.raises(StructureError):
            subgroup_closure_indices(G, [G.size])

    CLOSURE_GROUPS = {"sym4": lambda: symmetric_group(4),
                      "sym5": lambda: symmetric_group(5),
                      "sl_1_3_2": lambda: sl_group(1, 3, 2)}

    @given(name=st.sampled_from(sorted(CLOSURE_GROUPS)), data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_subgroup_closure_matches_set_closure_on_random_seeds(self, name,
                                                                 data):
        G = _cached(name, self.CLOSURE_GROUPS[name])
        seed = data.draw(st.lists(st.integers(0, G.size - 1), max_size=3))
        assert np.array_equal(subgroup_closure_indices(G, seed),
                              oracles.set_subgroup_closure(G, seed))

    @given(m=st.integers(1, 4096), data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_subgroup_closure_matches_set_closure_in_zmod(self, m, data):
        from cosetx.cohomology import zmod
        G = zmod(m)
        # a single generator coprime to m closes in m layers, one per element
        g = data.draw(st.integers(0, m - 1))
        for seed in ([g], [math.gcd(g, m) % m, (m - 1) * g % m],
                     data.draw(st.lists(st.integers(0, m - 1), max_size=3))):
            got = subgroup_closure_indices(G, seed)
            assert np.array_equal(got, oracles.set_subgroup_closure(G, seed))
            assert len(got) == m // math.gcd(m, *seed)

    def test_subgroup_closure_of_long_cycles(self):
        from cosetx.cohomology import zmod
        G = zmod(4096)
        for seed, size in (([1], 4096), ([3], 4096), ([2], 2048),
                           ([2048, 3072], 4)):
            got = subgroup_closure_indices(G, seed)
            assert len(got) == size
            assert np.array_equal(got, oracles.set_subgroup_closure(G, seed))
        # the 5-cycle i -> i+1 in Sym(5)
        G = symmetric_group(5)
        got = subgroup_closure_indices(G, G.generators[1:])
        assert len(got) == 5 and np.array_equal(
            got, oracles.set_subgroup_closure(G, G.generators[1:]))

    @pytest.mark.parametrize("args", [(2, 2, 2, 1), (1, 2, 4, 2),
                                      (2, 2, 3, 1), (2, 3, 3, 2)])
    def test_reduction_kernel_matches_conjugation_orbit(self, args):
        K = reduction_kernel(*args)
        ref = oracles.orbit_reduction_kernel(*args)
        q = K.ring.q
        assert np.array_equal(np.sort(K.keys), np.sort(pack_keys(ref, q)))

    @pytest.mark.parametrize("args", [(1, 2, 2, 1), (1, 2, 3, 1),
                                      (2, 2, 2, 1), (1, 3, 3, 1)])
    def test_reduction_kernel_generators_generate(self, args):
        K = reduction_kernel(*args)
        assert len(subgroup_closure_indices(K, K.generators)) == K.size


class TestReductionKernel:
    @pytest.mark.parametrize("n,p,s_hi,s_lo,size", [
        (1, 2, 2, 1, 8), (1, 3, 2, 1, 27), (2, 2, 2, 1, 256),
        (1, 2, 4, 2, 64), (2, 3, 3, 2, 6561)])
    def test_certified_size(self, n, p, s_hi, s_lo, size):
        K = reduction_kernel(n, p, s_hi, s_lo)
        assert K.size == size == p ** ((s_hi - s_lo) * ((n + 1) ** 2 - 1))

    def test_elements_reduce_to_identity(self):
        K = reduction_kernel(1, 3, 2, 1)
        low = oracles.reduce_indices(K.elems, 3, 1)
        ident_low = np.array([1, 0, 0, 1], dtype=low.dtype)
        assert np.array_equal(low, np.broadcast_to(ident_low, low.shape))

    def test_bad_params(self):
        with pytest.raises(ParameterError):
            reduction_kernel(1, 2, 2, 2)


def test_bfs_closure_deduplicates():
    x = elementary(1, 1, 2, one_poly(2, 1))
    G = bfs_closure([x, x, x])
    assert G.size == 2


def test_reduction_kernel_certifies_its_order(monkeypatch):
    # a closure one element short of p^((s_hi-s_lo)(m^2-1)) must not pass
    from cosetx import groups

    real = groups.closure_bfs
    monkeypatch.setattr(groups, "closure_bfs",
                        lambda *args, **kwargs: real(*args, **kwargs)[:-1])
    with pytest.raises(StructureError, match="not p\\^"):
        reduction_kernel(2, 2, 2, 1)


# sha256 of the element rows in their numbering: BFS layers from the
# identity, ascending canonical key within a layer, except for subgroup_K,
# which lists K_0 in the mixed-radix order of its entries and K_i as its
# rotation (``test_rotated_k0_is_k_i`` proves the same sets as the BFS).
# reduction_kernel is numbered from its explicit generators, elementaries
# and diagonals; ``test_reduction_kernel_matches_conjugation_orbit`` proves
# the same sets as the closure of the elementaries' conjugation orbit.
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
    (sl_group, (1, 5, 2),
     "3facdc155f4ee2a49ca5dcaa2611ca9d9a326ef4943ab674ab8ade2047a4b0e1"),
    (sl_group, (2, 2, 2),
     "cd152832cf5a641826bd3cfee071d159ad6aad983ee5ce91929eddc04f5658f7"),
    # the sl-enum benchmark's closure: 1.875M elements, many frontier blocks
    (sl_group, (1, 5, 3),
     "ad6d24e64e24c312838b7b7b7229bacb4abc7dd9c51b4898c1431e9463574fd9"),
    (reduction_kernel, (2, 2, 2, 1),
     "a0f8760474bc7ee8e6ad909493eb61219f983130963c4d3604be42673956c7d2"),
    (reduction_kernel, (1, 2, 4, 2),
     "455f89b8088ffadd01d02fad6d70a64e15dd42ef0b7fcbc2d7776e808046af0e"),
    (reduction_kernel, (2, 2, 3, 1),
     "608e9612857498166db575c770a891139ed69adbcc3ca844a026acfd6f7ab8b2"),
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
    _assert_same_link_through_elements(
        oracles.ko_vertex_link(n, p, s, d),
        oracles.ko_vertex_links_per_color(n, p, s, d)[0])


def test_ko_link_coset_labels_are_pinned():
    # pinned only once the link equals, face by face, the one built with
    # cosets() on the BFS-numbered K_0 from its own generators
    X = oracles.ko_vertex_link(2, 2, 2, 1)
    _assert_same_link_through_elements(
        X, oracles.ko_vertex_links_per_color(2, 2, 2, 1)[0])
    digest = [hashlib.sha256(part.labels.astype(np.int64).tobytes()).hexdigest()
              for part in X.coset_data.partitions]
    assert digest == [
        "f9554aa58217c2a7acd00c60df85c438d232f42d6f18d8653e23c9e0f12665db",
        "721bbd897bdea7ab31da572e9a2e670db672868e7e724fdadcdd1e1a719a8a99"]
    faces = hashlib.sha256(X.max_faces.astype(np.int64).tobytes()).hexdigest()
    assert faces == "0aa816a8b1ad82d2109c31af73f46f8e62b545cce415d27de261f2be95dfa789"
    # the ko-links benchmark's link, whose partitions the normal form
    # matches against cosets() in TestKOLinkCosets
    digest = [hashlib.sha256(part.labels.astype(np.int64).tobytes()).hexdigest()
              for part in ko_link_cosets(subgroup_K(3, 2, 3, 1, 0), 1)]
    assert digest == [
        "d6ce4728cc89176a7ff1e22752dd78f3d6d843fd7f9283170959d60c402991e9",
        "c5005acf334b507ca36cc61f32e09404d042bc4ed00453bb76d1552edea7134e",
        "994bdd8f3f234225a270bd82cd4e6da516590746c425f271b92a75296bcdeeec"]
