"""The numpy kernel against exact coefficient arithmetic and a set-based
closure oracle, plus the shared key helpers.
"""

import functools
import hashlib

import numpy as np
import pytest

import oracles
from cosetx import _kernels
from cosetx._kernels import common, pure
from cosetx.errors import ParameterError, ResourceLimitError
from cosetx.groups import (elementary_subgroup, reduction_kernel, sl_group,
                           subgroup_K)
from cosetx.ring import RingTable, TruncPoly
from oracles import (MatElement, elementary, is_unit, make_poly, one_poly,
                     t_power, zero_poly)
from test_groups import GOLDEN_ORDER


def test_matmul_matches_matelement():
    rt = RingTable(3, 2)
    x = elementary(1, 1, 2, make_poly(3, 2, (2, 1)))
    y = elementary(1, 2, 1, make_poly(3, 2, (1, 2)))
    via_kernel = _kernels.matmul_batch(
        x.flat(), y.flat(), rt.mul, rt.add, 2)[0]
    assert np.array_equal(via_kernel, (x @ y).flat())


def _exact_products(A, B, p, s, m):
    """Row-wise A @ B by MatElement arithmetic, broadcasting one row."""
    A, B = np.atleast_2d(A), np.atleast_2d(B)
    k = max(len(A), len(B))
    rows = []
    for r in range(k):
        a = MatElement.from_flat(p, s, m, A[r if len(A) > 1 else 0])
        b = MatElement.from_flat(p, s, m, B[r if len(B) > 1 else 0])
        rows.append((a @ b).flat())
    return np.array(rows, dtype=np.uint32).reshape(k, m * m)


def _test_matrices(rng, p, s, m):
    """Zero, identity, elementaries and seeded matrices whose entries are
    forced to 0, to 1 and to other ring elements in equal shares."""
    q = p**s
    mats = [np.zeros(m * m, dtype=np.uint32), common.identity_flat(m)]
    for _ in range(3):
        if m > 1:
            i, j = rng.choice(m, size=2, replace=False) + 1
            r = TruncPoly.from_index(p, s, int(rng.integers(2 if q > 2 else 1, q)))
            mats.append(elementary(m - 1, int(i), int(j), r).flat())
    for _ in range(6):
        kind = rng.integers(0, 3, size=m * m)
        other = rng.integers(2, q, size=m * m) if q > 2 else np.ones(m * m, int)
        mats.append(np.where(kind == 0, 0, np.where(kind == 1, 1, other))
                    .astype(np.uint32))
    return np.array(mats, dtype=np.uint32)


@pytest.mark.parametrize("p,s", [(2, 1), (2, 3), (3, 2), (5, 3)])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_matmul_matches_exact_arithmetic(p, s, m):
    rt = RingTable(p, s)
    rng = np.random.default_rng(1000 * p + 100 * s + m)
    batch = _test_matrices(rng, p, s, m)
    for one in batch:
        # a single matrix on the right, flat and as one row
        for b in (one, one[None, :]):
            got = pure.matmul_batch(batch, b, rt.mul, rt.add, m)
            assert got.dtype == np.uint32 and got.flags.c_contiguous
            assert np.array_equal(got, _exact_products(batch, b, p, s, m))
        # a single matrix on the left
        got = pure.matmul_batch(one, batch, rt.mul, rt.add, m)
        assert got.dtype == np.uint32 and got.flags.c_contiguous
        assert np.array_equal(got, _exact_products(one, batch, p, s, m))
    # single by single, every ordered pair of the special matrices
    for a in batch[:5]:
        for b in batch[:5]:
            got = pure.matmul_batch(a, b, rt.mul, rt.add, m)
            assert got.shape == (1, m * m)
            assert np.array_equal(got, _exact_products(a, b, p, s, m))
    # batch by batch, the dense path
    other = batch[rng.permutation(len(batch))]
    got = pure.matmul_batch(batch, other, rt.mul, rt.add, m)
    assert got.dtype == np.uint32 and got.flags.c_contiguous
    assert np.array_equal(got, _exact_products(batch, other, p, s, m))


@pytest.mark.parametrize("ka,kb", [(3, 2), (0, 1), (1, 0)])
def test_matmul_rejects_mismatched_batches(ka, kb):
    rt = RingTable(2, 1)
    with pytest.raises(ValueError):
        pure.matmul_batch(np.zeros((ka, 4), np.uint32), np.zeros((kb, 4), np.uint32),
                          rt.mul, rt.add, 2)


_ring_table = functools.cache(RingTable)


@pytest.mark.parametrize("p,s", [(3, 2), (2, 6), (5, 3), (2, 12)])
@pytest.mark.parametrize("m", [2, 3, 4])
def test_dense_matmul_matches_matelement_on_random_batches(monkeypatch, p, s, m):
    """Batch by batch, ``matmul_batch`` reads mul and add as flat tables at
    a*q + b; at q = 4096 that index reaches 2**24 - 1, so a quarter of the
    entries are forced to q - 1.  A batch of one matrix on either side
    still takes ``_times_single``, and two full batches never do."""
    rt, q = _ring_table(p, s), p**s
    rng = np.random.default_rng(7 * q + m)
    A, B = (np.where(rng.random((12, m * m)) < 0.25, q - 1,
                     rng.integers(0, q, (12, m * m))).astype(np.uint32)
            for _ in range(2))
    calls = []
    single = pure._times_single
    monkeypatch.setattr(pure, "_times_single",
                        lambda *args: calls.append(1) or single(*args))
    got = pure.matmul_batch(A, B, rt.mul, rt.add, m)
    assert not calls
    assert got.dtype == np.uint32 and got.flags.c_contiguous
    assert np.array_equal(got, _exact_products(A, B, p, s, m))
    for a, b in ((A[:1], B), (A, B[:1])):
        got = pure.matmul_batch(a, b, rt.mul, rt.add, m)
        assert np.array_equal(got, _exact_products(a, b, p, s, m))
    assert len(calls) == 2


def _invertible_matrices(rng, p, s, m, count):
    """Seeded invertible matrices over F_p[t]/t^s that need pivoting.

    Half the entries are non-units other than 0 (multiples of t), half are
    units; a draw is kept when its determinant is a unit, and none of them
    is an elementary.
    """
    q = p**s
    out = []
    while len(out) < count:
        flat = np.where(rng.integers(0, 2, size=m * m) == 0,
                        p * rng.integers(1, q // p, size=m * m),
                        rng.integers(0, q // p, size=m * m) * p
                        + rng.integers(1, p, size=m * m)).astype(np.uint32)
        if is_unit(MatElement.from_flat(p, s, m, flat).det()):
            out.append(flat)
    mats = np.array(out)
    ident = common.identity_flat(m)
    assert ((mats != ident).sum(axis=1) > 1).all()
    return mats


@pytest.mark.parametrize("m,p,s", [(2, 5, 3), (3, 2, 4), (4, 3, 2), (4, 3, 4)])
def test_inverse_batch_matches_matelement_inverse(m, p, s):
    rt = RingTable(p, s)
    mats = _invertible_matrices(np.random.default_rng(100 * m + 10 * p + s),
                                p, s, m, 50)
    # a non-unit top-left corner: the first pivot is not on the diagonal
    assert (mats[:, 0] % p == 0).any()
    got = pure.inverse_batch(mats, rt.mul, rt.add, rt.neg, m, p)
    assert got.dtype == np.uint32 and got.flags.c_contiguous
    want = np.array([MatElement.from_flat(p, s, m, a).inverse().flat()
                     for a in mats])
    assert np.array_equal(got, want)
    # mixed with the identity, in one batch and as a single flat matrix
    ident = common.identity_flat(m)
    mixed = np.concatenate([mats[:3], ident[None, :], mats[3:6], ident[None, :]])
    got = _kernels.inverse_batch(mixed, rt.mul, rt.add, rt.neg, m, p)
    assert np.array_equal(got, np.concatenate([want[:3], ident[None, :],
                                               want[3:6], ident[None, :]]))
    assert np.array_equal(
        pure.inverse_batch(ident, rt.mul, rt.add, rt.neg, m, p), ident[None, :])


def test_inverse_batch_rejects_non_invertible():
    m, p, s = 3, 3, 2
    rt = RingTable(p, s)
    rng = np.random.default_rng(7)
    good = _invertible_matrices(rng, p, s, m, 4)
    # every entry in tF_p[t]: no unit pivot in the first column
    in_t = (p * rng.integers(0, p ** (s - 1), size=m * m)).astype(np.uint32)
    # two equal rows: singular mod t, with no unit pivot in a later column
    twice = good[0].copy().reshape(m, m)
    twice[2] = twice[1]
    for bad in (in_t, twice.reshape(-1)):
        with pytest.raises(ParameterError, match="not invertible"):
            MatElement.from_flat(p, s, m, bad).inverse()
        with pytest.raises(ParameterError, match="not invertible"):
            pure.inverse_batch(np.stack([good[1], bad, good[2]]), rt.mul,
                               rt.add, rt.neg, m, p)


# the digit path's rings: p in {2, 3, 5, 7} and s in {1, 2, 13, 20} where
# a ring index fits a uint32 row (5^20, 7^13 and 7^20 do not), and s = 11
# for p = 7 in their place
DIGIT_RINGS = [(p, s) for p in (2, 3, 5, 7) for s in (1, 2, 13, 20)
               if p**s <= 1 << 32] + [(7, 11)]


def _digit_matrices(rng, p, s, m, count):
    """Seeded flat matrices over F_p[t]/t^s: a third of the entries have
    every digit p - 1, a third are 0 and the rest are uniform."""
    q = p**s
    kind = rng.integers(0, 3, size=(count, m * m))
    return np.where(kind == 0, q - 1, np.where(kind == 1, 0, rng.integers(
        0, q, size=(count, m * m)))).astype(np.uint32)


@pytest.mark.parametrize("p,s", DIGIT_RINGS)
@pytest.mark.parametrize("m", [2, 3, 4])
def test_matmul_digits_matches_matelement(p, s, m):
    rng = np.random.default_rng(1000 * p + 10 * s + m)
    A, B = (_digit_matrices(rng, p, s, m, 6) for _ in range(2))
    for a, b in ((A, B), (A[:1], B), (A, B[0])):
        got = pure.matmul_digits(a, b, p, s, m)
        assert got.dtype == np.uint32 and got.flags.c_contiguous
        assert np.array_equal(got, _exact_products(a, b, p, s, m))


@pytest.mark.parametrize("p,s", DIGIT_RINGS)
@pytest.mark.parametrize("m", [2, 3, 4])
def test_inverse_digits_matches_matelement_inverse(p, s, m):
    """Newton steps from the inverse mod t, against cofactor inverses.
    s = 1 takes no step, and 13, 20 and 11 are no powers of 2, so the
    last step overshoots the digits that are kept."""
    rng = np.random.default_rng(1000 * p + 10 * s + m)
    mats, dets = [], []
    while len(mats) < 4:
        flat = _digit_matrices(rng, p, s, m, 1)[0]
        det = MatElement.from_flat(p, s, m, flat).det()
        if is_unit(det):
            mats.append(flat)
            dets.append(det)
    if p**s > 2:
        # F_2 has no unit but 1
        assert any(det != one_poly(p, s) for det in dets)
    mats = np.array(mats)
    got = pure.inverse_digits(mats, p, s, m)
    assert got.dtype == np.uint32 and got.flags.c_contiguous
    want = np.array([MatElement.from_flat(p, s, m, a).inverse().flat()
                     for a in mats])
    assert np.array_equal(got, want)
    assert np.array_equal(pure.inverse_digits(mats[1], p, s, m), want[1:2])


@pytest.mark.parametrize("p,s", [(2, 13), (3, 9), (5, 6)])
def test_inverse_digits_rejects_non_invertible(p, s):
    m = 3
    rng = np.random.default_rng(p * s)
    good = np.tile(common.identity_flat(m), (2, 1))
    # every entry of the first column in tF_p[t], and two equal rows
    in_t = _digit_matrices(rng, p, s, m, 1)[0].reshape(m, m)
    in_t[:, 0] = p * rng.integers(0, p ** (s - 1), size=m)
    twice = _digit_matrices(rng, p, s, m, 1)[0].reshape(m, m)
    twice[2] = twice[1]
    for bad in (in_t.reshape(-1), twice.reshape(-1)):
        with pytest.raises(ParameterError, match="not invertible"):
            MatElement.from_flat(p, s, m, bad).inverse()
        with pytest.raises(ParameterError, match="not invertible"):
            pure.inverse_digits(np.stack([good[0], bad, good[1]]), p, s, m)


@pytest.mark.parametrize("p,s", [(2, 3), (3, 2), (5, 2), (2, 6)])
def test_ring_elements_as_1x1_matrices_match_the_oracle(p, s):
    """The package's ring arithmetic is its 1x1 matrix kernels: every
    product on digits and on the tables, and the inverse of every unit
    both ways, against the exact TruncPoly oracle."""
    rt, q = RingTable(p, s), p**s
    polys = [TruncPoly.from_index(p, s, i) for i in range(q)]
    A = np.repeat(np.arange(q), q)[:, None]
    B = np.tile(np.arange(q), q)[:, None]
    want = [oracles.exact_mul(polys[a], polys[b]).index()
            for a, b in zip(A[:, 0].tolist(), B[:, 0].tolist())]
    assert pure.matmul_digits(A, B, p, s, 1)[:, 0].tolist() == want
    assert pure.matmul_batch(A, B, rt.mul, rt.add, 1)[:, 0].tolist() == want
    units = [x for x in polys if is_unit(x)]
    U = np.array([[x.index()] for x in units])
    inv = [oracles.exact_inverse(x).index() for x in units]
    assert pure.inverse_batch(U, rt.mul, rt.add, rt.neg, 1,
                              p)[:, 0].tolist() == inv
    assert pure.inverse_digits(U, p, s, 1)[:, 0].tolist() == inv


def test_digit_kernels_agree_with_the_tables():
    """Where both run, the digit kernels give the table kernels' rows."""
    p, s, m = 3, 4, 3
    rt = RingTable(p, s)
    rng = np.random.default_rng(34)
    A, B = (_digit_matrices(rng, p, s, m, 500) for _ in range(2))
    assert np.array_equal(pure.matmul_digits(A, B, p, s, m),
                          pure.matmul_batch(A, B, rt.mul, rt.add, m))
    units = A[np.flatnonzero([is_unit(MatElement.from_flat(p, 1, m, a % p)
                                      .det()) for a in A])]
    assert len(units) > 100
    assert np.array_equal(
        pure.inverse_digits(units, p, s, m),
        pure.inverse_batch(units, rt.mul, rt.add, rt.neg, m, p))


@pytest.mark.parametrize("p,s", [(7, 13), (2, 33)])
def test_digit_kernels_refuse_rings_past_uint32(p, s):
    one = common.identity_flat(2)
    with pytest.raises(ParameterError, match="overflow"):
        pure.matmul_digits(one, one, p, s, 2)
    with pytest.raises(ParameterError, match="overflow"):
        pure.inverse_digits(one, p, s, 2)


def _diag(p, s, coeffs):
    m, zero = len(coeffs), zero_poly(p, s)
    return MatElement(tuple(tuple(make_poly(p, s, (coeffs[i],)) if i == j else zero
                                  for j in range(m)) for i in range(m)))


def _gens_of(build, *args):
    """(p, s, the generators as MatElements) of a group builder."""
    G = build(*args)
    p, s = G.ring.p, G.ring.s
    return p, s, [MatElement.from_flat(p, s, G.m, row) for row in G.elems[G.generators]]


# (p, s, generators as MatElements)
CLOSURE_CASES = {
    # e_12(1) and e_21(1) have order 5 and neither inverse is a generator
    "sl2-f5-no-inverses": (5, 1, [elementary(1, 1, 2, one_poly(5, 1)),
                                  elementary(1, 2, 1, one_poly(5, 1))]),
    "sl2-f3t2-no-inverses": (3, 2, [elementary(1, 1, 2, one_poly(3, 2)),
                                    elementary(1, 2, 1, one_poly(3, 2)),
                                    elementary(1, 1, 2, t_power(3, 2, 1))]),
    # diag(2, 2, 4) has order 4 and commutes with e_12(1): a cyclic group of 20
    "cyclic-20": (5, 1, [_diag(5, 1, (2, 2, 4)) @ elementary(2, 1, 2, one_poly(5, 1))]),
    # 25**9 > 64 * 2**20: uint64 keys, but a key space too large for the
    # bitset at the test cap, so the sorted visited keys
    "sorted-heisenberg-no-inverses": (5, 2, [elementary(2, 1, 2, one_poly(5, 2)),
                                             elementary(2, 2, 3, one_poly(5, 2))]),
    # q**(m*m) = 625**9 > 2**64: the void key path
    "big-heisenberg": (5, 4, [elementary(2, 1, 2, one_poly(5, 4)),
                              elementary(2, 2, 3, one_poly(5, 4))]),
    "big-cyclic-20": (5, 4, [_diag(5, 4, (2, 2, 4)) @ elementary(2, 1, 2, one_poly(5, 4))]),
    # 3**49 > 2**64 keys, though only 3**7 row keys: void keys, so no row tables
    "big-f3-m7-no-inverses": (3, 1, [elementary(6, 1, 2, one_poly(3, 1)),
                                     elementary(6, 2, 3, one_poly(3, 1))]),
    # generating sets with symmetries, closed by orbits below as well: a
    # whole SL; SL_2(F_5) and SL_3(F_2) over a ring with s > d + 1, whose
    # elements every t -> alpha*t fixes; and congruence kernels, whose
    # h_i(1 + t^k) only some symmetries keep among the generators
    "sl-1-3-2": _gens_of(sl_group, 1, 3, 2),
    "elementary-1-5-3-0": _gens_of(elementary_subgroup, 1, 5, 3, 0),
    "elementary-2-2-3-0": _gens_of(elementary_subgroup, 2, 2, 3, 0),
    "kernel-1-3-2-1": _gens_of(reduction_kernel, 1, 3, 2, 1),
    "kernel-1-3-3-1": _gens_of(reduction_kernel, 1, 3, 3, 1),
    "kernel-1-5-2-1": _gens_of(reduction_kernel, 1, 5, 2, 1),
    "kernel-2-2-2-1": _gens_of(reduction_kernel, 2, 2, 2, 1),
}


# the membership structure each case's closure takes at the caps used
# below, with the dtype of its keys
MEMBERSHIP = {"sl2-f5-no-inverses": "bitset uint32",
              "sl2-f3t2-no-inverses": "bitset uint32", "cyclic-20": "bitset uint32",
              "sorted-heisenberg-no-inverses": "sorted uint64",
              "big-heisenberg": "sorted void", "big-cyclic-20": "sorted void",
              "big-f3-m7-no-inverses": "sorted void",
              # 125**4 and 8**9 keys > 64 * 2**20
              "sl-1-3-2": "bitset uint32", "elementary-1-5-3-0": "sorted uint64",
              "elementary-2-2-3-0": "sorted uint64", "kernel-1-3-2-1": "bitset uint32",
              "kernel-1-3-3-1": "bitset uint32", "kernel-1-5-2-1": "bitset uint32",
              "kernel-2-2-2-1": "bitset uint32"}

# the row maps each case's closure ends on at the default test cap: tables
# once its frontiers have held ceil(q**m / m) elements, if q**m * len(gens)
# <= cap, and products of the frontier's rows otherwise
ROW_MAPS = {"sl2-f5-no-inverses": "tables", "sl2-f3t2-no-inverses": "tables",
            "cyclic-20": "products", "sorted-heisenberg-no-inverses": "products",
            "big-heisenberg": "products", "big-cyclic-20": "products",
            "big-f3-m7-no-inverses": "products", "sl-1-3-2": "tables",
            "elementary-1-5-3-0": "products", "elementary-2-2-3-0": "products",
            "kernel-1-3-2-1": "products", "kernel-1-3-3-1": "tables",
            "kernel-1-5-2-1": "products", "kernel-2-2-2-1": "tables"}

# how a RowMaps maps keys from the first one on: "products" at a cap below
# q**m * len(gens), where it never builds tables, and "tables" built for
# the first keys by a count of 0 keys left before the switch
ROW_SOURCES = ("tables", "products")


def _row_maps(source, flat, rt, m, cls=pure.RowMaps):
    budget = rt.q**m * len(flat)
    if source == "products":
        return cls(flat, rt.mul, rt.add, m, rt.q, budget - 1)
    row_maps = cls(flat, rt.mul, rt.add, m, rt.q, budget)
    row_maps.left = 0
    return row_maps


def _sources(case):
    """The row-map sources a case runs on: both on uint64 keys, only the
    products on void keys, which the row tables do not map."""
    p, s, gens = CLOSURE_CASES[case]
    return [source for source in ROW_SOURCES
            if source == "products" or common.fits_uint64(p**s, gens[0].m**2)]


def _membership(p, s, m, cap):
    visited = pure._visited_set(p**s, m * m, cap)
    kind = "bitset" if isinstance(visited, pure._BitsetKeys) else "sorted"
    return f"{kind} {'void' if visited.dtype.kind == 'V' else visited.dtype}"


def _row_source(flat, p, s, m, cap):
    """The row maps the closure ends on at ``cap``: those of its RowMaps
    after the last layer, or where the cap fires."""
    rt = RingTable(p, s)
    row_maps = pure.RowMaps(flat, rt.mul, rt.add, m, rt.q, cap)
    try:
        pure._closure(row_maps, m, rt.q, cap, pure._visited_set(rt.q, m * m, cap))
    except ResourceLimitError:
        pass
    return "products" if row_maps.tables is None else "tables"


def _closure(flat, p, s, m, cap=1 << 20):
    rt = RingTable(p, s)
    return pure.closure_bfs(flat, rt.mul, rt.add, m, rt.q, cap)


def _symmetries(flat, rt, m):
    """The entry maps that the closure of ``flat`` would expand by."""
    return pure._stabilizer(pure._monomial_candidates(rt.mul, rt.add, m, rt.q),
                            flat, rt.mul, rt.q)


class _Layers(pure.RowMaps):
    """Row maps that record the size of each layer the closure asks
    ``orbits`` about, and expand by ``by`` from the first layer on (None:
    plainly), whatever the rule of ``RowMaps`` would say."""

    def orbits(self, layer):
        self.sizes.append(layer)
        return self.by


def _layers(source, flat, rt, m, by=None):
    row_maps = _row_maps(source, flat, rt, m, _Layers)
    row_maps.sizes, row_maps.by = [], by
    return row_maps


def _closure_by_orbits(source, flat, p, s, m, cap=1 << 20):
    """The closure with its row maps taken from ``source``, expanded by
    the orbits of all the generators' symmetries from the first layer on,
    on a bitset at any cap."""
    rt = _ring_table(p, s)
    orbits = pure._Orbits(_symmetries(flat, rt, m), rt.mul, m, rt.q)
    row_maps = _layers(source, flat, rt, m, orbits)
    out = pure._closure(row_maps, m, rt.q, cap, pure._BitsetKeys(rt.q**(m * m)))
    assert (row_maps.tables is None) == (source == "products")
    return out


def _orbit_sources(case):
    """The row-map sources a case's closure by orbits runs on: none where
    its keys do not fit uint32."""
    p, s, gens = CLOSURE_CASES[case]
    return _sources(case) if (p**s)**(gens[0].m**2) <= 1 << 32 else []


def _closure_on(source, flat, p, s, m, cap=1 << 20):
    """The closure with its row maps taken from ``source`` at any cap."""
    rt = RingTable(p, s)
    row_maps = _row_maps(source, flat, rt, m)
    out = pure._closure(row_maps, m, rt.q, cap, pure._visited_set(rt.q, m * m, cap))
    assert (row_maps.tables is None) == (source == "products")
    return out


@pytest.mark.parametrize("case", list(CLOSURE_CASES))
def test_closure_matches_set_bfs_oracle(case):
    p, s, gens = CLOSURE_CASES[case]
    m = gens[0].m
    assert common.fits_uint64(p**s, m * m) == (not case.startswith("big"))
    assert _membership(p, s, m, 1 << 20) == MEMBERSHIP[case]
    layers = oracles.bfs_closure(gens)
    want = np.concatenate(layers)
    flat = np.array([g.flat() for g in gens], dtype=np.uint32)
    assert _row_source(flat, p, s, m, 1 << 20) == ROW_MAPS[case]
    got = _closure(flat, p, s, m)
    assert got.dtype == np.uint32 and got.flags.c_contiguous
    assert np.array_equal(got, want)
    # generator order and multiplicity do not matter
    shuffled = np.concatenate([flat[::-1], flat[:1], flat, flat[-1:]])
    assert np.array_equal(_closure(shuffled, p, s, m), want)
    # nor which source gives the row maps
    assert ROW_MAPS[case] in _sources(case)
    for source in _sources(case):
        for gens_flat in (flat, shuffled):
            assert np.array_equal(_closure_on(source, gens_flat, p, s, m), want)
    # nor whether it expands one key per orbit of the symmetries
    for source in _orbit_sources(case):
        for gens_flat in (flat, shuffled):
            got = _closure_by_orbits(source, gens_flat, p, s, m)
            assert got.tobytes() == want.tobytes()
    if case.endswith("no-inverses"):
        # some x @ g lands two or more layers before x, so a closure that
        # filtered new keys only against the neighbouring layers would
        # list an old element again
        depth = {tuple(row): k for k, layer in enumerate(layers)
                 for row in layer.tolist()}

        def depth_of(row, g):
            return depth[tuple((MatElement.from_flat(p, s, m, row) @ g).flat().tolist())]

        assert any(depth_of(row, g) <= k - 2
                   for k, layer in enumerate(layers) for row in layer for g in gens)


# one case per membership structure, plus void keys of 49 one-byte
# digits and the cases with symmetries, with the membership structure and
# the row maps the closure ends on at the cap of each case's test: a cap
# of a few hundred elements takes the sorted keys
CAP_PATHS = {"sl2-f3t2-no-inverses": ("bitset uint32", "tables"),
             "sorted-heisenberg-no-inverses": ("sorted uint64", "products"),
             "big-heisenberg": ("sorted void", "products"),
             "big-f3-m7-no-inverses": ("sorted void", "products"),
             "sl-1-3-2": ("bitset uint32", "products"),
             "elementary-1-5-3-0": ("sorted uint64", "products"),
             "elementary-2-2-3-0": ("sorted uint64", "products"),
             "kernel-1-3-2-1": ("sorted uint64", "products"),
             "kernel-1-3-3-1": ("sorted uint64", "products"),
             "kernel-1-5-2-1": ("sorted uint64", "products"),
             "kernel-2-2-2-1": ("sorted uint64", "products")}


@pytest.mark.parametrize("case", list(CAP_PATHS))
def test_closure_cap_fires_inside_a_layer(case):
    p, s, gens = CLOSURE_CASES[case]
    m = gens[0].m
    sizes = [len(layer) for layer in oracles.bfs_closure(gens)]
    order = sum(sizes)
    flat = np.array([g.flat() for g in gens], dtype=np.uint32)
    k = int(np.argmax(sizes))
    cap = sum(sizes[:k]) + sizes[k] // 2
    assert (_membership(p, s, m, cap), _row_source(flat, p, s, m, cap)) == CAP_PATHS[case]
    # the closure's own choice of row maps at this cap, then each source,
    # expanded whole and by orbits
    for run in [_closure, *(functools.partial(_closure_on, source)
                            for source in _sources(case)),
                *(functools.partial(_closure_by_orbits, source)
                  for source in _orbit_sources(case))]:
        with pytest.raises(ResourceLimitError,
                           match=f"closure exceeded cap {cap}") as ei:
            run(flat, p, s, m, cap=cap)
        # partial_count counts the distinct elements found, past the cap
        # and inside the crossing layer: a lower bound on the order
        assert cap < ei.value.partial_count <= sum(sizes[:k + 1]) <= order
        assert len(run(flat, p, s, m, cap=order)) == order
        with pytest.raises(ResourceLimitError):
            run(flat, p, s, m, cap=order - 1)


def _act(orbits, keys, m, q):
    """(keys, |A|): the keys of each symmetry's image of each key, read
    from the tables of ``orbits``."""
    rho = pure._row_keys(keys, m, q**m)
    return sum(table[r] for table, r in zip(orbits.tables, rho))


# the number of symmetries each generating set keeps, from the
# m! (p-1)^(m-1) |alpha| candidates
SYMMETRY_COUNTS = {"sl2-f5-no-inverses": 2, "sl-1-3-2": 8, "elementary-1-5-3-0": 32,
                   "elementary-2-2-3-0": 6, "kernel-1-3-2-1": 4, "kernel-1-3-3-1": 2,
                   "kernel-1-5-2-1": 8, "kernel-2-2-2-1": 2}


@pytest.mark.parametrize("case", list(SYMMETRY_COUNTS))
def test_symmetry_filter_matches_exact_conjugation(case):
    """The kept entry maps act on the keys of the elementaries e_ij(t^k),
    which tell every candidate apart, as the oracle's maps X -> M sigma(X)
    M^-1 that send every generator to a generator act by exact products
    and inverses.  The candidates are as many distinct maps as the oracle
    has, and the kept ones are closed under composition, a group."""
    p, s, gens = CLOSURE_CASES[case]
    m = gens[0].m
    rt = _ring_table(p, s)
    probes = [elementary(m - 1, i, j, t_power(p, s, k))
              for i in range(1, m + 1) for j in range(1, m + 1) if i != j
              for k in range(s)]
    kept, candidates = oracles.monomial_symmetry_actions(gens, probes)
    flat = np.array([g.flat() for g in gens], dtype=np.uint32)
    maps = _symmetries(flat, rt, m)
    assert len(list(pure._monomial_candidates(rt.mul, rt.add, m, rt.q))) == len(candidates)
    orbits = pure._Orbits(maps, rt.mul, m, rt.q)
    keys = common.pack_keys(np.array([x.flat() for x in probes]), rt.q).astype(np.uint32)
    images = _act(orbits, keys, m, rt.q)
    got = {tuple(map(tuple, common.unpack_keys(images[:, a], rt.q, m * m).tolist()))
           for a in range(len(maps))}
    assert len(got) == len(maps) == SYMMETRY_COUNTS[case] <= len(candidates)
    assert got == kept
    actions = {tuple(images[:, a].tolist()) for a in range(len(maps))}
    twice = _act(orbits, images.reshape(-1), m, rt.q).reshape(len(keys), len(maps), -1)
    assert all(tuple(twice[:, a, b].tolist()) in actions
               for a in range(len(maps)) for b in range(len(maps)))


@pytest.mark.parametrize("case", ["kernel-1-3-2-1", "kernel-1-3-3-1", "kernel-1-5-2-1"])
def test_symmetry_filter_keeps_the_kernels_diagonal_generators(case):
    """Over odd p every kept map fixes each h(1 + t^k) of a congruence
    kernel, so every candidate that moves one is dropped: each
    permutation and each t-scaling other than the identity, taken alone,
    among them.  (Over F_2, pi = (1 3) swaps h_1(1 + t) and h_2(1 + t) of
    reduction_kernel(2, 2, 2, 1) and is kept.)"""
    p, s, gens = CLOSURE_CASES[case]
    m = gens[0].m
    rt = _ring_table(p, s)
    flat = np.array([g.flat() for g in gens], dtype=np.uint32)
    off = ~np.eye(m, dtype=bool).reshape(-1)
    diagonal = flat[(flat[:, off] == 0).all(axis=1)]
    assert len(diagonal) == s - 1
    keys = common.pack_keys(diagonal, rt.q).astype(np.uint32)
    maps = _symmetries(flat, rt, m)
    images = _act(pure._Orbits(maps, rt.mul, m, rt.q), keys, m, rt.q)
    assert (images == keys[:, None]).all()
    # the transposition of the two rows, and the p - 2 scalings t -> alpha*t
    # with alpha != 1
    alone = [(pos, sigma) for pos, const, sigma
             in pure._monomial_candidates(rt.mul, rt.add, m, rt.q)
             if (const == 1).all() and ((pos == np.arange(m * m)).all()
                                        != (sigma == np.arange(rt.q)).all())]
    assert m == 2 and len(alone) == 1 + (p - 2)
    assert not any((pos == kept[0]).all() and (sigma == kept[2]).all()
                   for pos, sigma in alone for kept in maps)


def test_symmetry_filter_rejects_a_map_that_moves_a_generator_out():
    """A planted entry map that fixes 0 and 1 but swaps t and 1 + t keeps
    some of sl_group(1, 5, 2)'s generators and sends e_12(t) out of them:
    the filter drops it and keeps the 32 candidates."""
    G = sl_group(1, 5, 2)
    rt, m, q = G.ring, G.m, G.ring.q
    gens = G.elems[G.generators]
    candidates = list(pure._monomial_candidates(rt.mul, rt.add, m, q))
    sigma = np.arange(q, dtype=np.uint32)
    sigma[[5, 6]] = 6, 5
    planted = (np.arange(m * m), np.ones(m * m, dtype=np.uint32), sigma)
    image = rt.mul[planted[1], sigma[gens]]
    inside = set(common.pack_keys(gens, q).tolist())
    moved = [key not in inside for key in common.pack_keys(image, q).tolist()]
    e12_t = elementary(1, 1, 2, t_power(5, 2, 1)).flat()
    assert any(moved) and not all(moved)
    assert moved[[row.tolist() for row in gens].index(e12_t.tolist())]
    kept = pure._stabilizer(candidates + [planted], gens, rt.mul, q)
    assert len(kept) == len(candidates) == 32
    assert all(k[2] is not sigma for k in kept)


# the closures the benchmark workloads run, with the number of symmetries
# whose orbits each expands by, or None for the plain path: sl-enum's, and
# the KO complex's and the suite's, of at most 43008 elements
BENCHMARK_CLOSURES = [(sl_group, (1, 5, 3), 32), (sl_group, (2, 2, 2), None),
                      (sl_group, (1, 3, 2), None), (reduction_kernel, (1, 3, 2, 1), None)]


@pytest.mark.parametrize("build,args,count", BENCHMARK_CLOSURES,
                         ids=["-".join([b.__name__, *map(str, a)])
                              for b, a, _ in BENCHMARK_CLOSURES])
def test_benchmark_closures_take_the_pinned_path(monkeypatch, build, args, count):
    made = []
    init = pure._Orbits.__init__
    monkeypatch.setattr(pure._Orbits, "__init__",
                        lambda self, maps, *rest: made.append(len(maps)) or
                        init(self, maps, *rest))
    build(*args)
    assert made == ([] if count is None else [count])


# the closures of the crossover measurements in ``RowMaps.orbits``, the
# first two on the orbit path in production, and a subgroup with d < s - 1
ORBIT_CLOSURES = [(sl_group, (1, 5, 3)), (sl_group, (1, 7, 2)),
                  (sl_group, (1, 5, 2)), (sl_group, (1, 3, 3)), (sl_group, (2, 2, 2)),
                  (sl_group, (2, 3, 1)), (sl_group, (3, 2, 1)),
                  (elementary_subgroup, (1, 3, 4, 1))]


@pytest.mark.parametrize("build,args", ORBIT_CLOSURES,
                         ids=["-".join([b.__name__, *map(str, a)]) for b, a in ORBIT_CLOSURES])
def test_closure_by_orbits_matches_the_plain_closure(build, args):
    """The group's elements, as the builder's own rule closes them, and
    the closure by orbits from the first layer on, are byte-identical to
    the plain closure on row tables; a cap inside the largest layer fires
    inside it on the orbit path too, and with the builder's rule."""
    G = build(*args)
    rt, m, q = G.ring, G.m, G.ring.q
    gens = G.elems[G.generators]
    plain = _layers("tables", gens, rt, m)
    want = pure._closure(plain, m, q, G.size, pure._BitsetKeys(q**(m * m)))
    assert want.tobytes() == G.elems.tobytes()
    sizes = plain.sizes
    assert sum(sizes) == G.size
    p, s = rt.p, rt.s
    by_orbits = _closure_by_orbits("tables", gens, p, s, m, cap=G.size)
    assert by_orbits.tobytes() == want.tobytes()
    k = int(np.argmax(sizes))
    cap = sum(sizes[:k]) + sizes[k] // 2
    for run in (functools.partial(_closure_by_orbits, "tables"), _closure):
        with pytest.raises(ResourceLimitError) as ei:
            run(gens, p, s, m, cap=cap)
        assert cap < ei.value.partial_count <= sum(sizes[:k + 1])


@pytest.mark.parametrize("p,s,m", [(5, 2, 2), (3, 1, 3), (2, 2, 3)])
def test_row_tables_match_matmul_rows(p, s, m):
    """R_g[rho] is the row key of (row rho) @ g for every one of the q**m
    row vectors, in every row position, for a generator that is neither
    elementary nor diagonal."""
    rt = RingTable(p, s)
    q, Q = rt.q, rt.q**m
    g = (_diag(p, s, (p - 1, p - 1) + (1,) * (m - 2))
         @ elementary(m - 1, 1, 2, TruncPoly.from_index(p, s, q - 1))
         @ elementary(m - 1, m, 1, one_poly(p, s))).flat()
    ident = common.identity_flat(m)
    assert ((g != ident) & (g != 0)).sum() >= 2
    table = pure.RowMaps(g[None, :], rt.mul, rt.add, m, q, Q)._tabulate()[0]
    assert table.shape == (Q,) and table.dtype == np.uint32
    vectors = common.unpack_keys(np.arange(Q, dtype=np.uint64), q, m)
    for a in range(m):
        mats = np.zeros((Q, m, m), dtype=np.uint32)
        mats[:, a] = vectors
        prods = pure.matmul_batch(mats.reshape(Q, m * m), g, rt.mul, rt.add, m)
        rows = prods.reshape(Q, m, m)[:, a]
        assert np.array_equal(common.pack_keys(rows, q), table)
    # x -> x g is a bijection of the row vectors
    assert len(np.unique(table)) == Q


def _tabulations(monkeypatch):
    """The number of generators of each row-table build from now on."""
    built, real = [], pure.RowMaps._tabulate
    monkeypatch.setattr(pure.RowMaps, "_tabulate",
                        lambda self: built.append(len(self.gens)) or real(self))
    return built


def test_row_maps_switch_to_tables_at_q_over_m_elements(monkeypatch):
    """RowMaps maps keys by products until its batches have held ceil(Q/m)
    keys, builds the tables once, for the batch that gets there, and maps
    keys as the products do on both sides; at a cap of Q * len(gens) - 1,
    or on void keys, it never builds them."""
    G = sl_group(1, 5, 2)
    rt, m, q = G.ring, G.m, G.ring.q
    assert -(-q**m // m) == 313
    gens = G.elems[G.generators]
    keys = common.pack_keys(G.elems, q)
    products = _row_maps("products", gens, rt, m)
    built = _tabulations(monkeypatch)
    row_maps = pure.RowMaps(gens, rt.mul, rt.add, m, q, G.size)
    for lo, hi, tables in [(0, 200, []), (200, 312, []), (312, 313, [len(gens)]),
                           (313, 2000, [len(gens)])]:
        got = list(row_maps.images(keys[lo:hi]))
        assert built == tables and (row_maps.tables is None) == (not tables)
        want = list(products.images(keys[lo:hi]))
        assert len(got) == len(want) == len(gens)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
    assert products.tables is None and built == [len(gens)]
    row_maps = pure.RowMaps(gens, rt.mul, rt.add, m, q, q**m * len(gens) - 1)
    list(row_maps.images(keys))
    assert row_maps.tables is None and built == [len(gens)]
    # nor on void keys, which the tables do not map: 3**49 > 2**64 though
    # 3**7 * 2 <= cap, over ceil(3**7 / 7) = 313 keys and more
    gens = np.array([g.flat() for g in CLOSURE_CASES["big-f3-m7-no-inverses"][2]])
    rt = RingTable(3, 1)
    keys = np.tile(common.pack_keys(_closure(gens, 3, 1, 7), 3), 20)
    assert keys.dtype.kind == "V" and len(keys) > 313
    row_maps = pure.RowMaps(gens, rt.mul, rt.add, 7, 3, 1 << 20)
    assert len(list(row_maps.images(keys))) == len(gens)
    assert row_maps.tables is None and built == [len(G.generators)]


def test_closure_membership_structures_agree():
    """The bitset and the sorted visited keys, on row tables and on the
    frontier's products, give byte-identical closures."""
    G = sl_group(1, 5, 2)
    assert G.size == 15000
    rt, m = G.ring, G.m
    gens = G.elems[G.generators]
    assert _membership(5, 2, m, G.size) == "bitset uint32"
    assert _row_source(gens, 5, 2, m, G.size) == "tables"
    out = [pure._closure(_row_maps(source, gens, rt, m), m, rt.q, G.size, visited)
           for source in ROW_SOURCES
           for visited in (pure._BitsetKeys(rt.q**(m * m)),
                           pure._SortedKeys(np.uint64))]
    assert all(o.tobytes() == G.elems.tobytes() for o in out)


# the pinned closures small enough for blocks of 7 keys: subgroup_K is a
# closed form, and sl_group(1, 5, 3) would take 2.7e5 blocks
BLOCKED_GOLDEN_ORDER = [row for row in GOLDEN_ORDER
                        if row[0] is not subgroup_K and row[1] != (1, 5, 3)]


@pytest.mark.parametrize("build,args,digest", BLOCKED_GOLDEN_ORDER,
                         ids=["-".join([b.__name__, *map(str, a)])
                              for b, a, _ in BLOCKED_GOLDEN_ORDER])
def test_frontier_blocks_of_7_keep_the_pinned_order(monkeypatch, build, args, digest):
    monkeypatch.setattr(pure, "BLOCK", 7)
    elems = build(*args).elems
    assert len(elems) > 7 * 7
    assert hashlib.sha256(elems.tobytes()).hexdigest() == digest


@pytest.mark.parametrize("case", ["sl2-f5-no-inverses", "sl2-f3t2-no-inverses"])
def test_frontier_blocks_of_7_match_the_oracle(monkeypatch, case):
    """Layers that span many blocks give the oracle's closure on either
    row-map source, and the cap, checked after each (block, generator)
    pair, fires at most 7 elements past itself."""
    p, s, gens = CLOSURE_CASES[case]
    m = gens[0].m
    layers = oracles.bfs_closure(gens)
    sizes = [len(layer) for layer in layers]
    assert max(sizes) > 3 * 7
    want = np.concatenate(layers)
    flat = np.array([g.flat() for g in gens], dtype=np.uint32)
    monkeypatch.setattr(pure, "BLOCK", 7)
    for source in _sources(case):
        assert _closure_on(source, flat, p, s, m).tobytes() == want.tobytes()
    assert _closure(flat, p, s, m).tobytes() == want.tobytes()
    k = int(np.argmax(sizes))
    cap = sum(sizes[:k]) + sizes[k] // 2
    assert _membership(p, s, m, cap) == "bitset uint32"
    with pytest.raises(ResourceLimitError) as ei:
        _closure(flat, p, s, m, cap=cap)
    assert cap < ei.value.partial_count <= cap + 7


def test_bitset_path_keys_are_uint32():
    """The bitset tests and marks uint32 keys only, on both row-map
    sources, including sl_group(1, 5, 3)'s key space."""
    seen = []

    class Spy(pure._BitsetKeys):
        def has(self, keys):
            seen.append(keys.dtype)
            return super().has(keys)

        def add(self, keys):
            seen.append(keys.dtype)
            super().add(keys)

    G = sl_group(1, 3, 2)
    rt, m = G.ring, G.m
    gens = G.elems[G.generators]
    for source in ROW_SOURCES:
        out = pure._closure(_row_maps(source, gens, rt, m), m, rt.q, G.size,
                            Spy(rt.q**(m * m)))
        assert out.tobytes() == G.elems.tobytes()
    assert len(seen) > 2 and set(seen) == {np.dtype(np.uint32)}
    assert _membership(5, 3, 2, 1 << 24) == "bitset uint32"


def test_bitset_stops_at_2_32_keys(monkeypatch):
    """A key space of 2**32 keys still takes the bitset, one of 257**4 >
    2**32 the sorted uint64 keys, though 64*cap allowed a bitset of both;
    the stand-in for _BitsetKeys allocates nothing."""
    sizes = []
    monkeypatch.setattr(pure, "_BitsetKeys", lambda size: sizes.append(size) or "bitset")
    cap = 1 << 27
    assert 257**4 <= 64 * cap
    assert pure._visited_set(256, 4, cap) == "bitset" and sizes == [1 << 32]
    visited = pure._visited_set(257, 4, cap)
    assert isinstance(visited, pure._SortedKeys) and visited.dtype == np.uint64
    assert sizes == [1 << 32]


def test_bitset_add_matches_ufunc_at():
    """Marking in buffered rounds sets the bits np.bitwise_or.at sets: on
    bytes whose 8 bits all arrive in one call, on repeated keys, and next
    to bits set before."""
    rng = np.random.default_rng(7)
    size = 4099
    full = np.arange(8 * 40, 8 * 50, dtype=np.uint32)
    keys = np.concatenate([full, rng.integers(0, size, 300).astype(np.uint32)])
    keys = np.concatenate([keys, keys[rng.integers(0, len(keys), 150)]])
    rng.shuffle(keys)
    visited = pure._BitsetKeys(size)
    visited.bits[3] = 0b1010_0101
    want = visited.bits.copy()
    np.bitwise_or.at(want, keys >> 3,
                     np.left_shift(np.uint8(1), keys.astype(np.uint8) & 7))
    visited.add(keys)
    assert np.array_equal(visited.bits, want)
    assert np.array_equal(visited.bits[40:50], np.full(10, 255, dtype=np.uint8))
    every = np.arange(size, dtype=np.uint32)
    assert np.array_equal(every[visited.has(every)],
                          np.union1d(keys, [24, 26, 29, 31]))


def test_closure_matches_group_order():
    G = sl_group(1, 3, 2)
    assert G.size == 216 * 3  # |SL_2(F_3)| * 3^((2-1)*3)


def test_identity_flat():
    np.testing.assert_array_equal(common.identity_flat(3),
                                  [1, 0, 0, 0, 1, 0, 0, 0, 1])


# (q, w, key dtype): uint64 keys up to q**w = 2**64, void keys of 1, 2
# or 4-byte digits past it
KEY_WIDTHS = [(8, 9, "uint64"), (125, 4, "uint64"), (16, 16, "uint64"),
              (2, 64, "uint64"), (3, 40, "uint64"), (625, 9, "V18"),
              (3, 41, "V41"), (256, 9, "V9"), (70000, 4, "V16")]


def _key_rows(q, w, seed=11):
    """Seeded rows in [0, q): the least and the greatest, rows that differ
    from another in one digit only, and repeats."""
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, q, size=(60, w)).astype(np.uint32)
    rows[0], rows[1] = 0, q - 1
    rows[20:40] = rows[:20]
    at = np.arange(20, 40), rng.integers(0, w, size=20)
    rows[at] = (rows[at] + rng.integers(1, q, size=20)) % q
    rows[40:50] = rows[rng.integers(0, 40, size=10)]
    return rows


@pytest.mark.parametrize("q,w,dtype", KEY_WIDTHS)
def test_key_codec_order_roundtrip_and_equality(q, w, dtype):
    rows = _key_rows(q, w)
    keys = common.pack_keys(rows, q)
    assert keys.dtype == common.key_dtype(q, w) == np.dtype(dtype)
    assert common.fits_uint64(q, w) == (dtype == "uint64")
    # the keys sort as the values they stand for: digit w-1 most significant
    assert np.array_equal(np.argsort(keys, kind="stable"),
                          np.lexsort(rows.T))
    assert np.array_equal(common.unpack_keys(keys, q, w), rows)
    same_key = keys[:, None] == keys[None, :]
    same_row = (rows[:, None, :] == rows[None, :, :]).all(axis=2)
    assert np.array_equal(same_key, same_row)
    # uint64 keys are the values themselves; key_ints reads either form
    want = [oracles.horner_key(r, q) for r in rows]
    assert want[1] == q**w - 1
    assert common.key_ints(keys, q, w) == want
    if dtype == "uint64":
        assert keys.tolist() == want
    # lex_keys reverse the digits: key order is the rows' lex order
    lex = common.lex_keys(rows, q)
    assert np.array_equal(np.argsort(lex, kind="stable"),
                          np.lexsort(rows[:, ::-1].T))
    # from other integer dtypes and layouts, as faces (int64) and gathered
    # cochains (column-major) come
    for other in (rows.astype(np.int64), np.asfortranarray(rows, np.int32)):
        assert np.array_equal(common.lex_keys(other, q), lex)
    # a key is found iff its row is among the indexed ones, and at one
    # of their positions
    pos = common.KeyIndex(keys[2:]).lookup(keys)
    assert np.array_equal(pos >= 0, same_row[:, 2:].any(axis=1))
    assert np.array_equal(rows[2:][pos[pos >= 0]], rows[pos >= 0])


@pytest.mark.parametrize("q,w,dtype", [(8, 9, "uint64"), (2, 64, "uint64"),
                                       (625, 9, "V18")])
def test_key_index_on_sorted_keys_matches_shuffled(q, w, dtype):
    """An index over keys that arrive sorted, repeats included, finds what
    one over the same keys shuffled finds, and misses the same absent
    keys; uint64 keys that ascend keep no order, void ones keep theirs."""
    keys = np.sort(common.pack_keys(_key_rows(q, w), q))
    assert keys.dtype == np.dtype(dtype) and len(np.unique(keys)) < len(keys)
    indexed = keys[::2]
    shuffled = indexed[np.random.default_rng(3).permutation(len(indexed))]
    by_sorted, by_shuffled = common.KeyIndex(indexed), common.KeyIndex(shuffled)
    assert (by_sorted._order is None) == (dtype == "uint64")
    assert by_shuffled._order is not None
    pos, spos = by_sorted.lookup(keys), by_shuffled.lookup(keys)
    present = set(indexed.tolist())
    found = np.array([k in present for k in keys.tolist()])
    assert not found.all() and found.any()
    assert np.array_equal(pos >= 0, found) and np.array_equal(spos >= 0, found)
    assert np.array_equal(indexed[pos[found]], keys[found])
    assert np.array_equal(shuffled[spos[found]], keys[found])
    # the first of repeated keys, as a stable argsort finds it
    assert np.array_equal(pos[found], np.searchsorted(indexed, keys[found]))


def test_fits_uint64_boundary():
    assert common.fits_uint64(8, 9)       # 8^9 = 2^27
    assert common.fits_uint64(2, 64)      # 2^64 exactly
    assert not common.fits_uint64(2, 65)
    assert not common.fits_uint64(625, 9)  # 625^9 >> 2^64


# ---------------------------------------------------------------------------
# stable_order: one sort of packed (key, position) values


def _count_stable_argsorts(monkeypatch):
    """Count the stable argsorts that numpy runs from here on."""
    calls = []
    argsort = np.argsort

    def spy(a, *args, **kwargs):
        calls.append(kwargs.get("kind"))
        return argsort(a, *args, **kwargs)

    monkeypatch.setattr(np, "argsort", spy)
    return calls


def _order_cases():
    rng = np.random.default_rng(5)
    n = 1000
    b = (n - 1).bit_length()
    wide = rng.integers(0, 1 << 20, n, dtype=np.int64)
    return {
        "ties": rng.integers(0, 5, n),
        "ascending": np.sort(rng.integers(0, 5, n)),
        # positions are packed 2**16 at a time
        "ties-over-blocks": rng.integers(0, 50, (3 << 16) + 1),
        "all-equal": np.full(257, 9),
        "empty": np.empty(0, dtype=np.int64),
        "single": np.array([42]),
        # key << b must stay below 2**64: 2**(64 - b) - 1 is the widest
        # key that packs, and 2**(64 - b) the first that does not
        "widest-packing": np.append(wide, (1 << (64 - b)) - 1)[1:],
        "too-wide": np.append(wide, 1 << (64 - b))[1:],
    }


@pytest.mark.parametrize("dtype", [np.int64, np.uint64])
@pytest.mark.parametrize("case", sorted(_order_cases()))
def test_stable_order_is_the_stable_argsort(monkeypatch, case, dtype):
    keys = _order_cases()[case].astype(dtype)
    want = np.argsort(keys, kind="stable")
    calls = _count_stable_argsorts(monkeypatch)
    got = common.stable_order(keys)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    # only the keys too wide to pack fall back to numpy's stable argsort;
    # keys that ascend, as short and all-equal ones do, need no sort
    assert calls == (["stable"] if case == "too-wide" else [])


def test_stable_order_falls_back_on_void_and_negative_keys(monkeypatch):
    void = common.pack_keys(_key_rows(625, 9), 625)
    negative = np.array([3, -1, 3, 0, -1, 7], dtype=np.int64)
    for keys in (void, negative):
        want = np.argsort(keys, kind="stable")
        calls = _count_stable_argsorts(monkeypatch)
        assert np.array_equal(common.stable_order(keys), want)
        assert calls == ["stable"]


# ---------------------------------------------------------------------------
# KeyIndex: direct-address table and binary search


def _first_positions(indexed, keys):
    first = {}
    for i, k in enumerate(indexed.tolist()):
        first.setdefault(k, i)
    return np.array([first.get(k, -1) for k in keys.tolist()])


def test_key_index_table_and_search_agree():
    """The same keys, indexed as they are (table) and shifted past 8 per
    key (binary search), give the same positions: the first one of a
    repeated key, and -1 for absent keys below, inside and above the
    span."""
    rng = np.random.default_rng(8)
    indexed = rng.integers(5, 400, size=100).astype(np.uint64)
    indexed[10:20] = indexed[:10]                      # repeats
    assert len(np.unique(indexed)) < len(indexed)
    probes = np.concatenate([np.arange(420, dtype=np.uint64),
                             np.array([2**40, 2**64 - 1], dtype=np.uint64)])
    table = common.KeyIndex(indexed)
    assert table._table is not None and table._order is None
    shift = np.uint64(1 << 20)
    search = common.KeyIndex(indexed + shift)
    assert search._table is None and search._order is not None
    pos = table.lookup(probes)
    assert pos.dtype == np.int64
    assert np.array_equal(pos, _first_positions(indexed, probes))
    inside = probes < 2**40
    assert np.array_equal(search.lookup(probes[inside] + shift), pos[inside])
    assert (pos[:5] == -1).all() and (pos[400:] == -1).all()
    assert (pos[5:400] == -1).any()


@pytest.mark.parametrize("span,path", [(8 * 50, "table"),
                                       (8 * 50 + 1, "search")])
def test_key_index_switches_at_8_keys_per_entry(span, path):
    """Fifty keys with largest key span - 1: a table up to a span of 8
    per key, a binary search past it, the same positions either way."""
    keys = np.random.default_rng(2).permutation(span)[:50].astype(np.uint64)
    keys[0] = span - 1
    index = common.KeyIndex(keys)
    assert (index._table is not None) == (path == "table")
    probes = np.arange(span + 3, dtype=np.uint64)
    assert np.array_equal(index.lookup(probes),
                          _first_positions(keys, probes))


def test_void_keys_never_take_the_table():
    keys = common.pack_keys(_key_rows(256, 9), 256)
    assert keys.dtype.kind == "V"
    index = common.KeyIndex(keys)
    assert index._table is None
    assert np.array_equal(index.lookup(keys), _first_positions(keys, keys))


def test_sl_group_index_is_a_table():
    G = sl_group(2, 2, 2)
    assert G.size == 43008 and G._index._table is not None
    assert np.array_equal(G.lookup_rows(G.elems), np.arange(G.size))
