"""The numpy kernel against exact coefficient arithmetic and a set-based
closure oracle, plus the shared key helpers.
"""

import numpy as np
import pytest

import oracles
from cosetx import _kernels
from cosetx._kernels import common, pure
from cosetx.errors import ParameterError, ResourceLimitError
from cosetx.groups import MatElement, elementary, sl_group
from cosetx.ring import RingTable, TruncPoly


def test_matmul_matches_matelement():
    rt = RingTable(3, 2)
    x = elementary(1, 1, 2, TruncPoly.make(3, 2, (2, 1)))
    y = elementary(1, 2, 1, TruncPoly.make(3, 2, (1, 2)))
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
        if MatElement.from_flat(p, s, m, flat).det().is_unit():
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


def _diag(p, s, coeffs):
    m, zero = len(coeffs), TruncPoly.zero(p, s)
    return MatElement(tuple(tuple(TruncPoly.make(p, s, (coeffs[i],)) if i == j else zero
                                  for j in range(m)) for i in range(m)))


def _one(p, s):
    return TruncPoly.one(p, s)


# (p, s, generators as MatElements)
CLOSURE_CASES = {
    # e_12(1) and e_21(1) have order 5 and neither inverse is a generator
    "sl2-f5-no-inverses": (5, 1, [elementary(1, 1, 2, _one(5, 1)),
                                  elementary(1, 2, 1, _one(5, 1))]),
    "sl2-f3t2-no-inverses": (3, 2, [elementary(1, 1, 2, _one(3, 2)),
                                    elementary(1, 2, 1, _one(3, 2)),
                                    elementary(1, 1, 2, TruncPoly.t_power(3, 2, 1))]),
    # 25**9 > 64 * 2**20: uint64 keys, but a key space too large for the
    # bitset at the test cap, so the sorted visited keys
    "sorted-heisenberg-no-inverses": (5, 2, [elementary(2, 1, 2, _one(5, 2)),
                                             elementary(2, 2, 3, _one(5, 2))]),
    # q**(m*m) = 625**9 > 2**64: the arbitrary-precision key path
    "big-heisenberg": (5, 4, [elementary(2, 1, 2, _one(5, 4)),
                              elementary(2, 2, 3, _one(5, 4))]),
    # diag(2, 2, 4) has order 4 and commutes with e_12(1): a cyclic group of 20
    "big-cyclic-20": (5, 4, [_diag(5, 4, (2, 2, 4)) @ elementary(2, 1, 2, _one(5, 4))]),
}


# the membership structure each case's closure takes at the caps used below
MEMBERSHIP = {"sl2-f5-no-inverses": "bitset", "sl2-f3t2-no-inverses": "bitset",
              "sorted-heisenberg-no-inverses": "sorted uint64",
              "big-heisenberg": "sorted object", "big-cyclic-20": "sorted object"}


def _membership(p, s, m, cap):
    visited = pure._visited_set(p**s, m * m, cap)
    if isinstance(visited, pure._BitsetKeys):
        return "bitset"
    return f"sorted {visited.keys.dtype}"


def _closure(flat, p, s, m, cap=1 << 20):
    rt = RingTable(p, s)
    return pure.closure_bfs(flat, rt.mul, rt.add, m, rt.q, cap)


@pytest.mark.parametrize("case", list(CLOSURE_CASES))
def test_closure_matches_set_bfs_oracle(case):
    p, s, gens = CLOSURE_CASES[case]
    m = gens[0].m
    assert common.fits_uint64(p**s, m * m) == (not case.startswith("big"))
    assert _membership(p, s, m, 1 << 20) == MEMBERSHIP[case]
    layers = oracles.bfs_closure(gens)
    want = np.concatenate(layers)
    flat = np.array([g.flat() for g in gens], dtype=np.uint32)
    got = _closure(flat, p, s, m)
    assert got.dtype == np.uint32
    assert np.array_equal(got, want)
    # generator order and multiplicity do not matter
    shuffled = np.concatenate([flat[::-1], flat[:1], flat, flat[-1:]])
    assert np.array_equal(_closure(shuffled, p, s, m), want)
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


# one case per membership structure
@pytest.mark.parametrize("case", ["sl2-f3t2-no-inverses", "sorted-heisenberg-no-inverses",
                                  "big-heisenberg"])
def test_closure_cap_fires_inside_a_layer(case):
    p, s, gens = CLOSURE_CASES[case]
    m = gens[0].m
    sizes = [len(layer) for layer in oracles.bfs_closure(gens)]
    order = sum(sizes)
    flat = np.array([g.flat() for g in gens], dtype=np.uint32)
    k = int(np.argmax(sizes))
    cap = sum(sizes[:k]) + sizes[k] // 2
    assert _membership(p, s, m, cap) == MEMBERSHIP[case]
    with pytest.raises(ResourceLimitError, match=f"closure exceeded cap {cap}") as ei:
        _closure(flat, p, s, m, cap=cap)
    # partial_count counts the distinct elements found, past the cap and
    # inside the crossing layer: a lower bound on the order
    assert cap < ei.value.partial_count <= sum(sizes[:k + 1]) <= order
    assert len(_closure(flat, p, s, m, cap=order)) == order
    with pytest.raises(ResourceLimitError):
        _closure(flat, p, s, m, cap=order - 1)


def test_closure_membership_structures_agree():
    """The bitset and the sorted visited keys give byte-identical closures."""
    G = sl_group(1, 5, 2)
    assert G.size == 15000
    rt, m = G.ring, G.m
    gens = G.elems[G.generators]
    assert _membership(5, 2, m, G.size) == "bitset"
    out = [pure._closure(gens, rt.mul, rt.add, m, rt.q, G.size, visited)
           for visited in (pure._BitsetKeys(rt.q**(m * m)),
                           pure._SortedKeys(np.uint64))]
    assert out[0].tobytes() == out[1].tobytes() == G.elems.tobytes()


def test_closure_matches_group_order():
    G = sl_group(1, 3, 2)
    assert G.size == 216 * 3  # |SL_2(F_3)| * 3^((2-1)*3)


def test_identity_flat():
    np.testing.assert_array_equal(common.identity_flat(3),
                                  [1, 0, 0, 0, 1, 0, 0, 0, 1])


def test_key_packing_roundtrip():
    rng = np.random.default_rng(11)
    # uint64 keys up to q**mm = 2**64, Python-int keys past it
    for q, mm, dtype in [(8, 9, np.uint64), (125, 4, np.uint64), (16, 16, np.uint64),
                         (2, 64, np.uint64), (3, 40, np.uint64),
                         (625, 9, object), (3, 41, object)]:
        mats = rng.integers(0, q, size=(20, mm)).astype(np.uint32)
        mats[0], mats[1] = 0, q - 1  # the smallest and the largest key
        keys = common.pack_keys(mats, q)
        assert keys.dtype == dtype
        want = [oracles.horner_key(r, q) for r in mats]
        assert [int(k) for k in keys] == want
        assert want[1] == q**mm - 1
        assert np.array_equal(common.unpack_keys(keys, q, mm), mats)


def test_fits_uint64_boundary():
    assert common.fits_uint64(8, 9)       # 8^9 = 2^27
    assert not common.fits_uint64(625, 9)  # 625^9 >> 2^64
