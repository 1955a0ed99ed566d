"""Backend contract: the compiled core and the numpy fallback must be
bit-identical on every operation, including element order in closures.

Skipped as a whole when the compiled core is not built; the tests of the
numpy kernel alone live in test_kernels.py.
"""

import numpy as np
import pytest

from cosetx._kernels import pure
from cosetx.groups import elementary
from cosetx.ring import RingTable, TruncPoly

compiled = pytest.importorskip(
    "cosetx._kernels._core", reason="compiled core not built")


def _rand_mats(rng, k, m, q):
    return rng.integers(0, q, size=(k, m * m)).astype(np.uint32)


@pytest.mark.parametrize("p,s,m", [(2, 2, 2), (3, 1, 3), (2, 3, 3), (5, 2, 2)])
def test_matmul_batch_backends_agree(p, s, m):
    rt = RingTable(p, s)
    rng = np.random.default_rng(7)
    A = _rand_mats(rng, 64, m, rt.q)
    B = _rand_mats(rng, 64, m, rt.q)
    got_c = compiled.matmul_batch(A, B, rt.mul, rt.add, m)
    got_p = pure.matmul_batch(A, B, rt.mul, rt.add, m)
    assert np.array_equal(got_c, got_p)


def test_matmul_broadcast_single():
    rt = RingTable(2, 2)
    rng = np.random.default_rng(3)
    A = _rand_mats(rng, 10, 2, rt.q)
    b = _rand_mats(rng, 1, 2, rt.q)[0]
    got_c = compiled.matmul_batch(A, b, rt.mul, rt.add, 2)
    got_p = pure.matmul_batch(A, b, rt.mul, rt.add, 2)
    assert np.array_equal(got_c, got_p)


@pytest.mark.parametrize("p,s", [(2, 2), (3, 2), (2, 3)])
def test_closure_backends_identical_order(p, s):
    gens = []
    for i, j in ((1, 2), (2, 1)):
        for k in range(s):
            gens.append(elementary(1, i, j, TruncPoly.t_power(p, s, k)).flat())
    gens = np.vstack(gens).astype(np.uint32)
    rt = RingTable(p, s)
    got_c = compiled.closure_bfs(gens, rt.mul, rt.add, 2, rt.q, 1 << 20)
    got_p = pure.closure_bfs(gens, rt.mul, rt.add, 2, rt.q, 1 << 20)
    # not just the same set: the same deterministic enumeration order
    assert np.array_equal(got_c, got_p)
