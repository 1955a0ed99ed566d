import subprocess
import sys

import pytest
from hypothesis import given, strategies as st

import oracles
from cosetx.errors import InputError, ParameterError
from cosetx.ring import (RingTable, TruncPoly, check_ring_params,
                         enumerate_polys, is_prime, parse_poly, poly_add,
                         poly_mul)

SMALL_RINGS = [(2, 1), (2, 3), (3, 2), (5, 3), (7, 2)]
# every ring F_p[t]/t^s with p^s <= 125
TABLED_RINGS_Q125 = [(p, s) for p in range(2, 126) if is_prime(p)
                     for s in range(1, 8) if p**s <= 125]


def ring_elems(p, s):
    return st.tuples(*[st.integers(0, p - 1)] * s)


class TestTruncPoly:
    def test_identity_laws(self):
        x = TruncPoly.make(3, 2, (2, 1))
        assert poly_add(x, TruncPoly.zero(3, 2)) == x
        assert poly_mul(x, TruncPoly.one(3, 2)) == x

    def test_index_roundtrip_exhaustive(self):
        for p, s in SMALL_RINGS:
            for i in range(p**s):
                assert TruncPoly.from_index(p, s, i).index() == i

    @given(st.sampled_from(SMALL_RINGS), st.data())
    def test_arith_matches_naive(self, ring, data):
        p, s = ring
        a = data.draw(ring_elems(p, s))
        b = data.draw(ring_elems(p, s))
        x, y = TruncPoly(p, s, a), TruncPoly(p, s, b)
        assert poly_add(x, y).coeffs == oracles.naive_add(a, b, p, s)
        assert poly_mul(x, y).coeffs == oracles.naive_mul(a, b, p, s)

    @given(st.sampled_from(SMALL_RINGS), st.data())
    def test_ring_axioms(self, ring, data):
        p, s = ring
        xs = [TruncPoly(p, s, data.draw(ring_elems(p, s))) for _ in range(3)]
        a, b, c = xs
        assert poly_add(a, b) == poly_add(b, a)
        assert poly_mul(a, b) == poly_mul(b, a)
        assert poly_mul(a, poly_add(b, c)) == poly_add(
            poly_mul(a, b), poly_mul(a, c))
        assert poly_mul(poly_mul(a, b), c) == poly_mul(a, poly_mul(b, c))

    def test_frobenius(self):
        # (a + b)^p = a^p + b^p in characteristic p
        p, s = 3, 3
        for a in oracles.all_polys(p, s)[:10]:
            for b in oracles.all_polys(p, s)[::17]:
                lhs = oracles.naive_pow(oracles.naive_add(a, b, p, s), p, p, s)
                rhs = oracles.naive_add(oracles.naive_pow(a, p, p, s),
                                        oracles.naive_pow(b, p, p, s), p, s)
                assert lhs == rhs

    def test_lift_to(self):
        x = TruncPoly(2, 2, (1, 1))
        y = x.lift_to(4)
        assert y.s == 4 and y.coeffs == (1, 1, 0, 0)

    def test_t_nilpotent(self):
        t = TruncPoly.t_power(2, 3, 1)
        assert poly_mul(poly_mul(t, t), t) == TruncPoly.zero(2, 3)


class TestParse:
    def test_both_forms(self):
        assert parse_poly("[1,1,0]@2,3") == TruncPoly(2, 3, (1, 1, 0))
        assert parse_poly("1+t", 2, 3) == TruncPoly(2, 3, (1, 1, 0))
        assert parse_poly("2+3*t+t^2", 5, 3) == TruncPoly(5, 3, (2, 3, 1))

    def test_str_compact_roundtrip(self):
        for p, s in SMALL_RINGS:
            for i in range(0, p**s, max(1, p**s // 50)):
                x = TruncPoly.from_index(p, s, i)
                assert parse_poly(x.compact()) == x
                assert parse_poly(str(x), p, s) == x

    def test_human_form_needs_ring(self):
        with pytest.raises((ParameterError, InputError)):
            parse_poly("1+t")

    def test_degree_overflow_rejected(self):
        with pytest.raises(InputError):
            parse_poly("t^5", 2, 3)

    def test_nonprime_rejected(self):
        with pytest.raises(ParameterError):
            parse_poly("1+t", 4, 2)


class TestRingTable:
    @pytest.mark.parametrize("p,s", TABLED_RINGS_Q125)
    def test_tables_match_naive(self, p, s):
        rt = RingTable(p, s)
        polys = [TruncPoly.from_index(p, s, i).coeffs for i in range(rt.q)]
        index = {c: i for i, c in enumerate(polys)}
        add = [[index[oracles.naive_add(a, b, p, s)] for b in polys]
               for a in polys]
        mul = [[index[oracles.naive_mul(a, b, p, s)] for b in polys]
               for a in polys]
        neg = [index[tuple((-c) % p for c in a)] for a in polys]
        assert rt.add.tolist() == add
        assert rt.mul.tolist() == mul
        assert rt.neg.tolist() == neg

    def test_build_memory_is_bounded(self):
        """RingTable(2, 11) holds two 16 MB tables; building them from
        (q, q, s) int64 intermediates peaked above 1 GB."""
        pytest.importorskip("resource")
        code = ("import resource\n"
                "from cosetx.ring import RingTable\n"
                "RingTable(2, 11)\n"
                "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n")
        r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                           text=True, timeout=300)
        assert r.returncode == 0, r.stderr
        assert int(r.stdout) // 1024 < 400

    def test_too_large_rejected(self):
        with pytest.raises(ParameterError):
            RingTable(5, 7)


def test_enumerate_polys_degree_bound():
    out = enumerate_polys(3, 3, 1)
    assert len(out) == 9
    assert all(x.coeffs[2] == 0 for x in out)


def test_is_prime():
    assert [n for n in range(2, 20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]


def test_check_ring_params_rejects():
    for bad in [(1, 2), (4, 2), (2, 0), (6, 1)]:
        with pytest.raises(ParameterError):
            check_ring_params(*bad)
