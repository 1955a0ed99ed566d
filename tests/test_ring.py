import math
import os
import subprocess
import sys
import time

import pytest
from hypothesis import given, strategies as st

import oracles
from cosetx.errors import InputError, ParameterError
from cosetx.ring import (RingTable, TruncPoly, check_ring_params, is_prime,
                         parse_poly, poly_add, poly_mul)

SMALL_RINGS = [(2, 1), (2, 3), (3, 2), (5, 3), (7, 2)]
# every ring F_p[t]/t^s with p^s <= 125
TABLED_RINGS_Q125 = [(p, s) for p in range(2, 126) if is_prime(p)
                     for s in range(1, 8) if p**s <= 125]


def ring_elems(p, s):
    return st.tuples(*[st.integers(0, p - 1)] * s)


class TestTruncPoly:
    def test_identity_laws(self):
        x = oracles.make_poly(3, 2, (2, 1))
        assert poly_add(x, oracles.zero_poly(3, 2)) == x
        assert poly_mul(x, oracles.one_poly(3, 2)) == x

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
        y = oracles.lift_to(x, 4)
        assert y.s == 4 and y.coeffs == (1, 1, 0, 0)

    def test_t_nilpotent(self):
        t = oracles.t_power(2, 3, 1)
        assert poly_mul(poly_mul(t, t), t) == oracles.zero_poly(2, 3)


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
        r, peak_mb = oracles.run_with_peak("from cosetx.ring import RingTable\n"
                                           "RingTable(2, 11)\n")
        assert r.returncode == 0, r.stderr
        assert peak_mb < 400

    def test_too_large_rejected(self):
        with pytest.raises(ParameterError):
            RingTable(5, 7)


def test_is_prime():
    assert [n for n in range(2, 20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]


def _trial_division(n):
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def test_is_prime_agrees_with_trial_division_below_10000():
    assert [n for n in range(-3, 10**4) if is_prime(n)] == \
        [n for n in range(-3, 10**4) if _trial_division(n)]


def test_is_prime_answers_a_61_bit_prime_at_once():
    t0 = time.perf_counter()
    assert is_prime(2**61 - 1) and is_prime(2**31 - 1)
    assert time.perf_counter() - t0 < 1.0


@pytest.mark.parametrize("n", [
    2**61 + 1,                # 3 * 768614336404564651
    2047, 3277,               # strong pseudoprimes to base 2
    561, 1105,                # Carmichael numbers
    # Carmichael numbers with no prime factor among the bases
    43 * 127 * 211, 53 * 79 * 599,
    999983 * 1000003,         # two primes near 10^6
    # the least strong pseudoprime to every prime base up to 37: only
    # base 41 shows it composite
    399165290221 * 798330580441,
])
def test_is_prime_refuses_composites_that_fool_weaker_tests(n):
    assert not is_prime(n)


def test_is_prime_refuses_p_past_its_exact_range():
    from cosetx.ring import MAX_PRIME
    for p in (MAX_PRIME, 2**89 - 1):
        with pytest.raises(ParameterError, match="must be below"):
            is_prime(p)
        with pytest.raises(ParameterError):
            check_ring_params(p, 1)


def test_check_ring_params_rejects():
    for bad in [(1, 2), (4, 2), (2, 0), (6, 1)]:
        with pytest.raises(ParameterError):
            check_ring_params(*bad)


def test_child_peak_is_the_childs_own():
    """A parent holding 450 MB starts a child that allocates nothing: the
    child's ru_maxrss reads the parent's peak, its VmHWM its own."""
    pytest.importorskip("resource")
    tests_dir = os.path.dirname(os.path.abspath(__file__))
    child = ("import resource\n"
             "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss // 1024)\n")
    parent = ("import sys\n"
              "import numpy as np\n"
              f"sys.path.insert(0, {tests_dir!r})\n"
              "import oracles\n"
              "ballast = np.ones(450 << 20, dtype=np.uint8)\n"
              f"r, peak_mb = oracles.run_with_peak({child!r})\n"
              "print(r.stdout.split()[0], peak_mb)\n")
    r = subprocess.run([sys.executable, "-c", parent], capture_output=True,
                       text=True, timeout=300)
    assert r.returncode == 0, r.stderr
    inherited_mb, own_mb = map(int, r.stdout.split())
    assert inherited_mb >= 450
    assert own_mb < 100
