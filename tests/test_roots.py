import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from cosetx import roots
from cosetx.errors import ParameterError
from cosetx.roots import (admissible, all_roots, boundary_of_gamma1_power,
                          chamber_boundary, chamber_masks, chamber_roots,
                          compose, coverage, gamma0, gamma1, identity_perm,
                          initial_coverage, opposite, perm_order, perm_pow,
                          perm_rank, perm_table, root_index,
                          verify_propagation)
from oracles import act_root, count_nonopposite_pairs


def test_all_roots_count():
    for n in range(2, 7):
        roots = all_roots(n)
        assert len(roots) == n * (n + 1)
        assert len(set(roots)) == len(roots)
        for r in roots:
            assert opposite(opposite(r)) == r


def test_gamma_orders():
    # gamma0 is an (n+1)-cycle; gamma1 fixes 1 and cycles the rest
    for n in range(2, 7):
        assert perm_order(gamma0(n)) == n + 1
        assert perm_order(gamma1(n)) == n


def test_identity_chamber_is_positive_roots():
    for n in (2, 3, 4):
        ch = chamber_roots(identity_perm(n))
        assert ch == frozenset((i, j) for i in range(1, n + 2)
                               for j in range(i + 1, n + 2))


def test_chamber_boundary_is_consecutive_images():
    n = 4
    g = compose(gamma0(n), gamma1(n))
    # perms store images of 1..n+1 at offsets 0..n
    expect = frozenset((g[i - 1], g[i]) for i in range(1, n + 1))
    assert chamber_boundary(g) == expect
    assert chamber_boundary(g) <= chamber_roots(g)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_gamma1_boundary_formula(n):
    for l in range(1, n):
        assert boundary_of_gamma1_power(n, l) == \
            chamber_boundary(perm_pow(gamma1(n), l))


def _pair_set(cov, n):
    """The covered pairs of a coverage matrix as sorted root tuples."""
    rs = all_roots(n)
    return {(a, b) for a, b in itertools.combinations_with_replacement(rs, 2)
            if cov[root_index(a, n), root_index(b, n)]}


def _array_stages(n, stages=2):
    """(admitted permutations, coverage) per stage from the masks over
    ``perm_table(n+1)``; stage 0 is None and the gamma_0 coverage."""
    perms = perm_table(n + 1)
    C, B = chamber_masks(perms)
    out = [(None, initial_coverage(n))]
    for _ in range(stages):
        mask = admissible(C, B, out[-1][1])
        out.append(({tuple(p) for p in (perms[mask] + 1).tolist()},
                    coverage(C[mask])))
    return out


def test_initial_stage_covers_shared_index():
    n = 3
    cov = initial_coverage(n)
    cs0 = oracles.initial_stage(n)
    assert _pair_set(cov, n) == oracles.covered_pairs(cs0)
    for r1 in all_roots(n):
        for r2 in all_roots(n):
            if r2 == opposite(r1):
                continue
            if r1[0] == r2[0] or r1[1] == r2[1]:
                assert cov[root_index(r1, n), root_index(r2, n)]
                assert oracles.pair_covered(r1, r2, cs0)
    # the matrix is symmetric and has no entries off the roots
    assert np.array_equal(cov, cov.T)
    assert int(np.triu(cov).sum()) == len(oracles.covered_pairs(cs0))


def test_propagate_stage_grows():
    (_, cov0), (cs1, cov1), (cs2, cov2) = _array_stages(3)
    assert oracles.initial_stage(3) < cs1 < cs2
    assert _pair_set(cov0, 3) < _pair_set(cov1, 3) <= _pair_set(cov2, 3)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_array_stages_match_set_oracle(n):
    """Every stage admits the permutations the set-based rule admits and
    covers the same pairs, and verify_propagation reports their sizes."""
    rep = verify_propagation(n)
    cs = oracles.initial_stage(n)
    sizes, counts = [len(cs)], []
    for admitted, cov in _array_stages(n):
        if admitted is not None:
            cs = oracles.propagate_stage(cs, n)
            assert admitted == cs
            sizes.append(len(cs))
        covered = oracles.covered_pairs(cs)
        assert _pair_set(cov, n) == covered
        counts.append(len(covered))
    assert rep.stage_sizes == sizes
    # covered pairs are never opposite, so every one counts
    assert rep.covered_counts == counts
    assert rep.pairs_total == count_nonopposite_pairs(n)


@pytest.mark.parametrize("n,seed", [(3, 0), (3, 1), (4, 2), (4, 3)])
def test_admissible_matches_set_rule_on_random_coverage(n, seed):
    """The two products against the pair-by-pair rule, on symmetric random
    coverages where boundary pairs and shared-index pairs fail apart."""
    rng = np.random.default_rng(seed)
    m = n + 1
    cov = rng.random((m * m, m * m)) < 0.97
    cov = np.triu(cov) | np.triu(cov).T
    covered = {(a, b) for a, b in itertools.combinations_with_replacement(
        all_roots(n), 2) if cov[root_index(a, n), root_index(b, n)]}
    perms = perm_table(m)
    mask = admissible(*chamber_masks(perms), cov)
    expect = [oracles._admissible(tuple(p), covered)
              for p in (perms + 1).tolist()]
    assert mask.tolist() == expect
    assert 0 < mask.sum() < len(perms)


def test_streamed_blocks_match_one_block(monkeypatch):
    """Stages united over blocks of 7 rows (720 = 102 * 7 + 6) give the
    report of a single block."""
    whole = verify_propagation(5, 3)
    monkeypatch.setattr(roots, "BLOCK", 7)
    assert verify_propagation(5, 3) == whole


@pytest.mark.parametrize("k", range(1, 9))
def test_perm_table_is_lex_and_ranks_invert_it(k):
    table = perm_table(k)
    assert table.tolist() == [list(p) for p in
                              itertools.permutations(range(k))]
    assert np.array_equal(perm_rank(table), np.arange(math.factorial(k)))
    assert int(perm_rank(table[-1])) == math.factorial(k) - 1
    # rows in any order and shape, as symmetric_group passes them
    perm = np.random.default_rng(k).permutation(len(table))
    assert np.array_equal(perm_rank(table[perm].reshape(-1, 1, k)),
                          perm.reshape(-1, 1))


def test_verify_propagation_n3_pinned():
    rep = verify_propagation(3)
    assert rep.complete
    assert rep.stage_sizes == [4, 8, 20]
    assert rep.covered_counts == [58, 68, 72]
    assert rep.pairs_total == 72 == count_nonopposite_pairs(3)
    assert rep.uncovered_final == []


def test_coverage_report_json():
    d = verify_propagation(3).to_json_dict()
    assert d["complete"] is True
    assert d["pairs_total"] == 72


def test_small_n_rejected():
    with pytest.raises(ParameterError):
        verify_propagation(2)


@given(st.integers(3, 6), st.data())
@settings(max_examples=40, deadline=None)
def test_perm_algebra(n, data):
    roots = all_roots(n)
    t = data.draw(st.integers(0, n))
    l = data.draw(st.integers(0, n - 1))
    g = compose(perm_pow(gamma0(n), t), perm_pow(gamma1(n), l))
    assert perm_pow(g, perm_order(g)) == identity_perm(n)
    imgs = {act_root(g, r) for r in roots}
    assert imgs == set(roots)
    r = data.draw(st.sampled_from(roots))
    assert act_root(g, opposite(r)) == opposite(act_root(g, r))


@given(st.integers(3, 5))
@settings(max_examples=10, deadline=None)
def test_chamber_size_and_boundary_size(n):
    g = gamma1(n)
    assert len(chamber_roots(g)) == n * (n + 1) // 2
    assert len(chamber_boundary(g)) == n
