import hashlib
from collections import Counter

import numpy as np
import pytest

import oracles
from cosetx import _kernels, cli, presentations
from cosetx.errors import InputError, ParameterError
from cosetx.presentations import (KINDS, RelationTable,
                                  chamber_pair_sets, chamber_relation_sets,
                                  presentation_SL, presentation_unipotent,
                                  standard_assignment,
                                  tilde_gamma_presentation, verify_relations)
from cosetx.ring import RingTable
from oracles import (MatElement, elementary, make_poly, one_poly, t_power)


def _times(row, p, s, mat):
    """The flat matrix ``row`` times the oracle MatElement ``mat``."""
    return (MatElement.from_flat(p, s, mat.m, row) @ mat).flat()


def _oracle_assignment(gens, n, p, s):
    """e_root(r) for each oracle generator (root, coefficients of r), as
    flat rows of ring indices of F_p[t]/t^s, built by the oracle."""
    return np.array([elementary(n, *root, make_poly(p, s, cs)).flat()
                     for root, cs in gens])


class TestPresentationSL:
    def test_pinned_counts_p2(self):
        table = presentation_SL(3, 2, 1)
        assert len(table.roots) == len(table.index) == 48
        assert len(table) == 1644
        assert len(table.pair_set()) == 72
        assert table.counts_by_kind() == {
            "zero": 12, "additive": 192, "commuting": 576,
            "steinberg-product": 288, "steinberg-equality": 576}

    def test_pinned_counts_p3(self):
        assert len(presentation_SL(3, 3, 1)) == 10164

    def test_generator_count_formula(self):
        # n(n+1) roots, each with p^(d+1) coefficients (zero included)
        for n, p, d in [(3, 2, 1), (3, 3, 1), (3, 2, 2)]:
            table = presentation_SL(n, p, d)
            assert len(table.roots) == n * (n + 1) * p ** (d + 1)

    def test_kinds_exhaustive(self):
        table = presentation_SL(3, 2, 1)
        assert set(table.counts_by_kind()) <= set(KINDS)

    def test_all_relations_verify(self):
        table = presentation_SL(3, 2, 1)
        for s in (2, 3):
            rep = verify_relations(table, standard_assignment(table, s), s)
            assert rep.ok
            assert rep.checked == len(table)
            assert rep.violations == ()

    def test_corrupted_assignment_caught(self):
        table = presentation_SL(3, 2, 1)
        mats = standard_assignment(table, 2)
        mats[0] = _times(mats[0], 2, 2, elementary(
            3, 1, 2, one_poly(2, 2)))  # off by an elementary factor
        rep = verify_relations(table, mats, 2)
        assert not rep.ok
        assert len(rep.violations) > 0
        assert any(v for v in rep.by_kind.values())

    def test_assignment_needs_room(self):
        table = presentation_SL(3, 2, 1)
        with pytest.raises(ParameterError):
            standard_assignment(table, 1)  # s must exceed d


class TestAssignmentRows:
    """An assignment holds one flat row of ring indices of the given ring
    per symbol of the table."""

    def test_row_of_another_width_raises(self):
        table = presentation_SL(3, 2, 1)
        mats = standard_assignment(table, 2)
        for bad in (mats[:, :15], mats[:, :0]):
            with pytest.raises(InputError, match="m\\*m ring indices"):
                verify_relations(table, bad, 2)

    def test_missing_symbol_raises(self):
        table = presentation_SL(3, 2, 1)
        mats = standard_assignment(table, 2)
        for bad in (mats[:-1], mats[0], mats[None]):
            with pytest.raises(InputError, match="each of 48 symbols"):
                verify_relations(table, bad, 2)

    def test_entry_outside_the_ring_raises(self):
        table = presentation_SL(3, 2, 1)
        mats = standard_assignment(table, 3)
        mats[7, 1] = 4
        assert verify_relations(table, mats, 3).violations
        with pytest.raises(InputError, match="ring indices of F_2"):
            verify_relations(table, mats, 2)
        signed = mats.astype(np.int64)
        signed[7, 1] = -1
        with pytest.raises(InputError, match="ring indices of F_2"):
            verify_relations(table, signed, 3)

    def test_float_rows_raise(self):
        table = presentation_SL(3, 2, 1)
        mats = standard_assignment(table, 2).astype(np.float64)
        with pytest.raises(InputError, match="dtype float64"):
            verify_relations(table, mats, 2)

    def test_ring_past_uint32_rows_raises(self):
        table = presentation_SL(3, 2, 1)
        with pytest.raises(ParameterError, match="2\\^32"):
            verify_relations(table, standard_assignment(table, 33), 33)


class TestUnipotent:
    def test_pinned_counts(self):
        table = presentation_unipotent(5, 3, 1)
        assert len(table) == 5593
        assert table.n == 4

    def test_verifies_in_matrices(self):
        table = presentation_unipotent(4, 2, 1)
        assert verify_relations(table, standard_assignment(table, 2), 2).ok

    def test_small_dim_rejected(self):
        with pytest.raises(ParameterError):
            presentation_unipotent(3, 2, 1)


class TestChamberSets:
    def test_n2_coincide(self):
        pre, ch = chamber_pair_sets(2)
        assert set(pre) == set(ch)

    def test_n3_strictly_smaller(self):
        pre, ch = chamber_pair_sets(3)
        assert set(pre) < set(ch)

    def test_relation_halves_verify(self):
        pre_rels, ch_rels = chamber_relation_sets(2, 2, 1)
        gens = oracles.steinberg_chamber(2, 2, 1)[0]
        mats = _oracle_assignment(gens, 2, 2, 2)
        assert verify_relations(ch_rels, mats, 2).ok
        assert verify_relations(pre_rels, mats, 2).ok
        assert len(pre_rels) <= len(ch_rels)

    def test_untabled_path_reports_the_tabled_violations(self, monkeypatch):
        """s = 13 (q = 8192) is past RingTable.MAX_Q, so the relations are
        evaluated on digits, with one Newton inverse of the generators;
        with one generator's matrix wrong it flags the same relations as
        the table path at s = 5, in the same order: relation order.  The
        wrong generator breaks additive, commuting and Steinberg product
        relations of three different root pairs, so words of different
        lengths interleave among the violations."""
        assert 2**13 > RingTable.MAX_Q >= 2**5
        slow_calls = []
        slow = _kernels.inverse_digits

        def counted_slow(*args):
            slow_calls.append(1)
            return slow(*args)

        monkeypatch.setattr(_kernels, "inverse_digits", counted_slow)
        _, ch_rels = chamber_relation_sets(2, 2, 1)
        gens = oracles.steinberg_chamber(2, 2, 1)[0]
        bad = gens.index(((1, 3), (1, 1)))
        flagged = []
        for s in (5, 13):
            mats = _oracle_assignment(gens, 2, 2, s)
            # off by e_12(t): the matrix of another generator's root
            mats[bad] = _times(mats[bad], 2, s, elementary(
                2, 1, 2, t_power(2, s, 1)))
            rep = verify_relations(ch_rels, mats, s)
            assert rep.checked == len(ch_rels)
            flagged.append(rep.violations)
        assert slow_calls == [1]
        assert flagged[0] and flagged[0] == flagged[1]
        assert list(flagged[0]) == sorted(flagged[0])
        kinds = [KINDS[k] for k in ch_rels.kind[list(flagged[0])]]
        assert {"additive", "commuting", "steinberg-product"} <= set(kinds)


class TestTildeGamma:
    def test_pinned_pair_count(self):
        assert len(tilde_gamma_presentation(3, 2, 1).pair_set()) == 58

    def test_verifies(self):
        table = tilde_gamma_presentation(3, 2, 1)
        assert verify_relations(table, standard_assignment(table, 2), 2).ok

    def test_needs_n3(self):
        with pytest.raises(ParameterError):
            tilde_gamma_presentation(2, 2, 1)


BUILDS = {
    "sl-3-2-1": (lambda: presentation_SL(3, 2, 1), (3, 2, 1)),
    "sl-4-3-1": (lambda: presentation_SL(4, 3, 1), (4, 3, 1)),
    "unip-4-2-2": (lambda: presentation_unipotent(4, 2, 2), (3, 2, 2)),
    "unip-6-3-1": (lambda: presentation_unipotent(6, 3, 1), (5, 3, 1)),
    "tilde-4-2-1": (lambda: tilde_gamma_presentation(4, 2, 1), (4, 2, 1)),
    "prechamber-2-3-1": (lambda: chamber_relation_sets(2, 3, 1)[0],
                         (2, 3, 1)),
    "chamber-2-3-1": (lambda: chamber_relation_sets(2, 3, 1)[1], (2, 3, 1)),
    "prechamber-3-2-2": (lambda: chamber_relation_sets(3, 2, 2)[0],
                         (3, 2, 2)),
    "chamber-3-2-2": (lambda: chamber_relation_sets(3, 2, 2)[1], (3, 2, 2)),
}


@pytest.mark.parametrize("name", BUILDS)
def test_builders_state_n_p_d(name):
    """n is the largest root index minus one: the A_n of sl, tilde and
    the chambers, dim - 1 for unip."""
    build, npd = BUILDS[name]
    table = build()
    assert (table.n, table.p, table.d) == npd


@pytest.mark.parametrize("build", [
    lambda p: presentation_SL(3, p, 1),
    lambda p: presentation_unipotent(4, p, 1),
    lambda p: tilde_gamma_presentation(3, p, 1),
    lambda p: chamber_relation_sets(3, p, 1)[0],
    lambda p: chamber_relation_sets(3, p, 1)[1],
], ids=["sl", "unip", "tilde", "prechamber", "chamber"])
@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("extra", [1, 2])
def test_standard_assignment_verifies(build, p, extra):
    """The elementary matrices satisfy every relation in each ring that
    holds the coefficients, s = d + 1 and d + 2."""
    table = build(p)
    s = table.d + extra
    rep = verify_relations(table, standard_assignment(table, s), s)
    assert rep.ok and rep.checked == len(table)


@pytest.mark.parametrize("build,digest", [
    (lambda: presentation_SL(3, 2, 1), "25597b192bc4ad52"),
    (lambda: presentation_SL(3, 3, 1), "bc4dd870b94a2393"),
    (lambda: presentation_unipotent(5, 3, 2), "6a43c25d52327334"),
    (lambda: chamber_relation_sets(3, 2, 2)[0], "4538c8977c0ca5fa"),
    (lambda: chamber_relation_sets(3, 2, 2)[1], "24251f04e2706db1"),
    (lambda: tilde_gamma_presentation(4, 2, 1), "376fae4bf558a576"),
], ids=["sl-3-2-1", "sl-3-3-1", "unip-5-3-2", "prechamber-3-2-2",
        "chamber-3-2-2", "tilde-4-2-1"])
def test_relation_text_is_pinned(build, digest):
    """Every row's text, hashed: ``relations verify`` prints violations in
    this form."""
    table = build()
    text = "\n".join(table.text(i) for i in range(len(table)))
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest


class TestSymbols:
    def test_relations_share_the_generator_objects(self):
        """Each (root, r) is one symbol, and every symbol is some word's
        letter, so the symbol count is the generator count."""
        pre, chamber = chamber_relation_sets(3, 2, 1)
        for table in (presentation_SL(3, 2, 1),
                      presentation_unipotent(4, 2, 1),
                      tilde_gamma_presentation(3, 2, 1), pre, chamber):
            symbols = set(zip(map(tuple, table.roots.tolist()),
                              table.index.tolist()))
            assert len(symbols) == len(table.roots)
            codes = table.words[table.words >= 0]
            assert np.array_equal(np.unique(codes >> 1),
                                  np.arange(len(table.roots)))

    def test_symbol_str(self):
        lhs, rhs = presentation_SL(3, 2, 1).letters(16)
        assert [(root, str(r), e) for root, r, e in lhs] == [
            ((1, 2), "1+t", 1), ((1, 2), "1+t", 1)]
        assert [(root, r.coeffs, e) for root, r, e in rhs] == [
            ((1, 2), (0, 0), 1)]

    def test_relation_str_and_symbols(self):
        table = presentation_SL(3, 2, 1)
        assert KINDS[table.kind[0]] == "zero"
        assert table.text(0) == "x(1, 2)(0) = e"
        assert table.text(16) == "x(1, 2)(1+t) x(1, 2)(1+t) = x(1, 2)(0)"
        assert table.text(17) == ("x(1, 2)(0) x(1, 3)(0) x(1, 2)(0)^-1 "
                                  "x(1, 3)(0)^-1 = e")


def _trimmed(codes):
    """Code rows without their trailing all-padding columns."""
    width = int((codes >= 0).sum(axis=1).max(initial=0))
    assert (codes[:, width:] == -1).all()
    return codes[:, :width]


def _assert_table_is(table, generators, relations):
    """The word table holds the oracle's relations: the same symbols,
    codes, kinds and source pairs, and the same text on about 500 rows
    spread over the table."""
    digits = table.index[:, None] // table.p ** np.arange(table.d + 1) \
        % table.p
    assert list(zip(map(tuple, table.roots.tolist()),
                    map(tuple, digits.tolist()))) == list(generators)
    lhs, rhs, kinds, pairs = oracles.steinberg_codes(relations, generators)
    assert np.array_equal(_trimmed(table.words[:, 0]), lhs)
    assert np.array_equal(_trimmed(table.words[:, 1]), rhs)
    assert [KINDS[k] for k in table.kind.tolist()] == kinds
    assert [table.pairs[k] for k in table.pair.tolist()] == pairs
    rows = range(0, len(table), max(1, len(table) // 500))
    assert [table.text(i) for i in rows] == [
        oracles.steinberg_text(relations[i]) for i in rows]


class TestWordTables:
    """The array builders against the tuple builders of ``oracles``."""

    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("d", [1, 2])
    def test_sl(self, n, p, d):
        _assert_table_is(presentation_SL(n, p, d),
                         *oracles.steinberg_sl(n, p, d))

    @pytest.mark.parametrize("dim", [4, 5, 6])
    @pytest.mark.parametrize("p,d", [(2, 1), (3, 1), (2, 2)])
    def test_unipotent(self, dim, p, d):
        _assert_table_is(presentation_unipotent(dim, p, d),
                         *oracles.steinberg_unipotent(dim, p, d))

    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("p,d", [(2, 1), (3, 1)])
    def test_tilde(self, n, p, d):
        _assert_table_is(tilde_gamma_presentation(n, p, d),
                         *oracles.steinberg_tilde(n, p, d))

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("p,d", [(2, 1), (3, 1), (2, 2)])
    def test_chamber_and_prechamber(self, n, p, d):
        pre, chamber = chamber_relation_sets(n, p, d)
        gens, pre_rels, ch_rels = oracles.steinberg_chamber(n, p, d)
        _assert_table_is(pre, gens, pre_rels)
        _assert_table_is(chamber, gens, ch_rels)

    @pytest.mark.parametrize("build,oracle,s", [
        (lambda: presentation_SL(3, 2, 1),
         lambda: oracles.steinberg_sl(3, 2, 1), 2),
        (lambda: presentation_SL(3, 3, 1),
         lambda: oracles.steinberg_sl(3, 3, 1), 2),
        (lambda: presentation_unipotent(5, 2, 1),
         lambda: oracles.steinberg_unipotent(5, 2, 1), 3),
        (lambda: tilde_gamma_presentation(4, 2, 1),
         lambda: oracles.steinberg_tilde(4, 2, 1), 2),
    ], ids=["sl-3-2-1", "sl-3-3-1", "unip-5-2-1", "tilde-4-2-1"])
    def test_corrupted_generator_same_violations(self, build, oracle, s):
        """With one generator's matrix off by an elementary factor, the
        table and the oracle's relations, multiplied out over F_p in the
        oracle, report the same violations in relation order."""
        table = build()
        gens, rels = oracle()
        mats = standard_assignment(table, s)
        k = len(mats) // 3
        mats[k] = _times(mats[k], table.p, s, elementary(
            table.n, 1, 2, t_power(table.p, s, 1)))
        rep = verify_relations(table, mats, s)
        assert rep.violations
        assert rep.violations == oracles.steinberg_violations(
            rels, gens, mats, table.p, s)
        assert rep.checked == len(rels)
        assert rep.by_kind == Counter(kind for _, _, kind, _ in rels)

    def test_chamber_table_same_violations_as_list(self):
        pre, chamber = chamber_relation_sets(3, 2, 1)
        gens, pre_rels, ch_rels = oracles.steinberg_chamber(3, 2, 1)
        mats = _oracle_assignment(gens, 3, 2, 2)
        mats[5] = _times(mats[5], 2, 2, elementary(3, 2, 4, one_poly(2, 2)))
        for table, rels in ((pre, pre_rels), (chamber, ch_rels)):
            rep = verify_relations(table, mats, 2)
            assert rep.violations
            assert rep.violations == oracles.steinberg_violations(
                rels, gens, mats, 2, 2)


class TestNoObjectsOnTheTabledPath:
    def test_suite_steinberg_rows_call_verify_relations(self, monkeypatch):
        calls = []
        verify = presentations.verify_relations

        def counted(*args):
            calls.append(1)
            return verify(*args)

        monkeypatch.setattr(presentations, "verify_relations", counted)
        ok, detail = cli._check_steinberg_sl(3, 3, 1, 4,
                                             expect=(108, 10164, 72))
        assert ok and detail["relations"] == 10164
        assert calls == [1]


@pytest.mark.parametrize("p,s,path", [
    (2, 2, "tables"),    # the suite row steinberg-sl-3-2-1, q = 4
    (3, 4, "tables"),    # the suite row steinberg-sl-3-3-1-s4, q = 81
    (3, 7, "digits"),    # q = 2187: a 0.2 s table build for 15552 products
    (2, 12, "digits"),   # relations verify --target-s 12, q = 4096
])
def test_verify_path_is_pinned(monkeypatch, p, s, path):
    """Which arithmetic verifying presentation_SL(3, p, 1) takes: the
    suite's rows stay on the tables, which are faster there, and the
    rings whose tables cost more to build than the digits cost to run
    build none."""
    table = presentation_SL(3, p, 1)
    mats = standard_assignment(table, s)
    calls, built = set(), []
    for name in ("matmul_batch", "inverse_batch", "matmul_digits",
                 "inverse_digits"):
        real = getattr(_kernels, name)
        monkeypatch.setattr(_kernels, name, lambda *args, name=name,
                            real=real: calls.add(name) or real(*args))

    class Built(RingTable):
        def __init__(self, p, s):
            built.append(p**s)
            super().__init__(p, s)

    monkeypatch.setattr(presentations, "RingTable", Built)
    assert verify_relations(table, mats, s).ok
    if path == "tables":
        assert calls == {"matmul_batch", "inverse_batch"} and built == [p**s]
    else:
        assert calls == {"matmul_digits", "inverse_digits"} and built == []


class TestExponents:
    """x^-1, code 2k + 1, is the inverse of x on both evaluation paths."""

    @pytest.mark.parametrize("s,tabled", [(2, True), (5, True), (6, False)])
    def test_inverse_letters_on_both_paths(self, monkeypatch, s, tabled):
        # six relations are too little work for the tables to pay: they
        # are forced wherever they exist
        assert (5**s <= RingTable.MAX_Q) == tabled
        if tabled:
            monkeypatch.setattr(presentations, "_tables_pay",
                                lambda q, s, work: True)
        slow_calls = []
        slow = _kernels.inverse_digits
        monkeypatch.setattr(_kernels, "inverse_digits",
                            lambda *args: slow_calls.append(1) or slow(*args))
        x, x_inv = 0, 1  # the codes of x = x_(1,2)(2+t) and x^-1
        holds = [([x, x, x_inv], [x]), ([x, x_inv], []),
                 ([x_inv, x, x], [x])]
        fails = [([x_inv], [x]), ([x, x], []), ([x_inv, x_inv], [x, x])]
        words = np.full((6, 2, 3), -1, dtype=np.int32)
        for row, (lhs, rhs) in enumerate(holds + fails):
            words[row, 0, :len(lhs)], words[row, 1, :len(rhs)] = lhs, rhs
        r = make_poly(5, 2, (2, 1))
        table = RelationTable(5, 1, np.array([[1, 2]]),
                              np.array([r.index()]), words,
                              np.full(6, KINDS.index("additive"), np.int8),
                              np.zeros(6, np.int32), [((1, 2), (1, 2))])
        mats = elementary(1, 1, 2, make_poly(5, s, r.coeffs)).flat()[None]
        rep = verify_relations(table, mats, s)
        assert rep.checked == 6
        assert rep.violations == (3, 4, 5)
        assert [table.text(i) for i in rep.violations] == [
            "x(1, 2)(2+t)^-1 = x(1, 2)(2+t)", "x(1, 2)(2+t) x(1, 2)(2+t) = e",
            "x(1, 2)(2+t)^-1 x(1, 2)(2+t)^-1 = x(1, 2)(2+t) x(1, 2)(2+t)"]
        assert slow_calls == ([] if tabled else [1])
