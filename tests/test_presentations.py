import numpy as np
import pytest

import oracles
from cosetx import _kernels, cli, presentations
from cosetx.errors import InputError, ParameterError
from cosetx.presentations import (KINDS, GeneratorSymbol, Presentation,
                                  RelationInstance,
                                  chamber_pair_sets, chamber_relation_sets,
                                  presentation_SL, presentation_unipotent,
                                  standard_assignment,
                                  tilde_gamma_presentation, verify_relations)
from cosetx.ring import RingTable
from oracles import (MatElement, elementary, lift_to, make_poly, one_poly,
                     t_power)


def _times(row, p, s, mat):
    """The flat matrix ``row`` times the oracle MatElement ``mat``."""
    return (MatElement.from_flat(p, s, mat.m, row) @ mat).flat()


class TestPresentationSL:
    def test_pinned_counts_p2(self):
        pres = presentation_SL(3, 2, 1)
        assert len(pres.generators) == 48
        assert len(pres.relations) == 1644
        assert len(pres.pair_set()) == 72
        assert pres.counts_by_kind() == {
            "zero": 12, "additive": 192, "commuting": 576,
            "steinberg-product": 288, "steinberg-equality": 576}

    def test_pinned_counts_p3(self):
        pres = presentation_SL(3, 3, 1)
        assert len(pres.relations) == 10164

    def test_generator_count_formula(self):
        # n(n+1) roots, each with p^(d+1) coefficients (zero included)
        for n, p, d in [(3, 2, 1), (3, 3, 1), (3, 2, 2)]:
            pres = presentation_SL(n, p, d)
            assert len(pres.generators) == n * (n + 1) * p ** (d + 1)

    def test_kinds_exhaustive(self):
        pres = presentation_SL(3, 2, 1)
        assert set(pres.counts_by_kind()) <= set(KINDS)

    def test_all_relations_verify(self):
        for s in (2, 3):
            pres = presentation_SL(3, 2, 1)
            rep = verify_relations(pres, standard_assignment(pres, 3, s),
                                   2, s)
            assert rep.ok
            assert rep.checked == len(pres.relations)
            assert rep.violations == ()

    def test_corrupted_assignment_caught(self):
        pres = presentation_SL(3, 2, 1)
        assign = standard_assignment(pres, 3, 2)
        sym = pres.generators[0]
        assign[sym] = _times(assign[sym], 2, 2, elementary(
            3, 1, 2, one_poly(2, 2)))  # off by an elementary factor
        rep = verify_relations(pres, assign, 2, 2)
        assert not rep.ok
        assert len(rep.violations) > 0
        assert any(v for v in rep.by_kind.values())

    def test_assignment_needs_room(self):
        pres = presentation_SL(3, 2, 1)
        with pytest.raises(ParameterError):
            standard_assignment(pres, 3, 1)  # s must exceed d


class TestAssignmentRows:
    """An assignment holds flat rows of ring indices of the given ring."""

    def test_row_of_another_width_raises(self):
        pres = presentation_SL(3, 2, 1)
        assign = standard_assignment(pres, 3, 2)
        sym = pres.generators[7]
        assign[sym] = assign[sym][:9]
        with pytest.raises(InputError, match="row of 16 ring indices"):
            verify_relations(pres, assign, 2, 2)

    def test_missing_symbol_raises(self):
        pres = presentation_SL(3, 2, 1)
        assign = standard_assignment(pres, 3, 2)
        del assign[pres.generators[7]]
        with pytest.raises(InputError, match="no assignment"):
            verify_relations(pres, assign, 2, 2)

    def test_entry_outside_the_ring_raises(self):
        pres = presentation_SL(3, 2, 1)
        assign = standard_assignment(pres, 3, 3)
        sym = pres.generators[7]
        assign[sym] = assign[sym].copy()
        assign[sym][1] = 4
        assert verify_relations(pres, assign, 2, 3).violations
        with pytest.raises(InputError, match="ring indices of F_2"):
            verify_relations(pres, assign, 2, 2)

    def test_ring_past_uint32_rows_raises(self):
        pres = presentation_SL(3, 2, 1)
        with pytest.raises(ParameterError, match="2\\^32"):
            verify_relations(pres, standard_assignment(pres, 3, 33), 2, 33)


class TestUnipotent:
    def test_pinned_counts(self):
        pres = presentation_unipotent(5, 3, 1)
        assert len(pres.relations) == 5593
        assert pres.n == 4

    def test_verifies_in_matrices(self):
        pres = presentation_unipotent(4, 2, 1)
        rep = verify_relations(pres, standard_assignment(pres, pres.n, 2), 2, 2)
        assert rep.ok

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
        syms = {sym for rel in ch_rels for sym in rel.symbols()}
        assign = {sym: elementary(2, *sym.root, lift_to(sym.r, 2)).flat()
                  for sym in syms}
        assert verify_relations(ch_rels, assign, 2, 2).ok
        assert verify_relations(pre_rels, assign, 2, 2).ok
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
        syms = sorted({sym for rel in ch_rels for sym in rel.symbols()},
                      key=str)
        bad_sym = next(sym for sym in syms
                       if sym.root == (1, 3) and sym.r.coeffs == (1, 1))
        flagged = []
        for s in (5, 13):
            assign = {sym: elementary(2, *sym.root, lift_to(sym.r, s)).flat()
                      for sym in syms}
            # off by e_12(t): the matrix of another generator's root
            assign[bad_sym] = _times(assign[bad_sym], 2, s, elementary(
                2, 1, 2, t_power(2, s, 1)))
            rep = verify_relations(ch_rels, assign, 2, s)
            assert rep.checked == len(ch_rels)
            flagged.append(tuple(str(rel) for rel in rep.violations))
        assert slow_calls == [1]
        assert flagged[0] and flagged[0] == flagged[1]
        order = [str(rel) for rel in ch_rels]
        assert list(flagged[0]) == sorted(flagged[0], key=order.index)
        kinds = [rel.kind for rel in rep.violations]
        assert {"additive", "commuting", "steinberg-product"} <= set(kinds)


class TestTildeGamma:
    def test_pinned_pair_count(self):
        pres = tilde_gamma_presentation(3, 2, 1)
        assert len(pres.pair_set()) == 58

    def test_verifies(self):
        pres = tilde_gamma_presentation(3, 2, 1)
        rep = verify_relations(pres, standard_assignment(pres, 3, 2), 2, 2)
        assert rep.ok

    def test_needs_n3(self):
        with pytest.raises(ParameterError):
            tilde_gamma_presentation(2, 2, 1)


class TestSymbols:
    def test_independent_symbols_are_equal_keys(self):
        """Symbols built separately from equal (root, r) are equal, hash
        equal and find each other in a user-built assignment."""
        r = make_poly(2, 2, (1, 1))
        a = GeneratorSymbol((1, 2), r)
        b = GeneratorSymbol((1, 2), make_poly(2, 2, [1, 1]))
        assert a is not b and a == b and hash(a) == hash(b)
        assert a != GeneratorSymbol((2, 1), r)
        assert a != GeneratorSymbol((1, 2), one_poly(2, 2))
        pres = presentation_SL(3, 2, 1)
        assign = {GeneratorSymbol(sym.root, make_poly(2, 2, sym.r.coeffs)):
                  elementary(3, *sym.root, lift_to(sym.r, 2)).flat()
                  for sym in pres.generators}
        assert all(sym in assign for sym in pres.generators)
        assert verify_relations(pres, assign, 2, 2).ok

    def test_relations_share_the_generator_objects(self):
        for pres in (presentation_SL(3, 2, 1), presentation_unipotent(4, 2, 1),
                     tilde_gamma_presentation(3, 2, 1)):
            ids = {id(sym) for sym in pres.generators}
            assert len(ids) == len(pres.generators)
            assert all(id(sym) in ids
                       for rel in pres.relations for sym in rel.symbols())

    def test_foreign_symbol_rejected(self):
        pres = presentation_SL(3, 2, 1)
        rel = pres.relations[0]
        outside = GeneratorSymbol((1, 2), make_poly(2, 3, (0, 0, 1)))
        foreign = RelationInstance(((outside, 1),), (), "zero",
                                   rel.source_pair)
        with pytest.raises(ParameterError, match="outside the generator set"):
            Presentation("sl", 3, 2, 1, pres.generators,
                         pres.relations + (foreign,))
        # an equal symbol built elsewhere is not foreign
        inside = GeneratorSymbol(rel.lhs[0][0].root, rel.lhs[0][0].r)
        Presentation("sl", 3, 2, 1, pres.generators,
                     (RelationInstance(((inside, 1),), (), "zero",
                                       rel.source_pair),))

    def test_symbol_str(self):
        sym = GeneratorSymbol((1, 2), make_poly(2, 2, (1, 1)))
        assert str(sym) == "x(1, 2)(1+t)"

    def test_relation_str_and_symbols(self):
        pres = presentation_SL(3, 2, 1)
        rel = pres.relations[0]
        assert rel.kind in KINDS
        assert all(isinstance(s, GeneratorSymbol) for s in rel.symbols())
        assert str(rel)

    def test_presentation_repr(self):
        pres = presentation_SL(3, 2, 1)
        assert isinstance(pres, Presentation)
        assert pres.n == 3 and pres.p == 2 and pres.d == 1


def _trimmed(codes):
    """Code rows without their trailing all-padding columns."""
    width = int((codes >= 0).sum(axis=1).max(initial=0))
    assert (codes[:, width:] == -1).all()
    return codes[:, :width]


def _assert_table_is(table, generators, relations):
    """The word table holds the oracle's relations: same symbols, codes,
    kinds and source pairs, and the same RelationInstance objects by
    value when materialized."""
    assert table.symbols == tuple(generators)
    lhs, rhs, kinds, pairs = oracles.steinberg_codes(relations, generators)
    assert np.array_equal(_trimmed(table.words[:, 0]), lhs)
    assert np.array_equal(_trimmed(table.words[:, 1]), rhs)
    assert table.kind.tolist() == kinds
    assert [table.pairs[k] for k in table.pair.tolist()] == pairs
    assert table.instances == tuple(relations)


class TestWordTables:
    """The array builders against the object builders of ``oracles``."""

    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("d", [1, 2])
    def test_sl(self, n, p, d):
        pres = presentation_SL(n, p, d)
        gens, rels = oracles.steinberg_sl(n, p, d)
        assert pres.generators == gens
        _assert_table_is(pres.table, gens, rels)

    @pytest.mark.parametrize("dim", [4, 5, 6])
    @pytest.mark.parametrize("p,d", [(2, 1), (3, 1), (2, 2)])
    def test_unipotent(self, dim, p, d):
        pres = presentation_unipotent(dim, p, d)
        gens, rels = oracles.steinberg_unipotent(dim, p, d)
        assert pres.generators == gens
        _assert_table_is(pres.table, gens, rels)

    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("p,d", [(2, 1), (3, 1)])
    def test_tilde(self, n, p, d):
        pres = tilde_gamma_presentation(n, p, d)
        gens, rels = oracles.steinberg_tilde(n, p, d)
        assert pres.generators == gens
        _assert_table_is(pres.table, gens, rels)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("p,d", [(2, 1), (3, 1), (2, 2)])
    def test_chamber_and_prechamber(self, n, p, d):
        pre, chamber = chamber_relation_sets(n, p, d)
        gens, pre_rels, ch_rels = oracles.steinberg_chamber(n, p, d)
        _assert_table_is(pre, gens, pre_rels)
        _assert_table_is(chamber, gens, ch_rels)

    @pytest.mark.parametrize("build,s", [
        (lambda: presentation_SL(3, 2, 1), 2),
        (lambda: presentation_SL(3, 3, 1), 2),
        (lambda: presentation_unipotent(5, 2, 1), 3),
        (lambda: tilde_gamma_presentation(4, 2, 1), 2),
    ], ids=["sl-3-2-1", "sl-3-3-1", "unip-5-2-1", "tilde-4-2-1"])
    def test_corrupted_generator_same_violations(self, build, s):
        """With one generator's matrix off by an elementary factor, the
        table, the materialized list and the oracle's list of objects
        report the same violations in relation order."""
        pres = build()
        assign = standard_assignment(pres, pres.n, s)
        sym = pres.generators[len(pres.generators) // 3]
        assign[sym] = _times(assign[sym], pres.p, s, elementary(
            pres.n, 1, 2, t_power(pres.p, s, 1)))
        tabled = verify_relations(pres, assign, pres.p, s)
        listed = verify_relations(list(pres.relations), assign, pres.p, s)
        oracle = {"sl": oracles.steinberg_sl, "unipotent":
                  oracles.steinberg_unipotent, "tilde-gamma":
                  oracles.steinberg_tilde}[pres.name]
        dim = pres.n + 1 if pres.name == "unipotent" else pres.n
        by_objects = verify_relations(oracle(dim, pres.p, pres.d)[1], assign,
                                      pres.p, s)
        assert tabled.violations
        assert tabled.violations == listed.violations == by_objects.violations
        assert tabled.checked == listed.checked == by_objects.checked
        assert tabled.by_kind == listed.by_kind == by_objects.by_kind
        order = {rel: k for k, rel in enumerate(pres.relations)}
        ranks = [order[rel] for rel in tabled.violations]
        assert ranks == sorted(ranks)

    def test_chamber_table_same_violations_as_list(self):
        pre, chamber = chamber_relation_sets(3, 2, 1)
        assign = {sym: elementary(3, *sym.root, lift_to(sym.r, 2)).flat()
                  for sym in chamber.used_symbols()}
        sym = chamber.used_symbols()[5]
        assign[sym] = _times(assign[sym], 2, 2,
                             elementary(3, 2, 4, one_poly(2, 2)))
        for table in (pre, chamber):
            rep = verify_relations(table, assign, 2, 2)
            assert rep.violations
            assert rep.violations == verify_relations(list(table), assign,
                                                      2, 2).violations


class TestNoObjectsOnTheTabledPath:
    def _count_instances(self, monkeypatch):
        made = []
        post_init = RelationInstance.__post_init__

        def counted(rel):
            made.append(1)
            post_init(rel)

        monkeypatch.setattr(RelationInstance, "__post_init__", counted)
        return made

    def test_build_assign_verify_make_no_relation_instance(self, monkeypatch):
        made = self._count_instances(monkeypatch)
        pres = presentation_SL(3, 3, 1)
        rep = verify_relations(pres, standard_assignment(pres, 3, 4), 3, 4)
        assert rep.ok and rep.checked == 10164 and rep.violations == ()
        assert rep.by_kind == pres.counts_by_kind()
        assert len(pres.pair_set()) == 72
        assert made == []
        assert len(pres.relations) == len(made) == 10164

    def test_violations_alone_are_materialized(self, monkeypatch):
        made = self._count_instances(monkeypatch)
        pres = presentation_SL(3, 2, 1)
        assign = standard_assignment(pres, 3, 2)
        sym = pres.generators[0]
        assign[sym] = _times(assign[sym], 2, 2,
                             elementary(3, 1, 2, one_poly(2, 2)))
        rep = verify_relations(pres, assign, 2, 2)
        assert 0 < len(rep.violations) == len(made) < len(pres.table)

    def test_suite_steinberg_rows_call_verify_relations(self, monkeypatch):
        made = self._count_instances(monkeypatch)
        calls = []
        verify = presentations.verify_relations

        def counted(*args):
            calls.append(1)
            return verify(*args)

        monkeypatch.setattr(presentations, "verify_relations", counted)
        ok, detail = cli._check_steinberg_sl(3, 3, 1, 4,
                                             expect=(108, 10164, 72))
        assert ok and detail["relations"] == 10164
        assert calls == [1] and made == []


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
    pres = presentation_SL(3, p, 1)
    assign = standard_assignment(pres, 3, s)
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
    assert verify_relations(pres, assign, p, s).ok
    if path == "tables":
        assert calls == {"matmul_batch", "inverse_batch"} and built == [p**s]
    else:
        assert calls == {"matmul_digits", "inverse_digits"} and built == []


class TestExponents:
    """Letters are x or x^-1: any other exponent is refused when the
    relation is made, and x^-1 is the inverse on both evaluation paths."""

    X = GeneratorSymbol((1, 2), make_poly(5, 2, (2, 1)))
    SRC = ((1, 2), (1, 2))

    @pytest.mark.parametrize("exp", [2, 0, -2, 3])
    def test_other_exponents_raise(self, exp):
        x = self.X
        with pytest.raises(ParameterError, match="exponent"):
            RelationInstance(((x, exp),), ((x, 1), (x, 1)), "additive",
                             self.SRC)
        with pytest.raises(ParameterError, match="exponent"):
            RelationInstance(((x, 1),), ((x, exp),), "additive", self.SRC)

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
        x = self.X
        rel = lambda lhs, rhs: RelationInstance(lhs, rhs, "additive", self.SRC)
        holds = [rel(((x, 1), (x, 1), (x, -1)), ((x, 1),)),
                 rel(((x, 1), (x, -1)), ()),
                 rel(((x, -1), (x, 1), (x, 1)), ((x, 1),))]
        fails = [rel(((x, -1),), ((x, 1),)),
                 rel(((x, 1), (x, 1)), ()),
                 rel(((x, -1), (x, -1)), ((x, 1), (x, 1)))]
        assign = {x: elementary(1, 1, 2, lift_to(x.r, s)).flat()}
        rep = verify_relations(holds + fails, assign, 5, s)
        assert rep.checked == 6
        assert rep.violations == tuple(fails)
        assert slow_calls == ([] if tabled else [1])
