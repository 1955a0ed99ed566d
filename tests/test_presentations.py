import pytest

from cosetx import presentations
from cosetx.errors import ParameterError
from cosetx.groups import MatElement, elementary
from cosetx.presentations import (KINDS, GeneratorSymbol, Presentation,
                                  RelationInstance,
                                  chamber_pair_sets, chamber_relation_sets,
                                  presentation_SL, presentation_unipotent,
                                  standard_assignment,
                                  tilde_gamma_presentation, verify_relations)
from cosetx.ring import RingTable, TruncPoly


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
            rep = verify_relations(pres, standard_assignment(pres, s))
            assert rep.ok
            assert rep.checked == len(pres.relations)
            assert rep.violations == ()

    def test_corrupted_assignment_caught(self):
        pres = presentation_SL(3, 2, 1)
        assign = standard_assignment(pres, 2)
        sym = pres.generators[0]
        assign[sym] = assign[sym] @ elementary(
            3, 1, 2, TruncPoly.one(2, 2))  # off by an elementary factor
        rep = verify_relations(pres, assign)
        assert not rep.ok
        assert len(rep.violations) > 0
        assert any(v for v in rep.by_kind.values())

    def test_assignment_needs_room(self):
        pres = presentation_SL(3, 2, 1)
        with pytest.raises(ParameterError):
            standard_assignment(pres, 1)  # s must exceed d


class TestUnipotent:
    def test_pinned_counts(self):
        pres = presentation_unipotent(5, 3, 1)
        assert len(pres.relations) == 5593
        assert pres.n == 4

    def test_verifies_in_matrices(self):
        pres = presentation_unipotent(4, 2, 1)
        rep = verify_relations(pres, standard_assignment(pres, 2))
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
        assign = {sym: elementary(2, *sym.root, sym.r.lift_to(2))
                  for sym in syms}
        assert verify_relations(ch_rels, assign).ok
        assert verify_relations(pre_rels, assign).ok
        assert len(pre_rels) <= len(ch_rels)


    def test_untabled_path_reports_the_tabled_violations(self, monkeypatch):
        """s = 13 (q = 8192) is past RingTable.MAX_Q, so the relations are
        evaluated one at a time by MatElement arithmetic; with one
        generator's matrix wrong it flags the same relations as the
        batched path at s = 5, in the same order: relation order.  The
        wrong generator breaks additive, commuting and Steinberg product
        relations of three different root pairs, so words of different
        lengths interleave among the violations."""
        assert 2**13 > RingTable.MAX_Q >= 2**5
        slow_calls = []
        slow = presentations._verify_matrices_slow

        def counted_slow(*args):
            slow_calls.append(1)
            return slow(*args)

        monkeypatch.setattr(presentations, "_verify_matrices_slow",
                            counted_slow)
        _, ch_rels = chamber_relation_sets(2, 2, 1)
        syms = sorted({sym for rel in ch_rels for sym in rel.symbols()},
                      key=str)
        bad_sym = next(sym for sym in syms
                       if sym.root == (1, 3) and sym.r.coeffs == (1, 1))
        flagged = []
        for s in (5, 13):
            assign = {sym: elementary(2, *sym.root, sym.r.lift_to(s))
                      for sym in syms}
            # off by e_12(t): the matrix of another generator's root
            assign[bad_sym] = assign[bad_sym] @ elementary(
                2, 1, 2, TruncPoly.t_power(2, s, 1))
            rep = verify_relations(ch_rels, assign)
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
        rep = verify_relations(pres, standard_assignment(pres, 2))
        assert rep.ok

    def test_needs_n3(self):
        with pytest.raises(ParameterError):
            tilde_gamma_presentation(2, 2, 1)


class TestSymbols:
    def test_independent_symbols_are_equal_keys(self):
        """Symbols built separately from equal (root, r) are equal, hash
        equal and find each other in a user-built assignment."""
        r = TruncPoly.make(2, 2, (1, 1))
        a = GeneratorSymbol((1, 2), r)
        b = GeneratorSymbol((1, 2), TruncPoly.make(2, 2, [1, 1]))
        assert a is not b and a == b and hash(a) == hash(b)
        assert a != GeneratorSymbol((2, 1), r)
        assert a != GeneratorSymbol((1, 2), TruncPoly.one(2, 2))
        pres = presentation_SL(3, 2, 1)
        assign = {GeneratorSymbol(sym.root, TruncPoly.make(2, 2, sym.r.coeffs)):
                  elementary(3, *sym.root, sym.r.lift_to(2))
                  for sym in pres.generators}
        assert all(sym in assign for sym in pres.generators)
        assert verify_relations(pres, assign).ok

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
        outside = GeneratorSymbol((1, 2), TruncPoly.make(2, 3, (0, 0, 1)))
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
        sym = GeneratorSymbol((1, 2), TruncPoly.make(2, 2, (1, 1)))
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
