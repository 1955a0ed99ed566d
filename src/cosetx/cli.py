"""Command-line surface: one binary, a subcommand per module.

Every JSON report carries the same envelope (tool version, full parameter
set, caps, seed) and is serialized with sorted keys, so identical
invocations produce byte-identical output.  Wall-clock timings are opt-in
via --timings precisely because they would break that guarantee.

Exit codes: 0 success, 1 verification failure (violated relations,
failed spectral threshold, incomplete coverage, failed suite checks),
2 usage/input errors, 3 resource-cap overruns and memory exhaustion.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
import time
from fractions import Fraction

import numpy as np

from . import __version__
from .errors import (InputError, NumericalError, ParameterError,
                     ResourceLimitError, StructureError)

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


# ---------------------------------------------------------------------------
# report plumbing


def _rat(x):
    """Exact rationals travel as strings; None passes through."""
    if x is None:
        return None
    if isinstance(x, (Fraction, int)):
        return str(x)
    return x


def _write(out: str, content: str) -> None:
    if out == "-" or out is None:
        sys.stdout.write(content)
        if not content.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(out, "w") as fh:
            fh.write(content)


def _emit(args, command: str, params: dict, result: dict,
          text_lines=None, seed=None, caps=None, t0=None,
          timings=None) -> None:
    doc = {
        "tool": "cosetx",
        "version": __version__,
        "command": command,
        "params": params,
        "caps": caps or {},
        "seed": seed,
        "result": result,
    }
    if args.timings and t0 is not None:
        doc["timings"] = {"wall_s": time.perf_counter() - t0,
                          **(timings or {})}
    if args.format == "text" and text_lines is not None:
        _write(args.out, "\n".join(text_lines))
    else:
        _write(args.out, json.dumps(doc, sort_keys=True, indent=2))


# ---------------------------------------------------------------------------
# ring


def _cmd_ring_parse(args) -> int:
    from .ring import parse_poly

    poly = parse_poly(args.expr, args.p, args.s)
    result = {"text": str(poly), "compact": poly.compact(),
              "coeffs": list(poly.coeffs), "p": poly.p, "s": poly.s}
    _emit(args, "ring parse", {"expr": args.expr, "p": args.p, "s": args.s},
          result, text_lines=[f"{poly}  =  {poly.compact()}"])
    return EXIT_OK


def _cmd_ring_op(args) -> int:
    from .ring import parse_poly, poly_add, poly_mul

    a = parse_poly(args.a, args.p, args.s)
    b = parse_poly(args.b, a.p, a.s)
    out = poly_add(a, b) if args.op == "add" else poly_mul(a, b)
    result = {"a": a.compact(), "b": b.compact(), "op": args.op,
              "text": str(out), "compact": out.compact()}
    _emit(args, "ring op",
          {"op": args.op, "a": args.a, "b": args.b, "p": args.p, "s": args.s},
          result, text_lines=[f"({a}) {args.op} ({b}) = {out}"])
    return EXIT_OK


# ---------------------------------------------------------------------------
# group


def _cmd_group_enum(args) -> int:
    from .groups import elementary_subgroup

    d = args.s - 1 if args.d is None else args.d
    t0 = time.perf_counter()
    G = elementary_subgroup(args.n, args.p, args.s, d, cap=args.cap)
    # canonical keys: base-q digits of the row-major entries, entry 0 lowest
    packed = [format(int(k), "x") for k in G.keys]
    if args.format == "json":
        result = {"n": args.n, "p": args.p, "s": args.s, "d": d,
                  "order": G.size, "elements": packed}
        _emit(args, "group enum",
              {"n": args.n, "p": args.p, "s": args.s, "d": d},
              result, caps={"cap": args.cap}, t0=t0)
        return EXIT_OK
    # the dump format: header then one packed-hex element per line
    lines = [f"{args.n} {args.p} {args.s} {G.size}"]
    lines.extend(packed)
    _write(args.out, "\n".join(lines) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# complex


def _cmd_complex_build(args) -> int:
    from .complexes import build_ko_complex, dumps_complex, save_complex

    t0 = time.perf_counter()
    X = build_ko_complex(args.n, args.p, args.s, args.d, cap=args.cap)
    if args.out in ("-", None):
        sys.stdout.write(dumps_complex(X))
        return EXIT_OK
    save_complex(X, args.out)
    result = {"written": args.out, "f_vector": list(X.f_vector()),
              "n": X.n, "vertex_count": X.vertex_count,
              "max_faces": len(X.max_faces)}
    # --out already names the complex file; the report goes to stdout
    report_args = argparse.Namespace(**{**vars(args), "out": "-"})
    _emit(report_args, "complex build",
          {"preset": args.preset, "n": args.n, "p": args.p, "s": args.s,
           "d": args.d},
          result, caps={"cap": args.cap}, t0=t0,
          text_lines=[f"wrote {args.out}: f = {X.f_vector()}"])
    return EXIT_OK


def _cmd_complex_stats(args) -> int:
    from .complexes import load_complex, weights

    X = load_complex(args.file)
    wt = weights(X)
    totals = {str(k): _rat(wt.total(k)) for k in range(X.n + 1)}
    weights_ok = all(wt.total(k) == 1 for k in range(X.n + 1))
    result = {
        "n": X.n,
        "vertex_count": X.vertex_count,
        "f_vector": list(X.f_vector()),
        "euler_characteristic": X.euler_characteristic(),
        "partite": X.colors is not None,
        "n_colors": (None if X.colors is None
                     else int(X.colors.max()) + 1 if X.vertex_count else 0),
        "connected": X.is_connected(),
        "weight_totals": totals,
        "weights_ok": weights_ok,
    }
    _emit(args, "complex stats", {"file": args.file}, result,
          text_lines=[f"f = {X.f_vector()}, chi = "
                      f"{X.euler_characteristic()}, "
                      f"{'partite' if result['partite'] else 'uncolored'}, "
                      f"weights {'ok' if weights_ok else 'BROKEN'}"])
    return EXIT_OK


# ---------------------------------------------------------------------------
# cohomology / expansion


def _witness_support(X, res) -> list | None:
    if res.witness is None:
        return None
    edges = X.faces(1)
    ident = res.witness.lam.identity
    return [[int(u), int(v), int(val)]
            for (u, v), val in zip(edges.tolist(), res.witness.values)
            if val != ident]


def _cmd_cohomology_h1(args) -> int:
    from .cohomology import h1_trivial, parse_coefficients
    from .complexes import load_complex

    X = load_complex(args.complex)
    lam = parse_coefficients(getattr(args, "lambda"))
    t0 = time.perf_counter()
    res = h1_trivial(X, lam, mode=args.mode, cap=args.cap)
    result = {
        "trivial": res.trivial,
        "mode": res.mode,
        "classes": res.classes,
        "lambda": {"name": lam.name, "size": lam.size},
        "witness_support": _witness_support(X, res),
    }
    _emit(args, "cohomology h1",
          {"complex": args.complex, "lambda": getattr(args, "lambda"),
           "mode": args.mode},
          result, caps={"cap": args.cap}, t0=t0,
          text_lines=[res.summary()])
    return EXIT_OK


def _cmd_expansion_h0(args) -> int:
    from .cohomology import expansion_h0, parse_coefficients
    from .complexes import load_complex

    X = load_complex(args.complex)
    lam = parse_coefficients(getattr(args, "lambda"))
    t0 = time.perf_counter()
    val = expansion_h0(X, lam, cap=args.cap)
    _emit(args, "expansion h0",
          {"complex": args.complex, "lambda": getattr(args, "lambda")},
          {"h0_cobound": _rat(val)}, caps={"cap": args.cap}, t0=t0,
          text_lines=[f"h0_cobound = {val}"])
    return EXIT_OK


def _cmd_expansion_h1(args) -> int:
    from .cohomology import expansion_h1, parse_coefficients
    from .complexes import load_complex

    X = load_complex(args.complex)
    lam = parse_coefficients(getattr(args, "lambda"))
    t0 = time.perf_counter()
    rep = expansion_h1(X, lam, mode=args.mode, cap=args.cap,
                       seed=args.seed, iters=args.iters)
    result = {
        "exact": rep.exact,
        "mode": rep.mode,
        "h1_cobound": _rat(rep.h1_cobound),
        "h1_cosys": _rat(rep.h1_cosys),
        "min_systole": _rat(rep.min_systole),
    }
    if not rep.exact:
        result["note"] = "search mode: h1_cobound is an upper bound only"
    _emit(args, "expansion h1",
          {"complex": args.complex, "lambda": getattr(args, "lambda"),
           "mode": args.mode, "iters": args.iters},
          result, seed=args.seed, caps={"cap": args.cap}, t0=t0,
          text_lines=[rep.summary()])
    return EXIT_OK


# ---------------------------------------------------------------------------
# propagate


def _cmd_propagate(args) -> int:
    from .roots import verify_propagation

    t0 = time.perf_counter()
    rep = verify_propagation(args.n, args.stages)
    result = rep.to_json_dict()
    result["uncovered_per_stage"] = [
        rep.pairs_total - c for c in rep.covered_counts]
    _emit(args, "propagate", {"n": args.n, "stages": args.stages}, result,
          t0=t0,
          text_lines=[f"n={args.n}: stages {rep.stage_sizes}, covered "
                      f"{rep.covered_counts} of {rep.pairs_total}, "
                      f"{'COMPLETE' if rep.complete else 'INCOMPLETE'}"])
    return EXIT_OK if rep.complete else EXIT_VERIFY


# ---------------------------------------------------------------------------
# relations


def _preset_relations(preset: str, n: int, p: int, d: int):
    """Relation list for a preset; Presentation when the preset has one."""
    from .presentations import (chamber_relation_sets, presentation_SL,
                                presentation_unipotent,
                                tilde_gamma_presentation)

    if preset == "sl":
        pres = presentation_SL(n, p, d)
        return list(pres.relations), pres
    if preset == "unip":
        pres = presentation_unipotent(n, p, d)  # here --n is the matrix size
        return list(pres.relations), pres
    if preset == "tilde":
        pres = tilde_gamma_presentation(n, p, d)
        return list(pres.relations), pres
    pre, chamber = chamber_relation_sets(n, p, d)
    return (pre if preset == "prechamber" else chamber), None


def _word_json(word) -> list:
    return [[list(sym.root), list(sym.r.coeffs), e] for sym, e in word]


def _cmd_relations_emit(args) -> int:
    rels, pres = _preset_relations(args.preset, args.n, args.p, args.d)
    by_kind: dict[str, int] = {}
    for rel in rels:
        by_kind[rel.kind] = by_kind.get(rel.kind, 0) + 1
    result = {
        "preset": args.preset,
        "relation_count": len(rels),
        "counts_by_kind": by_kind,
        "generator_count": (len(pres.generators) if pres else
                            len({sym for rel in rels
                                 for sym in rel.symbols()})),
        "relations": [{
            "kind": rel.kind,
            "pair": [list(rel.source_pair[0]), list(rel.source_pair[1])],
            "lhs": _word_json(rel.lhs),
            "rhs": _word_json(rel.rhs),
        } for rel in rels],
    }
    _emit(args, "relations emit",
          {"preset": args.preset, "n": args.n, "p": args.p, "d": args.d},
          result,
          text_lines=[f"{args.preset}: {len(rels)} relations "
                      + ", ".join(f"{k}={v}"
                                  for k, v in sorted(by_kind.items()))])
    return EXIT_OK


def _cmd_relations_verify(args) -> int:
    from .groups import elementary
    from .presentations import standard_assignment, verify_relations

    t0 = time.perf_counter()
    rels, pres = _preset_relations(args.preset, args.n, args.p, args.d)
    if pres is not None:
        assign = standard_assignment(pres, args.target_s)
    else:
        assign = {sym: elementary(args.n, *sym.root,
                                  sym.r.lift_to(args.target_s))
                  for rel in rels for sym in rel.symbols()}
    t_built = time.perf_counter()
    rep = verify_relations(rels, assign)
    timings = {"build_s": t_built - t0,
               "verify_s": time.perf_counter() - t_built}
    result = {
        "preset": args.preset,
        "target_s": args.target_s,
        "checked": rep.checked,
        "violations": len(rep.violations),
        "by_kind": rep.by_kind,
        "violation_examples": [str(r) for r in rep.violations[:5]],
    }
    _emit(args, "relations verify",
          {"preset": args.preset, "n": args.n, "p": args.p, "d": args.d,
           "target_s": args.target_s},
          result, t0=t0, timings=timings, text_lines=[rep.summary()])
    return EXIT_OK if rep.ok else EXIT_VERIFY


# ---------------------------------------------------------------------------
# spectral


def _cmd_spectral_links(args) -> int:
    from .spectral import ko_link_report, local_spectral_report

    t0 = time.perf_counter()
    if args.complex is not None:
        if args.threshold is None:
            raise ParameterError("--threshold is required with --complex")
        from .complexes import load_complex
        rep = local_spectral_report(load_complex(args.complex),
                                    args.threshold)
        params = {"complex": args.complex, "threshold": args.threshold}
    else:
        for name in ("n", "p", "s", "d"):
            if getattr(args, name) is None:
                raise ParameterError(f"--{name} is required with --preset ko")
        rep = ko_link_report(args.n, args.p, args.s, args.d,
                             threshold=args.threshold, cap=args.cap)
        params = {"preset": "ko", "n": args.n, "p": args.p, "s": args.s,
                  "d": args.d, "threshold": args.threshold}
    _emit(args, "spectral links", params, rep.to_dict(),
          caps={"cap": args.cap}, t0=t0, text_lines=[rep.summary()])
    return EXIT_OK if rep.passed else EXIT_VERIFY


# ---------------------------------------------------------------------------
# suite


def _sym_index(k: int, perm: tuple) -> int:
    return list(itertools.permutations(range(k))).index(perm)


def _check_propagation(n):
    from .roots import verify_propagation

    rep = verify_propagation(n)
    return rep.complete, {"stage_sizes": rep.stage_sizes,
                          "pairs_total": rep.pairs_total,
                          "covered": rep.covered_counts}


def _check_chamber_sets():
    from .presentations import chamber_pair_sets

    pre2, ch2 = chamber_pair_sets(2)
    pre3, ch3 = chamber_pair_sets(3)
    ok = (set(pre2) == set(ch2)
          and set(pre3) < set(ch3))
    return ok, {"n2_pre": len(pre2), "n2_chamber": len(ch2),
                "n3_pre": len(pre3), "n3_chamber": len(ch3)}


def _check_gamma1_boundary(n_max):
    from .roots import (boundary_of_gamma1_power, chamber_boundary, gamma1,
                        perm_pow)

    mism = 0
    for n in range(3, n_max + 1):
        for l in range(1, n):
            lemma = boundary_of_gamma1_power(n, l)
            generic = chamber_boundary(perm_pow(gamma1(n), l))
            if lemma != generic:
                mism += 1
    return mism == 0, {"n_max": n_max, "mismatches": mism}


def _check_lemmas_exhaustive(n_max):
    from .roots import (all_roots, covered_pairs, gamma0, gamma1,
                        chamber_roots, compose, initial_stage, opposite,
                        pair_covered, perm_pow)

    failures = 0
    for n in range(3, n_max + 1):
        roots = all_roots(n)
        cs0 = initial_stage(n)
        cov0 = covered_pairs(cs0)
        # shared-index pairs are stage-0 covered
        for r1 in roots:
            for r2 in roots:
                if r2 == opposite(r1):
                    continue
                key = tuple(sorted((r1, r2)))
                if (r1[0] == r2[0] or r1[1] == r2[1]) and key not in cov0:
                    failures += 1
        # (i,i+1) against everything non-opposite
        for i in range(1, n + 1):
            r1 = (i, i + 1)
            for r2 in roots:
                if r2 == opposite(r1):
                    continue
                if not pair_covered(r1, r2, cs0):
                    failures += 1
        # every non-opposite pair in some C_{gamma_0^t gamma_1^l}
        union = set()
        for t in range(n + 1):
            for l in range(n):
                g = compose(perm_pow(gamma0(n), t), perm_pow(gamma1(n), l))
                ch = chamber_roots(g)
                for a in ch:
                    for b in ch:
                        union.add(tuple(sorted((a, b))))
        for a in range(len(roots)):
            for b in range(a, len(roots)):
                r1, r2 = roots[a], roots[b]
                if r2 == opposite(r1):
                    continue
                if tuple(sorted((r1, r2))) not in union:
                    failures += 1
    return failures == 0, {"n_max": n_max, "failures": failures}


def _check_steinberg_sl(n, p, d, target_s, expect=None):
    from .presentations import (presentation_SL, standard_assignment,
                                verify_relations)

    pres = presentation_SL(n, p, d)
    rep = verify_relations(pres, standard_assignment(pres, target_s))
    detail = {"generators": len(pres.generators),
              "relations": len(pres.relations),
              "pairs": len(pres.pair_set()),
              "violations": len(rep.violations)}
    ok = rep.ok
    if expect is not None:
        ok = ok and (detail["generators"], detail["relations"],
                     detail["pairs"]) == expect
        detail["expected"] = list(expect)
    return ok, detail


def _commutator_power_attempts(rng, attempts):
    """(qualifies, holds) boolean arrays for ``attempts`` sampled pairs.

    Each attempt draws, in this order, the s coefficients of r1, those of
    r2, the root of x = e_ij(r1) and the root of y = e_kl(r2), all from
    ``rng``.  ``qualifies`` says whether x commutes with comm = [x, y] =
    x y x^-1 y^-1, and ``holds`` whether comm^p = [x^p, y].  The matrices
    are flat rows over RingTable(p, s), multiplied a whole batch at a
    time; inverses are closed form, e_ij(r)^-1 = e_ij(-r), and
    (x^p)^-1 is computed as (x^-1)^p.
    """
    from ._kernels import identity_flat, matmul_batch
    from .ring import RingTable

    m, p, s = 3, 3, 3
    ring = RingTable(p, s)
    roots = [(i, j) for i in range(1, m + 1)
             for j in range(1, m + 1) if i != j]
    pows = [p**k for k in range(s)]
    draws = []
    for _ in range(attempts):
        r1 = sum(rng.randrange(p) * w for w in pows)
        r2 = sum(rng.randrange(p) * w for w in pows)
        (i, j), (k, l) = rng.choice(roots), rng.choice(roots)
        draws.append((r1, r2, (i - 1) * m + j - 1, (k - 1) * m + l - 1))
    r1, r2, xpos, ypos = np.array(draws, dtype=np.int64).T
    rows = np.arange(attempts)

    def elementaries(pos, r):
        out = np.tile(identity_flat(m), (attempts, 1))
        out[rows, pos] = r
        return out

    def mm(a, b):
        return matmul_batch(a, b, ring.mul, ring.add, m)

    def power(a, e):  # square-and-multiply, e >= 1
        acc = None
        while e:
            if e & 1:
                acc = a if acc is None else mm(acc, a)
            e >>= 1
            if e:
                a = mm(a, a)
        return acc

    x, x_inv = elementaries(xpos, r1), elementaries(xpos, ring.neg[r1])
    y, y_inv = elementaries(ypos, r2), elementaries(ypos, ring.neg[r2])
    comm = mm(mm(mm(x, y), x_inv), y_inv)
    qualifies = (mm(x, comm) == mm(comm, x)).all(axis=1)
    lhs = power(comm, p)
    rhs = mm(mm(mm(power(x, p), y), power(x_inv, p)), y_inv)
    return qualifies, (lhs == rhs).all(axis=1)


def _check_commutator_power(samples, seed):
    """[x, y]^p = [x^p, y] on random pairs of elementaries of SL_3(F_3[t]/t^3).

    Whenever x commutes with [x, y], induction on k gives
    [x, y]^k = [x^k, y]; the check samples pairs e_ij(r1), e_kl(r2) with
    random roots and entries, keeps the first ``samples`` pairs that
    satisfy that hypothesis and counts those that break the identity at
    k = p.  In characteristic p an elementary has x^p = e_ij(p r) = 1, so
    the right side is trivial, but the check still computes both sides.
    Attempts are drawn from a local ``random.Random(seed)`` in chunks, so
    pairs drawn past the last qualifying one change nothing.
    """
    import random

    rng = random.Random(seed)
    holds = np.zeros(0, dtype=bool)
    while len(holds) < samples:
        need = samples - len(holds)
        qualifies, held = _commutator_power_attempts(rng, 2 * need + 16)
        holds = np.concatenate([holds, held[qualifies]])
    bad = int(np.count_nonzero(~holds[:samples]))
    return bad == 0, {"sampled": samples, "violations": bad}


def _check_quotient_proposition():
    from .complexes import verify_quotient_proposition
    from .groups import subgroup_closure_indices, symmetric_group

    results = []
    G3 = symmetric_group(3)
    swap12 = _sym_index(3, (1, 0, 2))
    swap23 = _sym_index(3, (0, 2, 1))
    cyc3 = _sym_index(3, (1, 2, 0))
    a3 = subgroup_closure_indices(G3, [cyc3])
    results.append(verify_quotient_proposition(
        G3, [subgroup_closure_indices(G3, [swap12]),
             subgroup_closure_indices(G3, [swap23])], a3))
    G4 = symmetric_group(4)
    subs = [subgroup_closure_indices(G4, [_sym_index(4, perm)])
            for perm in ((1, 0, 2, 3), (0, 2, 1, 3), (0, 1, 3, 2))]
    v4 = subgroup_closure_indices(
        G4, [_sym_index(4, (1, 0, 3, 2)), _sym_index(4, (2, 3, 0, 1))])
    results.append(verify_quotient_proposition(G4, subs, v4))
    return all(results), {"instances": len(results),
                          "passed": sum(bool(r) for r in results)}


def _check_weight_normalization():
    from . import fixtures
    from .complexes import weights

    bad = 0
    complexes = [fixtures.single_triangle(), fixtures.tetrahedron_sphere(),
                 fixtures.octahedron(), fixtures.torus_7(),
                 fixtures.cycle_complex(6)]
    for X in complexes:
        wt = weights(X)
        for k in range(X.n + 1):
            if wt.total(k) != 1:
                bad += 1
    return bad == 0, {"complexes": len(complexes), "violations": bad}


def _check_h1_modes():
    from . import fixtures
    from .cohomology import h1_trivial, parse_coefficients

    T = fixtures.single_triangle()
    SPH = fixtures.tetrahedron_sphere()
    lams = [parse_coefficients(s) for s in ("zmod:2", "zmod:3", "sym:3")]
    ok = True
    for X in (T, SPH):
        for lam in lams:
            g = h1_trivial(X, lam, mode="gauge")
            b = h1_trivial(X, lam, mode="brute")
            ok = ok and (g.trivial == b.trivial is True)
    return ok, {"complexes": 2, "groups": [l.name for l in lams]}


def _check_h1_torus():
    from . import fixtures
    from .cohomology import h1_class_census, h1_trivial, parse_coefficients

    TOR = fixtures.torus_7()
    z2 = parse_coefficients("zmod:2")
    census = h1_class_census(TOR, z2)
    brute = h1_trivial(TOR, z2, mode="brute")
    ok = (not census.trivial and census.classes == 4
          and not brute.trivial and brute.classes == 4)
    return ok, {"classes_gauge": census.classes,
                "classes_brute": brute.classes}


def _check_h0_values():
    from . import fixtures
    from .cohomology import expansion_h0, parse_coefficients

    z2 = parse_coefficients("zmod:2")
    vals = {
        "triangle": expansion_h0(fixtures.single_triangle(), z2),
        "cycle6": expansion_h0(fixtures.cycle_complex(6), z2),
        "k4": expansion_h0(fixtures.complete_graph(4), z2),
    }
    ok = (vals["triangle"] == 2 and vals["cycle6"] == Fraction(2, 3)
          and vals["k4"] == Fraction(4, 3))
    return ok, {k: _rat(v) for k, v in vals.items()}


def _check_h1_expansion_torus():
    from . import fixtures
    from .cohomology import expansion_h1, parse_coefficients

    rep = expansion_h1(fixtures.torus_7(), parse_coefficients("zmod:2"))
    ok = (rep.exact and rep.h1_cobound == 0 and rep.h1_cosys > 0
          and rep.min_systole is not None and rep.min_systole > 0)
    return ok, {"h1_cobound": _rat(rep.h1_cobound),
                "h1_cosys": _rat(rep.h1_cosys),
                "min_systole": _rat(rep.min_systole)}


def _check_ko_counts():
    from .complexes import build_ko_complex

    X = build_ko_complex(2, 2, 2, 1)
    ok = X.f_vector() == (2016, 32256, 43008)
    return ok, {"f_vector": list(X.f_vector())}


def _check_spectral_fixtures():
    from . import fixtures
    from .spectral import second_eigenvalue, walk_matrix

    def lam2(X):
        return second_eigenvalue(walk_matrix(X))

    vals = {
        "k4": lam2(fixtures.complete_graph(4)),
        "k7": lam2(fixtures.complete_graph(7)),
        "cycle6": lam2(fixtures.cycle_complex(6)),
        "petersen": lam2(fixtures.petersen_graph()),
    }
    ok = (abs(vals["k4"] + 1 / 3) < 1e-9 and abs(vals["k7"] + 1 / 6) < 1e-9
          and abs(vals["cycle6"] - 0.5) < 1e-9
          and abs(vals["petersen"] - 1 / 3) < 1e-9)
    return ok, {k: round(v, 12) for k, v in vals.items()}


def _check_spectral_ko(p, s, threshold):
    from .spectral import ko_link_report

    rep = ko_link_report(2, p, s, 1, threshold=threshold)
    return rep.passed, {"p": p, "s": s,
                        "max_second": round(rep.max_second, 12),
                        "threshold": threshold}


def _check_dd_bound():
    from .cohomology import dd_bound

    ok = (dd_bound(0, 24) == 1.0 and dd_bound(0, 1) == 1 / 24
          and dd_bound(0.1, 1) < 0)
    return ok, {"dd(0,24)": dd_bound(0, 24), "dd(0,1)": dd_bound(0, 1)}


def _check_ring_roundtrip():
    from .ring import parse_poly

    samples = ["[0,0,0]@2,3", "[1,1,0]@2,3", "[4,0,3]@5,3", "[2,1]@3,2",
               "[1,2,3,4]@5,4"]
    ok = all(parse_poly(parse_poly(c).compact()).compact() == c
             and parse_poly(str(parse_poly(c)),
                            p=parse_poly(c).p,
                            s=parse_poly(c).s).compact() == c
             for c in samples)
    return ok, {"samples": len(samples)}


def _check_group_orders():
    from .groups import reduction_kernel, sl_group, sl_order

    G = sl_group(1, 3, 2)
    ok = G.size == sl_order(2, 3, 2)
    K = reduction_kernel(1, 3, 2, 1)
    orders = {K.element_order(a) for a in range(K.size) if a != K.identity}
    # the congruence kernel at p=3 is elementary abelian: I + tA, A traceless
    ok = ok and K.size == 27 and orders == {3}
    return ok, {"sl_2_F3t2": G.size, "kernel_size": K.size,
                "kernel_orders": sorted(orders)}


def _check_quotient_cohomology():
    """Vanishing descends: trivial upstairs stays trivial downstairs."""
    from .cohomology import h1_trivial, parse_coefficients
    from .complexes import (coset_complex, left_translation_action,
                            quotient_by_action)
    from .groups import subgroup_closure_indices, symmetric_group

    G = symmetric_group(4)
    s1, s2, s3 = (1, 0, 2, 3), (0, 2, 1, 3), (0, 1, 3, 2)
    # maximal parabolics: the coset complex is the 14-vertex 2-sphere
    subs = [subgroup_closure_indices(G, [_sym_index(4, a), _sym_index(4, b)])
            for a, b in ((s2, s3), (s1, s3), (s1, s2))]
    X = coset_complex(G, subs)
    z3 = parse_coefficients("zmod:3")
    up = h1_trivial(X, z3)
    v4 = subgroup_closure_indices(
        G, [_sym_index(4, (1, 0, 3, 2)), _sym_index(4, (2, 3, 0, 1))])
    perms = left_translation_action(X, G, (int(x) for x in v4))
    Y, _ = quotient_by_action(X, perms)
    down = h1_trivial(Y, z3)
    ok = (X.f_vector() == (14, 36, 24) and up.trivial
          and Y.f_vector() == (5, 7, 3) and down.trivial)
    return ok, {"upstairs_f": list(X.f_vector()),
                "upstairs_trivial": up.trivial,
                "downstairs_trivial": down.trivial,
                "quotient_f_vector": list(Y.f_vector())}


def _suite_checks(quick: bool, seed: int):
    checks = [
        ("propagation-n3", lambda: _check_propagation(3)),
        ("propagation-n4", lambda: _check_propagation(4)),
        ("chamber-pair-sets", _check_chamber_sets),
        ("gamma1-boundary", lambda: _check_gamma1_boundary(5)),
        ("steinberg-sl-3-2-1",
         lambda: _check_steinberg_sl(3, 2, 1, 2, expect=(48, 1644, 72))),
        ("commutator-power", lambda: _check_commutator_power(50, seed)),
        ("quotient-proposition", _check_quotient_proposition),
        ("weight-normalization", _check_weight_normalization),
        ("h1-modes-agree", _check_h1_modes),
        ("h1-torus-census", _check_h1_torus),
        ("h0-fixtures", _check_h0_values),
        ("h1-expansion-torus", _check_h1_expansion_torus),
        ("ko-counts-2-2-2-1", _check_ko_counts),
        ("spectral-fixtures", _check_spectral_fixtures),
        ("spectral-ko-p2", lambda: _check_spectral_ko(2, 2, 0.999)),
        ("dd-bound", _check_dd_bound),
        ("ring-roundtrip", _check_ring_roundtrip),
        ("group-orders", _check_group_orders),
    ]
    if not quick:
        checks += [
            ("propagation-n5", lambda: _check_propagation(5)),
            ("lemmas-exhaustive-n6", lambda: _check_lemmas_exhaustive(6)),
            ("steinberg-sl-3-3-1-s4",
             lambda: _check_steinberg_sl(3, 3, 1, 4, expect=(108, 10164, 72))),
            ("commutator-power-1k",
             lambda: _check_commutator_power(1000, seed)),
            ("quotient-cohomology", _check_quotient_cohomology),
            ("spectral-ko-p5",
             lambda: _check_spectral_ko(5, 3, 1 / (math.sqrt(5) - 2) + 1e-6)),
        ]
    return checks


def _cmd_suite(args) -> int:
    t0 = time.perf_counter()
    rows, row_times = [], []
    all_ok = True
    for name, fn in _suite_checks(args.quick, args.seed):
        t_row = time.perf_counter()
        try:
            ok, detail = fn()
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, {"error": f"{type(exc).__name__}: {exc}"}
        all_ok = all_ok and ok
        rows.append({"name": name, "passed": ok, "detail": detail})
        row_times.append({"name": name,
                          "wall_s": time.perf_counter() - t_row})
    result = {"quick": args.quick, "passed": all_ok, "checks": rows}
    lines = [f"{'PASS' if r['passed'] else 'FAIL'}  {r['name']}"
             for r in rows]
    lines.append(f"{'PASS' if all_ok else 'FAIL'}  overall "
                 f"({len(rows)} checks)")
    _emit(args, "suite", {"quick": args.quick}, result, seed=args.seed,
          t0=t0, timings={"checks": row_times}, text_lines=lines)
    return EXIT_OK if all_ok else EXIT_VERIFY


# ---------------------------------------------------------------------------
# parser


def _common(default_format: str = "json") -> argparse.ArgumentParser:
    # one fresh parent per subparser: argparse shares parent actions by
    # reference, so a per-subcommand default would otherwise leak globally
    par = argparse.ArgumentParser(add_help=False)
    par.add_argument("--out", default="-",
                     help="output path, '-' for stdout (default)")
    par.add_argument("--format", choices=("json", "text"),
                     default=default_format)
    par.add_argument("--timings", action="store_true",
                     help="embed wall-clock times (breaks byte-for-byte "
                          "report reproducibility)")
    return par


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="cosetx",
        description="Coset complexes, Steinberg presentations, non-Abelian "
                    "1-cohomology, expansion constants and walk spectra.")
    p.add_argument("--version", action="version",
                   version=f"cosetx {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    ring = sub.add_parser("ring", help="truncated-polynomial arithmetic")
    rsub = ring.add_subparsers(dest="action", required=True)
    rp = rsub.add_parser("parse", parents=[_common()])
    rp.add_argument("expr", help='"c0+c1*t+..." or "[c0,...]@p,s"')
    rp.add_argument("--p", type=int)
    rp.add_argument("--s", type=int)
    rp.set_defaults(func=_cmd_ring_parse)
    ro = rsub.add_parser("op", parents=[_common()])
    ro.add_argument("--op", choices=("add", "mul"), required=True)
    ro.add_argument("a")
    ro.add_argument("b")
    ro.add_argument("--p", type=int)
    ro.add_argument("--s", type=int)
    ro.set_defaults(func=_cmd_ring_op)

    group = sub.add_parser("group", help="matrix-group enumeration")
    gsub = group.add_subparsers(dest="action", required=True)
    ge = gsub.add_parser("enum", parents=[_common("text")])
    ge.add_argument("--n", type=int, required=True)
    ge.add_argument("--p", type=int, required=True)
    ge.add_argument("--s", type=int, required=True)
    ge.add_argument("--d", type=int, default=None,
                    help="generator degree bound (default s-1: full group)")
    ge.add_argument("--cap", type=int, default=1 << 24)
    ge.set_defaults(func=_cmd_group_enum)

    cpx = sub.add_parser("complex", help="build and inspect complexes")
    csub = cpx.add_subparsers(dest="action", required=True)
    cb = csub.add_parser("build", parents=[_common()])
    cb.add_argument("--preset", choices=("ko",), required=True)
    cb.add_argument("--n", type=int, required=True)
    cb.add_argument("--p", type=int, required=True)
    cb.add_argument("--s", type=int, required=True)
    cb.add_argument("--d", type=int, required=True)
    cb.add_argument("--cap", type=int, default=1 << 24)
    cb.set_defaults(func=_cmd_complex_build)
    cs = csub.add_parser("stats", parents=[_common()])
    cs.add_argument("file")
    cs.set_defaults(func=_cmd_complex_stats)

    coho = sub.add_parser("cohomology", help="H^1 decisions")
    hsub = coho.add_subparsers(dest="action", required=True)
    h1 = hsub.add_parser("h1", parents=[_common()])
    h1.add_argument("--complex", required=True)
    h1.add_argument("--lambda", required=True,
                    help="zmod:m | sym:k | table:FILE")
    h1.add_argument("--mode", choices=("gauge", "brute"), default="gauge")
    h1.add_argument("--cap", type=int, default=1 << 24)
    h1.set_defaults(func=_cmd_cohomology_h1)

    exp = sub.add_parser("expansion", help="expansion constants")
    esub = exp.add_subparsers(dest="action", required=True)
    e0 = esub.add_parser("h0", parents=[_common()])
    e0.add_argument("--complex", required=True)
    e0.add_argument("--lambda", required=True)
    e0.add_argument("--cap", type=int, default=1 << 24)
    e0.set_defaults(func=_cmd_expansion_h0)
    e1 = esub.add_parser("h1", parents=[_common()])
    e1.add_argument("--complex", required=True)
    e1.add_argument("--lambda", required=True)
    e1.add_argument("--mode", choices=("exact", "search"), default="exact")
    e1.add_argument("--cap", type=int, default=1 << 24)
    e1.add_argument("--seed", type=int, default=0)
    e1.add_argument("--iters", type=int, default=32)
    e1.set_defaults(func=_cmd_expansion_h1)

    prop = sub.add_parser("propagate", parents=[_common()],
                          help="root-pair coverage of the chamber stages")
    prop.add_argument("--n", type=int, required=True)
    prop.add_argument("--stages", type=int, default=2)
    prop.set_defaults(func=_cmd_propagate)

    rel = sub.add_parser("relations", help="Steinberg relation sets")
    relsub = rel.add_subparsers(dest="action", required=True)
    re_ = relsub.add_parser("emit", parents=[_common()])
    re_.add_argument("--preset", required=True,
                     choices=("sl", "unip", "chamber", "prechamber", "tilde"))
    re_.add_argument("--n", type=int, required=True,
                     help="root-system rank (matrix size for unip)")
    re_.add_argument("--p", type=int, required=True)
    re_.add_argument("--d", type=int, required=True)
    re_.set_defaults(func=_cmd_relations_emit)
    rv = relsub.add_parser("verify", parents=[_common()])
    rv.add_argument("--preset", required=True,
                    choices=("sl", "unip", "chamber", "prechamber", "tilde"))
    rv.add_argument("--n", type=int, required=True)
    rv.add_argument("--p", type=int, required=True)
    rv.add_argument("--d", type=int, required=True)
    rv.add_argument("--target-s", type=int, required=True, dest="target_s")
    rv.set_defaults(func=_cmd_relations_verify)

    spec = sub.add_parser("spectral", help="walk spectra of links")
    ssub = spec.add_subparsers(dest="action", required=True)
    sl = ssub.add_parser("links", parents=[_common()])
    sl.add_argument("--preset", choices=("ko",))
    sl.add_argument("--complex", default=None)
    sl.add_argument("--n", type=int)
    sl.add_argument("--p", type=int)
    sl.add_argument("--s", type=int)
    sl.add_argument("--d", type=int)
    sl.add_argument("--threshold", type=float, default=None)
    sl.add_argument("--cap", type=int, default=1 << 24)
    sl.set_defaults(func=_cmd_spectral_links)

    suite = sub.add_parser("suite", parents=[_common()],
                           help="self-check battery")
    suite.add_argument("--quick", action="store_true")
    suite.add_argument("--seed", type=int, default=0)
    suite.set_defaults(func=_cmd_suite)
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ResourceLimitError, MemoryError) as exc:
        # numpy's failed allocations raise a MemoryError subclass
        print(f"resource cap exceeded: {str(exc) or 'out of memory'}",
              file=sys.stderr)
        return EXIT_RESOURCE
    except (ParameterError, InputError, StructureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
