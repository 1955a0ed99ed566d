"""Non-Abelian cochain calculus in degrees -1, 0, 1 and expansion constants.

Coefficients live in a finite group Lambda given by a multiplication table,
a ``groups.TableGroup`` whose ``table`` and ``inv`` the calculus indexes.
A 0-cochain is an array of Lambda indices over the vertices; a 1-cochain
stores one value per unordered edge, oriented low-to-high, with the reverse
orientation read off as the inverse.  Coboundaries follow

    d0 psi((u, v))    = psi(u) psi(v)^-1
    d1 phi((u, v, w)) = phi((u, v)) phi((v, w)) phi((w, u))

and C^0 acts on cocycles by psi.phi((u, v)) = psi(u) phi((u, v)) psi(v)^-1.

H^1 triviality is decided by spanning-tree gauge fixing: the C^0-stabilizer
of "identity on every tree edge" consists of the constant cochains alone
(a gauge psi fixing a tree edge value e forces psi(u) = psi(v) across it,
hence constancy on a connected complex), so tree-trivial cocycles meet
every cohomology class and two of them are equivalent iff conjugate by a
constant.  Triviality therefore reduces to "the all-identity assignment is
the unique tree-trivial cocycle", searched by backtracking over non-tree
edge values with triangle-equation propagation.

Which edges propagation sets depends on X alone, not on the values or
the queue order: from a consistent assignment of S it sets the closure
cl(S) under "two set edges of a triangle set the third".  Let mu(e) be
-1 on tree edges, else the least, over derivations of e from tree edges
and edges by index, of the largest index used, so mu(e) <= e.  Then
cl(tree + {f < b}) = {mu < b}: both are the edges derivable from indices
below b.  The search branches at the lowest unset edge b, every edge
below b set, so it holds exactly {mu < b} there and branches exactly at
{mu(b) = b}.  mu is the greatest fixed point below mu_0 (-1 on the tree,
e elsewhere) of mu(e) <- min over triangles {e, f, g} of
max(mu(f), mu(g)).  With no branch edge the tree forces every edge, so
the identity is the only tree-trivial cocycle: H^1 is trivial for every
Lambda.

This reduction is not taken on faith: the brute mode re-decides
everything from all of C^0 and all of C^1, and the test suite
cross-validates the two mode answers.  It builds C^1 edge by edge in lex
order and drops a partial cochain as soon as it fails a triangle whose
three edges are all set; it uses no tree and no propagation, and its
work follows the cocycles it finds.  Z^1 and B^1 are each one int16
array of rows in lex order.  Brute mode tests membership in them through
a ``KeyIndex`` of the rows' keys (``_kernels.common.pack_keys``, edge 0
the most significant digit), and B^1 is deduplicated by the same keys.
They are fixed-width at any |Lambda|^|X(1)|, so search mode builds B^1
past 2^64 cochains too.

The spanning tree is the BFS forest that the complex owns and caches
(``SimplicialComplex.spanning_forest``; its order contract is stated in
``complexes.bfs_forest``), and the forcing labels are its one reader.
Connectivity is the complex's cached ``component_count``.  Edges, the
triangle -> edge index and the face counts are read from the complex's
own cached tables as well, so this module keeps no copy of them.

Norms are exact rationals; the distance between cochains is the weighted
measure of their disagreement set, which is orientation-independent since
phi and psi agree at (u, v) iff they agree at (v, u).

Exact degree-1 expansion computes each constant once.  h1_cobound is 0
when some cocycle is not a coboundary; otherwise B^1 = Z^1 as sets (B^1,
the gauge orbit of the identity cocycle, lies in Z^1), so every distance
to B^1 is the distance to Z^1 and h1_cobound = h1_cosys.  A Lambda of prime
order p is cyclic, so g^k -> k for any g != e maps it onto Z/p.  Then d1 is
F_p-linear with kernel Z^1, and translation by a cocycle permutes Z^1, so
||d1 a|| and dist(a, Z^1) are constant on each coset a + Z^1; the scan
visits one cochain per coset.  dist(a, Z^1) is the least weight on the
coset, and one min-plus recursion over a basis of Z^1 gives it for every
coset at once, in integers.  Other Lambda scan all of C^1 a block of
rows at a time, each row's distance to Z^1 taken against the whole Z^1
array in integer face counts.
"""

from __future__ import annotations

import dataclasses
import math
import random
import re
import warnings
from fractions import Fraction

import numpy as np

from ._kernels.common import KeyIndex, lex_keys, unique_rows, unpack_keys
from .complexes import SimplicialComplex, WeightTable
from .errors import (DEFAULT_CAP, InputError, ParameterError,
                     ResourceLimitError, StructureError)
from .groups import TableGroup, symmetric_group
from .ring import is_prime

MAX_COEFF_ORDER = 4096


# ---------------------------------------------------------------------------
# coefficient groups


def _check_coeff_order(order: int) -> None:
    if order > MAX_COEFF_ORDER:
        raise ResourceLimitError(
            f"coefficient group order {order} exceeds {MAX_COEFF_ORDER}")


def zmod(m: int) -> TableGroup:
    """Cyclic group Z/m, identity 0."""
    if m < 1:
        raise ParameterError(f"modulus must be positive, got {m}")
    _check_coeff_order(m)
    idx = np.arange(m)
    return TableGroup((idx[:, None] + idx[None, :]) % m, validate=False,
                      name=f"zmod:{m}")


def sym(k: int) -> TableGroup:
    """Sym(k) as ``groups.symmetric_group`` builds it, within the order cap."""
    if 1 <= k <= 7:
        _check_coeff_order(math.factorial(k))
    return symmetric_group(k)


def coefficients_from_table(text: str, name: str = "table") -> TableGroup:
    """Parse the CLI table format: first line the order m, then m rows.

    The order is read and capped first; then numpy reads every token
    straight into int64, and fails on any token that is not a decimal
    integer, so no token becomes a Python object.
    """
    head = re.match(r"\s*(\S*)", text).group(1)
    if not head:
        raise InputError("empty coefficient table")
    try:
        m = int(head)
        _check_coeff_order(m)
        with warnings.catch_warnings():
            # numpy releases before the ValueError only warn on a bad token
            warnings.simplefilter("error", DeprecationWarning)
            vals = np.fromstring(text, dtype=np.int64, sep=" ")[1:]
    except (ValueError, DeprecationWarning) as exc:
        raise InputError(f"bad coefficient table: {exc}") from exc
    if m < 1 or len(vals) != m * m:
        raise InputError(
            f"coefficient table needs {m}*{m} entries, got {len(vals)}")
    table = vals.reshape(m, m)
    if (table < 0).any() or (table >= m).any():
        raise InputError("coefficient table entries out of range")
    return TableGroup(table, name=name)


def parse_coefficients(spec: str) -> TableGroup:
    """zmod:m | sym:k | table:FILE"""
    kind, _, arg = spec.partition(":")
    if kind in ("zmod", "sym") and arg:
        try:
            k = int(arg)
        except ValueError:
            raise InputError(f"{kind} needs an integer, got {arg!r}") from None
        return zmod(k) if kind == "zmod" else sym(k)
    if kind == "table" and arg:
        # undecodable bytes become U+FFFD, so a binary file fails to parse
        with open(arg, errors="replace") as fh:
            return coefficients_from_table(fh.read(), name=f"table:{arg}")
    raise InputError(f"cannot parse coefficient spec {spec!r}")


# ---------------------------------------------------------------------------
# cochains


@dataclasses.dataclass(frozen=True)
class _Cochain:
    """Lambda indices, one per face of a fixed dimension (``kind``)."""

    lam: TableGroup
    values: np.ndarray
    kind = "cochain"

    def __post_init__(self):
        object.__setattr__(self, "values",
                           np.asarray(self.values, dtype=np.int64))
        if self.values.ndim != 1:
            raise InputError(f"{self.kind} needs a flat value array")
        if (self.values < 0).any() or (self.values >= self.lam.size).any():
            raise InputError(f"{self.kind} value out of range")


class Cochain0(_Cochain):
    """Vertex labeling by Lambda indices, total on X(0)."""

    kind = "0-cochain"

    def __call__(self, v: int) -> int:
        return int(self.values[int(v)])


class Cochain1(_Cochain):
    """Edge labeling by Lambda indices, one value per unordered edge.

    values[i] is phi((u, v)) for the i-th row (u, v), u < v, of X.faces(1);
    the reverse orientation is the inverse, so antisymmetry holds by
    construction.
    """

    kind = "1-cochain"

    def value(self, X: SimplicialComplex, u: int, v: int) -> int:
        """phi((u, v)) for an oriented edge, inverting when u > v."""
        a, b = (u, v) if u < v else (v, u)
        pos = X.face_position((a, b))
        if pos < 0:
            raise InputError(f"({u}, {v}) is not an edge")
        val = int(self.values[pos])
        return val if u < v else int(self.lam.inv[val])

# ---------------------------------------------------------------------------
# connectivity


def _require_connected(X: SimplicialComplex) -> None:
    comps = X.component_count()
    if comps != 1:
        raise InputError(f"1-skeleton is disconnected ({comps} components)")


# ---------------------------------------------------------------------------
# coboundary maps and the gauge action


def _gauge(X: SimplicialComplex, lam: TableGroup, psi: np.ndarray, phi
           ) -> np.ndarray:
    """psi(u) phi((u, v)) psi(v)^-1 on every edge, for psi one row of
    vertex values or a block of rows; phi is edge values or one value."""
    e = X.faces(1)
    return lam.table[lam.table[psi[..., e[:, 0]], phi],
                     lam.inv[psi[..., e[:, 1]]]]


def d0(X: SimplicialComplex, psi: Cochain0) -> Cochain1:
    """d0 psi((u, v)) = psi(u) psi(v)^-1 per canonical edge."""
    if len(psi.values) != X.vertex_count:
        raise InputError("0-cochain size does not match the complex")
    return Cochain1(psi.lam, _gauge(X, psi.lam, psi.values,
                                    psi.lam.identity))


def d1(X: SimplicialComplex, phi: Cochain1) -> np.ndarray:
    """Triangle values phi(ab) phi(bc) phi(ca), aligned with X.faces(2)."""
    if len(phi.values) != X.face_count(1):
        raise InputError("1-cochain size does not match the complex")
    lam = phi.lam
    te = X.triangle_edges()
    v = phi.values
    return lam.table[lam.table[v[te[:, 0]], v[te[:, 1]]],
                     lam.inv[v[te[:, 2]]]]


def is_cocycle(X: SimplicialComplex, phi: Cochain1) -> bool:
    return bool((d1(X, phi) == phi.lam.identity).all())


# ---------------------------------------------------------------------------
# norms and distances


def _weight_counts(w: WeightTable, k: int) -> tuple[np.ndarray, int]:
    return w.X.containment_counts(k), w.denominator(k)


def norm(phi, w: WeightTable) -> Fraction:
    """Sum of weights over the support of a 0- or 1-cochain."""
    if isinstance(phi, Cochain0):
        cnt, den = _weight_counts(w, 0)
    elif isinstance(phi, Cochain1):
        cnt, den = _weight_counts(w, 1)
    else:
        raise InputError(f"cannot take the norm of {type(phi).__name__}")
    if len(phi.values) != len(cnt):
        raise InputError("cochain does not match the weight table")
    supp = phi.values != phi.lam.identity
    return Fraction(int(cnt[supp].sum()), den)


def distance(a, b, w: WeightTable) -> Fraction:
    """Weighted disagreement ||a b^-1||; orientation-independent."""
    if type(a) is not type(b):
        raise InputError("cochain degree mismatch")
    k = 0 if isinstance(a, Cochain0) else 1
    cnt, den = _weight_counts(w, k)
    if len(a.values) != len(cnt) or len(b.values) != len(cnt):
        raise InputError("cochain does not match the weight table")
    diff = a.values != b.values
    return Fraction(int(cnt[diff].sum()), den)


# ---------------------------------------------------------------------------
# tree-gauge H^1 decision


@dataclasses.dataclass
class H1Result:
    trivial: bool
    witness: Cochain1 | None
    mode: str
    classes: int | None = None
    search: dict | None = None      # gauge mode's search counts

    def summary(self) -> str:
        out = f"H1 {'trivial' if self.trivial else 'NON-trivial'} " \
              f"({self.mode} mode"
        if self.classes is not None:
            out += f", {self.classes} classes"
        return out + ")"


def _forcing_labels(X: SimplicialComplex) -> tuple[np.ndarray, int]:
    """(mu, rounds): the int32 forcing labels (module notes) and the
    rounds run; a round is one scatter-min per triangle slot column, each
    reading the labels the one before wrote, and the last changes none.

    A column's pass is two ``take``s of the other columns' labels into
    preallocated int32 buffers, their ``maximum`` in place, and the
    ``minimum.at``.  Every index is in range, so the takes wrap, which
    skips the copy of ``out`` that a raising take makes.  Labels only
    fall, so a round that leaves their int64 sum unchanged changed none
    of them, and no round copies the labels.
    """
    parent_edge = X.spanning_forest()[1]
    mu = np.arange(X.face_count(1), dtype=np.int32)
    mu[parent_edge[parent_edge >= 0]] = -1
    cols = np.ascontiguousarray(X.triangle_edges().T, dtype=np.intp)
    a, b = np.empty((2, cols.shape[1]), dtype=np.int32)
    rounds, total = 0, int(mu.sum(dtype=np.int64))
    while True:
        rounds += 1
        for k in range(3):
            mu.take(cols[k - 1], out=a, mode="wrap")
            mu.take(cols[k - 2], out=b, mode="wrap")
            np.maximum(a, b, out=a)
            np.minimum.at(mu, cols[k], a)
        total, before = int(mu.sum(dtype=np.int64)), total
        if total == before:
            return mu, rounds


def _gauge_solutions(X: SimplicialComplex, lam: TableGroup,
                     cap: int, stop_after: int | None = None
                     ) -> tuple[list[tuple[int, ...]], dict]:
    """(tree-trivial cocycles, search counts), the cocycles in lex order
    of value tuples, the identity the least value.

    The all-identity cocycle comes first.  Then, for each branch edge b
    from the last to the first, the cocycles that are the identity on
    the branch edges before b and not at b: a DFS from the identity on
    {mu < b} with unit propagation through the triangle equations.  It
    branches at the lowest unset edge, which is the next branch edge, and
    tries the identity first, then the other values by index; at b it
    tries only the others.  Past the last branch edge every edge is set.

    ``cap`` bounds the search nodes plus propagation pops and, when every
    solution is kept (``stop_after`` None), the edge values the kept
    solutions hold: past either it raises ResourceLimitError.
    """
    _require_connected(X)
    E = X.face_count(1)
    m, e0 = lam.size, lam.identity
    mu, rounds = _forcing_labels(X)
    bl = np.flatnonzero(mu == np.arange(E)).tolist()
    stats = {"branch_edges": len(bl), "label_rounds": rounds,
             "search_nodes": 0}
    values = np.full(E, e0, dtype=np.int64)
    sols: list[tuple[int, ...]] = []

    def record() -> bool:
        sols.append(tuple(values.tolist()))
        if stop_after is not None:
            return len(sols) >= stop_after
        if len(sols) * E > cap:
            raise ResourceLimitError(
                f"gauge census keeps more than {cap} edge values",
                partial_count=len(sols))
        return False

    if record() or not bl:
        return sols, stats
    t, inv = lam.table.tolist(), lam.inv.tolist()
    vals = [e0] + [v for v in range(m) if v != e0]
    # memoryviews of integer arrays read and write plain ints with no
    # numpy scalar in between, and unlike lists they hold no int object
    # per entry
    flat = X.triangle_edges().reshape(-1)
    tri = memoryview(flat)
    # edge -> triangle incidence as CSR over the slots (3 per triangle);
    # the complex's slots by edge list each edge's triangles in
    # increasing order, and slot k sits at position rank[k] of its list
    order = X.edge_slots()
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order), dtype=order.dtype)
    inc, rank = memoryview(order // 3), memoryview(rank)
    ptr = memoryview(np.concatenate(
        [[0], np.cumsum(np.bincount(flat, minlength=E))]))
    assign = memoryview(values)
    trail: list[int] = []

    def propagate(pending: list[int]) -> tuple[bool, int]:
        """(no triangle failed, triangles popped)."""
        pops = 0
        while pending:
            pops += 1
            k = 3 * pending.pop()
            ea, eb, ec = tri[k], tri[k + 1], tri[k + 2]
            a, b, c = assign[ea], assign[eb], assign[ec]
            nun = (a < 0) + (b < 0) + (c < 0)
            if nun >= 2:
                continue
            if nun == 0:
                if t[t[a][b]][inv[c]] != e0:
                    return False, pops
                continue
            # product a.b.c^-1 = e with one unknown slot
            if a < 0:
                epos, val = ea, t[c][inv[b]]
            elif b < 0:
                epos, val, k = eb, t[inv[a]][c], k + 1
            else:
                epos, val, k = ec, t[a][b], k + 2
            # the edge is unset, so this cannot conflict; the forcing
            # triangle is now full and satisfied, so only the edge's other
            # triangles are queued
            assign[epos] = val
            trail.append(epos)
            r = rank[k]
            pending.extend(inc[ptr[epos]:r])
            pending.extend(inc[r + 1:ptr[epos + 1]])
        return True, pops

    work = 0
    for top in range(len(bl) - 1, -1, -1):
        values[:] = np.where(mu < bl[top], e0, -1)
        # frames [index into bl, next index into vals, trail mark]; the
        # edges set below a frame's branch edge are exactly {mu < it}
        stack = [[top, 1, 0]]
        while stack:
            frame = stack[-1]
            i, k, mark = frame
            while len(trail) > mark:
                assign[trail.pop()] = -1
            if k == m:
                stack.pop()
                continue
            frame[1] += 1
            stats["search_nodes"] += 1
            epos = bl[i]
            assign[epos] = vals[k]
            trail.append(epos)
            ok, pops = propagate(list(inc[ptr[epos]:ptr[epos + 1]]))
            work += 1 + pops
            if work > cap:
                raise ResourceLimitError(
                    f"gauge search exceeded {cap} nodes and pops",
                    partial_count=work)
            if not ok:
                continue
            if i + 1 < len(bl):
                stack.append([i + 1, 0, len(trail)])
            elif record():
                return sols, stats
    return sols, stats


def _conjugation_classes(sols: list[tuple[int, ...]], lam: TableGroup) -> int:
    """Orbits of tree-trivial cocycles under constant conjugation, by
    Burnside: c fixes s when it commutes with every value of s (a central
    c fixes all), and the orbits number the fixed pairs over |Lambda|."""
    S = np.asarray(sols, dtype=np.int64)
    fixed = sum(len(S) if row.all() else int(np.count_nonzero(row[S].all(1)))
                for row in lam.table == lam.table.T)
    if fixed % lam.size:
        raise StructureError("solutions are not closed under conjugation")
    return fixed // lam.size


def h1_trivial(X: SimplicialComplex, lam: TableGroup,
               mode: str = "gauge", cap: int = DEFAULT_CAP) -> H1Result:
    """Decide whether H^1(X, Lambda) is trivial.

    gauge mode backtracks over tree-trivial cocycles (see module notes);
    the witness is the lexicographically least one other than the
    identity, the identity taken as the least value.  brute mode
    independently lists Z^1 by extending cochains edge by edge and
    checking each triangle once its three edges are set, computes B^1
    from all of C^0 in one gather per block, and counts gauge orbits with
    a seen-mask over the cocycles; it is the oracle the gauge mode is
    validated against and requires |Lambda|^|X(1)| and |Lambda|^|X(0)|
    within cap.  Its witness is the lexicographically least cocycle that
    is not a coboundary.
    """
    if X.n < 1:
        raise InputError("H^1 needs a complex with edges")
    if mode == "gauge":
        sols, stats = _gauge_solutions(X, lam, cap, stop_after=2)
        witness = Cochain1(lam, np.array(sols[1])) if sols[1:] else None
        return H1Result(witness is None, witness, "gauge", search=stats)
    if mode == "brute":
        return _h1_brute(X, lam, cap)
    raise InputError(f"unknown mode {mode!r}")


def h1_class_census(X: SimplicialComplex, lam: TableGroup,
                    cap: int = DEFAULT_CAP) -> H1Result:
    """Gauge-mode census: count every cohomology class.

    Classes biject with constant-conjugation orbits of tree-trivial
    cocycles; cross-checked against the brute census in the tests.  Every
    such cocycle is kept, so ``cap`` also bounds their number times
    |X(1)|; past it the census raises ResourceLimitError.
    """
    sols, stats = _gauge_solutions(X, lam, cap)
    classes = _conjugation_classes(sols, lam)
    witness = Cochain1(lam, np.array(sols[1])) if sols[1:] else None
    return H1Result(classes == 1, witness, "gauge", classes=classes,
                    search=stats)


# ---------------------------------------------------------------------------
# brute-force H^1 (the oracle mode)


_BRUTE_CHUNK = 1 << 16
# entries of the rows x references x edges comparison held at once
_PAIR_BUDGET = 1 << 24


def _check_cap(X: SimplicialComplex, m: int, k: int, cap: int) -> None:
    """The |Lambda|^|X(k)| cochains of degree k within cap, and fewer than
    2^63 whatever the cap, so that int64 indices number them."""
    E = X.face_count(k)
    if m ** E > cap:
        raise ResourceLimitError(f"|Lambda|^|X({k})| = {m}**{E} exceeds cap {cap}")
    if m ** E >= 1 << 63:
        raise ResourceLimitError(f"{m}**{E} cochains overflow the int64 cochain indices")


def _digit_blocks(m: int, k: int):
    """Every k-digit base-m string, most significant digit first, in lex
    order and in blocks of at most _BRUTE_CHUNK rows: the block's indices
    unpacked as keys, digits reversed."""
    total = m ** k
    for lo in range(0, total, _BRUTE_CHUNK):
        idx = np.arange(lo, min(lo + _BRUTE_CHUNK, total), dtype=np.uint64)
        yield unpack_keys(idx, m, k)[:, ::-1]


def _orbit(X: SimplicialComplex, lam: TableGroup, phi):
    """psi.phi for every psi in C^0, as rows, one gather per block of psi."""
    for psi in _digit_blocks(lam.size, X.vertex_count):
        yield _gauge(X, lam, psi, phi)


def _enumerate_coboundaries(X: SimplicialComplex, lam: TableGroup,
                            cap: int) -> np.ndarray:
    """B^1 = {d0 psi : psi in C^0}, the orbit of the identity cochain, as
    unique int16 rows in lex order: deduplicated per block and at the end.
    ``unique_rows`` keys the rows in fixed width, uint64 or void,
    so |Lambda|^|X(1)| may pass 2^64.
    """
    _check_cap(X, lam.size, 0, cap)
    m = lam.size
    return unique_rows(np.concatenate(
        [unique_rows(r.astype(np.int16), m)
         for r in _orbit(X, lam, lam.identity)]), m)


def _enumerate_cocycles(X: SimplicialComplex, lam: TableGroup,
                        cap: int) -> np.ndarray:
    """Every cocycle, as int16 rows in lexicographic order.

    Partial cochains are extended one edge at a time, edge 0 the most
    significant digit: each row is repeated |Lambda| times and the next
    digit appended, so the rows stay in lex order.  A triangle is checked
    as soon as its last edge is set, and the rows that fail it are dropped.
    The rows so stand for every cochain of C^1; no spanning tree or
    propagation is involved, so the result is independent of gauge mode.
    """
    E = X.face_count(1)
    m = lam.size
    _check_cap(X, m, 1, cap)
    t, inv = lam.table, lam.inv
    e0 = lam.identity
    te = X.triangle_edges()
    last = te.max(axis=1)
    # int16 holds every index below MAX_COEFF_ORDER in a quarter of the
    # bytes that int64 takes
    digit = np.arange(m, dtype=np.int16)
    rows = np.empty((1, 0), dtype=np.int16)
    for e in range(E):
        vals = np.empty((len(rows) * m, e + 1), dtype=np.int16)
        vals[:, :e] = np.repeat(rows, m, axis=0)
        vals[:, e] = np.tile(digit, len(rows))
        for ea, eb, ec in te[last == e].tolist():
            prod = t[t[vals[:, ea], vals[:, eb]], inv[vals[:, ec]]]
            vals = vals[prod == e0]
        rows = vals
    return rows


def _z1_outside_b1(X: SimplicialComplex, lam: TableGroup, cap: int
                   ) -> tuple[np.ndarray, KeyIndex, np.ndarray]:
    """(Z^1 as rows in lex order, their key index, the mask of the
    cocycles outside B^1)."""
    b1 = _enumerate_coboundaries(X, lam, cap)
    z1 = _enumerate_cocycles(X, lam, cap)
    zkeys = lex_keys(z1, lam.size)
    outside = KeyIndex(lex_keys(b1, lam.size)).lookup(zkeys) < 0
    return z1, KeyIndex(zkeys), outside


def _h1_brute(X: SimplicialComplex, lam: TableGroup, cap: int
              ) -> H1Result:
    _require_connected(X)
    z1, zindex, outside = _z1_outside_b1(X, lam, cap)
    witness = None
    if outside.any():
        witness = Cochain1(lam, z1[np.argmax(outside)])
    # each class is the orbit of its least unseen cocycle
    seen = np.zeros(len(z1), dtype=bool)
    classes = 0
    while not seen.all():
        classes += 1
        for rows in _orbit(X, lam, z1[np.argmin(seen)]):
            pos = zindex.lookup(lex_keys(rows, lam.size))
            if (pos < 0).any():
                raise StructureError("gauge action left Z^1")
            seen[pos] = True
    # for Abelian Lambda the orbits are the cosets phi.B^1
    if np.array_equal(lam.table, lam.table.T) and \
            len(z1) != classes * int((~outside).sum()):
        raise StructureError("B^1 does not partition Z^1 evenly")
    return H1Result(classes == 1, witness, "brute", classes=classes)


# ---------------------------------------------------------------------------
# expansion constants


# rows per h^0 block: the edge gathers stay at a few MB for hundreds of edges
_H0_CHUNK = 1 << 14


def _partition_count(V: int, bmax: int) -> int:
    """Partitions of V vertices into at most bmax blocks: c[k] counts the
    completions of a row that has used k blocks, one vertex at a time."""
    c = [1] * (bmax + 1)
    for _ in range(V - 1):
        c = [k * c[k] + (c[k + 1] if k < bmax else 0)
             for k in range(bmax + 1)]
    return c[1]


def _partition_blocks(V: int, bmax: int):
    """Every partition of the V vertices into at most bmax blocks, as
    restricted growth rows in lex order, in blocks of at most _H0_CHUNK
    rows: vertex 0 is in block 0, and each later vertex joins a used block
    or the next new one.  Rows are extended one vertex at a time, as in
    _enumerate_cocycles, depth first from a stack of blocks that are split
    past _H0_CHUNK rows, so at most V * bmax blocks are held at once.
    """
    labels = np.arange(bmax, dtype=np.int16)
    stack = [np.zeros((1, 1), dtype=np.int16)]
    while stack:
        rows = stack.pop()
        if rows.shape[1] == V:
            yield rows
            continue
        keep = labels <= rows.max(axis=1)[:, None] + 1
        rows = np.column_stack([np.repeat(rows, keep.sum(axis=1), axis=0),
                                np.broadcast_to(labels, keep.shape)[keep]])
        # the first piece is popped first, so the rows stay in lex order
        stack += [rows[lo:lo + _H0_CHUNK]
                  for lo in range(0, len(rows), _H0_CHUNK)][::-1]


def expansion_h0(X: SimplicialComplex, lam: TableGroup,
                 cap: int = DEFAULT_CAP) -> Fraction:
    """h^0_cobound: min ||d0 phi|| / dist(phi, constants), exact.

    The ratio depends only on the partition of the vertices into level
    sets of phi, so the search runs over partitions with at most |Lambda|
    blocks instead of all |Lambda|^|X(0)| cochains, one row of block labels
    each (_partition_blocks); past ``cap`` partitions other than the
    one-block one, it raises before any is built.  The cut and
    largest-block weights of a block of rows come from array products.
    """
    if lam.size < 2:
        raise ParameterError("expansion needs a non-trivial group")
    if X.n < 1:
        raise InputError("expansion_h0 needs a 1-skeleton")
    V = X.vertex_count
    edges = X.faces(1)
    ecnt = X.containment_counts(1)
    vcnt = X.containment_counts(0)
    wt = WeightTable(X)
    d_edge, d_vert = wt.denominator(1), wt.denominator(0)
    total_v = int(vcnt.sum())
    bmax = min(lam.size, V)
    if _partition_count(V, bmax) - 1 > cap:
        raise ResourceLimitError(f"partition count exceeds cap {cap}")

    def block_ratio(blk: np.ndarray) -> Fraction | None:
        num = np.einsum("re,e->r", blk[:, edges[:, 0]] != blk[:, edges[:, 1]],
                        ecnt)
        heavy = np.max([np.einsum("rv,v->r", blk == b, vcnt)
                        for b in range(bmax)], axis=0)
        den = total_v - heavy           # 0 on the one-block partition only
        return _exact_min_ratio(num, den, den > 0, d_edge, d_vert)

    best = min((r for r in map(block_ratio, _partition_blocks(V, bmax))
                if r is not None), default=None)
    if best is None:
        raise InputError("no non-constant cochain exists")
    return best


@dataclasses.dataclass
class ExpansionH1Report:
    h1_cobound: Fraction | None
    h1_cosys: Fraction | None
    min_systole: Fraction | None
    mode: str
    exact: bool

    def summary(self) -> str:
        tag = "exact" if self.exact else "upper bounds (search)"
        return (f"h1_cobound={self.h1_cobound}  h1_cosys={self.h1_cosys}  "
                f"min_systole={self.min_systole}  [{tag}]")


def _exact_min_ratio(num: np.ndarray, den: np.ndarray, valid: np.ndarray,
                     d_num: int, d_den: int) -> Fraction | None:
    """min over valid of (num/d_num) / (den/d_den), exact."""
    idx = np.flatnonzero(valid)
    if len(idx) == 0:
        return None
    nf = num[idx].astype(float)
    df = den[idx].astype(float)
    r = nf / df
    lo = r.min()
    cand = idx[r <= lo * (1 + 1e-9) + 1e-300]
    return min(Fraction(int(num[i]) * d_den, int(den[i]) * d_num)
               for i in cand)


def _rref_mod_p(rows: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Reduced row echelon form of an integer matrix over F_p, p prime.

    Returns (R, pivots): the rank-many nonzero rows, entries in 0..p-1;
    row i has a leading 1 in column pivots[i], where every other row is 0.
    So v lies in the row space iff v - v[pivots] @ R is 0 mod p.
    """
    R = rows % p
    pivots = []
    for c in range(R.shape[1]):
        r = len(pivots)
        nz = np.flatnonzero(R[r:, c])
        if len(nz):
            R[[r, r + nz[0]]] = R[[r + nz[0], r]]
            R[r] = R[r] * pow(int(R[r, c]), p - 2, p) % p
            f = R[:, c] * (np.arange(len(R)) != r)
            R = (R - f[:, None] * R[r]) % p
            pivots.append(c)
    return R[:len(pivots)], np.array(pivots, dtype=np.int64)


_SCAN_ROWS = 1 << 9


def _span_blocks(basis: np.ndarray, p: int):
    """All p^k combinations of the k basis rows mod p, in blocks.

    Row i of the whole scan is sum_j x_j basis[j] with i = sum_j x_j p^j.
    """
    total = p ** len(basis)
    for lo in range(0, total, _SCAN_ROWS):
        idx = np.arange(lo, min(lo + _SCAN_ROWS, total), dtype=np.uint64)
        yield unpack_keys(idx, p, len(basis)) @ basis % p


def _z1_basis(X: SimplicialComplex, p: int
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(d1m, pivots, z_basis) over F_p.

    d1m is d1 as a T x E matrix with rows ab + bc - ac.  Z^1 = ker d1 gets
    the basis that is the identity on the free (non-pivot) columns of the
    rref of d1m, so each coset a + Z^1 has exactly one member supported
    on the pivot columns.
    """
    E = X.face_count(1)
    te = X.triangle_edges()
    d1m = np.zeros((len(te), E), dtype=np.int64)
    d1m[np.arange(len(d1m))[:, None], te] = [1, 1, -1]
    R, pivots = _rref_mod_p(d1m, p)
    free = np.delete(np.arange(E), pivots)
    z_basis = np.eye(E, dtype=np.int64)[free]
    z_basis[:, pivots] = -R[:, free].T % p
    return d1m, pivots, z_basis


def _coset_min_weights(z_basis: np.ndarray, pivots: np.ndarray,
                       ecnt: np.ndarray, p: int) -> np.ndarray:
    """D[x] = min over z in Z^1 of the weight of x - z, for every x
    supported on the pivots, at index sum_i x_i p^i (x_i on pivots[i]),
    the row order of _span_blocks over those unit vectors.

    D starts as the weight of x itself.  Each basis vector z_f, a 1 on its
    free column f plus a part m_f on the pivots, then takes one min-plus
    step D[x] <- min_v (D[x + v m_f] + w_f [v != 0]).  The free columns
    are independent, so after the last step D is the least weight on the
    coset x + Z^1, which is dist(x, Z^1).
    A step is p - 1 gathers of the p^rank(d1)-entry table through the
    translation by m_f; no digit table and no float arithmetic.
    """
    place = p ** np.arange(len(pivots), dtype=np.int64)
    nonzero = (np.arange(p) != 0).astype(np.int64)
    D = np.zeros(1, dtype=np.int64)
    for w in ecnt[pivots].tolist():
        # the next pivot is the most significant digit so far
        D = (nonzero[:, None] * w + D).ravel()
    idx = np.arange(len(D), dtype=np.int64)
    # z_basis row j is the identity on the j-th free column
    free = np.delete(np.arange(len(ecnt)), pivots)
    for z, w_f in zip(z_basis, ecnt[free].tolist()):
        step = z[pivots]
        perm = idx.copy()
        for i in np.flatnonzero(step).tolist():
            digit = idx // place[i] % p
            perm += ((digit + step[i]) % p - digit) * place[i]
        best, cur = D, D
        for _ in range(p - 1):
            cur = cur[perm]
            best = np.minimum(best, cur + w_f)
        D = best
    return D


def _expansion_h1_zp(X: SimplicialComplex, lam: TableGroup,
                     cap: int) -> ExpansionH1Report:
    """Exact (h1_cobound, h1_cosys, min_systole) for |Lambda| = p prime.

    The scan visits the p^rank(d1) cochains supported on the pivot
    columns of d1, one per coset a + Z^1 (see _z1_basis), and takes
    ||d1 a|| for each block of them by integer products.  dist(a, Z^1),
    the least weight on the coset, comes from one min-plus table over
    all cosets (_coset_min_weights).  The systole is the least weight in
    Z^1 outside B^1, the row space of d0^T.  No step multiplies floats.
    """
    E, p = X.face_count(1), lam.size
    _check_cap(X, p, 1, cap)
    # residues res[g^k] = k for the least non-identity g: checked to turn
    # the table into addition mod p, under which d1 has rows ab + bc - ac
    g = 1 if lam.identity == 0 else 0
    res = np.full(p, -1, dtype=np.int64)
    cur = lam.identity
    for k in range(p):
        res[cur] = k
        cur = int(lam.table[cur, g])
    if not np.array_equal(res[lam.table], (res[:, None] + res[None, :]) % p):
        raise StructureError(f"{lam.name} is not cyclic of order {p}")
    ecnt, tcnt = X.containment_counts(1), X.containment_counts(2)
    wt = WeightTable(X)
    d_edge, d_tri = wt.denominator(1), wt.denominator(2)
    d1m, pivots, z_basis = _z1_basis(X, p)
    d0t = np.zeros((X.vertex_count, E), dtype=np.int64)
    d0t[X.faces(1), np.arange(E)[:, None]] = [1, -1]
    b_rref, b_pivots = _rref_mod_p(d0t, p)
    nontrivial = len(z_basis) > len(b_rref)
    systole = None
    if nontrivial:
        best = int(ecnt.sum())
        for z in _span_blocks(z_basis, p):
            in_b1 = ((z - z[:, b_pivots] @ b_rref) % p == 0).all(axis=1)
            best = int(((z != 0) @ ecnt)[~in_b1].min(initial=best))
        systole = Fraction(best, d_edge)
    dist = _coset_min_weights(z_basis, pivots, ecnt, p)
    h1_cosys: Fraction | None = None
    lo = 0
    for a in _span_blocks(np.eye(E, dtype=np.int64)[pivots], p):
        num = ((a @ d1m.T) % p != 0) @ tcnt
        d = dist[lo:lo + len(a)]
        lo += len(a)
        r = _exact_min_ratio(num, d, d > 0, d_tri, d_edge)
        if r is not None and (h1_cosys is None or r < h1_cosys):
            h1_cosys = r
    # H^1 nontrivial forces the coboundary min to 0; otherwise B^1 = Z^1
    h1_cobound = Fraction(0) if nontrivial else h1_cosys
    return ExpansionH1Report(h1_cobound, h1_cosys, systole,
                             mode="exact", exact=True)


def _min_ratio_to(X: SimplicialComplex, lam: TableGroup, rows: np.ndarray,
                  ref: np.ndarray) -> Fraction | None:
    """Least ||d1 a|| / dist(a, ref) over the rows a outside ref, exact;
    None when every row lies in ref.

    Both norms are integer face counts over their denominators: ||d1 a||
    sums the containment counts of the triangles where d1 a is not the
    identity, dist(a, ref) the least sum of edge containment counts where
    a and a row of ref differ.  The rows x ref x |X(1)| comparison runs in
    chunks of at most _PAIR_BUDGET entries.
    """
    t, inv = lam.table, lam.inv
    te = X.triangle_edges()
    ecnt = X.containment_counts(1)
    d1 = t[t[rows[:, te[:, 0]], rows[:, te[:, 1]]], inv[rows[:, te[:, 2]]]]
    num = (d1 != lam.identity) @ X.containment_counts(2)
    E = rows.shape[1]
    ref_step = max(1, min(len(ref), _PAIR_BUDGET // E))
    row_step = max(1, _PAIR_BUDGET // (ref_step * E))
    dist = np.full(len(rows), np.iinfo(np.int64).max)
    for lo in range(0, len(rows), row_step):
        a = rows[lo:lo + row_step, None, :]
        near = dist[lo:lo + row_step]
        for k in range(0, len(ref), ref_step):
            # einsum casts the booleans a buffer at a time, not as a copy
            diff = np.einsum("rse,e->rs", a != ref[k:k + ref_step], ecnt)
            np.minimum(near, diff.min(axis=1), out=near)
    wt = WeightTable(X)
    return _exact_min_ratio(num, dist, dist > 0, wt.denominator(2),
                            wt.denominator(1))


def _expansion_h1_generic(X: SimplicialComplex, lam: TableGroup,
                          cap: int) -> ExpansionH1Report:
    """Exact constants for any Lambda, from a scan of all of C^1.

    Each block of cochains (_digit_blocks) contributes its least ratio
    against Z^1 (_min_ratio_to); the systole is the least weight in Z^1
    outside B^1.
    """
    E = X.face_count(1)
    m = lam.size
    _check_cap(X, m, 1, cap)
    z1, _, outside = _z1_outside_b1(X, lam, cap)
    systole = None
    if outside.any():
        weights = (z1[outside] != lam.identity) @ X.containment_counts(1)
        systole = Fraction(int(weights.min()), WeightTable(X).denominator(1))
    ratios = (_min_ratio_to(X, lam, a, z1) for a in _digit_blocks(m, E))
    h1_cosys = min((r for r in ratios if r is not None), default=None)
    # H^1 nontrivial forces the coboundary min to 0; otherwise B^1 = Z^1
    h1_cobound = Fraction(0) if outside.any() else h1_cosys
    return ExpansionH1Report(h1_cobound, h1_cosys, systole,
                             mode="exact", exact=True)


def _expansion_h1_search(X: SimplicialComplex, lam: TableGroup,
                         cap: int, seed: int, iters: int
                         ) -> ExpansionH1Report:
    """Randomized upper bound on h^1_cobound: best ratio over proposals.

    Distances to B^1 are exact (full coboundary enumeration, so the
    reported value is a true upper bound); the minimization over C^1 is
    heuristic.  h^1_cosys and the systole are not estimated.
    """
    E = X.face_count(1)
    m = lam.size
    b1 = _enumerate_coboundaries(X, lam, cap)
    rng = random.Random(seed)
    best: Fraction | None = None
    for _ in range(iters):
        vals = np.array([rng.randrange(m) for _ in range(E)], dtype=np.int16)
        r = _min_ratio_to(X, lam, vals[None, :], b1)
        improved = True
        while improved:
            improved = False
            for ei in range(E):
                old = vals[ei]
                for nv in range(m):
                    if nv == old:
                        continue
                    vals[ei] = nv
                    r2 = _min_ratio_to(X, lam, vals[None, :], b1)
                    if r2 is not None and (r is None or r2 < r):
                        r = r2
                        old = nv
                        improved = True
                vals[ei] = old
        if r is not None and (best is None or r < best):
            best = r
    return ExpansionH1Report(best, None, None, mode="search", exact=False)


def expansion_h1(X: SimplicialComplex, lam: TableGroup,
                 mode: str = "exact", cap: int = DEFAULT_CAP,
                 seed: int = 0, iters: int = 32) -> ExpansionH1Report:
    """Coboundary/cosystolic expansion in degree 1.

    exact mode returns (h1_cobound, h1_cosys, min systole norm) as exact
    rationals from one scan for h1_cosys, within |Lambda|^|X(1)| <= cap.
    h1_cobound is read off it: 0 when Z^1 != B^1, else equal to h1_cosys,
    since then the two reference sets coincide.  Prime |Lambda| scans one
    cochain per coset of Z^1 over F_p; other groups scan all of C^1 in
    blocks of rows against the array of Z^1.  search mode returns the best
    ratio found by randomized local descent from a seeded start, each
    proposal measured exactly against all of B^1, a true upper bound on
    h1_cobound, with the other fields unset.
    """
    if lam.size < 2:
        raise ParameterError("expansion needs a non-trivial group")
    if iters < 1:
        raise ParameterError(f"iters must be at least 1, got {iters}")
    if X.n < 2:
        raise InputError("expansion_h1 needs a 2-dimensional complex")
    _require_connected(X)
    if mode == "exact":
        if is_prime(lam.size):
            return _expansion_h1_zp(X, lam, cap)
        return _expansion_h1_generic(X, lam, cap)
    if mode == "search":
        return _expansion_h1_search(X, lam, cap, seed, iters)
    raise InputError(f"unknown mode {mode!r}")


def dd_bound(lam_2: float, beta: float) -> float:
    """(1 - lambda) beta / 24 - e lambda, at double precision.

    The trickling-down style guarantee for 1-cosystolic expansion given a
    links-spectral bound lambda and a local constant beta; negative
    output means the bound is vacuous at these parameters.
    """
    lam_2 = float(lam_2)
    beta = float(beta)
    if not 0 <= lam_2 < 1:
        raise ParameterError(f"need 0 <= lambda < 1, got {lam_2}")
    if beta <= 0:
        raise ParameterError(f"need beta > 0, got {beta}")
    return (1.0 - lam_2) * beta / 24.0 - math.e * lam_2
