"""Independent reference implementations used to pin expected values.

Everything here is written from the definitions, deliberately avoiding
the package's own data structures and algorithms wherever possible, so
a shared bug cannot hide: truncated-polynomial arithmetic by direct
convolution on coefficient tuples, determinants by Leibniz expansion,
expansion constants by complete enumeration, abelian H^1 by linear
algebra mod a prime, spanning forests by a plain queue-based BFS.
"""

from __future__ import annotations

import itertools
import random
import subprocess
import sys
from fractions import Fraction

import numpy as np

# ---------------------------------------------------------------------------
# ring arithmetic on raw coefficient tuples


def naive_add(a, b, p, s):
    return tuple((x + y) % p for x, y in zip(a, b))


def naive_mul(a, b, p, s):
    out = [0] * s
    for i in range(s):
        for j in range(s - i):
            out[i + j] = (out[i + j] + a[i] * b[j]) % p
    return tuple(out)


def naive_pow(a, k, p, s):
    acc = tuple([1 % p] + [0] * (s - 1))
    for _ in range(k):
        acc = naive_mul(acc, a, p, s)
    return acc


def all_polys(p, s):
    return list(itertools.product(range(p), repeat=s))


# ---------------------------------------------------------------------------
# determinants by Leibniz expansion


def _perm_sign(perm):
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        ln = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            ln += 1
        if ln % 2 == 0:
            sign = -sign
    return sign


def leibniz_det(entries, p, s):
    """entries: m x m nested sequence of coefficient tuples."""
    m = len(entries)
    zero = tuple([0] * s)
    acc = zero
    for perm in itertools.permutations(range(m)):
        term = tuple([1 % p] + [0] * (s - 1))
        for i in range(m):
            term = naive_mul(term, tuple(entries[i][perm[i]]), p, s)
        if _perm_sign(perm) < 0:
            term = tuple((-c) % p for c in term)
        acc = naive_add(acc, term, p, s)
    return acc


# ---------------------------------------------------------------------------
# group orders from the classical formulas


def gl_order_field(m, p):
    out = 1
    for k in range(m):
        out *= p**m - p**k
    return out


def sl_order_formula(m, p, s):
    """|SL_m(F_p[t]/t^s)| = |SL_m(F_p)| * p^((s-1)(m^2-1))."""
    return (gl_order_field(m, p) // (p - 1)) * p ** ((s - 1) * (m * m - 1))


def unipotent_order_formula(m, p, s, d):
    """Unitriangular group with degree-bounded generators: entry (i, j)
    above the diagonal ranges over all polynomials of degree <= (j-i)d,
    truncated at s, so it has min(s, (j-i)d + 1) free coefficients."""
    e = sum(min(s, (j - i) * d + 1) for i in range(m) for j in range(i + 1, m))
    return p**e


# ---------------------------------------------------------------------------
# group closure by a set-based BFS over exact matrix products


def horner_key(row, q):
    """Canonical key of one flat matrix as a Python int: its entries base
    q, entry 0 least significant, by Horner's rule."""
    k = 0
    for e in reversed(row):
        k = k * q + int(e)
    return k


def bfs_closure(gens):
    """Layers of the subgroup generated by the MatElements ``gens``.

    Layer 0 is the identity and layer k+1 holds every product x @ g with
    x in layer k that no earlier layer holds, found with a Python set and
    listed in ascending horner_key order.  Returns the list of layers,
    each a uint32 array of flat matrices.
    """
    from cosetx.groups import MatElement

    m, p, s = gens[0].m, gens[0].p, gens[0].s
    ident = MatElement.identity(m, p, s)
    seen = {ident}
    layers = [[ident]]
    while layers[-1]:
        fresh = {x @ g for x in layers[-1] for g in gens} - seen
        seen |= fresh
        layers.append(sorted(fresh, key=lambda x: horner_key(x.flat(), p**s)))
    return [np.array([x.flat() for x in layer], dtype=np.uint32).reshape(-1, m * m)
            for layer in layers[:-1]]


def monomial_symmetry_actions(gens, probes):
    """The maps X -> M sigma(X) M^-1 that send each of the MatElements
    ``gens`` to one of them, by exact matrix products and cofactor
    inverses: M = P diag(l_1, .., l_m) with P e_i = e_pi(i), l_1 = 1 and
    the other l_i in F_p^*, and sigma the coefficient map
    c_k t^k -> alpha^k c_k t^k, alpha in F_p^*.  A map is told by its
    images of the MatElements ``probes``: returns (kept, candidates), the
    sets of tuples of the probes' images as flat tuples, for the kept maps
    and for all of them.
    """
    from cosetx.groups import MatElement
    from cosetx.ring import TruncPoly

    m, p, s = gens[0].m, gens[0].p, gens[0].s
    want = {tuple(g.flat().tolist()) for g in gens}
    zero = TruncPoly.zero(p, s)
    kept, candidates = set(), set()
    for pi in itertools.permutations(range(m)):
        for rest in itertools.product(range(1, p), repeat=m - 1):
            lam = (1, *rest)
            M = MatElement(tuple(
                tuple(TruncPoly.make(p, s, (lam[j],)) if pi[j] == i else zero
                      for j in range(m)) for i in range(m)))
            M_inv = M.inverse()
            for alpha in range(1, p):
                def act(x):
                    scaled = MatElement(tuple(
                        tuple(TruncPoly.make(p, s, [c * alpha**k for k, c in
                                                    enumerate(e.coeffs)])
                              for e in row) for row in x.entries))
                    return tuple((M @ scaled @ M_inv).flat().tolist())

                action = tuple(act(x) for x in probes)
                candidates.add(action)
                if all(act(g) in want for g in gens):
                    kept.add(action)
    return kept, candidates


def commutator_power_attempts(seed, attempts, n=2, p=3, s=3):
    """(qualifies, holds) of each sampled pair of elementaries, exactly.

    The sampling of ``cli._check_commutator_power``: each attempt draws
    from ``random.Random(seed)`` the s coefficients of r1, those of r2,
    the root of x = e_ij(r1) and the root of y = e_kl(r2).  ``qualifies``
    says whether x commutes with [x, y] = x y x^-1 y^-1 and ``holds``
    whether [x, y]^p = [x^p, y], both by MatElement products, powers and
    cofactor inverses.
    """
    import random

    from cosetx.groups import elementary
    from cosetx.ring import TruncPoly

    rng = random.Random(seed)
    roots = [(i, j) for i in range(1, n + 2)
             for j in range(1, n + 2) if i != j]
    out = []
    for _ in range(attempts):
        r1 = TruncPoly(p, s, tuple(rng.randrange(p) for _ in range(s)))
        r2 = TruncPoly(p, s, tuple(rng.randrange(p) for _ in range(s)))
        x = elementary(n, *rng.choice(roots), r1)
        y = elementary(n, *rng.choice(roots), r2)
        comm = x @ y @ x.inverse() @ y.inverse()
        xp = x.pow(p)
        out.append((x @ comm == comm @ x,
                    comm.pow(p) == xp @ y @ xp.inverse() @ y.inverse()))
    return out


# ---------------------------------------------------------------------------
# literal coset complex: chambers listed one per group element


def literal_coset_chambers(size, mult, subgroup_index_lists):
    """Vertex count per color plus chamber list, from raw definitions.

    Cosets are computed as frozensets {g*k : k in K_i}; vertices are the
    distinct cosets per color (in first-seen order over g = 0..size-1),
    chambers are the tuples (gK_0, ..., gK_n) with a global vertex
    numbering that concatenates the colors.
    """
    coset_ids = []  # per color: {frozenset: local index}
    chamber_rows = []
    for g in range(size):
        row = []
        for ci, sub in enumerate(subgroup_index_lists):
            while len(coset_ids) <= ci:
                coset_ids.append({})
            cs = frozenset(mult(g, k) for k in sub)
            local = coset_ids[ci].setdefault(cs, len(coset_ids[ci]))
            row.append((ci, local))
        chamber_rows.append(tuple(row))
    offsets = [0]
    for ci in range(len(subgroup_index_lists)):
        offsets.append(offsets[-1] + len(coset_ids[ci]))
    chambers = sorted(
        {tuple(offsets[ci] + local for ci, local in row) for row in chamber_rows}
    )
    counts = [len(d) for d in coset_ids]
    return counts, chambers


def pairwise_intersection_faces(size, mult, subgroup_index_lists):
    """All faces by the definition: coset tuples with pairwise non-empty
    intersection.  Exponential; only for tiny groups."""
    cosets = []  # (color, frozenset)
    for ci, sub in enumerate(subgroup_index_lists):
        seen = []
        for g in range(size):
            cs = frozenset(mult(g, k) for k in sub)
            if cs not in seen:
                seen.append(cs)
        cosets.extend((ci, cs) for cs in seen)
    faces = []
    for r in range(1, len(subgroup_index_lists) + 1):
        for combo in itertools.combinations(range(len(cosets)), r):
            colors = [cosets[i][0] for i in combo]
            if len(set(colors)) != len(colors):
                continue
            if all(
                cosets[a][1] & cosets[b][1]
                for a, b in itertools.combinations(combo, 2)
            ):
                faces.append(combo)
    return cosets, faces


# ---------------------------------------------------------------------------
# expansion constants by complete enumeration


def _edge_weights(X):
    """Rational edge weights, computed straight from the definition:
    w(e) = |{maximal faces containing e}| / (C(n+1, 2) * |X(n)|)."""
    from math import comb

    mf = X.max_faces
    n = X.n
    denom = comb(n + 1, 2) * len(mf)
    counts = {}
    for row in mf:
        for u, v in itertools.combinations(sorted(row.tolist()), 2):
            counts[(u, v)] = counts.get((u, v), 0) + 1
    return {e: Fraction(c, denom) for e, c in counts.items()}, counts


def _vertex_weights(X):
    from math import comb

    mf = X.max_faces
    denom = comb(X.n + 1, 1) * len(mf)
    counts = {}
    for row in mf:
        for u in row.tolist():
            counts[u] = counts.get(u, 0) + 1
    return {v: Fraction(c, denom) for v, c in counts.items()}


def brute_h0(X, lam_size):
    """min over non-constant phi of w(disagreeing edges) / dist-to-constants."""
    ew, _ = _edge_weights(X)
    vw = _vertex_weights(X)
    V = X.vertex_count
    best = None
    for phi in itertools.product(range(lam_size), repeat=V):
        if len(set(phi)) == 1:
            continue
        num = sum((w for (u, v), w in ew.items() if phi[u] != phi[v]),
                  Fraction(0))
        den = min(
            sum((vw.get(v, Fraction(0)) for v in range(V) if phi[v] != c),
                Fraction(0))
            for c in range(lam_size)
        )
        if den == 0:
            continue
        ratio = num / den
        if best is None or ratio < best:
            best = ratio
    return best


def partition_count(V, bmax):
    """Partitions of V items into at most bmax blocks: the distinct level
    set partitions of every map range(V) -> range(bmax), each relabelled
    in order of first appearance."""
    seen = set()
    for phi in itertools.product(range(bmax), repeat=V):
        first = list(dict.fromkeys(phi))
        seen.add(tuple(first.index(x) for x in phi))
    return len(seen)


def cheeger_h0(X):
    """Z/2 specialization of brute_h0 via subset enumeration."""
    ew, _ = _edge_weights(X)
    vw = _vertex_weights(X)
    V = X.vertex_count
    best = None
    for mask in range(1, (1 << V) - 1):
        side = [(mask >> v) & 1 for v in range(V)]
        num = sum((w for (u, v), w in ew.items() if side[u] != side[v]),
                  Fraction(0))
        den = min(
            sum((vw.get(v, Fraction(0)) for v in range(V) if side[v]),
                Fraction(0)),
            sum((vw.get(v, Fraction(0)) for v in range(V) if not side[v]),
                Fraction(0)),
        )
        if den == 0:
            continue
        ratio = num / den
        if best is None or ratio < best:
            best = ratio
    return best


def brute_h1_gf2(X):
    """(h1_cobound, h1_cosys, min_systole) over Z/2 by sweeping all of C^1.

    A 1-cochain is a bitmask over the sorted edges.  Z^1 is every cochain
    with even parity on each triangle, B^1 the coboundaries of all 2^V
    vertex subsets; each constant is the minimum of
    w(odd triangles) / min_ref w(a xor ref) over the cochains a outside
    the reference set, and the systole is the least weight in Z^1 \\ B^1.
    Weights are kept as integer face counts over their common
    denominators C(n+1, k) * |X(n)|, so every comparison is exact.
    """
    from math import comb

    _, ecount = _edge_weights(X)
    edges = sorted(ecount)
    bit = {e: 1 << i for i, e in enumerate(edges)}
    tcount = {}
    for row in X.max_faces:
        for a, b, c in itertools.combinations(sorted(row.tolist()), 3):
            tm = bit[(a, b)] | bit[(b, c)] | bit[(a, c)]
            tcount[tm] = tcount.get(tm, 0) + 1
    d_edge = comb(X.n + 1, 2) * len(X.max_faces)
    d_tri = comb(X.n + 1, 3) * len(X.max_faces)
    E = len(edges)
    weight = [0] * (1 << E)
    for mask in range(1, 1 << E):
        low = mask & -mask
        weight[mask] = weight[mask ^ low] + ecount[edges[low.bit_length() - 1]]
    z1 = [a for a in range(1 << E)
          if all(bin(a & tm).count("1") % 2 == 0 for tm in tcount)]
    b1 = set()
    for S in range(1 << X.vertex_count):
        b1.add(sum(bit[(u, v)] for u, v in edges
                   if ((S >> u) ^ (S >> v)) & 1))

    def constant(ref):
        best = None
        for a in range(1 << E):
            dist = min(weight[a ^ z] for z in ref)
            if dist == 0:
                continue
            num = sum(c for tm, c in tcount.items()
                      if bin(a & tm).count("1") % 2)
            ratio = Fraction(num * d_edge, dist * d_tri)
            if best is None or ratio < best:
                best = ratio
        return best

    systoles = [Fraction(weight[z], d_edge) for z in z1 if z not in b1]
    return constant(b1), constant(z1), min(systoles, default=None)


# ---------------------------------------------------------------------------
# cocycles and coset weights by full sweeps of C^1


def _d1_edges(X):
    """(edges, triangles): the sorted edge rows of X.faces(1) and, for
    each row (a, b, c) of X.faces(2), the indices of ab, bc and ac."""
    edges = [tuple(r) for r in X.faces(1).tolist()]
    eidx = {e: i for i, e in enumerate(edges)}
    tris = [(eidx[(a, b)], eidx[(b, c)], eidx[(a, c)])
            for a, b, c in X.faces(2).tolist()]
    return edges, tris


def _mixed_radix_blocks(m, k, rows=1 << 16):
    """Every k-digit base-m string, most significant digit first, in
    lexicographic order, a block of ``rows`` strings at a time."""
    place = m ** np.arange(k - 1, -1, -1, dtype=np.int64)
    for lo in range(0, m ** k, rows):
        idx = np.arange(lo, min(lo + rows, m ** k), dtype=np.int64)
        yield idx[:, None] // place % m


def full_sweep_cocycles(X, lam):
    """Every cocycle of X over the TableGroup lam, in lexicographic order.

    Each cochain of C^1 is decoded from its mixed-radix index, edge 0 the
    most significant digit, and every triangle ab, bc, ac is checked on
    it: phi(ab) phi(bc) phi(ac)^-1 must be the identity.
    """
    _, tris = _d1_edges(X)
    t, inv, e0 = lam.table, lam.inv, lam.identity
    out = []
    for vals in _mixed_radix_blocks(lam.size, X.face_count(1)):
        for ea, eb, ec in tris:
            vals = vals[t[t[vals[:, ea], vals[:, eb]], inv[vals[:, ec]]]
                        == e0]
        out.extend(map(tuple, vals.tolist()))
    return out


def all_coboundaries(X, lam):
    """{d0 psi : psi in C^0}, one psi at a time:
    d0 psi((u, v)) = psi(u) psi(v)^-1 on each sorted edge (u, v)."""
    edges, _ = _d1_edges(X)
    t, inv = lam.table, lam.inv
    return {tuple(int(t[psi[u], inv[psi[v]]]) for u, v in edges)
            for psi in itertools.product(range(lam.size),
                                         repeat=X.vertex_count)}


def _ratio_to(X, lam):
    """(ratio, ecnt, d_edge).  ratio(vals, ref) is ||d1 vals|| over the
    least distance from vals to a cochain of ref, exact, or None when vals
    lies in ref; one reference and one edge or triangle at a time, with
    the integer face counts taken from the maximal faces."""
    from math import comb

    edges, tris = _d1_edges(X)
    _, ecount = _edge_weights(X)
    ecnt = [ecount[e] for e in edges]
    tcount = {}
    for row in X.max_faces:
        for f in itertools.combinations(sorted(row.tolist()), 3):
            tcount[f] = tcount.get(f, 0) + 1
    tcnt = [tcount[tuple(f)] for f in X.faces(2).tolist()]
    d_edge = comb(X.n + 1, 2) * len(X.max_faces)
    d_tri = comb(X.n + 1, 3) * len(X.max_faces)
    t, inv, e0 = lam.table, lam.inv, lam.identity

    def ratio(vals, ref):
        dv = None
        for other in ref:
            d = sum(c for c, a, b in zip(ecnt, vals, other) if a != b)
            if dv is None or d < dv:
                dv = d
                if dv == 0:
                    return None
        num = sum(c for c, (ea, eb, ec) in zip(tcnt, tris)
                  if t[t[vals[ea], vals[eb]], inv[vals[ec]]] != e0)
        return Fraction(num * d_edge, dv * d_tri)

    return ratio, ecnt, d_edge


def sweep_expansion_h1(X, lam):
    """(h1_cobound, h1_cosys, min_systole) over any TableGroup lam.

    Every cochain of C^1, in itertools.product order, is measured against
    every cocycle of full_sweep_cocycles; the systole is the least weight
    of a cocycle outside all_coboundaries, and h1_cobound is 0 when there
    is one, else h1_cosys, as B^1 = Z^1 then.
    """
    ratio, ecnt, d_edge = _ratio_to(X, lam)
    z1 = full_sweep_cocycles(X, lam)
    b1 = all_coboundaries(X, lam)
    nontriv = [v for v in z1 if v not in b1]
    systole = None
    if nontriv:
        systole = Fraction(
            min(sum(c for c, x in zip(ecnt, v) if x != lam.identity)
                for v in nontriv), d_edge)
    h1_cosys = None
    for vals in itertools.product(range(lam.size), repeat=len(ecnt)):
        r = ratio(vals, z1)
        if r is not None and (h1_cosys is None or r < h1_cosys):
            h1_cosys = r
    return (Fraction(0) if nontriv else h1_cosys), h1_cosys, systole


def search_h1_cobound(X, lam, seed, iters):
    """The search-mode bound on h1_cobound, one proposal at a time.

    From iters starts drawn by random.Random(seed), edge values in edge
    order, first-improvement descent: each edge tries every other value
    in increasing order and keeps any strictly better ratio to B^1.
    """
    ratio, ecnt, _ = _ratio_to(X, lam)
    b1 = sorted(all_coboundaries(X, lam))
    E, m = len(ecnt), lam.size
    rng = random.Random(seed)
    best = None
    for _ in range(iters):
        vals = [rng.randrange(m) for _ in range(E)]
        r = ratio(vals, b1)
        improved = True
        while improved:
            improved = False
            for ei in range(E):
                old = vals[ei]
                for nv in range(m):
                    if nv == old:
                        continue
                    vals[ei] = nv
                    r2 = ratio(vals, b1)
                    if r2 is not None and (r is None or r2 < r):
                        r = r2
                        old = nv
                        improved = True
                vals[ei] = old
        if r is not None and (best is None or r < best):
            best = r
    return best


def coset_min_weights(X, p):
    """(d1, least): the cosets of Z^1 in C^1 over Z/p by a full sweep.

    d1 is the integer matrix with rows ab + bc - ac over X.faces(2), and
    two cochains lie in one coset of its kernel iff their syndromes
    d1 c mod p agree.  least maps each syndrome, as a tuple, to the least
    edge weight of a cochain with that syndrome; the weight of c is the
    sum over its support of the maximal-face counts of the edges.
    """
    edges, tris = _d1_edges(X)
    E = len(edges)
    d1 = np.zeros((len(tris), E), dtype=np.int64)
    for row, (ab, bc, ac) in zip(d1, tris):
        row[[ab, bc, ac]] = [1, 1, -1]
    counts = _edge_weights(X)[1]
    weight = np.array([counts[e] for e in edges], dtype=np.int64)
    place = p ** np.arange(len(tris), dtype=np.int64)
    keys, low = np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    for c in _mixed_radix_blocks(p, E):
        syn = sum((c[:, ab] + c[:, bc] - c[:, ac]) % p * place[t]
                  for t, (ab, bc, ac) in enumerate(tris))
        keys = np.concatenate([keys, syn])
        low = np.concatenate([low, (c != 0) @ weight])
        keys, pos = np.unique(keys, return_inverse=True)
        low, w = np.full(len(keys), np.iinfo(np.int64).max), low
        np.minimum.at(low, pos, w)
    syndromes = keys[:, None] // place % p
    return d1, dict(zip(map(tuple, syndromes.tolist()), low.tolist()))


# ---------------------------------------------------------------------------
# BFS spanning forest of a graph, one vertex at a time


def bfs_forest(edges, V):
    """(parent, parent_edge, bfs_order, n_components) as Python lists.

    Roots are taken in increasing order, each vertex scans its neighbours
    in increasing order through per-vertex adjacency lists, and the queue
    is FIFO; parent and parent_edge are -1 at the roots.
    """
    adj = [[] for _ in range(V)]
    for ei, (u, v) in enumerate(edges):
        adj[u].append((v, ei))
        adj[v].append((u, ei))
    for lst in adj:
        lst.sort()
    parent = [-1] * V
    parent_edge = [-1] * V
    seen = [False] * V
    order = []
    comps = 0
    for root in range(V):
        if seen[root]:
            continue
        comps += 1
        seen[root] = True
        order.append(root)
        queue = [root]
        while queue:
            nxt = []
            for u in queue:
                for v, ei in adj[u]:
                    if not seen[v]:
                        seen[v] = True
                        parent[v] = u
                        parent_edge[v] = ei
                        order.append(v)
                        nxt.append(v)
            queue = nxt
    return parent, parent_edge, order, comps


# ---------------------------------------------------------------------------
# tree-gauge H^1 search from the tree edges down, and its branch edges


def _edge_triangles(X):
    """(edges, triangles as edge-index triples (ab, bc, ac), the triangles
    of each edge in increasing order), from X.faces(1) and X.faces(2)."""
    edges = [tuple(r) for r in X.faces(1).tolist()]
    eidx = {e: i for i, e in enumerate(edges)}
    tris = [] if X.n < 2 else [(eidx[(a, b)], eidx[(b, c)], eidx[(a, c)])
                               for a, b, c in X.faces(2).tolist()]
    of_edge = [[] for _ in edges]
    for ti, tri in enumerate(tris):
        for e in tri:
            of_edge[e].append(ti)
    return edges, tris, of_edge


def queue_gauge_solutions(X, lam, stop_after=None):
    """Tree-trivial cocycles in lex order of value tuples, values tried
    by index.

    The identity is set on every edge of the BFS forest (bfs_forest) and
    propagated through a queue of triangles; the DFS then branches at the
    lowest unassigned edge, so the first branch path is the all-identity
    descent.  Each set edge queues its triangles, and a triangle with one
    unset edge forces it to the value that makes ab.bc.ac^-1 the identity.
    """
    t, inv, e0 = lam.table.tolist(), lam.inv.tolist(), lam.identity
    edges, tris, of_edge = _edge_triangles(X)
    E = len(edges)
    assign = [-1] * E
    trail = []

    def propagate(pending):
        while pending:
            ea, eb, ec = tris[pending.pop()]
            a, b, c = assign[ea], assign[eb], assign[ec]
            if (a < 0) + (b < 0) + (c < 0) >= 2:
                continue
            if a < 0:
                e, val = ea, t[c][inv[b]]
            elif b < 0:
                e, val = eb, t[inv[a]][c]
            elif c < 0:
                e, val = ec, t[a][b]
            elif t[t[a][b]][inv[c]] != e0:
                return False
            else:
                continue
            assign[e] = val
            trail.append(e)
            pending.extend(of_edge[e])
        return True

    def undo_to(mark):
        while len(trail) > mark:
            assign[trail.pop()] = -1

    pending = []
    for e in bfs_forest(edges, X.vertex_count)[1]:
        if e >= 0:
            assign[e] = e0
            pending.extend(of_edge[e])
    if not propagate(pending):
        return []
    sols = []

    def search(mark):
        """False once stop_after solutions are kept."""
        if -1 not in assign:
            sols.append(tuple(assign))
            return stop_after is None or len(sols) < stop_after
        e = assign.index(-1)
        for val in range(len(t)):
            assign[e] = val
            trail.append(e)
            if propagate(list(of_edge[e])) and not search(len(trail)):
                return False
            undo_to(mark)
        return True

    search(len(trail))
    return sols


def closure_labels(X):
    """For each edge, the branch edge at whose step the tree-gauge DFS
    first sets it, -1 for the edges the tree forces; from closure alone.

    The known set starts as the BFS forest's edges and is closed under
    "two known edges of a triangle make the third known", one edge at a
    time.  The least unknown edge is then a branch edge: it joins the
    known set, and the closure runs again.  No coefficient value is
    involved.  Branch edges are the edges labelled with themselves.
    """
    edges, tris, of_edge = _edge_triangles(X)
    label = [None] * len(edges)

    def close(queue, step):
        for e in queue:
            label[e] = step
        while queue:
            for ti in of_edge[queue.pop()]:
                unknown = [f for f in tris[ti] if label[f] is None]
                if len(unknown) == 1:
                    label[unknown[0]] = step
                    queue.append(unknown[0])

    close([e for e in bfs_forest(edges, X.vertex_count)[1] if e >= 0], -1)
    for e in range(len(edges)):
        if label[e] is None:
            close([e], e)
    return label


# ---------------------------------------------------------------------------
# abelian H^1 census by linear algebra mod a prime


def _rank_mod_p(rows, p):
    """Rank over F_p of sparse rows given as {column: value} dicts.

    Each new row is reduced on its leading (least) column against the
    stored row that leads there, until it vanishes or leads at a fresh
    column, where it is normalized and stored.
    """
    lead = {}
    for row in rows:
        row = {c: x % p for c, x in row.items() if x % p}
        while row:
            c = min(row)
            piv = lead.get(c)
            if piv is None:
                f = pow(row[c], p - 2, p)
                lead[c] = {k: x * f % p for k, x in row.items()}
                break
            f = row[c]
            for k, x in piv.items():
                y = (row.get(k, 0) - f * x) % p
                if y:
                    row[k] = y
                else:
                    row.pop(k, None)
    return len(lead)


def abelian_h1_classes(X, p):
    """|H^1(X, Z/p)| = p^(dim ker d1 - rank d0), p prime.

    The chain maps are assembled against X.faces(1)/faces(2) only (the
    incidence data), not against any cochain code in the package.
    """
    edges = [tuple(r) for r in X.faces(1).tolist()]
    tris = [tuple(r) for r in X.faces(2).tolist()]
    eidx = {e: i for i, e in enumerate(edges)}
    E = len(edges)
    d0 = [{u: 1, v: -1} for u, v in edges]
    d1 = [{eidx[(a, b)]: 1, eidx[(b, c)]: 1, eidx[(a, c)]: -1}
          for a, b, c in tris]
    rank_d0 = _rank_mod_p(d0, p)
    rank_d1 = _rank_mod_p(d1, p)
    return p ** ((E - rank_d1) - rank_d0)


# ---------------------------------------------------------------------------
# links by a full scan of the maximal faces


def brute_link(X, tau):
    """(max_faces, colors, labels, origin_vertices) of the link of tau.

    A mask over every maximal face selects those containing tau; the
    link's faces are their complements, renumbered in increasing order
    of original vertex and listed lexicographically, and the surviving
    colors are compacted in increasing order.
    """
    tau = set(int(v) for v in tau)
    mf = X.max_faces
    mask = np.isin(mf, list(tau)).sum(axis=1) == len(tau)
    rest = [sorted(set(f) - tau) for f in mf[mask].tolist()]
    verts = sorted({v for f in rest for v in f})
    renum = {v: i for i, v in enumerate(verts)}
    faces = sorted({tuple(renum[v] for v in f) for f in rest})
    colors = None
    if X.colors is not None:
        palette = sorted({int(X.colors[v]) for v in verts})
        colors = np.array([palette.index(int(X.colors[v])) for v in verts],
                          dtype=np.int64)
    labels = None
    if X.labels is not None:
        labels = tuple(X.labels[v] for v in verts)
    width = X.n + 1 - len(tau)
    return (np.array(faces, dtype=np.int64).reshape(len(faces), width),
            colors, labels, np.array(verts, dtype=np.int64))


# ---------------------------------------------------------------------------
# second eigenvalue of the weighted walk, assembled independently


def walk_second_eigenvalue(X):
    """Dense row-stochastic matrix straight from maximal-face counts,
    symmetrized by similarity; eigenvalues via numpy on float64."""
    _, counts = _edge_weights(X)
    V = X.vertex_count
    A = np.zeros((V, V))
    for (u, v), c in counts.items():
        A[u, v] += c
        A[v, u] += c
    strength = A.sum(axis=1)
    S = A / np.sqrt(np.outer(strength, strength))
    vals = np.linalg.eigvalsh(S)
    return float(vals[-2])


# ---------------------------------------------------------------------------
# KO subgroups and vertex links, one color at a time


def ko_generators(n, p, s, d, i):
    """e_{g(j), g(j+1)}(r) for 1 <= j <= n and deg r <= d, g = gamma_0^i.

    gamma_0 is the cycle k -> k+1 on 1..n+1, so g(k) = (k - 1 + i) % (n+1)
    + 1.  These generate K_i by definition.
    """
    from cosetx.groups import elementary
    from cosetx.ring import TruncPoly

    m = n + 1
    g = [None] + [(k - 1 + i) % m + 1 for k in range(1, m + 1)]
    polys = [TruncPoly.make(p, s, cs)
             for cs in itertools.product(range(p), repeat=d + 1)]
    return [elementary(n, g[j], g[j + 1], r)
            for j in range(1, n + 1) for r in polys]


def ko_subgroup_bfs(n, p, s, d, i):
    """K_i as the BFS closure (``groups.bfs_closure``) of its generators."""
    from cosetx.groups import bfs_closure

    return bfs_closure(ko_generators(n, p, s, d, i))


def ko_vertex_links_per_color(n, p, s, d):
    """CC(K_i, {K_i n K_j : j != i}) for every color i, built separately.

    One BFS per K_i from its own generators, intersections by membership
    in K_j's key index and one coset complex per color: nothing is read
    off the closed form, the normal form or the gamma_0 rotation.
    """
    from cosetx.complexes import coset_complex

    Ks = [ko_subgroup_bfs(n, p, s, d, i) for i in range(n + 1)]
    return [coset_complex(Ks[i], [
        np.flatnonzero(Ks[j].lookup_rows(Ks[i].elems) >= 0)
        for j in range(n + 1) if j != i]) for i in range(n + 1)]


def ko_complex_per_color(n, p, s, d):
    """CC(SL_{n+1}(F_p[t]/t^s), {K_i}) with one ``cosets()`` per color.

    Each K_i is looked up in G as the rotated rows of K_0 and partitioned
    on its own, so no color is read off another through the gamma_0
    conjugation.
    """
    from cosetx.complexes import coset_complex
    from cosetx.groups import rotate_rows, sl_group, subgroup_K

    G = sl_group(n, p, s)
    K0 = subgroup_K(n, p, s, d, 0).elems
    subs = []
    for i in range(n + 1):
        idx = G.lookup_rows(rotate_rows(K0, i))
        assert (idx >= 0).all(), f"K_{i} escapes the ambient group"
        subs.append(idx)
    return coset_complex(G, subs)


# ---------------------------------------------------------------------------
# finite groups one operation at a time: closures as Python sets


def set_subgroup_closure(G, seed):
    """Indices of <seed> in G by a plain BFS over ``G.mult`` with a set."""
    seen = {G.identity}
    frontier = [G.identity]
    seed = sorted(set(int(x) for x in seed))
    while frontier:
        nxt = []
        for x in frontier:
            for g in seed:
                y = G.mult(x, g)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return np.array(sorted(seen), dtype=np.int64)


def symmetric_group_table(k):
    """Multiplication table of Sym(k) in ``itertools.permutations`` order,
    (pa pb)(i) = pa(pb(i)), one product at a time."""
    perms = list(itertools.permutations(range(k)))
    pos = {p: i for i, p in enumerate(perms)}
    n = len(perms)
    table = np.empty((n, n), dtype=np.int64)
    for a, pa in enumerate(perms):
        for b, pb in enumerate(perms):
            table[a, b] = pos[tuple(pa[pb[i]] for i in range(k))]
    return table


def orbit_reduction_kernel(n, p, s_hi, s_lo):
    """Flat rows of the kernel of SL_{n+1}(F_p[t]/t^s_hi) -> mod t^s_lo.

    The congruence elementaries e_{i,j}(c t^k), k >= s_lo, closed under
    conjugation by every ambient elementary e_{i,j}(r) (a set of keys),
    then BFS-closed: the normal closure, with no claim on which elements
    generate it.
    """
    from cosetx._kernels import closure_bfs, matmul_batch, pack_keys
    from cosetx.groups import _elementary_terms, elementary
    from cosetx.ring import RingTable

    m = n + 1
    ring = RingTable(p, s_hi)
    orbit = np.unique(np.stack([
        elementary(n, i, j, r).flat()
        for i, j, r in _elementary_terms(n, p, s_hi, range(s_lo, s_hi))]),
        axis=0)
    conj_pairs = [(elementary(n, i, j, r).flat(),
                   elementary(n, i, j, -r).flat())
                  for i, j, r in _elementary_terms(n, p, s_hi, range(s_hi))]
    orbit_keys = set(int(k) for k in pack_keys(orbit, ring.q))
    frontier = orbit
    while len(frontier):
        fresh = []
        for g, ginv in conj_pairs:
            prods = matmul_batch(matmul_batch(g, frontier, ring.mul, ring.add,
                                              m), ginv, ring.mul, ring.add, m)
            for row, key in zip(prods, pack_keys(prods, ring.q)):
                if int(key) not in orbit_keys:
                    orbit_keys.add(int(key))
                    fresh.append(row)
        if not fresh:
            break
        frontier = np.stack(fresh)
        orbit = np.concatenate([orbit, frontier])
    return closure_bfs(orbit, ring.mul, ring.add, m, ring.q, 1 << 24)


def set_conjugation_classes(sols, lam):
    """Orbits of cochains under constant conjugation, one orbit at a time
    into a set of tuples."""
    conj = [[int(lam.table[lam.table[c, v], lam.inv[c]])
             for v in range(lam.size)] for c in range(lam.size)]
    seen = set()
    classes = 0
    for s in sols:
        if tuple(s) in seen:
            continue
        classes += 1
        seen.update(tuple(row[v] for v in s) for row in conj)
    return classes


def mat_element_order(mat, cap=10**6):
    """Multiplicative order of a ``groups.MatElement`` by iterated product;
    works in rings too large to table."""
    from cosetx.groups import MatElement

    ident = MatElement.identity(mat.m, mat.p, mat.s)
    acc = mat
    for k in range(1, cap + 1):
        if acc == ident:
            return k
        acc = acc @ mat
    raise AssertionError(f"order exceeds {cap}")


# ---------------------------------------------------------------------------
# root-pair propagation on sets of root tuples


def act_root(perm, r):
    """The image (perm(i), perm(j)) of root (i, j); perms are 1-based image
    tuples."""
    return (perm[r[0] - 1], perm[r[1] - 1])


def count_nonopposite_pairs(n):
    """Unordered non-opposite pairs of A_n roots, diagonal included."""
    r = (n + 1) * n
    return r * (r - 1) // 2 - r // 2 + r


def _chamber(perm):
    m = len(perm)
    return {(perm[a], perm[b]) for a in range(m) for b in range(a + 1, m)}


def initial_stage(n):
    """The gamma_0 powers k -> k + t mod n+1, as 1-based image tuples."""
    m = n + 1
    return frozenset(tuple((k + t) % m + 1 for k in range(m))
                     for t in range(m))


def covered_pairs(perms):
    """All unordered root pairs (sorted tuples, diagonal included) lying in
    one chamber of ``perms``."""
    out = set()
    for perm in perms:
        rs = sorted(_chamber(perm))
        for a in range(len(rs)):
            for b in range(a, len(rs)):
                out.add((rs[a], rs[b]))
    return frozenset(out)


def pair_covered(r1, r2, perms):
    """True iff some chamber of ``perms`` contains both roots."""
    return any(r1 in ch and r2 in ch for ch in map(_chamber, perms))


def _admissible(perm, covered):
    bd = sorted((perm[a], perm[a + 1]) for a in range(len(perm) - 1))
    for a in range(len(bd)):
        for b in range(a, len(bd)):
            if (bd[a], bd[b]) not in covered:
                return False
    rs = sorted(_chamber(perm))
    for r1, r2 in itertools.combinations(rs, 2):
        if (r1[0] == r2[0] or r1[1] == r2[1]) and (r1, r2) not in covered:
            return False
    return True


def propagate_stage(perms, n):
    """The next stage, one permutation of Sym(n+1) at a time: a chamber is
    admitted when every pair from its boundary and every shared-index pair
    among its roots is covered by ``perms``."""
    covered = covered_pairs(perms)
    return frozenset(perm for perm in itertools.permutations(range(1, n + 2))
                     if _admissible(perm, covered))


def lemma_failures(n, stage0):
    """The suite's exhaustive lemma failures for one n, on sets: ordered
    shared-index pairs (r1 = r2 too) outside the coverage of ``stage0``,
    (i, i+1) against each non-opposite root outside it, and unordered
    non-opposite pairs in no chamber C_{gamma_0^t gamma_1^l}."""
    m = n + 1
    roots = [(i, j) for i in range(1, m + 1) for j in range(1, m + 1)
             if i != j]
    cov0 = covered_pairs(stage0)
    failures = sum(1 for r1 in roots for r2 in roots
                   if r2 != (r1[1], r1[0])
                   and (r1[0] == r2[0] or r1[1] == r2[1])
                   and tuple(sorted((r1, r2))) not in cov0)
    failures += sum(1 for i in range(1, m) for r2 in roots
                    if r2 != (i + 1, i)
                    and not pair_covered((i, i + 1), r2, stage0))
    # gamma_1^l: k -> k - l mod n on 1..n, fixing n+1; then gamma_0^t
    g1 = [[(k - 1 - l) % n + 1 for k in range(1, m)] + [m] for l in range(n)]
    union = covered_pairs([tuple((v - 1 + t) % m + 1 for v in g)
                           for t in range(m) for g in g1])
    failures += sum(1 for a in range(len(roots)) for b in range(a, len(roots))
                    if roots[b] != (roots[a][1], roots[a][0])
                    and (roots[a], roots[b]) not in union)
    return failures


# ---------------------------------------------------------------------------
# test-only helpers on the package's cochains, walks, rings and complexes


def identity_cochain1(X, lam):
    """The 1-cochain with the identity on every edge."""
    from cosetx.cohomology import Cochain1

    return Cochain1(lam, np.full(X.face_count(1), lam.identity,
                                 dtype=np.int64))


def identity_support_free(phi):
    """True iff the cochain is the identity everywhere."""
    return bool((phi.values == phi.lam.identity).all())


def cochain1_from_edge_map(X, lam, mapping):
    """A 1-cochain from oriented-edge values, verifying antisymmetry.

    Values may be given for either or both orientations; supplying
    phi((u,v)) and phi((v,u)) that are not mutually inverse is an
    error, as is omitting an edge of X.
    """
    from cosetx.cohomology import Cochain1
    from cosetx.errors import InputError

    vals = np.full(X.face_count(1), -1, dtype=np.int64)
    for (u, v), raw in mapping.items():
        val = int(raw)
        if not 0 <= val < lam.size:
            raise InputError(f"value {val} out of range for {lam.name}")
        a, b = (u, v) if u < v else (v, u)
        pos = X.face_position((a, b))
        if pos < 0:
            raise InputError(f"({u}, {v}) is not an edge")
        canon = val if u < v else int(lam.inv[val])
        if vals[pos] >= 0 and vals[pos] != canon:
            raise InputError(f"antisymmetry violated on edge ({a}, {b})")
        vals[pos] = canon
    if (vals < 0).any():
        missing = int(np.flatnonzero(vals < 0)[0])
        raise InputError(f"no value for edge {tuple(X.faces(1)[missing])}")
    return Cochain1(lam, vals)


def gauge_act(X, psi, phi):
    """psi.phi((u, v)) = psi(u) phi((u, v)) psi(v)^-1 on a cocycle."""
    from cosetx.cohomology import Cochain1, is_cocycle
    from cosetx.errors import InputError

    if len(psi.values) != X.vertex_count:
        raise InputError("0-cochain size does not match the complex")
    if psi.lam is not phi.lam and psi.lam.name != phi.lam.name:
        raise InputError("cochains use different coefficient groups")
    if not is_cocycle(X, phi):
        raise InputError("gauge action is defined on cocycles only")
    lam, e = phi.lam, X.faces(1)
    return Cochain1(lam, lam.table[lam.table[psi.values[e[:, 0]], phi.values],
                                   lam.inv[psi.values[e[:, 1]]]])


def is_coboundary(X, phi):
    """A psi with d0 psi = phi, or None; the tree potential, per
    component, is the only candidate."""
    from cosetx.cohomology import Cochain0, _tree_potential, d0
    from cosetx.errors import InputError

    if len(phi.values) != X.face_count(1):
        raise InputError("1-cochain size does not match the complex")
    cand = Cochain0(phi.lam, _tree_potential(X, phi))
    if np.array_equal(d0(X, cand).values, phi.values):
        return cand
    return None


def stationary_exact(M):
    """The stationary distribution of a ``spectral.WalkMatrix`` as
    fractions: vertex strength over total strength."""
    tot = int(M.strength.sum())
    return [Fraction(int(s), tot) for s in M.strength]


def reduce_indices(indices, p, s_lo):
    """Packed ring indices under truncation to t^s_lo: index mod p^s_lo."""
    return np.asarray(indices) % (p**s_lo)


def vertex_of(coset_data, color, element):
    """The vertex id of the coset of ``element`` in colour ``color``."""
    return int(coset_data.offsets[color]
               + coset_data.partitions[color].ordinal[element])


# ---------------------------------------------------------------------------
# Steinberg relations as RelationInstance objects, one root pair at a time


class SteinbergLetters:
    """One GeneratorSymbol per (root, r), deg r <= d, made on first use,
    with the letters (sym, 1) and (sym, -1) and the index tables of the
    relation families, all from coefficient tuples: r_k has the base-p
    digits of k as coefficients, sums are coefficientwise mod p, and
    products are full convolutions in F_p[t]."""

    def __init__(self, p, d):
        from cosetx.ring import TruncPoly

        s = d + 1
        coeffs = [tuple((k // p**c) % p for c in range(s)) for k in range(p**s)]
        index = {cs: k for k, cs in enumerate(coeffs)}
        self.polys = [TruncPoly.make(p, s, cs) for cs in coeffs]
        self.sums = [[index[naive_add(a, b, p, s)] for b in coeffs]
                     for a in coeffs]
        by_product, self.small = {}, []
        for i, a in enumerate(coeffs):
            for j, b in enumerate(coeffs):
                prod = [0] * (2 * s - 1)
                for x, ca in enumerate(a):
                    for y, cb in enumerate(b):
                        prod[x + y] = (prod[x + y] + ca * cb) % p
                by_product.setdefault(tuple(prod), []).append((i, j))
                if not any(prod[s:]):
                    self.small.append((i, j, index[tuple(prod[:s])]))
        self.equal = [pair for pairs in by_product.values()
                      for pair in itertools.combinations(pairs, 2)]
        self._letters = {}

    def letters(self, root):
        """(x_root(r_k), 1) and (x_root(r_k), -1), indexed by k."""
        from cosetx.presentations import GeneratorSymbol

        if root not in self._letters:
            syms = [GeneratorSymbol(root, r) for r in self.polys]
            self._letters[root] = ([(x, 1) for x in syms],
                                   [(x, -1) for x in syms])
        return self._letters[root]

    def generators(self, roots):
        return tuple(x for rho in roots for x, _ in self.letters(rho)[0])


def _commutator(X, X_inv, i, Y, Y_inv, j):
    return (X[i], Y[j], X_inv[i], Y_inv[j])


def steinberg_pair_relations(a, b, table):
    """The relations of the non-opposite root pair a <= b: x(0) = e and
    the additive relations for a = b, all commutators for a disjoint pair,
    Steinberg products of degree <= d and equalities of distinct
    factorizations for a composable pair."""
    from cosetx.presentations import RelationInstance

    src = (a, b)
    A, A_inv = table.letters(a)
    idx = range(len(table.polys))
    if a == b:
        out = [RelationInstance((A[0],), (), "zero", src)]
        out += [RelationInstance((A[i], A[j]), (A[table.sums[i][j]],),
                                 "additive", src) for i in idx for j in idx]
        return out
    if a[1] == b[0]:
        ab, bc = a, b
    elif b[1] == a[0]:
        ab, bc = b, a
    else:
        B, B_inv = table.letters(b)
        return [RelationInstance(_commutator(A, A_inv, i, B, B_inv, j), (),
                                 "commuting", src) for i in idx for j in idx]
    X, X_inv = table.letters(ab)
    Y, Y_inv = table.letters(bc)
    Z = table.letters((ab[0], bc[1]))[0]
    out = [RelationInstance(_commutator(X, X_inv, i, Y, Y_inv, j), (Z[k],),
                            "steinberg-product", src)
           for i, j, k in table.small]
    out += [RelationInstance(_commutator(X, X_inv, i, Y, Y_inv, j),
                             _commutator(X, X_inv, k, Y, Y_inv, l),
                             "steinberg-equality", src)
            for (i, j), (k, l) in table.equal]
    return out


def _a_n_roots(n):
    return [(i, j) for i in range(1, n + 2) for j in range(1, n + 2) if i != j]


def _steinberg_pairs(roots):
    """Unordered non-opposite pairs (a, b), a before b in ``roots`` or
    equal, sorted within the pair."""
    return [tuple(sorted((a, b))) for k, a in enumerate(roots)
            for b in roots[k:] if a != (b[1], b[0])]


def steinberg_sl(n, p, d):
    """(generators, relations) of every non-opposite pair of A_n roots."""
    table = SteinbergLetters(p, d)
    roots = _a_n_roots(n)
    gens = table.generators(roots)
    return gens, [rel for a, b in _steinberg_pairs(roots)
                  for rel in steinberg_pair_relations(a, b, table)]


def steinberg_unipotent(dim, p, d):
    """(generators, relations) of the unitriangular presentation: the
    pair relations of each simple root with itself and of distant simple
    roots, then per adjacent (lo, hi) the double commutators
    [[x_lo(r1), x_hi(r2)], x] for x = x_lo(r3), x_hi(r3) and the
    factorization equalities."""
    from cosetx.presentations import RelationInstance

    table = SteinbergLetters(p, d)
    simple = [(i, i + 1) for i in range(1, dim)]
    gens = table.generators(simple)
    rels = [rel for rho in simple
            for rel in steinberg_pair_relations(rho, rho, table)]
    rels += [rel for a, b in itertools.combinations(simple, 2)
             if a[1] < b[0] for rel in steinberg_pair_relations(a, b, table)]
    idx = range(len(table.polys))
    for lo, hi in zip(simple, simple[1:]):
        L, L_inv = table.letters(lo)
        H, H_inv = table.letters(hi)
        for r1, r2, r3 in itertools.product(idx, repeat=3):
            inner = _commutator(L, L_inv, r1, H, H_inv, r2)
            inner_inv = _commutator(H, H_inv, r2, L, L_inv, r1)
            for X, X_inv in ((L, L_inv), (H, H_inv)):
                rels.append(RelationInstance(
                    inner + (X[r3],) + inner_inv + (X_inv[r3],), (),
                    "commuting", (lo, hi)))
        rels += [RelationInstance(_commutator(L, L_inv, i, H, H_inv, j),
                                  _commutator(L, L_inv, k, H, H_inv, l),
                                  "steinberg-equality", (lo, hi))
                 for (i, j), (k, l) in table.equal]
    return gens, rels


def steinberg_tilde(n, p, d):
    """(generators, relations) of the A_n root pairs that some chamber of
    a gamma_0 power contains."""
    table = SteinbergLetters(p, d)
    roots = _a_n_roots(n)
    gens = table.generators(roots)
    stage0 = initial_stage(n)
    return gens, [rel for a, b in _steinberg_pairs(roots)
                  if pair_covered(a, b, stage0)
                  for rel in steinberg_pair_relations(a, b, table)]


def steinberg_chamber(n, p, d):
    """(generators, pre-chamber relations, chamber relations) inside
    C_0 = {(i, j): i < j}: the chamber takes every pair, the pre-chamber
    the pairs sharing an index and the pairs of boundary roots (j = i+1)."""
    table = SteinbergLetters(p, d)
    c0 = sorted(_chamber(tuple(range(1, n + 2))))
    gens = table.generators(c0)
    pre, chamber = [], []
    for a, b in _steinberg_pairs(c0):
        rels = steinberg_pair_relations(a, b, table)
        chamber += rels
        if (a[0] == b[0] or a[1] == b[1]
                or (a[1] == a[0] + 1 and b[1] == b[0] + 1)):
            pre += rels
    return gens, pre, chamber


def steinberg_codes(relations, generators):
    """(lhs, rhs, kinds, source pairs) of the relations: the words as
    int32 rows of letter codes, 2k for generators[k] and 2k + 1 for its
    inverse, padded with -1 to the longest word of the side; the kinds as
    positions in ``presentations.KINDS``."""
    from cosetx.presentations import KINDS

    pos = {x: k for k, x in enumerate(generators)}

    def side(words):
        out = np.full((len(words), max(map(len, words), default=0)), -1,
                      dtype=np.int32)
        for r, word in enumerate(words):
            out[r, :len(word)] = [2 * pos[x] + (e == -1) for x, e in word]
        return out

    return (side([rel.lhs for rel in relations]),
            side([rel.rhs for rel in relations]),
            [KINDS.index(rel.kind) for rel in relations],
            [rel.source_pair for rel in relations])


# ---------------------------------------------------------------------------
# a child process's own peak memory


# run first in the child: at exit, print VmHWM, the high-water RSS of the
# child's own address space, which the exec started afresh
_PEAK_PROLOGUE = """\
import atexit

def _print_peak_mb():
    with open("/proc/self/status") as fh:
        kb = next(int(ln.split()[1]) for ln in fh if ln.startswith("VmHWM:"))
    print(kb // 1024, flush=True)

atexit.register(_print_peak_mb)
"""


def run_with_peak(code):
    """Run ``code`` in a fresh interpreter: (the finished process, the
    child's own peak RSS in MB, or None if the child printed none).

    The peak is the last line of stdout.  A child's ``ru_maxrss`` would
    not do: on Linux it starts from the parent's high-water RSS at the
    exec, so under pytest it reads pytest's peak.  Skips where
    /proc/self/status is missing.
    """
    import pytest

    try:
        open("/proc/self/status").close()
    except OSError:
        pytest.skip("no /proc/self/status to read a peak from")
    r = subprocess.run([sys.executable, "-c", _PEAK_PROLOGUE + code],
                       capture_output=True, text=True, timeout=300)
    last = r.stdout.strip().rsplit("\n", 1)[-1]
    return r, int(last) if last.isdigit() else None
