"""Independent reference implementations used to pin expected values.

Everything here is written from the definitions, deliberately avoiding
the package's own data structures and algorithms wherever possible, so
a shared bug cannot hide: truncated-polynomial arithmetic by direct
convolution on coefficient tuples, determinants by Leibniz expansion,
expansion constants by complete enumeration, abelian H^1 by linear
algebra mod a prime.
"""

from __future__ import annotations

import itertools
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


# ---------------------------------------------------------------------------
# abelian H^1 census by linear algebra mod a prime


def _rank_mod_p(rows, p):
    rows = [list(r) for r in rows]
    if not rows:
        return 0
    cols = len(rows[0])
    rank = 0
    for c in range(cols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c] % p), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], p - 2, p) if p > 2 else rows[rank][c]
        rows[rank] = [(x * inv) % p for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c] % p:
                f = rows[i][c]
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def abelian_h1_classes(X, p):
    """|H^1(X, Z/p)| = p^(dim ker d1 - rank d0), p prime.

    The chain maps are assembled against X.faces(1)/faces(2) only (the
    incidence data), not against any cochain code in the package.
    """
    edges = [tuple(r) for r in X.faces(1).tolist()]
    tris = [tuple(r) for r in X.faces(2).tolist()]
    eidx = {e: i for i, e in enumerate(edges)}
    E, V = len(edges), X.vertex_count
    d0 = []
    for u, v in edges:
        row = [0] * V
        row[u] += 1
        row[v] -= 1
        d0.append(row)
    d1 = []
    for a, b, c in tris:
        row = [0] * E
        row[eidx[(a, b)]] += 1
        row[eidx[(b, c)]] += 1
        row[eidx[(a, c)]] -= 1
        d1.append(row)
    rank_d0 = _rank_mod_p(d0, p)
    rank_d1 = _rank_mod_p(d1, p) if d1 else 0
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
