"""The A_n root system: Weyl chambers, the Sym(n+1) action, stage propagation.

Roots are ordered pairs (i, j), 1-based, i != j.  The chamber of a
permutation gamma is C_gamma = {(gamma(i), gamma(j)) : i < j} with boundary
{(gamma(i), gamma(i+1))}.  Permutations are image tuples: perm[k-1] is the
image of k.

The propagation stages C_0 -> C_1 -> C_2 start from the chambers of the
gamma_0 powers.  A chamber is admitted into stage k when every pair from
its boundary (a root paired with itself included) and every pair of its
roots that share a first or a second index is covered at stage k-1, that
is, lies in one chamber of stage k-1.  The theorem under test says every
non-opposite pair is covered at stage 2.

On arrays, root (i, j) is the index x = (i-1)(n+1) + (j-1), so index order
is the lex order of root tuples.  A chamber C_gamma and its boundary
B_gamma are 0/1 rows over the (n+1)^2 indices, and a stage with chamber
rows C covers the pairs cov = C^T C > 0.  With S the shared-index relation
off the diagonal, gamma is admitted iff both (B_gamma @ ~cov) * B_gamma and
(C_gamma @ (S & ~cov)) * C_gamma are zero rows (@ the matrix product, *
the entrywise one).
That test sees the previous stage only through cov, so a stage streams the
(n+1)! rows of ``perm_table(n+1)`` in blocks of BLOCK and keeps only the
union of its blocks' coverage, never its chamber list.  The products are
float32 (numpy's integer matmul has no BLAS path); sums of 0/1 terms are
exact in float32 below 2^24 > BLOCK.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .errors import ParameterError

Root = tuple[int, int]
Perm = tuple[int, ...]

BLOCK = 1 << 15  # permutations per streamed block of a propagation stage


def all_roots(n: int) -> list[Root]:
    rng = range(1, n + 2)
    return [(i, j) for i in rng for j in rng if i != j]


def opposite(r: Root) -> Root:
    return (r[1], r[0])


def identity_perm(n: int) -> Perm:
    return tuple(range(1, n + 2))


def gamma0(n: int) -> Perm:
    """The (n+1)-cycle (1 2 ... n+1): k -> k+1, n+1 -> 1."""
    return tuple(list(range(2, n + 2)) + [1])


def gamma1(n: int) -> Perm:
    """The n-cycle (n n-1 ... 1) fixing n+1: k -> k-1 for k >= 2, 1 -> n."""
    if n < 2:
        raise ParameterError(f"gamma1 needs n >= 2, got {n}")
    return tuple([n] + list(range(1, n)) + [n + 1])


def compose(outer: Perm, inner: Perm) -> Perm:
    """outer . inner (apply inner first)."""
    return tuple(outer[inner[k] - 1] for k in range(len(inner)))


def root_index(r: Root, n: int) -> int:
    """(i, j) -> (i-1)(n+1) + (j-1), the row of root r in the masks below."""
    return (r[0] - 1) * (n + 1) + r[1] - 1


def perm_order(perm: Perm) -> int:
    n = len(perm)
    order = 1
    seen = [False] * n
    for start in range(n):
        if seen[start]:
            continue
        length, cur = 0, start
        while not seen[cur]:
            seen[cur] = True
            cur = perm[cur] - 1
            length += 1
        order = order * length // math.gcd(order, length)
    return order


def perm_pow(perm: Perm, k: int) -> Perm:
    out = identity_perm(len(perm) - 1)
    k %= perm_order(perm)
    for _ in range(k):
        out = compose(perm, out)
    return out


def perm_table(k: int) -> np.ndarray:
    """Sym(k) on {0..k-1}, one image row per permutation, in
    ``itertools.permutations`` (lex) order."""
    t = np.zeros((1, 0), dtype=np.int64)
    for size in range(1, k + 1):
        # first image f ascending, then Sym(size-1) in lex order on the rest
        t = np.concatenate([np.column_stack([np.full(len(t), f), t + (t >= f)])
                            for f in range(size)])
    return t


def perm_rank(rows) -> np.ndarray:
    """The positions in ``perm_table(k)`` of permutation rows (last axis k):
    their Lehmer codes, sum over i of c_i * (k-1-i)!, with c_i the number
    of j > i where row[j] < row[i]."""
    rows = np.asarray(rows)
    k = rows.shape[-1]
    # one contiguous row of bytes per position: c_i sums k-1-i compared rows
    cols = rows.reshape(-1, k).astype(np.min_scalar_type(k)).T.copy()
    rank = np.zeros(cols.shape[1], dtype=np.int64)
    for i in range(k - 1):
        c = (cols[i + 1:] < cols[i]).sum(axis=0)
        c *= math.factorial(k - 1 - i)
        rank += c
    return rank.reshape(rows.shape[:-1])


def chamber_roots(perm: Perm) -> frozenset[Root]:
    m = len(perm)
    return frozenset((perm[a], perm[b]) for a in range(m) for b in range(a + 1, m))


def chamber_boundary(perm: Perm) -> frozenset[Root]:
    return frozenset((perm[a], perm[a + 1]) for a in range(len(perm) - 1))


def chamber_masks(perms: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Chamber and boundary rows of 0-based permutation rows: float32 0/1
    over the m*m root indices, m = perms.shape[1]."""
    m = perms.shape[1]
    a, b = np.triu_indices(m, 1)
    C = np.zeros((len(perms), m * m), dtype=np.float32)
    B = np.zeros_like(C)
    np.put_along_axis(C, perms[:, a] * m + perms[:, b], 1, axis=1)
    np.put_along_axis(B, perms[:, :-1] * m + perms[:, 1:], 1, axis=1)
    return C, B


def coverage(chambers: np.ndarray) -> np.ndarray:
    """cov[x, y]: roots x and y lie in one of the chamber rows; C^T C > 0.

    The right factor is a copy: numpy sends a.T @ a to syrk, which
    two-threaded OpenBLAS ran about 500 times slower than gemm on a
    720 x 36 float32 matrix on a 2-core x86-64 host.
    """
    return chambers.T @ chambers.copy() > 0


def shared_index(m: int) -> np.ndarray:
    """S[x, y]: roots x and y share a first or a second index (x = y too)."""
    i, j = np.divmod(np.arange(m * m), m)
    return (i[:, None] == i) | (j[:, None] == j)


def initial_coverage(n: int) -> np.ndarray:
    """Stage 0's coverage: the chambers of the gamma_0 powers, whose 0-based
    rows are a -> a + t mod n+1."""
    t = np.arange(n + 1)
    return coverage(chamber_masks(np.add.outer(t, t) % (n + 1))[0])


def admissible(C: np.ndarray, B: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """Which chamber rows (with boundary rows B) cov admits: no uncovered
    boundary pair and no uncovered shared-index pair."""
    gap = ~cov
    shared_gap = shared_index(math.isqrt(len(cov))) & gap
    np.fill_diagonal(shared_gap, False)
    return ~(((B @ gap.astype(np.float32)) * B).any(axis=1)
             | ((C @ shared_gap.astype(np.float32)) * C).any(axis=1))


def boundary_of_gamma1_power(n: int, l: int) -> frozenset[Root]:
    """The closed-form boundary of C_{gamma_1^l}.

    {(i, i+1) : 1 <= i <= n-1, i != n-l} | {(n, 1)} | {(n-l, n+1)}.
    """
    if not (1 <= l <= n - 1):
        raise ParameterError(f"need 1 <= l <= n-1={n-1}, got {l}")
    out = {(i, i + 1) for i in range(1, n) if i != n - l}
    out.add((n, 1))
    out.add((n - l, n + 1))
    return frozenset(out)


def nonopposite_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs x <= y of the non-opposite root pairs, diagonal included,
    in lex order of the root pairs."""
    m = n + 1
    i, j = np.divmod(np.arange(m * m), m)
    x, y = np.triu_indices(m * m)
    keep = (i[x] != j[x]) & (i[y] != j[y]) & ((i[x] != j[y]) | (j[x] != i[y]))
    return x[keep], y[keep]


@dataclasses.dataclass
class CoverageReport:
    n: int
    stage_sizes: list[int]
    pairs_total: int
    covered_counts: list[int]
    uncovered_final: list[tuple[Root, Root]]

    @property
    def complete(self) -> bool:
        return not self.uncovered_final

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "stage_sizes": self.stage_sizes,
            "pairs_total": self.pairs_total,
            "covered_counts": self.covered_counts,
            "uncovered_final": [[list(r1), list(r2)] for r1, r2 in self.uncovered_final],
            "complete": self.complete,
        }


def verify_propagation(n: int, stages: int = 2) -> CoverageReport:
    """Run the propagation and report coverage of non-opposite pairs."""
    if n < 3:
        raise ParameterError(f"propagation is stated for n >= 3, got {n}")
    if stages < 0:
        raise ParameterError(f"stages must be nonnegative, got {stages}")
    m = n + 1
    x, y = nonopposite_pairs(n)
    perms = perm_table(m)
    cov = initial_coverage(n)
    stage_sizes = [m]
    covered_counts = [int(cov[x, y].sum())]
    for _ in range(stages):
        size, nxt = 0, np.zeros_like(cov)
        for lo in range(0, len(perms), BLOCK):
            C, B = chamber_masks(perms[lo:lo + BLOCK])
            C = C[admissible(C, B, cov)]
            size += len(C)
            nxt |= coverage(C)
        cov = nxt
        stage_sizes.append(size)
        covered_counts.append(int(cov[x, y].sum()))
    gap = ~cov[x, y]
    return CoverageReport(
        n=n,
        stage_sizes=stage_sizes,
        pairs_total=len(x),
        covered_counts=covered_counts,
        uncovered_final=[((a // m + 1, a % m + 1), (b // m + 1, b % m + 1))
                         for a, b in zip(x[gap].tolist(), y[gap].tolist())],
    )
