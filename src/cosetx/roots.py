"""The A_n root system: Weyl chambers, the Sym(n+1) action, stage propagation.

Roots are ordered pairs (i, j), 1-based, i != j.  The chamber of a
permutation gamma is C_gamma = {(gamma(i), gamma(j)) : i < j} with boundary
{(gamma(i), gamma(i+1))}.  Permutations are image tuples: perm[k-1] is the
image of k.

The propagation sets C_0 -> C_1 -> C_2 admit a chamber into stage k when its
boundary pairs and its shared-index pairs are all covered at stage k-1; the
theorem under test says every non-opposite pair is covered at stage 2.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from functools import lru_cache

from .errors import ParameterError

Root = tuple[int, int]
Perm = tuple[int, ...]


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


def act_root(perm: Perm, r: Root) -> Root:
    return (perm[r[0] - 1], perm[r[1] - 1])


@lru_cache(maxsize=200_000)
def chamber_roots(perm: Perm) -> frozenset[Root]:
    m = len(perm)
    return frozenset((perm[a], perm[b]) for a in range(m) for b in range(a + 1, m))


@lru_cache(maxsize=200_000)
def chamber_boundary(perm: Perm) -> frozenset[Root]:
    return frozenset((perm[a], perm[a + 1]) for a in range(len(perm) - 1))


@dataclasses.dataclass(frozen=True)
class ChamberSet:
    stage: int
    perms: frozenset[Perm]

    def __len__(self):
        return len(self.perms)


def initial_stage(n: int) -> ChamberSet:
    g0 = gamma0(n)
    return ChamberSet(0, frozenset(perm_pow(g0, i) for i in range(n + 1)))


def _pair_key(r1: Root, r2: Root) -> tuple[Root, Root]:
    return (r1, r2) if r1 <= r2 else (r2, r1)


def covered_pairs(cs: ChamberSet) -> frozenset[tuple[Root, Root]]:
    """All unordered root pairs (diagonal included) lying in one chamber."""
    out = set()
    for perm in cs.perms:
        rs = sorted(chamber_roots(perm))
        for a in range(len(rs)):
            for b in range(a, len(rs)):
                out.add((rs[a], rs[b]))
    return frozenset(out)


def pair_covered(r1: Root, r2: Root, cs: ChamberSet) -> bool:
    """True iff some chamber of cs contains both roots.

    Opposite roots never share a chamber (a chamber orders its support), so
    the convention that opposite pairs are uncovered needs no special case.
    """
    for perm in cs.perms:
        rs = chamber_roots(perm)
        if r1 in rs and r2 in rs:
            return True
    return False


def _admissible(perm: Perm, covered: frozenset[tuple[Root, Root]]) -> bool:
    bd = sorted(chamber_boundary(perm))
    for a in range(len(bd)):
        for b in range(a, len(bd)):
            if (bd[a], bd[b]) not in covered:
                return False
    rs = sorted(chamber_roots(perm))
    for r1, r2 in itertools.combinations(rs, 2):
        if (r1[0] == r2[0] or r1[1] == r2[1]) and _pair_key(r1, r2) not in covered:
            return False
    return True


def propagate_stage(prev: ChamberSet) -> ChamberSet:
    """Next stage, recomputed over all (n+1)! permutations.

    A chamber is admitted when every pair from its boundary and every
    shared-index pair among its roots is covered by the previous stage.
    Recomputing from scratch matches the inductive definition literally and
    keeps the result independent of any iteration order.
    """
    some_perm = next(iter(prev.perms))
    n = len(some_perm) - 1
    covered = covered_pairs(prev)
    admitted = frozenset(
        perm for perm in itertools.permutations(range(1, n + 2))
        if _admissible(perm, covered)
    )
    return ChamberSet(prev.stage + 1, admitted)


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


def count_nonopposite_pairs(n: int) -> int:
    """Unordered non-opposite pairs, diagonal included."""
    r = (n + 1) * n
    return r * (r - 1) // 2 - r // 2 + r


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
    roots = all_roots(n)
    targets = set()
    for a in range(len(roots)):
        for b in range(a, len(roots)):
            r1, r2 = roots[a], roots[b]
            if r1 != opposite(r2):
                targets.add(_pair_key(r1, r2))
    cs = initial_stage(n)
    stage_sizes = [len(cs)]
    covered = covered_pairs(cs)
    covered_counts = [len(targets & covered)]
    for _ in range(stages):
        cs = propagate_stage(cs)
        stage_sizes.append(len(cs))
        covered = covered_pairs(cs)
        covered_counts.append(len(targets & covered))
    uncovered = sorted(targets - covered)
    return CoverageReport(
        n=n,
        stage_sizes=stage_sizes,
        pairs_total=len(targets),
        covered_counts=covered_counts,
        uncovered_final=uncovered,
    )
