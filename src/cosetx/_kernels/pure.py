"""The numpy kernel, the package's one backend.

Three operations over the packed rings of ``ring.py``: table-driven
batched matrix products, batched matrix inverses by Gauss-Jordan with a
unit pivot in each column, and the deterministic BFS closure of a
generating set.  Products and inverses also run on the digits of the
ring indices, for rings too large for q*q tables: a product is a
truncated convolution of digit planes, an inverse the inverse mod t
lifted by Newton steps.  Work is vectorized over the batch, so the Python-level
cost is per matrix entry or per generator, not per row.

Nearly every product multiplies a batch by one fixed matrix (a closure
generator, a right-table element, a conjugating element); those read that
matrix's entries and skip its zero and unit terms, and only batch-by-batch
products run the dense m*m*(2m-1) table gathers per row, each one 1-D
``take`` from a flattened table.

The closure works on canonical keys, and on row tables it builds no
candidate row: a generator acts on a key through one map of row keys,
``RowMaps``, which the right tables of ``groups`` share.  It is computed
on the keys' rows at first and read from one table per generator once
enough keys have passed to pay for it.  When the key space has at most
min(64*cap, 2**32) keys, the keys are uint32, the visited ones a bitset,
and each layer is expanded in blocks of BLOCK keys, whose temporaries
stay in L2; otherwise the keys are uint64 or void and the visited ones
one sorted array.  A large closure on the bitset path expands one key
per orbit of the symmetries of its generating set: the monomial
conjugations and ring maps t -> alpha*t that map the generators onto
themselves, found from the generators and the ring tables.
``closure_bfs`` has the details.
"""

from __future__ import annotations

import itertools

import numpy as np

from ..errors import ParameterError, ResourceLimitError
from ..ring import RingTable
from .common import fits_uint64, identity_flat, key_dtype, pack_keys, unpack_keys

# frontier keys per block of the bitset path: a block's temporaries stay in L2
BLOCK = 1 << 15

# the fewest keys of a layer from which ``RowMaps.orbits`` expands by orbits
ORBIT_LAYER = 1 << 14


def matmul_batch(A: np.ndarray, B: np.ndarray, mul: np.ndarray, add: np.ndarray,
                 m: int) -> np.ndarray:
    """Row-flattened matrix products over a tabled ring.

    A and B are uint32 arrays of shape (k, m*m) or (m*m,); one side may be
    a single matrix, broadcast against the other.  The result is a
    C-contiguous uint32 array of shape (k, m*m).

    When one side is a single matrix, its entries are read once: a column
    of the identity copies the other side's column, a zero entry adds no
    term, a unit entry adds the other side's entry as is, and any other
    entry e costs one 1-D gather from ``mul[e]``.  This
    relies on the packed encoding of ``ring.py`` (zero is index 0, one is
    index 1) and on the ring being commutative, which also lets a single
    matrix on the left run as the transposed product B^T A^T.  Ring
    arithmetic is exact, so the result is bit-identical to the dense path.

    Two batches of k matrices multiply densely, m*m*(2m-1) gathers per
    row.  Each reads ``mul[a, b]`` or ``add[a, b]`` as one 1-D take from
    the flattened table at a*q + b, below q**2 <= 2**24, so the indices
    stay uint32 (the verification of relation words runs this path).
    """
    A = np.atleast_2d(np.asarray(A, dtype=np.uint32))
    B = np.atleast_2d(np.asarray(B, dtype=np.uint32))
    k = max(A.shape[0], B.shape[0])
    C = np.empty((k, m, m), dtype=np.uint32)
    if B.shape[0] == 1 and A.shape[0] == k:
        _times_single(A.reshape(k, m, m), B.reshape(m, m), C, mul, add, m)
    elif A.shape[0] == 1 and B.shape[0] == k:
        _times_single(B.reshape(k, m, m).transpose(0, 2, 1), A.reshape(m, m).T,
                      C.transpose(0, 2, 1), mul, add, m)
    else:
        # A's entries times q, formed once for every take at a*q + b
        q, mul_flat, add_flat = mul.shape[1], mul.reshape(-1), add.reshape(-1)
        Aq = A.reshape(k, m, m) * np.uint32(q)
        B3 = B.reshape(k, m, m)
        for i in range(m):
            for l in range(m):
                at = Aq[:, i, 0] + B3[:, 0, l]
                acc = mul_flat.take(at)
                for j in range(1, m):
                    np.add(Aq[:, i, j], B3[:, j, l], out=at)
                    term = mul_flat.take(at)
                    acc *= np.uint32(q)
                    acc += term
                    acc = add_flat.take(acc)
                C[:, i, l] = acc
    return C.reshape(k, m * m)


def _times_single(X3: np.ndarray, b: np.ndarray, out3: np.ndarray,
                  mul: np.ndarray, add: np.ndarray, m: int) -> None:
    """out3[r] = X3[r] @ b for every r, with b one (m, m) matrix."""
    rows = b.tolist()
    # a column of b that is a column of the identity copies X's column, so
    # those columns come from one copy of X
    cols = [l for l in range(m) if any(rows[j][l] != (j == l) for j in range(m))]
    if len(cols) < m:
        out3[...] = X3
    # add[x, y] as one 1-D take at x*q + y, cheaper than a 2-D gather
    q, add_flat = add.shape[1], add.reshape(-1)
    for l in cols:
        for i in range(m):
            terms = []
            for j in range(m):
                e = rows[j][l]
                if e == 1:
                    terms.append(X3[:, i, j])
                elif e:
                    terms.append(mul[e].take(X3[:, i, j]))
            if not terms:
                out3[:, i, l] = 0
                continue
            acc = terms[0]
            for t in terms[1:]:
                at = acc * q
                at += t
                acc = add_flat.take(at)
            out3[:, i, l] = acc


def inverse_batch(A: np.ndarray, mul: np.ndarray, add: np.ndarray,
                  neg: np.ndarray, m: int, p: int) -> np.ndarray:
    """Inverses of a batch of matrices over the tabled ring F_p[t]/t^s.

    A is a uint32 array of shape (k, m*m) or (m*m,), ``neg`` the negation
    table; the result is a C-contiguous uint32 array of shape (k, m*m).
    Gauss-Jordan on [A | I], one column at a time for the whole batch.
    The ring is local, so a matrix is invertible iff its reduction mod t
    is, and then some row at or below the current one has a unit entry
    (nonzero constant term) in the current column: the first such row is
    swapped up, scaled by its entry's inverse and cleared out of every
    other row.  A unit u has inverse u^(N-1), N = q - q/p the order of the
    unit group, computed by squaring on ``mul``.  A matrix with no unit
    pivot in some column raises ``ParameterError``.
    """
    A = np.atleast_2d(np.asarray(A, dtype=np.uint32))
    k, q = A.shape[0], mul.shape[0]
    W = np.zeros((k, m, 2 * m), dtype=np.uint32)
    W[:, :, :m] = A.reshape(k, m, m)
    W[:, range(m), range(m, 2 * m)] = 1
    batch = np.arange(k)
    for c in range(m):
        unit = W[:, c:, c] % p != 0
        if not unit.any(axis=1).all():
            raise ParameterError("matrix is not invertible (det is a non-unit)")
        r = c + unit.argmax(axis=1)
        pivot_row = W[batch, r]
        W[batch, r] = W[:, c]
        W[:, c] = mul[_unit_inverse(pivot_row[:, c], mul, q - q // p)[:, None],
                      pivot_row]
        for i in range(m):
            if i != c:
                W[:, i] = add[W[:, i], neg[mul[W[:, i, c][:, None], W[:, c]]]]
    return np.ascontiguousarray(W[:, :, m:]).reshape(k, m * m)


def matmul_digits(A: np.ndarray, B: np.ndarray, p: int, s: int,
                  m: int) -> np.ndarray:
    """Row-flattened matrix products over F_p[t]/t^s, with no tables.

    The shapes are those of ``matmul_batch``.  Each entry is split into
    its s digits, and digit c of a product is the sum over a <= c of
    digit plane a of A times digit plane c - a of B: one batched int64
    ``matmul`` per shift a, skipped where A's plane a is zero, and one
    reduction mod p.  A term sums at most s*m products of two digits, so
    the int64 sums are exact while s*m*(p-1)**2 < 2**63, which p**s <=
    2**32 ensures for s > 1; a ring whose indices overflow uint32 rows,
    or whose digit sums overflow, raises ``ParameterError``.
    """
    return _packed(_digit_product(_digits(A, p, s, m), _digits(B, p, s, m),
                                  p), p)


def inverse_digits(A: np.ndarray, p: int, s: int, m: int) -> np.ndarray:
    """Inverses of a batch of matrices over F_p[t]/t^s, with no q*q tables.

    The shapes are those of ``inverse_batch``.  X = A^-1 mod t comes from
    ``inverse_batch`` over ``RingTable(p, 1)``, which raises
    ``ParameterError`` when A mod t, and so A, is singular.  Newton steps
    X <- X(2I - AX) then lift it: if AX = I - E with E = 0 mod t^k, the
    new AX is I - E^2, so each step doubles the digits that are exact.
    """
    D = _digits(A, p, s, m)
    A = np.atleast_2d(np.asarray(A, dtype=np.uint32))
    field = RingTable(p, 1)
    X = np.zeros((s, len(A), m, m), dtype=np.int64)
    X[0] = inverse_batch(A % np.uint32(p), field.mul, field.add, field.neg,
                         m, p).reshape(-1, m, m)
    exact = 1
    while exact < s:
        E = -_digit_product(D, X, p)
        E[0] += 2 * np.eye(m, dtype=np.int64)
        E %= p
        X = _digit_product(X, E, p)
        exact *= 2
    return _packed(X, p)


def _digits(A: np.ndarray, p: int, s: int, m: int) -> np.ndarray:
    """The (s, k, m, m) int64 digit planes of packed rows, digit 0 first."""
    if p**s > 1 << 32 or s * m * (p - 1) ** 2 >= 1 << 63:
        raise ParameterError(f"F_{p}[t]/t^{s}: ring indices or digit sums "
                             f"overflow the digit kernels")
    rem = np.atleast_2d(np.asarray(A)).astype(np.int64).reshape(-1, m, m)
    out = np.empty((s, *rem.shape), dtype=np.int64)
    for c in range(s):
        np.divmod(rem, p, out=(rem, out[c]))
    return out


def _digit_product(X: np.ndarray, Y: np.ndarray, p: int) -> np.ndarray:
    """Digit planes of X @ Y mod t^s, one side possibly a single matrix."""
    s = len(X)
    Z = np.zeros((s, max(X.shape[1], Y.shape[1]), *X.shape[2:]),
                 dtype=np.int64)
    for a in range(s):
        if X[a].any():
            Z[a:] += np.matmul(X[a], Y[:s - a])
    Z %= p
    return Z


def _packed(D: np.ndarray, p: int) -> np.ndarray:
    """Packed uint32 rows (k, m*m) of digit planes (s, k, m, m)."""
    acc = D[-1].copy()
    for c in range(len(D) - 2, -1, -1):
        acc *= p
        acc += D[c]
    return acc.astype(np.uint32).reshape(len(acc), -1)


def _unit_inverse(u: np.ndarray, mul: np.ndarray, order: int) -> np.ndarray:
    """u^(order-1) for units u, ``order`` the order of the unit group."""
    acc = np.ones_like(u)
    e = order - 1
    while e:
        if e & 1:
            acc = mul[acc, u]
        e >>= 1
        if e:
            u = mul[u, u]
    return acc


class _BitsetKeys:
    """Visited uint32 keys as one bit per key of the key space [0, size).

    Key k is bit k & 7 of byte k >> 3.
    """

    dtype = np.dtype(np.uint32)

    def __init__(self, size: int):
        self.bits = np.zeros(-(-size // 8), dtype=np.uint8)

    def has(self, keys: np.ndarray) -> np.ndarray:
        hit = self.bits.take(keys >> 3)
        hit >>= keys.astype(np.uint8) & 7
        hit &= 1
        return hit.view(bool)

    def add(self, keys: np.ndarray) -> None:
        """Marks keys in rounds of one buffered ``|=``: where keys share
        a byte the last write wins, so each round lands at least one bit of
        every byte it writes, and at most 8 rounds land them all."""
        # intp once, for the two gathers and the scatter of each round
        idx = np.right_shift(keys, 3, dtype=np.intp)
        bit = np.left_shift(1, keys & 7, dtype=np.uint8)
        while True:
            self.bits[idx] |= bit
            landed = self.bits[idx] & bit
            if landed.all():
                return
            miss = landed == 0
            idx, bit = idx[miss], bit[miss]


class _SortedKeys:
    """Visited keys as one sorted array, of either key form."""

    def __init__(self, dtype):
        self.keys = np.empty(0, dtype=dtype)
        self.dtype = self.keys.dtype

    def has(self, keys: np.ndarray) -> np.ndarray:
        pos = np.searchsorted(self.keys, keys)
        np.minimum(pos, len(self.keys) - 1, out=pos)
        return self.keys[pos] == keys

    def add(self, keys: np.ndarray) -> None:
        # two sorted runs after the concatenation: the stable sort merges
        # them in one linear pass
        self.keys = np.concatenate([self.keys, np.sort(keys)])
        self.keys.sort(kind="stable")


def _visited_set(q: int, mm: int, cap: int):
    """The empty membership structure for a closure of at most ``cap``
    elements: a bitset on uint32 keys when the key space has at most
    min(64*cap, 2**32) keys, so that the bitset is no larger than ``cap``
    uint64 keys, and the sorted visited keys otherwise."""
    if q**mm <= min(64 * cap, 1 << 32):
        return _BitsetKeys(q**mm)
    return _SortedKeys(key_dtype(q, mm))


def _row_keys(keys: np.ndarray, m: int, Q: int) -> list[np.ndarray]:
    """The row keys rho_a = (key // Q**a) % Q of ``keys``, a = 0..m-1, as
    intp: they are below Q <= 2**32, so uint64 ones are a view, not a
    copy, and every later ``take`` gets them without a cast."""
    rho, rest = [], keys
    for _ in range(m - 1):
        rho.append(rest % Q)
        rest = rest // Q
    rho.append(rest)
    return [r.view(np.intp) if r.itemsize == 8 else r.astype(np.intp) for r in rho]


def _characteristic(add: np.ndarray) -> int:
    """The additive order of the ring's 1 (index 1)."""
    p, x = 1, 1
    while x:
        x, p = int(add[x, 1]), p + 1
    return p


def _ring_scalings(add: np.ndarray, q: int) -> list[np.ndarray]:
    """The ring automorphisms t -> alpha*t of F_p[t]/t^s, alpha in F_p^*,
    as distinct uint32 maps of ring indices, the identity first: in the
    packed encoding of ``ring.py``, p is the additive order of 1 and
    index sum c_k p**k maps to sum (alpha**k c_k mod p) p**k."""
    p = _characteristic(add)
    s = round(np.log(q) / np.log(p))
    digits = unpack_keys(np.arange(q, dtype=np.uint64), p, s)
    maps = {}
    for alpha in range(1, p):
        scale = np.array([pow(alpha, k, p) for k in range(s)], dtype=np.uint32)
        sigma = pack_keys(digits * scale % p, p).astype(np.uint32)
        maps.setdefault(sigma.tobytes(), sigma)
    return list(maps.values())


def _monomial_candidates(mul: np.ndarray, add: np.ndarray, m: int, q: int):
    """The candidate symmetries X -> M sigma(X) M^-1 of m x m matrices,
    M = P_pi diag(1, l_2, .., l_m) with the l_i in F_p^* and sigma a ring
    scaling, as entry maps (pos, const, sigma): entry e = i*m + j of X
    goes to entry pos[e] = pi(i)*m + pi(j), as mul[const[e], sigma[x]]
    with const[e] = l_i / l_j.  Distinct candidates are distinct maps:
    only scalar matrices centralize the matrices over F_p."""
    p = _characteristic(add)
    inverse = {c: next(d for d in range(1, p) if mul[c, d] == 1) for c in range(1, p)}
    i, j = np.divmod(np.arange(m * m), m)
    for sigma in _ring_scalings(add, q):
        for perm in itertools.permutations(range(m)):
            perm = np.array(perm)
            pos = perm[i] * m + perm[j]
            for rest in itertools.product(range(1, p), repeat=m - 1):
                lam = (1, *rest)
                const = np.array([mul[lam[a], inverse[lam[b]]] for a, b in zip(i, j)],
                                 dtype=np.uint32)
                yield pos, const, sigma


def _stabilizer(candidates, gens: np.ndarray, mul: np.ndarray, q: int) -> list:
    """The candidate entry maps that send every generator to a generator.

    Each is injective, so it maps the finite generating set onto itself;
    the candidates of ``_monomial_candidates`` form a group, and the kept
    ones its subgroup A.  Its elements are automorphisms of the matrix
    ring that fix the generating set, so they preserve the BFS layers of
    the closure.
    """
    want = np.sort(pack_keys(gens, q))
    kept = []
    for pos, const, sigma in candidates:
        image = np.empty_like(gens)
        image[:, pos] = mul[const, sigma[gens]]
        keys = pack_keys(image, q)
        at = np.minimum(np.searchsorted(want, keys), len(want) - 1)
        if (want[at] == keys).all():
            kept.append((pos, const, sigma))
    return kept


class _Orbits:
    """The orbits of a group A of entry maps (``_stabilizer``) on uint32
    keys, read from row tables.

    ``tables[r, rho, a]`` is the part of the key of a(X) that row r of X,
    with row key rho, contributes: the entries of row pi(r) of a(X), at
    their places in the key, below q**(m*m) <= 2**32.  So the keys of all
    |A| images of X are the sum over r of the rows ``tables[r, rho_r]``:
    m ``take``s of |A| contiguous entries per key.  The tables are one
    allocation of |A|*m*Q uint32.
    """

    def __init__(self, maps: list, mul: np.ndarray, m: int, q: int):
        self.m, self.Q = m, q**m
        # keys per expand, whose orbits are a block of about BLOCK keys
        self.chunk = max(1, BLOCK // len(maps))
        pos, const, sigma = (np.stack(part) for part in zip(*maps))
        self.tables = np.empty((m, self.Q, len(maps)), dtype=np.uint32)
        for r in range(m):
            # axes (a, digit m-1, .., digit 0): row key rho = sum x_j q**j
            # spans the digits' axes, so the part of each key is a sum of
            # one term per digit j, broadcast along the others
            out = np.moveaxis(self.tables[r].reshape((q,) * m + (len(maps),)), -1, 0)
            out[...] = 0
            for j in range(m):
                e = r * m + j
                term = mul[const[:, e, None], sigma] * q ** pos[:, e, None].astype(np.uint32)
                out += term.reshape((len(maps),) + (1,) * (m - 1 - j) + (q,) + (1,) * j)

    def expand(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The distinct keys of the A-orbits of ``keys``, ascending, and the
        least key of each orbit, ascending."""
        rho = _row_keys(keys, self.m, self.Q)
        orbits = self.tables[0].take(rho[0], axis=0)
        for table, r in zip(self.tables[1:], rho[1:]):
            orbits += table.take(r, axis=0)
        # one row per orbit, then the keys of those orbits less the repeats
        # that a map fixing a key makes
        least = orbits.min(axis=1)
        order = least.argsort()
        rows = order[_first_of_runs(least[order])]
        keys = orbits[rows].reshape(-1)
        keys.sort()
        return keys[_first_of_runs(keys)], least[rows]


def _first_of_runs(keys: np.ndarray) -> np.ndarray:
    """True at the first key of each run of equal keys, in a non-empty
    array."""
    first = np.empty(len(keys), dtype=bool)
    first[0] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return first


class RowMaps:
    """The row maps of ``closure_bfs`` and of right tables: for each
    generator g, the keys of x @ g over a batch of keys x.

    Each row of x @ g is that row of x times g, so g acts on a key through
    the row map R_g, R_g[rho] the row key of (row rho) @ g for the Q = q**m
    row keys rho.  The maps start as products: the batch's rows are decoded
    and multiplied by g.  Once the batches so far hold ceil(Q/m) keys, and
    if the keys are not void and Q * len(gens) <= cap, ``tables`` become
    one uint32 table of Q entries per generator (at most 4*cap bytes), and
    a key costs m ``take``s and m-1 multiply-adds.  Building the tables is
    one ``matmul_batch`` over ceil(Q/m) matrices per generator, what the
    products cost on that many keys.  So fewer keys never build them, and
    more do at most about twice the matmul work of the cheaper maps in
    hindsight; the tables pay off only for many more than Q/m keys.
    ``orbits`` decides whether the closure expands by orbits, from its
    layer sizes, the symmetries of the generators and the budget left.
    """

    def __init__(self, gens: np.ndarray, mul: np.ndarray, add: np.ndarray,
                 m: int, q: int, cap: int):
        self.gens, self.mul, self.add, self.m, self.q = gens, mul, add, m, q
        self.Q = q**m
        tabled = fits_uint64(q, m * m) and self.Q * len(gens) <= min(cap, 1 << 32)
        # keys still to map by products before the tables, None for never
        self.left = -(-self.Q // m) if tabled else None
        # tables of Q entries the budget has left for the symmetries
        self.room = min(cap, 1 << 32) // self.Q - len(gens) if tabled else 0
        self.tables = None

    def images(self, keys: np.ndarray, rows: np.ndarray | None = None):
        """For each generator g in turn, the keys of x @ g over the x with
        ``keys``, of their dtype: from the rows of those x (``rows``, else
        decoded), or as sum over a of R_g[rho_a] * Q**a, where the row keys
        rho_a = (key // Q**a) % Q are split off once for all generators."""
        if self.left is not None:
            self.left -= len(keys)
            if self.left <= 0:
                self.left, self.tables = None, self._tabulate()
        if self.tables is None:
            rows = unpack_keys(keys, self.q, self.m * self.m) if rows is None else rows
            for g in self.gens:
                yield pack_keys(matmul_batch(rows, g, self.mul, self.add, self.m),
                                self.q).astype(keys.dtype, copy=False)
            return
        rho = _row_keys(keys, self.m, self.Q)
        for table in self.tables:
            out = table.take(rho[-1]).astype(keys.dtype, copy=False)
            for r in rho[-2::-1]:
                out *= self.Q
                out += table.take(r)
            yield out

    def _tabulate(self) -> np.ndarray:
        """The (len(gens), Q) uint32 tables, row t being R_g for g = gens[t]:
        the Q row vectors go through one ``matmul_batch`` per generator,
        packed m to a matrix."""
        m, q, Q = self.m, self.q, self.Q
        k = -(-Q // m)
        rows = unpack_keys(np.arange(k * m, dtype=np.uint64), q, m).reshape(k, m * m)
        tables = np.empty((len(self.gens), Q), dtype=np.uint32)
        for table, g in zip(tables, self.gens):
            prods = matmul_batch(rows, g, self.mul, self.add, m).reshape(k * m, m)
            table[:] = pack_keys(prods[:Q], q)
        return tables

    def orbits(self, layer: int) -> _Orbits | None:
        """The orbit maps that this layer of ``layer`` keys and every later
        one expand by, or None to expand this one whole.

        The symmetries are looked for once, at the first layer of at least
        ORBIT_LAYER keys, and used only if there are at least 4 of them and
        their |A|*m tables of Q entries fit the budget with the generators'
        (Q * (len(gens) + |A|*m) <= cap).
        Measured on a 2-core host, closure_bfs in ms, medians, plain ->
        orbits:
        - ORBIT_LAYER keeps plain every closure whose layers stay below
          2**14 keys, sl_group(2, 2, 2) (43008 elements, largest layer
          14520) among them.  Orbits from a first layer of 4627 keys made
          sl_group(1, 5, 2) slower, 2.6 -> 3.0, and from 5316 keys
          sl_group(3, 2, 1), 3.5 -> 4.1: too few keys come after the first
          orbit layer to pay for it.
        - From the first layer of 2**14 keys or more: sl_group(1, 5, 3),
          |A| = 32, 190 -> 53; sl_group(1, 11, 2), |A| = 200, 252 -> 51;
          sl_group(1, 7, 2), |A| = 72, 9.7 -> 7.3; sl_group(1, 3, 4),
          |A| = 8, 26.6 -> 15.7; elementary_subgroup(2, 2, 3, 1) (11.0M
          elements), |A| = 6, 740-800 -> 440-540.
        - |A| = 2 saves at most half the candidates, less than the sorts of
          the orbits cost: sl_group(1, 2, 7) 110 -> 123 and
          sl_group(1, 2, 6) 10.1 -> 11.4.
        """
        if layer < ORBIT_LAYER or self.room < 4 * self.m:
            return None
        room, self.room = self.room, 0
        maps = _stabilizer(_monomial_candidates(self.mul, self.add, self.m, self.q),
                           self.gens, self.mul, self.q)
        if len(maps) < 4 or len(maps) * self.m > room:
            return None
        return _Orbits(maps, self.mul, self.m, self.q)


def closure_bfs(gens: np.ndarray, mul: np.ndarray, add: np.ndarray, m: int,
                q: int, cap: int) -> np.ndarray:
    """Enumerate the subgroup generated by ``gens``.

    Returns flat matrices in the canonical order: BFS layers from the
    identity, ascending canonical key within each layer.  The result does
    not depend on the order or multiplicity of the generators.

    Only keys are tested and sorted.  Each layer is kept as its keys, and
    for each generator g the keys of ``frontier @ g`` come from one
    ``RowMaps``: products of the frontier's rows and g at first, then sum
    over a of R_g[rho_a] * Q**a, over the row keys rho_a = (key // Q**a) %
    Q, Q = q**m, with R_g[rho] the row key of (row rho) @ g read from one
    uint32 table of Q entries per generator (at most 4*cap bytes).  The
    ones not visited yet are kept and marked visited at once.  x -> x g is
    injective, so one generator's products are distinct, and marking at
    once makes the survivors of different generators and frontier blocks
    disjoint: appended to the keys found so far and sorted there, they are
    the next layer in canonical order.  At the end each row key is decoded
    by one gather from a table of the Q row vectors (digit by digit for
    void keys and closures of fewer than Q elements).

    When q**(m*m) <= min(64*cap, 2**32) the visited keys are a bitset
    over the key space, at most 8*cap bytes (``cap`` uint64 keys), all
    keys are uint32, and a membership test is one ``take``.  Each layer
    is then expanded in blocks of ``BLOCK`` keys: per block the row keys
    are split off once, and per generator the images are computed,
    tested, compressed and marked.  Marking repeats a buffered ``|=`` on
    the keys whose bit a later write to the same byte overwrote; each
    round lands a bit of every byte it writes, so at most 8 rounds are
    needed.  Otherwise the keys are uint64 or void, the visited ones a
    sorted array that each generator's survivors of a whole layer are
    merged into.  Working memory beyond the result and the visited keys
    is the keys found so far, in a buffer at most twice their size, the
    row tables once built, and one block's row keys and candidates (a
    whole layer's on the sorted path, with its rows and one generator's
    products before the tables).  Building the tables also holds the Q
    row vectors and one generator's products of them, about 8*m*Q bytes.

    On the bitset path, a large closure expands by orbits from a layer
    boundary on (``RowMaps.orbits`` has the rule and the measured
    crossover).  The candidate symmetries are the automorphisms
    X -> M sigma(X) M^-1, with M = P_pi diag(1, l_2, .., l_m), the l_i in
    F_p^*, and sigma a ring map t -> alpha*t; the ones that map the
    generators onto themselves form a group A that preserves word length.
    So every layer L_d is a union of A-orbits, and for any set R_d of one
    key per orbit of L_d, L_{d+1} = A.((R_d.S) minus L_{<=d}).  The
    visited keys stay a union of whole orbits: the whole orbit of each
    unvisited candidate is marked at once, its keys from m ``take``s of |A|
    entries per key, and its least key joins R_{d+1}.  The layers, and so
    the element order, are those of the plain closure, from about
    1/|A| of the candidates.  The |A|*m symmetry tables of Q uint32 count
    against the row tables' budget, Q * (len(gens) + |A|*m) <= cap, are
    one allocation, and are freed before the decoding; one expansion holds
    about BLOCK orbit keys.

    More than ``cap`` elements raise ``ResourceLimitError`` before the
    result is allocated.  The check runs after each (block, generator)
    pair's survivors; ``partial_count`` is the number of distinct
    elements found at that point, a lower bound on the order of the
    group.
    """
    gens = np.atleast_2d(np.asarray(gens, dtype=np.uint32))
    return _closure(RowMaps(gens, mul, add, m, q, cap), m, q, cap,
                    _visited_set(q, m * m, cap))


def _closure(row_maps: RowMaps, m: int, q: int, cap: int,
             visited: _BitsetKeys | _SortedKeys) -> np.ndarray:
    """The loop of ``closure_bfs``, with the generators' row maps and the
    empty membership structure ``visited`` passed in."""
    # the keys found so far in BFS order, each layer sorted in place, in one
    # buffer grown by doubling.  Arrays per layer and generator left 3.7 MB
    # of freed heap resident after sl_group(1, 5, 3), too fragmented for the
    # next large arrays to reuse
    keys = np.empty(BLOCK, visited.dtype)
    keys[0] = pack_keys(identity_flat(m), q)[0]
    visited.add(keys[:1])
    orbits = reps = None
    done, total = 0, 1
    while total > done:
        start, done = done, total
        # the sorted keys merge each add into the whole array, so they take
        # a layer in one block
        step = BLOCK if isinstance(visited, _BitsetKeys) else done - start
        if orbits is None and isinstance(visited, _BitsetKeys):
            orbits = row_maps.orbits(done - start)
        # the layer's orbit representatives once there are any, else the layer
        first, end = (start, done) if reps is None else (0, len(reps))
        next_reps = []
        for lo in range(first, end, step):
            frontier = keys if reps is None else reps
            for images in row_maps.images(frontier[lo:min(lo + step, end)]):
                for new in _orbit_parts(images[~visited.has(images)], visited,
                                        orbits, next_reps):
                    visited.add(new)
                    if total + len(new) > len(keys):
                        grown = np.empty(max(total + len(new), 2 * len(keys)),
                                         keys.dtype)
                        grown[:total] = keys[:total]
                        keys = grown
                    keys[total:total + len(new)] = new
                    total += len(new)
                    if total > cap:
                        raise ResourceLimitError(f"closure exceeded cap {cap}",
                                                 partial_count=total)
        if orbits is not None:
            reps = np.concatenate(next_reps or [keys[:0]])
        keys[done:total].sort()
    # the visited keys (up to 8*cap bytes) and the symmetry tables are not
    # needed to decode
    del visited, orbits, reps
    out = np.empty((total, m * m), dtype=np.uint32)
    _decode(keys[:total], out, q, m)
    return out


def _orbit_parts(new: np.ndarray, visited: _BitsetKeys, orbits: _Orbits | None,
                 reps: list):
    """The unvisited keys ``new`` to mark, as they are without orbits, else
    the distinct keys of their orbits, a chunk of ``orbits.chunk`` keys at
    a time, with each chunk's least key per orbit appended to ``reps``.  A
    chunk drops the keys whose orbits the caller marked for an earlier one,
    so that no orbit is listed twice."""
    if orbits is None:
        yield new
        return
    for lo in range(0, len(new), orbits.chunk):
        part = new[lo:lo + orbits.chunk]
        if lo:
            part = part[~visited.has(part)]
        if len(part):
            keys, least = orbits.expand(part)
            reps.append(least)
            yield keys


def _decode(keys: np.ndarray, out: np.ndarray, q: int, m: int) -> None:
    """Writes the rows of ``keys`` into ``out``, BLOCK keys at a time.

    Row a of key k is entry (k // Q**a) % Q of the table of the Q = q**m
    row vectors, each viewed as one item of m uint32 digits, so that a
    row is one 1-D gather.  Void keys, and closures of fewer than Q
    elements, unpack each key digit by digit instead.
    """
    Q = q**m
    tabled = keys.dtype.kind != "V" and Q <= len(out)
    if tabled:
        vector = np.dtype(f"V{4 * m}")
        digits = unpack_keys(np.arange(Q, dtype=np.uint64), q, m).view(vector)[:, 0]
    for lo in range(0, len(keys), BLOCK):
        rest = keys[lo:lo + BLOCK]
        block = out[lo:lo + BLOCK]
        if not tabled:
            block[:] = unpack_keys(rest, q, m * m)
            continue
        block = block.view(vector)
        for a in range(m - 1):
            block[:, a] = digits.take(rest % Q)
            rest = rest // Q
        block[:, m - 1] = digits.take(rest)
