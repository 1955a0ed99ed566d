"""The coefficient ring F_p[t]/<t^s> of every matrix group here.

An element is canonically a tuple of exactly ``s`` residues mod ``p`` in
ascending degree order, a ``TruncPoly``.  The packed integer index

    index = c_0 + c_1*p + ... + c_{s-1}*p^(s-1)

is what the package computes on: matrices are rows of indices, multiplied
through the dense ``RingTable`` tables or on the digits of the indices
(``_kernels``).  Truncation to a smaller ``s`` is index reduction mod
``p^s_lo``, which is why the low-degree-first encoding is the canonical
one.  ``TruncPoly`` is a value: coefficients, index and text forms.
``poly_add`` and ``poly_mul``, the arithmetic of ``ring op``, work on the
coefficients in Python ints, so they answer every ring, p^s > 2^32 too.

Two text forms round-trip exactly: a human form like ``1+2*t+t^3`` and a
compact form ``[c0,c1,...]@p,s`` carrying the full parameter triple.
"""

from __future__ import annotations

import dataclasses
import re

import numpy as np

from .errors import InputError, ParameterError


# Miller-Rabin with the prime bases up to 41 decides every p below this
# bound exactly: it is the least strong pseudoprime to all of them
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MAX_PRIME = 3317044064679887385961981


def is_prime(p: int) -> bool:
    """Is p prime?  Deterministic Miller-Rabin, exact for p < MAX_PRIME;
    a larger p raises ParameterError."""
    if p >= MAX_PRIME:
        raise ParameterError(f"p must be below {MAX_PRIME}, got {p}")
    if p < 2:
        return False
    for a in _MR_BASES:
        if p % a == 0:
            return p == a
    d, r = p - 1, 0
    while not d & 1:
        d, r = d >> 1, r + 1
    for a in _MR_BASES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(r - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def check_ring_params(p: int, s: int) -> None:
    if not isinstance(p, int) or not is_prime(p):
        raise ParameterError(f"p must be a prime integer, got {p!r}")
    if not isinstance(s, int) or s < 1:
        raise ParameterError(f"s must be a positive integer, got {s!r}")


@dataclasses.dataclass(frozen=True, slots=True)
class TruncPoly:
    """One element of F_p[t]/<t^s>: ``coeffs`` has length exactly ``s``
    with entries in [0, p)."""

    p: int
    s: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        check_ring_params(self.p, self.s)
        if len(self.coeffs) != self.s:
            raise ParameterError(
                f"need exactly s={self.s} coefficients, got {len(self.coeffs)}"
            )
        if any(not (0 <= c < self.p) for c in self.coeffs):
            raise ParameterError(f"coefficients out of range mod {self.p}: {self.coeffs}")

    @classmethod
    def from_index(cls, p: int, s: int, index: int) -> "TruncPoly":
        check_ring_params(p, s)
        if not (0 <= index < p**s):
            raise ParameterError(f"index {index} out of range for p^s={p**s}")
        return cls(p, s, tuple(index // p**k % p for k in range(s)))

    def index(self) -> int:
        return sum(c * self.p**k for k, c in enumerate(self.coeffs))

    # -- text forms ----------------------------------------------------------

    def __str__(self) -> str:
        terms = []
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if k == 0:
                terms.append(str(c))
            elif k == 1:
                terms.append("t" if c == 1 else f"{c}*t")
            else:
                terms.append(f"t^{k}" if c == 1 else f"{c}*t^{k}")
        return "+".join(terms) if terms else "0"

    def compact(self) -> str:
        return "[" + ",".join(str(c) for c in self.coeffs) + f"]@{self.p},{self.s}"

    def __repr__(self) -> str:
        return f"TruncPoly({self.compact()!s})"


def poly_add(a: TruncPoly, b: TruncPoly) -> TruncPoly:
    """a + b, coefficientwise mod p."""
    _same_ring(a, b)
    return TruncPoly(a.p, a.s, tuple((x + y) % a.p
                                     for x, y in zip(a.coeffs, b.coeffs)))


def poly_mul(a: TruncPoly, b: TruncPoly) -> TruncPoly:
    """a * b, the convolution of the coefficients cut at t^s, mod p."""
    _same_ring(a, b)
    out = [0] * a.s
    for i, x in enumerate(a.coeffs):
        if x:
            for j, y in enumerate(b.coeffs[:a.s - i]):
                out[i + j] += x * y
    return TruncPoly(a.p, a.s, tuple(c % a.p for c in out))


def _same_ring(a: TruncPoly, b: TruncPoly) -> None:
    if (a.p, a.s) != (b.p, b.s):
        raise ParameterError(f"ring mismatch: F_{a.p}[t]/t^{a.s} vs "
                             f"F_{b.p}[t]/t^{b.s}")


_TERM_RE = re.compile(
    r"""^\s*(?:
        (?P<const>\d+)                                  # c
      | (?:(?P<coef>\d+)\s*\*\s*)?t(?:\^(?P<exp>\d+))?  # [c*]t[^k]
    )\s*$""",
    re.VERBOSE,
)

_COMPACT_RE = re.compile(r"^\s*\[(?P<coeffs>[^\]]*)\]\s*@\s*(?P<p>\d+)\s*,\s*(?P<s>\d+)\s*$")


def parse_poly(text: str, p: int | None = None, s: int | None = None) -> TruncPoly:
    """Parse either text form.

    The compact form carries (p, s); explicit arguments must agree with it.
    The human form requires p and s to be supplied.  Malformed text, a
    number past Python's int digit limit included, raises InputError.
    """
    m = _COMPACT_RE.match(text)
    if m:
        cp, cs = _int(m.group("p")), _int(m.group("s"))
        if (p is not None and p != cp) or (s is not None and s != cs):
            raise InputError(f"compact form {text!r} disagrees with p={p}, s={s}")
        raw = m.group("coeffs").strip()
        coeffs = [_int(c) for c in raw.split(",")] if raw else []
        if len(coeffs) != cs:
            raise InputError(f"compact form needs exactly s={cs} coefficients: {text!r}")
        check_ring_params(cp, cs)
        if any(not (0 <= c < cp) for c in coeffs):
            raise InputError(f"coefficient out of range mod {cp}: {text!r}")
        return TruncPoly(cp, cs, tuple(coeffs))

    if p is None or s is None:
        raise InputError("human-form polynomial needs explicit p and s")
    check_ring_params(p, s)
    coeffs = [0] * s
    for piece in text.split("+"):
        m = _TERM_RE.match(piece)
        if not m:
            raise InputError(f"cannot parse polynomial term {piece!r}")
        if m.group("const") is not None:
            c, k = _int(m.group("const")), 0
        else:
            c = _int(m.group("coef")) if m.group("coef") else 1
            k = _int(m.group("exp")) if m.group("exp") else 1
        if k >= s:
            raise InputError(f"term {piece!r} has degree {k} >= s={s}")
        coeffs[k] = (coeffs[k] + c) % p
    return TruncPoly(p, s, tuple(coeffs))


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise InputError(f"not an integer: {text[:40]!r}") from None


class RingTable:
    """Dense index tables for one ring, the substrate of the fast kernels.

    add/mul are (q, q) uint32 arrays over packed indices, q = p^s, and neg
    the negation table.  They are built only up to q = MAX_Q; matrices
    over larger rings multiply and invert on the digits of their indices
    (``_kernels.matmul_digits``, ``_kernels.inverse_digits``).
    """

    MAX_Q = 4096

    def __init__(self, p: int, s: int):
        check_ring_params(p, s)
        q = p**s
        if q > self.MAX_Q:
            raise ParameterError(
                f"ring too large for dense tables: p^s={q} > {self.MAX_Q}"
            )
        self.p, self.s, self.q = p, s, q
        digits = np.empty((q, s), dtype=np.int64)
        rem = np.arange(q, dtype=np.int64)
        for k in range(s):
            digits[:, k] = rem % p
            rem //= p
        pows = p ** np.arange(s, dtype=np.int64)
        self.neg = ((-digits) % p * pows).sum(axis=-1).astype(np.uint32)
        # the (q, q) tables are built one output digit k at a time, so the
        # largest temporaries are two q*q uint32 arrays; digit k of a
        # product sums k + 1 <= s products of two digits, at most
        # s * (p-1)**2 < 2**32 since p**s <= MAX_Q
        d32 = digits.astype(np.uint32)
        self.add = np.zeros((q, q), dtype=np.uint32)
        self.mul = np.zeros((q, q), dtype=np.uint32)
        term = np.empty((q, q), dtype=np.uint32)
        acc = np.empty((q, q), dtype=np.uint32)
        for k in range(s):
            np.add.outer(d32[:, k], d32[:, k], out=term)
            term %= p
            term *= p**k
            self.add += term
            np.multiply.outer(d32[:, 0], d32[:, k], out=acc)
            for i in range(1, k + 1):
                np.multiply.outer(d32[:, i], d32[:, k - i], out=term)
                acc += term
            acc %= p
            acc *= p**k
            self.mul += acc

    def __repr__(self):
        return f"RingTable(p={self.p}, s={self.s})"
