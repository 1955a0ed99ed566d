"""Arithmetic in F_p[t]/<t^s>, the coefficient ring of every matrix group here.

An element is canonically a tuple of exactly ``s`` residues mod ``p`` in
ascending degree order.  The packed integer index

    index = c_0 + c_1*p + ... + c_{s-1}*p^(s-1)

is an internal optimization used by the kernels; the observable contract is
always the coefficient sequence.  Truncation to a smaller ``s`` is index
reduction mod ``p^s_lo``, which is why the low-degree-first encoding is the
canonical one.

Two text forms round-trip exactly: a human form like ``1+2*t+t^3`` and a
compact form ``[c0,c1,...]@p,s`` carrying the full parameter triple.
"""

from __future__ import annotations

import dataclasses
import re
from typing import Iterator

import numpy as np

from .errors import InputError, ParameterError

NEG_INF = float("-inf")

PolyDegree = "int | float"  # deg of the zero polynomial is NEG_INF


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def check_ring_params(p: int, s: int) -> None:
    if not isinstance(p, int) or not is_prime(p):
        raise ParameterError(f"p must be a prime integer, got {p!r}")
    if not isinstance(s, int) or s < 1:
        raise ParameterError(f"s must be a positive integer, got {s!r}")


@dataclasses.dataclass(frozen=True, slots=True)
class TruncPoly:
    """One element of F_p[t]/<t^s>.

    ``coeffs`` has length exactly ``s`` with entries in [0, p).  Use
    :meth:`make` to build from arbitrary integer coefficients.
    """

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

    # -- constructors ------------------------------------------------------

    @classmethod
    def make(cls, p: int, s: int, coeffs) -> "TruncPoly":
        """Canonicalize arbitrary integer coefficients: reduce mod p, pad or
        truncate to length s (truncation is reduction mod t^s)."""
        check_ring_params(p, s)
        cs = [int(c) % p for c in coeffs][:s]
        cs += [0] * (s - len(cs))
        return cls(p, s, tuple(cs))

    @classmethod
    def zero(cls, p: int, s: int) -> "TruncPoly":
        return cls.make(p, s, ())

    @classmethod
    def one(cls, p: int, s: int) -> "TruncPoly":
        return cls.make(p, s, (1,))

    @classmethod
    def t_power(cls, p: int, s: int, k: int, c: int = 1) -> "TruncPoly":
        """c * t^k (zero when k >= s)."""
        if k < 0:
            raise ParameterError(f"exponent must be nonnegative, got {k}")
        return cls.make(p, s, (0,) * k + (c,)) if k < s else cls.zero(p, s)

    @classmethod
    def from_index(cls, p: int, s: int, index: int) -> "TruncPoly":
        check_ring_params(p, s)
        if not (0 <= index < p**s):
            raise ParameterError(f"index {index} out of range for p^s={p**s}")
        cs = []
        for _ in range(s):
            cs.append(index % p)
            index //= p
        return cls(p, s, tuple(cs))

    # -- ring structure ----------------------------------------------------

    def _match(self, other: "TruncPoly") -> None:
        if not isinstance(other, TruncPoly):
            raise ParameterError(f"expected TruncPoly, got {type(other).__name__}")
        if (self.p, self.s) != (other.p, other.s):
            raise ParameterError(
                f"ring mismatch: F_{self.p}[t]/t^{self.s} vs F_{other.p}[t]/t^{other.s}"
            )

    def __add__(self, other: "TruncPoly") -> "TruncPoly":
        self._match(other)
        return TruncPoly(
            self.p, self.s,
            tuple((a + b) % self.p for a, b in zip(self.coeffs, other.coeffs)),
        )

    def __neg__(self) -> "TruncPoly":
        return TruncPoly(self.p, self.s, tuple((-a) % self.p for a in self.coeffs))

    def __sub__(self, other: "TruncPoly") -> "TruncPoly":
        return self + (-other)

    def __mul__(self, other: "TruncPoly") -> "TruncPoly":
        self._match(other)
        p, s = self.p, self.s
        out = [0] * s
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j in range(s - i):
                b = other.coeffs[j]
                if b:
                    out[i + j] = (out[i + j] + a * b) % p
        return TruncPoly(p, s, tuple(out))

    def __pow__(self, k: int) -> "TruncPoly":
        if k < 0:
            return self.inverse() ** (-k)
        acc = TruncPoly.one(self.p, self.s)
        base = self
        while k:
            if k & 1:
                acc = acc * base
            base = base * base
            k >>= 1
        return acc

    def is_unit(self) -> bool:
        # local ring: units are exactly the elements with nonzero constant term
        return self.coeffs[0] != 0

    def inverse(self) -> "TruncPoly":
        """Multiplicative inverse; requires a unit (nonzero constant term)."""
        if not self.is_unit():
            raise ParameterError(f"{self} is not a unit in F_{self.p}[t]/t^{self.s}")
        p, s = self.p, self.s
        c0_inv = pow(self.coeffs[0], -1, p)
        # Newton-free back substitution: solve self * x = 1 degree by degree.
        x = [0] * s
        x[0] = c0_inv
        for k in range(1, s):
            acc = 0
            for i in range(1, k + 1):
                acc = (acc + self.coeffs[i] * x[k - i]) % p
            x[k] = (-acc * c0_inv) % p
        return TruncPoly(p, s, tuple(x))

    # -- degree, encoding, truncation ---------------------------------------

    def deg(self):
        """Degree as an int, or NEG_INF for the zero element."""
        for k in range(self.s - 1, -1, -1):
            if self.coeffs[k]:
                return k
        return NEG_INF

    def index(self) -> int:
        idx = 0
        for c in reversed(self.coeffs):
            idx = idx * self.p + c
        return idx

    def reduce_to(self, s_lo: int) -> "TruncPoly":
        """Image under the truncation F_p[t]/t^s -> F_p[t]/t^s_lo."""
        if not (1 <= s_lo <= self.s):
            raise ParameterError(f"need 1 <= s_lo <= {self.s}, got {s_lo}")
        return TruncPoly(self.p, s_lo, self.coeffs[:s_lo])

    def lift_to(self, s_hi: int) -> "TruncPoly":
        """Zero-padded section of truncation into F_p[t]/t^s_hi."""
        if s_hi < self.s:
            raise ParameterError(f"need s_hi >= {self.s}, got {s_hi}")
        return TruncPoly(self.p, s_hi, self.coeffs + (0,) * (s_hi - self.s))

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


# -- module-level operation aliases (the names used throughout) --------------


def poly_add(a: TruncPoly, b: TruncPoly) -> TruncPoly:
    return a + b


def poly_mul(a: TruncPoly, b: TruncPoly) -> TruncPoly:
    return a * b


def enumerate_polys(p: int, s: int, dmax: int) -> list[TruncPoly]:
    """All elements of degree <= dmax, in ascending packed-index order.

    The order is lexicographic on the reversed coefficient vector
    (c_dmax, ..., c_0), i.e. 0, 1, ..., p-1, t, 1+t, ...  It is the order the
    group enumeration kernels rely on, so it must never change.
    """
    check_ring_params(p, s)
    if not (0 <= dmax < s):
        raise ParameterError(f"need 0 <= dmax < s={s}, got dmax={dmax}")
    out = []
    for idx in range(p ** (dmax + 1)):
        out.append(TruncPoly.from_index(p, s, idx))
    return out


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
    The human form requires p and s to be supplied.
    """
    m = _COMPACT_RE.match(text)
    if m:
        cp, cs = int(m.group("p")), int(m.group("s"))
        if (p is not None and p != cp) or (s is not None and s != cs):
            raise InputError(f"compact form {text!r} disagrees with p={p}, s={s}")
        raw = m.group("coeffs").strip()
        coeffs = [int(c) for c in raw.split(",")] if raw else []
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
            c, k = int(m.group("const")), 0
        else:
            c = int(m.group("coef")) if m.group("coef") else 1
            k = int(m.group("exp")) if m.group("exp") else 1
        if k >= s:
            raise InputError(f"term {piece!r} has degree {k} >= s={s}")
        coeffs[k] = (coeffs[k] + c) % p
    return TruncPoly(p, s, tuple(coeffs))


class RingTable:
    """Dense index tables for one ring, the substrate of the fast kernels.

    add/mul are (q, q) uint32 arrays over packed indices, q = p^s.  Only
    built for small rings; coefficient arithmetic on TruncPoly stays the
    fallback for everything larger.
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
        idx = np.arange(q, dtype=np.int64)
        digits = np.empty((q, s), dtype=np.int64)
        rem = idx.copy()
        for k in range(s):
            digits[:, k] = rem % p
            rem //= p
        pows = p ** np.arange(s, dtype=np.int64)
        self.digits = digits.astype(np.uint16)
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
        self.zero = 0
        self.one = 1 % q  # index of the constant 1; q >= 2 always

    def poly(self, index: int) -> TruncPoly:
        return TruncPoly.from_index(self.p, self.s, int(index))

    def index_of(self, poly: TruncPoly) -> int:
        if (poly.p, poly.s) != (self.p, self.s):
            raise ParameterError("polynomial belongs to a different ring")
        return poly.index()

    def reduce_indices(self, indices, s_lo: int):
        """Packed-index image under truncation to s_lo (index mod p^s_lo)."""
        if not (1 <= s_lo <= self.s):
            raise ParameterError(f"need 1 <= s_lo <= {self.s}, got {s_lo}")
        return np.asarray(indices) % (self.p**s_lo)

    def __repr__(self):
        return f"RingTable(p={self.p}, s={self.s})"
