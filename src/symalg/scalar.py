"""Exact arithmetic in the quadratic field Q(√2).

Every value is a + b·√2 with rational a, b, stored as an integer triple
(p, q, d) meaning (p + q·√2)/d with d > 0 and gcd(p, q, d) = 1.  The triple
form keeps the hot arithmetic paths on machine/long integers; the rational
components are exposed as `Fraction`s.  Q(√2) is a field, so every nonzero
value has an exact inverse and equality tests are exact — no tolerances
anywhere.

A `Scalar` is built from its canonical triple by `Scalar._make`, which
normalises (p, q, d) and writes the three slots through their slot
descriptors' bound setters (`_set_p`, `_set_q`, `_set_d`).  That bypasses
`Scalar.__setattr__`, which always raises, so a `Scalar` stays immutable
once built.  Arrays do not hold Scalars: a `Vector` or `Matrix` stores its
integer parts (P + Q·√2)/D, and their products, sums, the K·M·K and X·M·X
kernels in `blockform`, the splits, oracle member draws and `io`'s reader
and printers all work on those ints.  `entries`, `Vector[i]` and
`Matrix[i, j]` build Scalars on access; `Vector.dot` and
`Matrix.total_sum` sum in ints and build one `Scalar`.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


class Scalar:
    """An element a + b·√2 of Q(√2), immutable and hashable."""

    __slots__ = ("p", "q", "d")

    def __init__(self, a=0, b=0):
        if isinstance(a, Scalar) or isinstance(b, Scalar):
            raise TypeError("Scalar components must be rational; use as_scalar()")
        if isinstance(a, float) or isinstance(b, float):
            raise TypeError("Scalar components must be exact rationals, not floats")
        a = Fraction(a)
        b = Fraction(b)
        d = a.denominator * b.denominator // gcd(a.denominator, b.denominator)
        p = a.numerator * (d // a.denominator)
        q = b.numerator * (d // b.denominator)
        g = gcd(p, q, d)
        _set_p(self, p // g)
        _set_q(self, q // g)
        _set_d(self, d // g)

    @classmethod
    def _make(cls, p: int, q: int, d: int) -> Scalar:
        # Internal fast path from an integer triple; d = 1 is already canonical.
        if d != 1:
            if d < 0:
                p, q, d = -p, -q, -d
            g = gcd(p, q, d)
            if g != 1:
                p, q, d = p // g, q // g, d // g
        s = _new(cls)
        _set_p(s, p)
        _set_q(s, q)
        _set_d(s, d)
        return s

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    @property
    def a(self) -> Fraction:
        """Rational coefficient of 1, in lowest terms."""
        return Fraction(self.p, self.d)

    @property
    def b(self) -> Fraction:
        """Rational coefficient of √2, in lowest terms."""
        return Fraction(self.q, self.d)

    def is_zero(self) -> bool:
        return self.p == 0 and self.q == 0

    def is_rational(self) -> bool:
        return self.q == 0

    def __bool__(self) -> bool:
        return self.p != 0 or self.q != 0

    def __eq__(self, other) -> bool:
        if isinstance(other, Scalar):
            return self.p == other.p and self.q == other.q and self.d == other.d
        if isinstance(other, (int, Fraction)):
            return self.q == 0 and Fraction(self.p, self.d) == other
        return NotImplemented

    def __hash__(self):
        if self.q == 0:
            return hash(Fraction(self.p, self.d))
        return hash((self.p, self.q, self.d))

    def __neg__(self) -> Scalar:
        return Scalar._make(-self.p, -self.q, self.d)

    def __pos__(self) -> Scalar:
        return self

    def __add__(self, other) -> Scalar:
        if other.__class__ is not Scalar:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        if self.d == other.d:
            return Scalar._make(self.p + other.p, self.q + other.q, self.d)
        return Scalar._make(
            self.p * other.d + other.p * self.d,
            self.q * other.d + other.q * self.d,
            self.d * other.d,
        )

    __radd__ = __add__

    def __sub__(self, other) -> Scalar:
        if other.__class__ is not Scalar:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        if self.d == other.d:
            return Scalar._make(self.p - other.p, self.q - other.q, self.d)
        return Scalar._make(
            self.p * other.d - other.p * self.d,
            self.q * other.d - other.q * self.d,
            self.d * other.d,
        )

    def __rsub__(self, other) -> Scalar:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other) -> Scalar:
        if other.__class__ is not Scalar:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return Scalar._make(
            self.p * other.p + 2 * self.q * other.q,
            self.p * other.q + self.q * other.p,
            self.d * other.d,
        )

    __rmul__ = __mul__

    def inverse(self) -> Scalar:
        """Exact multiplicative inverse; raises ZeroDivisionError on 0.

        1 / ((p + q√2)/d) = d(p − q√2) / (p² − 2q²); the norm p² − 2q²
        vanishes only for p = q = 0 since √2 is irrational.
        """
        norm = self.p * self.p - 2 * self.q * self.q
        if norm == 0:
            raise ZeroDivisionError("division by zero Scalar")
        return Scalar._make(self.d * self.p, -self.d * self.q, norm)

    def __truediv__(self, other) -> Scalar:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other) -> Scalar:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def conjugate(self) -> Scalar:
        """Galois conjugate a − b·√2."""
        return Scalar._make(self.p, -self.q, self.d)

    def __repr__(self) -> str:
        return f"Scalar({self.a!r}, {self.b!r})"

    def __str__(self) -> str:
        if self.q == 0:
            return str(self.a)
        if self.p == 0:
            return f"{self.b}*sqrt2"
        b = self.b
        sign = "+" if b > 0 else "-"
        return f"{self.a}{sign}{abs(b)}*sqrt2"


# Slot writers for `Scalar._make` and `Scalar.__init__`; see the module docstring.
_new = object.__new__
_set_p = Scalar.p.__set__
_set_q = Scalar.q.__set__
_set_d = Scalar.d.__set__


def _coerce(x):
    if isinstance(x, Scalar):
        return x
    if isinstance(x, int):
        return Scalar._make(x, 0, 1)
    if isinstance(x, Fraction):
        return Scalar._make(x.numerator, 0, x.denominator)
    return NotImplemented


def integer_parts(xs) -> tuple[list[int], list[int] | None, int]:
    """Scalars x_k read as (P, Q, D): x_k = (P[k] + Q[k]·√2)/D over integers.

    D is the lcm of the denominators.  Q is None when every x_k is
    rational.  A condition with rational coefficients holds for the x_k
    exactly when it holds for P and for Q, as √2 is irrational.  This is
    how `Vector(entries)` and `Matrix(n, entries)` read their entries once
    into the parts they store.
    """
    D = lcm(*{x.d for x in xs})
    if D == 1:
        P = [x.p for x in xs]
        Q = [x.q for x in xs]
    else:
        P = [x.p * (D // x.d) for x in xs]
        Q = [x.q * (D // x.d) for x in xs]
    return P, Q if any(Q) else None, D


def as_scalar(x) -> Scalar:
    """Coerce an int, Fraction or Scalar to a Scalar."""
    s = _coerce(x)
    if s is NotImplemented:
        raise TypeError(f"cannot interpret {x!r} as a Q(√2) scalar")
    return s


ZERO = Scalar(0)
ONE = Scalar(1)
SQRT2 = Scalar(0, 1)
