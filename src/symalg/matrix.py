"""Dense vectors and square matrices over Q(√2).

Values are immutable after construction; all operations return fresh
objects, so instances can be shared freely between threads.  Sizes here are
desk-scale (n ≲ 64), so products are straight loops over `int`.

One private base, `_Parts`, holds an exact array as its canonical integer
parts: entries (P + Q·√2)/D in order (row-major for a matrix), with P a
tuple of ints, Q a tuple of ints or None when every entry is rational, and
D > 0 the smallest common denominator, so that gcd(D, *P, *Q) = 1.  The
form is unique, so `==` and `hash` read the parts.  `from_parts` normalises
any (P, Q, D) to it, and every operation builds its result that way: sums,
scalings and products are taken in `int` on the parts and reduced by one
gcd, never per entry.  `entries` builds the `Scalar` of each entry on each
access and is not kept.  `Vector` and `Matrix` are the two subclasses; each
adds only its size check and its own operations.
"""

from __future__ import annotations

from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

from .elim import rank_of_parts
from .errors import DimensionError
from .scalar import ONE, SQRT2, ZERO, Scalar, as_scalar, integer_parts


class _Parts:
    """Exact entries over Q(√2) as their canonical parts (P + Q·√2)/D."""

    __slots__ = ("n", "P", "Q", "D")

    def __init__(self, n: int, entries: Sequence):
        """The value with `entries` (row-major for a Matrix): Scalars, ints or Fractions.

        A float, or anything else that is not an exact element of Q(√2),
        raises TypeError.
        """
        self._check_size(n, len(entries))
        P, Q, D = integer_parts([as_scalar(x) for x in entries])
        _set(self, n, tuple(P), None if Q is None else tuple(Q), D)

    @classmethod
    def from_parts(cls, n: int, P: Sequence[int], Q: Sequence[int] | None, D: int):
        """The value (P + Q·√2)/D, for ints P, Q (None is 0) and D ≠ 0.

        The parts are normalised to the canonical form: D > 0, Q None when
        it is zero, and the common factor gcd(D, *P, *Q) divided out.
        """
        cls._check_size(n, len(P))
        if Q is not None:
            if len(Q) != len(P):
                raise DimensionError(f"expected {len(P)} √2 parts, got {len(Q)}")
            if not any(Q):
                Q = None
        if D < 0:
            P, D = [-x for x in P], -D
            Q = Q and [-x for x in Q]
        elif D == 0:
            raise ZeroDivisionError(f"{cls.__name__.lower()} denominator is zero")
        if D != 1:
            g = gcd(D, *P) if Q is None else gcd(D, *P, *Q)
            if g != 1:
                P, D = [x // g for x in P], D // g
                Q = Q and [x // g for x in Q]
        m = _new(cls)
        _set(m, n, tuple(P), None if Q is None else tuple(Q), D)
        return m

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def entries(self) -> tuple[Scalar, ...]:
        """The entries as Scalars, in order, built on each access."""
        make = Scalar._make
        D = self.D
        if self.Q is None:
            return tuple(make(p, 0, D) for p in self.P)
        return tuple(make(p, q, D) for p, q in zip(self.P, self.Q))

    def _at(self, k: int) -> Scalar:
        return Scalar._make(self.P[k], 0 if self.Q is None else self.Q[k], self.D)

    def _parts(self) -> tuple:
        return self.P, self.Q, self.D

    def __eq__(self, other) -> bool:
        return (
            type(other) is type(self)
            and self.n == other.n
            and self.D == other.D
            and self.P == other.P
            and self.Q == other.Q
        )

    def __hash__(self):
        return hash((self.n, self.P, self.Q, self.D))

    def __add__(self, other):
        return _sum(self, other, 1)

    def __sub__(self, other):
        return _sum(self, other, -1)

    def __neg__(self):
        # −x keeps D and the common factor, so its parts stay canonical.
        m = _new(type(self))
        Q = self.Q and tuple(-x for x in self.Q)
        _set(m, self.n, tuple(-x for x in self.P), Q, self.D)
        return m

    def scale(self, c):
        c = as_scalar(c)
        # c·x is the outer product of the 1-vector (c) with x's entries.
        P, Q, D = _product(_outer, ([c.p], [c.q] if c.q else None, c.d), self._parts())
        return self.from_parts(self.n, P, Q, D)

    def is_zero(self) -> bool:
        return self.Q is None and not any(self.P)

    def _same_size(self, other) -> None:
        if self.n != other.n:
            raise DimensionError(f"{self._SIZES} differ: {self.n} vs {other.n}")


class Vector(_Parts):
    """Column vector with exact entries, as its canonical parts."""

    __slots__ = ()
    _SIZES = "vector lengths"

    def __init__(self, entries: Iterable):
        entries = tuple(entries)
        super().__init__(len(entries), entries)

    @staticmethod
    def _check_size(n: int, count: int) -> None:
        if count != n:
            raise DimensionError(f"expected {n} entries, got {count}")

    def __len__(self) -> int:
        return self.n

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, i):
        # An index gives a Scalar, a slice a tuple of them, as `entries` does.
        return self.entries[i] if isinstance(i, slice) else self._at(i)

    def dot(self, other: Vector) -> Scalar:
        self._same_size(other)
        P, Q, D = _product(_dot, self._parts(), other._parts())
        return Scalar._make(P[0], 0 if Q is None else Q[0], D)

    def outer(self, other: Vector) -> Matrix:
        """Rank-≤1 square matrix self·otherᵀ (lengths must match)."""
        self._same_size(other)
        return Matrix.from_parts(self.n, *_product(_outer, self._parts(), other._parts()))

    def __repr__(self) -> str:
        return "Vector([" + ", ".join(str(x) for x in self.entries) + "])"


class Matrix(_Parts):
    """Square n×n matrix over Q(√2), as its canonical parts, row-major."""

    __slots__ = ()
    _SIZES = "matrix dimensions"

    @staticmethod
    def _check_size(n: int, count: int) -> None:
        if n < 1:
            raise DimensionError(f"matrix dimension must be positive, got {n}")
        if count != n * n:
            raise DimensionError(f"expected {n * n} entries, got {count}")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> Matrix:
        n = len(rows)
        for r in rows:
            if len(r) != n:
                raise DimensionError("matrix rows must all have length n")
        return cls(n, [x for row in rows for x in row])

    def _index(self, i: int) -> int:
        # −n ≤ i < n, counted from the end when negative, as a Vector's.
        if not -self.n <= i < self.n:
            raise IndexError(f"matrix index {i} out of range for n = {self.n}")
        return i % self.n

    def __getitem__(self, ij: tuple) -> Scalar:
        i, j = ij
        return self._at(self._index(i) * self.n + self._index(j))

    def _vector(self, s: slice) -> Vector:
        P = self.P[s]
        return Vector.from_parts(len(P), P, self.Q and self.Q[s], self.D)

    def row(self, i: int) -> Vector:
        n, i = self.n, self._index(i)
        return self._vector(slice(i * n, (i + 1) * n))

    def col(self, j: int) -> Vector:
        return self._vector(slice(self._index(j), None, self.n))

    def __matmul__(self, other):
        if isinstance(other, Vector):
            return self.apply(other)
        self._same_size(other)
        n = self.n

        def matmul(a, b):
            cols = [b[j::n] for j in range(n)]
            return [sum(map(mul, a[i : i + n], c)) for i in range(0, n * n, n) for c in cols]

        return Matrix.from_parts(n, *_product(matmul, self._parts(), other._parts()))

    def apply(self, v: Vector) -> Vector:
        if v.n != self.n:
            raise DimensionError(f"matrix is {self.n}×{self.n}, vector has length {v.n}")
        n = self.n

        def apply(a, x):
            return [sum(map(mul, a[i : i + n], x)) for i in range(0, n * n, n)]

        return Vector.from_parts(n, *_product(apply, self._parts(), v._parts()))

    def transpose(self) -> Matrix:
        # A permutation of the entries keeps the parts canonical.
        n = self.n
        m = _new(Matrix)
        _set(m, n, _transposed(self.P, n), self.Q and _transposed(self.Q, n), self.D)
        return m

    def total_sum(self) -> Scalar:
        return Scalar._make(sum(self.P), 0 if self.Q is None else sum(self.Q), self.D)

    def __repr__(self) -> str:
        body = "; ".join(
            ", ".join(str(self[i, j]) for j in range(self.n)) for i in range(self.n)
        )
        return f"Matrix({self.n}: [{body}])"


# Slot writers for `from_parts`, as `scalar` has for `Scalar`: they bypass
# `_Parts.__setattr__`, which always raises, and serve both subclasses.
_new = object.__new__
_set_n, _set_P, _set_Q, _set_D = (getattr(_Parts, name).__set__ for name in _Parts.__slots__)


def _set(m: _Parts, n: int, P: tuple, Q: tuple | None, D: int) -> None:
    _set_n(m, n)
    _set_P(m, P)
    _set_Q(m, Q)
    _set_D(m, D)


def _transposed(e: tuple, n: int) -> tuple:
    return tuple(x for j in range(n) for x in e[j::n])


def _sum(a: _Parts, b: _Parts, sign: int):
    # a + sign·b over the least common denominator.
    if type(b) is not type(a):
        raise TypeError(f"cannot combine {type(a).__name__} and {type(b).__name__} by + or −")
    a._same_size(b)
    D = lcm(a.D, b.D)
    fa, fb = D // a.D, sign * (D // b.D)
    P = [fa * x + fb * y for x, y in zip(a.P, b.P)]
    if a.Q is None and b.Q is None:
        Q = None
    else:
        zero = (0,) * len(P)
        Q = [fa * x + fb * y for x, y in zip(a.Q or zero, b.Q or zero)]
    return a.from_parts(a.n, P, Q, D)


def _product(prod, x: tuple, y: tuple) -> tuple:
    """(P, Q, D) of x·y for integer parts x = (P, Q, D) and y, Q None for 0.

    `prod` is a product of integer arrays that is bilinear, as the matrix
    and vector products are; (a + b√2)(c + e√2) = ac + 2be + (ae + bc)√2.
    """
    (p1, q1, d1), (p2, q2, d2) = x, y
    P = prod(p1, p2)
    if q1 is None and q2 is None:
        Q = None
    elif q1 is None:
        Q = prod(p1, q2)
    elif q2 is None:
        Q = prod(q1, p2)
    else:
        P = [a + 2 * b for a, b in zip(P, prod(q1, q2))]
        Q = [a + b for a, b in zip(prod(p1, q2), prod(q1, p2))]
    return P, Q, d1 * d2


def _dot(u, v) -> list[int]:
    return [sum(map(mul, u, v))]


def _outer(u, v) -> list[int]:
    return [x * y for x in u for y in v]


# -- special matrices and vectors -------------------------------------------


def zeros(n: int) -> Matrix:
    """The n×n zero matrix: (0,) * n is empty for n < 1, so no n² entries are built."""
    return Matrix.from_parts(n, (0,) * n * n, None, 1)


def identity(n: int) -> Matrix:
    return Matrix.from_parts(n, [int(i == j) for i in range(n) for j in range(n)], None, 1)


def all_ones(n: int) -> Matrix:
    return Matrix.from_parts(n, (1,) * n * n, None, 1)


def exchange(n: int) -> Matrix:
    """Antidiagonal permutation matrix: ones at (i, n+1−i)."""
    return Matrix.from_parts(n, [int(i + j == n - 1) for i in range(n) for j in range(n)], None, 1)


def block_involution(n: int) -> Matrix:
    """The orthogonal symmetric involution used for the block transform.

    For n = 2ν this is (1/√2)·[[I_ν, J_ν], [J_ν, −I_ν]]; for n = 2ν+1 the
    same pattern bordered by a central row/column with a lone 1.  Satisfies
    Xᵀ = X and X² = I for every n ≥ 1 (X_1 = (1)).  `blockform.conjugate_x`
    never builds X; this dense X is the reference its tests check it against.
    """
    _check_positive(n)
    if n == 1:
        return identity(1)
    nu, odd = divmod(n, 2)
    h = SQRT2 / 2  # 1/√2
    rows = [[ZERO] * n for _ in range(n)]
    for i in range(nu):
        rows[i][i] = h
        rows[i][n - 1 - i] = h
        rows[n - 1 - i][i] = h
        rows[n - 1 - i][n - 1 - i] = -h
    if odd:
        rows[nu][nu] = ONE
    return Matrix(n, [x for row in rows for x in row])


def ones(n: int) -> Vector:
    _check_positive(n)
    return Vector.from_parts(n, (1,) * n, None, 1)


def alternating(n: int) -> Vector:
    """The vector with (−1)^(j−1) in position j: (1, −1, 1, …).

    Orthogonal to the all-ones vector exactly when n is even; for odd n the
    last entry is 1 and the dot product is 1.
    """
    _check_positive(n)
    return Vector.from_parts(n, [1 - 2 * (j % 2) for j in range(n)], None, 1)


def _check_positive(n: int) -> None:
    if n < 1:
        raise DimensionError(f"dimension must be positive, got {n}")


# -- rank -------------------------------------------------------------------


def rank(m: Matrix) -> int:
    """Exact rank over Q(√2) of the rows of M's parts, by `elim.rank_of_parts`."""
    n, P, Q = m.n, m.P, m.Q
    return rank_of_parts([(P[i : i + n], Q and Q[i : i + n]) for i in range(0, n * n, n)])
