"""Dense vectors and square matrices over Q(√2).

Values are immutable after construction; all operations return fresh
objects, so instances can be shared freely between threads.  Sizes here are
desk-scale (n ≲ 64), so products are straight loops over `int`.

A `Matrix` holds one form, its canonical integer parts: M = (P + Q·√2)/D
row-major, with P a tuple of ints, Q a tuple of ints or None when every
entry is rational, and D > 0 the smallest common denominator, so that
gcd(D, *P, *Q) = 1.  The form is unique, so `==` and `hash` read the parts.
`Matrix.from_parts` normalises any (P, Q, D) to it, and every operation
builds its result that way: products and sums are taken in `int` on the
parts and reduced by one gcd, never per entry.  `Matrix.entries` builds the
`Scalar` of each entry on each access and is not kept.  A `Vector` holds
its `Scalar`s.
"""

from __future__ import annotations

from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

from .elim import rank_of_parts
from .errors import DimensionError
from .scalar import ONE, SQRT2, ZERO, Scalar, as_scalar, integer_parts


class Vector:
    """Column vector with exact entries."""

    __slots__ = ("n", "entries")

    def __init__(self, entries: Iterable):
        e = tuple(as_scalar(x) for x in entries)
        object.__setattr__(self, "n", len(e))
        object.__setattr__(self, "entries", e)

    def __setattr__(self, name, value):
        raise AttributeError("Vector is immutable")

    def __len__(self) -> int:
        return self.n

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, i: int) -> Scalar:
        return self.entries[i]

    def __eq__(self, other) -> bool:
        return isinstance(other, Vector) and self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __add__(self, other: Vector) -> Vector:
        _same_length(self, other)
        return Vector(x + y for x, y in zip(self.entries, other.entries))

    def __sub__(self, other: Vector) -> Vector:
        _same_length(self, other)
        return Vector(x - y for x, y in zip(self.entries, other.entries))

    def __neg__(self) -> Vector:
        return Vector(-x for x in self.entries)

    def scale(self, c) -> Vector:
        c = as_scalar(c)
        return Vector(c * x for x in self.entries)

    def dot(self, other: Vector) -> Scalar:
        _same_length(self, other)
        P, Q, D = _product(_dot, integer_parts(self.entries), integer_parts(other.entries))
        return Scalar._make(P[0], 0 if Q is None else Q[0], D)

    def outer(self, other: Vector) -> Matrix:
        """Rank-≤1 square matrix self·otherᵀ (lengths must match)."""
        _same_length(self, other)
        P, Q, D = _product(_outer, integer_parts(self.entries), integer_parts(other.entries))
        return Matrix.from_parts(self.n, P, Q, D)

    def is_zero(self) -> bool:
        return all(x.is_zero() for x in self.entries)

    def __repr__(self) -> str:
        return "Vector([" + ", ".join(str(x) for x in self.entries) + "])"


def _same_length(u: Vector, v: Vector) -> None:
    if u.n != v.n:
        raise DimensionError(f"vector lengths differ: {u.n} vs {v.n}")


class Matrix:
    """Square n×n matrix over Q(√2), as its canonical parts (P + Q·√2)/D."""

    __slots__ = ("n", "P", "Q", "D")

    def __init__(self, n: int, entries: Sequence):
        """The matrix with row-major `entries`: Scalars, ints or Fractions.

        A float, or anything else that is not an exact element of Q(√2),
        raises TypeError.
        """
        _check_size(n, len(entries))
        P, Q, D = integer_parts([as_scalar(x) for x in entries])
        _set(self, n, tuple(P), None if Q is None else tuple(Q), D)

    @classmethod
    def from_parts(cls, n: int, P: Sequence[int], Q: Sequence[int] | None, D: int) -> Matrix:
        """The matrix (P + Q·√2)/D, row-major, for ints P, Q (None is 0) and D ≠ 0.

        The parts are normalised to the canonical form: D > 0, Q None when
        it is zero, and the common factor gcd(D, *P, *Q) divided out.
        """
        _check_size(n, len(P))
        if Q is not None:
            if len(Q) != len(P):
                raise DimensionError(f"expected {len(P)} √2 parts, got {len(Q)}")
            if not any(Q):
                Q = None
        if D < 0:
            P, D = [-x for x in P], -D
            Q = Q and [-x for x in Q]
        elif D == 0:
            raise ZeroDivisionError("matrix denominator is zero")
        if D != 1:
            g = gcd(D, *P) if Q is None else gcd(D, *P, *Q)
            if g != 1:
                P, D = [x // g for x in P], D // g
                Q = Q and [x // g for x in Q]
        m = _new(cls)
        _set(m, n, tuple(P), None if Q is None else tuple(Q), D)
        return m

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> Matrix:
        n = len(rows)
        for r in rows:
            if len(r) != n:
                raise DimensionError("matrix rows must all have length n")
        return cls(n, [x for row in rows for x in row])

    @property
    def entries(self) -> tuple[Scalar, ...]:
        """The row-major entries as Scalars, built on each access."""
        return tuple(self._scalars(slice(None)))

    def _scalars(self, s: slice) -> list[Scalar]:
        # The Scalars of the entries in the row-major slice s.
        make = Scalar._make
        D = self.D
        if self.Q is None:
            return [make(p, 0, D) for p in self.P[s]]
        return [make(p, q, D) for p, q in zip(self.P[s], self.Q[s])]

    def __getitem__(self, ij: tuple) -> Scalar:
        i, j = ij
        k = i * self.n + j
        return Scalar._make(self.P[k], 0 if self.Q is None else self.Q[k], self.D)

    def row(self, i: int) -> Vector:
        n = self.n
        return Vector(self._scalars(slice(i * n, (i + 1) * n)))

    def col(self, j: int) -> Vector:
        return Vector(self._scalars(slice(j, None, self.n)))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.n == other.n
            and self.D == other.D
            and self.P == other.P
            and self.Q == other.Q
        )

    def __hash__(self):
        return hash((self.n, self.P, self.Q, self.D))

    def __add__(self, other: Matrix) -> Matrix:
        return _sum(self, other, 1)

    def __sub__(self, other: Matrix) -> Matrix:
        return _sum(self, other, -1)

    def __neg__(self) -> Matrix:
        # −M keeps D and the common factor, so its parts stay canonical.
        m = _new(Matrix)
        Q = self.Q and tuple(-x for x in self.Q)
        _set(m, self.n, tuple(-x for x in self.P), Q, self.D)
        return m

    def scale(self, c) -> Matrix:
        c = as_scalar(c)
        # c·M is the outer product of the 1-vector (c) with M's entries.
        P, Q, D = _product(_outer, ([c.p], [c.q] if c.q else None, c.d), _parts(self))
        return Matrix.from_parts(self.n, P, Q, D)

    def __matmul__(self, other):
        if isinstance(other, Vector):
            return self.apply(other)
        _same_dim(self, other)
        n = self.n

        def matmul(a, b):
            cols = [b[j::n] for j in range(n)]
            return [sum(map(mul, a[i : i + n], c)) for i in range(0, n * n, n) for c in cols]

        P, Q, D = _product(matmul, _parts(self), _parts(other))
        return Matrix.from_parts(n, P, Q, D)

    def apply(self, v: Vector) -> Vector:
        if v.n != self.n:
            raise DimensionError(f"matrix is {self.n}×{self.n}, vector has length {v.n}")
        n = self.n

        def apply(a, x):
            return [sum(map(mul, a[i : i + n], x)) for i in range(0, n * n, n)]

        P, Q, D = _product(apply, _parts(self), integer_parts(v.entries))
        make = Scalar._make
        return Vector([make(p, q, D) for p, q in zip(P, Q or [0] * n)])

    def transpose(self) -> Matrix:
        # A permutation of the entries keeps the parts canonical.
        n = self.n
        m = _new(Matrix)
        _set(m, n, _transposed(self.P, n), self.Q and _transposed(self.Q, n), self.D)
        return m

    def is_zero(self) -> bool:
        return self.Q is None and not any(self.P)

    def total_sum(self) -> Scalar:
        return Scalar._make(sum(self.P), 0 if self.Q is None else sum(self.Q), self.D)

    def __repr__(self) -> str:
        body = "; ".join(
            ", ".join(str(self[i, j]) for j in range(self.n)) for i in range(self.n)
        )
        return f"Matrix({self.n}: [{body}])"


# Slot writers for `Matrix.from_parts`, as `scalar` has for `Scalar`: they
# bypass `Matrix.__setattr__`, which always raises.
_new = object.__new__
_SLOTS = tuple(getattr(Matrix, name).__set__ for name in Matrix.__slots__)


def _set(m: Matrix, n: int, P: tuple, Q: tuple | None, D: int) -> None:
    for setter, value in zip(_SLOTS, (n, P, Q, D)):
        setter(m, value)


def _check_size(n: int, count: int) -> None:
    if n < 1:
        raise DimensionError(f"matrix dimension must be positive, got {n}")
    if count != n * n:
        raise DimensionError(f"expected {n * n} entries, got {count}")


def _parts(m: Matrix) -> tuple:
    return m.P, m.Q, m.D


def _transposed(e: tuple, n: int) -> tuple:
    return tuple(x for j in range(n) for x in e[j::n])


def _sum(a: Matrix, b: Matrix, sign: int) -> Matrix:
    # a + sign·b over the least common denominator.
    _same_dim(a, b)
    D = lcm(a.D, b.D)
    fa, fb = D // a.D, sign * (D // b.D)
    P = [fa * x + fb * y for x, y in zip(a.P, b.P)]
    if a.Q is None and b.Q is None:
        Q = None
    else:
        zero = (0,) * len(P)
        Q = [fa * x + fb * y for x, y in zip(a.Q or zero, b.Q or zero)]
    return Matrix.from_parts(a.n, P, Q, D)


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


def _same_dim(a: Matrix, b: Matrix) -> None:
    if a.n != b.n:
        raise DimensionError(f"matrix dimensions differ: {a.n} vs {b.n}")


# -- special matrices and vectors -------------------------------------------


def zeros(n: int) -> Matrix:
    _check_positive(n)
    return Matrix.from_parts(n, (0,) * (n * n), None, 1)


def identity(n: int) -> Matrix:
    _check_positive(n)
    return Matrix.from_parts(n, [int(i == j) for i in range(n) for j in range(n)], None, 1)


def all_ones(n: int) -> Matrix:
    _check_positive(n)
    return Matrix.from_parts(n, (1,) * (n * n), None, 1)


def exchange(n: int) -> Matrix:
    """Antidiagonal permutation matrix: ones at (i, n+1−i)."""
    _check_positive(n)
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


_MATRIX_KINDS = {
    "E": all_ones,
    "O": zeros,
    "J": exchange,
    "I": identity,
    "X": block_involution,
}


def special_matrix(kind: str, n: int) -> Matrix:
    """Named matrix by tag: E (all ones), O (zero), J (antidiagonal), I, X."""
    try:
        builder = _MATRIX_KINDS[kind.upper()]
    except KeyError:
        raise ValueError(f"unknown special matrix kind {kind!r}") from None
    return builder(n)


def ones(n: int) -> Vector:
    _check_positive(n)
    return Vector([ONE] * n)


def zero_vector(n: int) -> Vector:
    _check_positive(n)
    return Vector([ZERO] * n)


def alternating(n: int) -> Vector:
    """The vector with (−1)^(j−1) in position j: (1, −1, 1, …).

    Orthogonal to the all-ones vector exactly when n is even; for odd n the
    last entry is 1 and the dot product is 1.
    """
    _check_positive(n)
    return Vector([ONE if j % 2 == 0 else -ONE for j in range(n)])


_VECTOR_KINDS = {"ones": ones, "zeros": zero_vector, "sigma": alternating}


def special_vector(kind: str, n: int) -> Vector:
    try:
        builder = _VECTOR_KINDS[kind.lower()]
    except KeyError:
        raise ValueError(f"unknown special vector kind {kind!r}") from None
    return builder(n)


def _check_positive(n: int) -> None:
    if n < 1:
        raise DimensionError(f"dimension must be positive, got {n}")


# -- rank / nullity ----------------------------------------------------------


def rank(m: Matrix) -> int:
    """Exact rank over Q(√2) of the rows of M's parts, by `elim.rank_of_parts`."""
    n, P, Q = m.n, m.P, m.Q
    return rank_of_parts([(P[i : i + n], Q and Q[i : i + n]) for i in range(0, n * n, n)])


def nullspace_dim(m: Matrix) -> int:
    return m.n - rank(m)
