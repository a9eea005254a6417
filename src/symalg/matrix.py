"""Dense vectors and square matrices over Q(√2).

Values are immutable after construction; all operations return fresh
objects, so instances can be shared freely between threads.  Sizes here are
desk-scale (n ≲ 64), so storage is a flat row-major tuple and products are
straight triple loops with an integer-triple accumulator (`_dots`).
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .elim import rank_of_rows
from .errors import DimensionError
from .scalar import ONE, SQRT2, ZERO, Scalar, as_scalar


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
        return _dots((self.entries,), (other.entries,))[0]

    def outer(self, other: Vector) -> Matrix:
        """Rank-≤1 square matrix self·otherᵀ (lengths must match)."""
        _same_length(self, other)
        return Matrix(self.n, tuple(x * y for x in self.entries for y in other.entries))

    def is_zero(self) -> bool:
        return all(x.is_zero() for x in self.entries)

    def __repr__(self) -> str:
        return "Vector([" + ", ".join(str(x) for x in self.entries) + "])"


def _same_length(u: Vector, v: Vector) -> None:
    if u.n != v.n:
        raise DimensionError(f"vector lengths differ: {u.n} vs {v.n}")


class Matrix:
    """Square n×n matrix over Q(√2), row-major."""

    __slots__ = ("n", "entries")

    def __init__(self, n: int, entries: tuple):
        if n < 1:
            raise DimensionError(f"matrix dimension must be positive, got {n}")
        if len(entries) != n * n:
            raise DimensionError(f"expected {n * n} entries, got {len(entries)}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> Matrix:
        n = len(rows)
        for r in rows:
            if len(r) != n:
                raise DimensionError("matrix rows must all have length n")
        return cls(n, tuple(as_scalar(x) for row in rows for x in row))

    def __getitem__(self, ij: tuple) -> Scalar:
        i, j = ij
        return self.entries[i * self.n + j]

    def row(self, i: int) -> Vector:
        return Vector(self.entries[i * self.n : (i + 1) * self.n])

    def col(self, j: int) -> Vector:
        return Vector(self.entries[j :: self.n])

    def rows(self) -> list[list[Scalar]]:
        n = self.n
        return [list(self.entries[i * n : (i + 1) * n]) for i in range(n)]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.n == other.n
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.n, self.entries))

    def __add__(self, other: Matrix) -> Matrix:
        _same_dim(self, other)
        return Matrix(self.n, tuple(x + y for x, y in zip(self.entries, other.entries)))

    def __sub__(self, other: Matrix) -> Matrix:
        _same_dim(self, other)
        return Matrix(self.n, tuple(x - y for x, y in zip(self.entries, other.entries)))

    def __neg__(self) -> Matrix:
        return Matrix(self.n, tuple(-x for x in self.entries))

    def scale(self, c) -> Matrix:
        c = as_scalar(c)
        return Matrix(self.n, tuple(c * x for x in self.entries))

    def __matmul__(self, other):
        if isinstance(other, Vector):
            return self.apply(other)
        _same_dim(self, other)
        n = self.n
        b = other.entries
        return Matrix(n, tuple(_dots(self.rows(), [b[j::n] for j in range(n)])))

    def apply(self, v: Vector) -> Vector:
        if v.n != self.n:
            raise DimensionError(f"matrix is {self.n}×{self.n}, vector has length {v.n}")
        return Vector(_dots(self.rows(), (v.entries,)))

    def transpose(self) -> Matrix:
        n = self.n
        e = self.entries
        return Matrix(n, tuple(e[j * n + i] for i in range(n) for j in range(n)))

    def is_zero(self) -> bool:
        return all(x.is_zero() for x in self.entries)

    def total_sum(self) -> Scalar:
        return _dots((self.entries,), ((ONE,) * len(self.entries),))[0]

    def __repr__(self) -> str:
        body = "; ".join(
            ", ".join(str(self[i, j]) for j in range(self.n)) for i in range(self.n)
        )
        return f"Matrix({self.n}: [{body}])"


def _dots(rows, cols) -> list[Scalar]:
    """Σ_k r[k]·c[k] for every row r and then every column c, exactly.

    Each sum is accumulated as one integer triple (P + Q√2)/D and
    normalized once, instead of allocating a Scalar per partial sum.
    `Matrix @`, `Matrix.apply`, `Vector.dot` and `Matrix.total_sum` all sum
    through here.
    """
    make = Scalar._make
    out = []
    for r in rows:
        for c in cols:
            P = Q = 0
            D = 1
            for x, y in zip(r, c):
                xp = x.p
                xq = x.q
                if not (xp or xq):
                    continue
                yp = y.p
                yq = y.q
                if not (yp or yq):
                    continue
                dd = x.d * y.d
                if D == dd:
                    P += xp * yp + 2 * xq * yq
                    Q += xp * yq + xq * yp
                else:
                    P = P * dd + (xp * yp + 2 * xq * yq) * D
                    Q = Q * dd + (xp * yq + xq * yp) * D
                    D *= dd
            out.append(make(P, Q, D))
    return out


def _same_dim(a: Matrix, b: Matrix) -> None:
    if a.n != b.n:
        raise DimensionError(f"matrix dimensions differ: {a.n} vs {b.n}")


# -- special matrices and vectors -------------------------------------------


def zeros(n: int) -> Matrix:
    _check_positive(n)
    return Matrix(n, (ZERO,) * (n * n))


def identity(n: int) -> Matrix:
    _check_positive(n)
    return Matrix(n, tuple(ONE if i == j else ZERO for i in range(n) for j in range(n)))


def all_ones(n: int) -> Matrix:
    _check_positive(n)
    return Matrix(n, (ONE,) * (n * n))


def exchange(n: int) -> Matrix:
    """Antidiagonal permutation matrix: ones at (i, n+1−i)."""
    _check_positive(n)
    return Matrix(
        n, tuple(ONE if i + j == n - 1 else ZERO for i in range(n) for j in range(n))
    )


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
    return Matrix(n, tuple(x for row in rows for x in row))


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
    """Exact rank over Q(√2), by `elim.rank_of_rows`."""
    return rank_of_rows(m.rows())


def nullspace_dim(m: Matrix) -> int:
    return m.n - rank(m)
