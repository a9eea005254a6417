"""Block representation by conjugation with X_n, and the four grading involutions.

`to_block` maps M to C = X_n·M·X_n
and names the sub-blocks of C; since X_n is an involution the map is its
own inverse, and since conjugation is an algebra homomorphism, products of
block representations are block representations of products.
`conjugate_x` is an integer kernel: it reads M's parts (P + Q·√2)/D, forms
X·M·X with pair sums and differences in int, in O(n²), and never builds X.

The parity-dependent layout of C for n = 2ν+1 splits rows and columns as
(ν, 1, ν):

    [ Y   v   Vᵀ ]
    [ yᵀ  α   zᵀ ]
    [ W   x   Z  ]

and for even n = 2ν as (ν, ν) with blocks Y, Vᵀ, W, Z.  `layout(n)` gives
each named block its rows and columns.

`INVOLUTIONS` is the one table of the four grading involutions K (J, the
reflections I − 2·11ᵀ/n and I − 2·ΣΣᵀ/n, and T at even n; see `decompose`),
and `SPLIT_TAGS` names the (even, odd) spaces of each.  K·M·K of an integer
matrix is read through two kernels, in int, in O(n²), and never by building
K: `permuted` for J and T, and `reflection_odd` for the reflections.
Predicates and splits apply these to each integer part of a matrix over
Q(√2) (`Matrix.P`, `Matrix.Q`).

Every table that depends only on n is an `lru_cache` of this module,
built once per size: the layout, which is shared and so read-only,
`conjugate_x`'s pair slices and the index maps of J and T.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import mul
from types import MappingProxyType
from typing import Callable, Iterator, Mapping, Sequence

from .errors import DimensionError
from .matrix import Matrix, Vector
from .scalar import Scalar


def nu_sign(nu: int) -> int:
    """+1 for even ν, −1 for odd ν.

    This is the single ±/∓ convention used throughout the odd-dimensional
    representation formulas ("the upper sign applies if ν is even"); it is
    centralized here because J_ν·Σ_ν = −Σ_ν exactly when ν is even.
    """
    return 1 if nu % 2 == 0 else -1


def conjugate_x(m: Matrix) -> Matrix:
    """X_n·M·X_n — self-inverse, exact, in O(n²) and without building X.

    M is read as its parts (P + Q·√2)/D, and Y = √2·X, whose
    rows are ±1 pairs and √2 at the centre, is applied to the rows and then
    to the columns in int: the pair (i, n−1−i) maps to (r_i + r_{n−1−i},
    r_i − r_{n−1−i}), and a centre row or column is multiplied by √2, so
    (P, Q) becomes (2Q, P).  Then X·M·X = Y·M·Y/2 = (P′ + Q′·√2)/(2D).
    A rational M (Q None) skips the pair sums on Q, which stay zero; only
    the centre swap at odd n makes a √2 part.
    """
    n = m.n
    P = list(m.P)
    Q = None if m.Q is None else list(m.Q)
    pairs, centres = _pair_slices(n)
    for e in (P,) if Q is None else (P, Q):
        for lo, hi in pairs:
            a, b = e[lo], e[hi]
            e[lo] = [x + y for x, y in zip(a, b)]
            e[hi] = [x - y for x, y in zip(a, b)]
    if centres:
        if Q is None:
            Q = [0] * len(P)
        for centre in centres:
            P[centre], Q[centre] = [2 * q for q in Q[centre]], P[centre]
    return Matrix.from_parts(n, P, Q, 2 * m.D)


@lru_cache(maxsize=None)
def _pair_slices(n: int) -> tuple[tuple, tuple]:
    # The row pairs (i, n−1−i), then the column pairs, and at odd n the
    # centre row and column, as slices of the row-major list.
    nu, odd = divmod(n, 2)
    pairs = [(slice(i * n, (i + 1) * n), slice((n - 1 - i) * n, (n - i) * n)) for i in range(nu)]
    pairs += [(slice(i, None, n), slice(n - 1 - i, None, n)) for i in range(nu)]
    centres = (slice(nu * n, (nu + 1) * n), slice(nu, None, n)) if odd else ()
    return tuple(pairs), centres


# -- the four grading involutions ---------------------------------------------


def _half_shift(n: int) -> Sequence[int]:
    if n % 2:
        raise DimensionError("the half-period shift is an involution only at even n")
    return [(i + n // 2) % n for i in range(n)]


@dataclass(frozen=True)
class Involution:
    """A grading involution K: an index involution σ or a ±1 reflection axis y.

    `permutation(n)` gives σ, and (K·M·K)[i, j] = M[σi, σj].  `axis(n)` gives
    the ±1 ints of y for K = I − 2·y·yᵀ/n.
    """

    permutation: Callable[[int], Sequence[int]] | None = None
    axis: Callable[[int], list[int]] | None = None


INVOLUTIONS = {
    "BA": Involution(permutation=lambda n: range(n - 1, -1, -1)),
    "SV": Involution(axis=lambda n: [1] * n),
    "NM": Involution(axis=lambda n: [1 - 2 * (i % 2) for i in range(n)]),
    "QP": Involution(permutation=_half_shift),
}

# The (even, odd) space tags of each involution: its +1 and −1 eigenspaces.
SPLIT_TAGS = {"BA": ("B", "A"), "SV": ("S", "V"), "NM": ("N", "M"), "QP": ("Q", "P")}


def permuted(e: Sequence[int], n: int, kind: str) -> tuple[int, ...]:
    """K·M·K for the permutation K of `kind` (BA or QP), gathered as a tuple.

    `e` holds the row-major entries of an integer n×n matrix M, and
    (K·M·K)[i, j] = M[σi, σj].  Raises DimensionError for QP at odd n,
    where T is no involution.
    """
    return tuple(map(e.__getitem__, _index_map(kind, n)))


def reflection_odd(e: Sequence[int], n: int, y: Sequence[int]) -> Iterator[int]:
    """n²·½(M − K·M·K) for K = I − 2·y·yᵀ/n, row-major, one entry at a time.

    The one statement of the reflection closed form.  As yᵀ·y = n, it reads
    only M·y, Mᵀ·y and t = yᵀ·M·y: entry (i, j) is
    n·(y_i·(Mᵀ·y)_j + (M·y)_i·y_j) − 2t·y_i·y_j = y_i·a_j + b_i·y_j for
    a = n·Mᵀ·y − t·y and b = n·M·y − t·y.  The even part ½(M + K·M·K) is
    then M − O/n².  Mᵀ·y and t are formed first and (M·y)_i at row i, so a
    caller that stops early forms no entry and no row sum past its own.
    """
    mty = [sum(map(mul, e[j::n], y)) for j in range(n)]
    t = sum(map(mul, y, mty))
    a = [n * c - t * yj for c, yj in zip(mty, y)]
    for i, yi in enumerate(y):
        bi = n * sum(map(mul, e[i * n:(i + 1) * n], y)) - t * yi
        for aj, yj in zip(a, y):
            yield yi * aj + bi * yj


@lru_cache(maxsize=None)
def _index_map(kind: str, n: int) -> tuple[int, ...]:
    # Row-major k ↦ σi·n + σj for the permutation σ of `kind`, so that
    # (K·M·K)[k] = M[map[k]].
    sigma = INVOLUTIONS[kind].permutation(n)
    return tuple(si * n + sj for si in sigma for sj in sigma)


@lru_cache(maxsize=None)
def layout(n: int) -> Mapping[str, tuple[range, range]]:
    """The rows and columns of each named block of C = X_n·M·X_n.

    The one statement of the layout above: (ν, ν) at even n and (ν, 1, ν)
    at odd n, the centre row and column only at odd n.  The names are the
    `BlockForm` views, which read C here, and `construct` writes C here.
    Built once per n and shared, so it is a read-only mapping.
    """
    nu = n // 2
    lo, hi = range(nu), range(n - nu, n)
    at = {"y_block": (lo, lo), "vt_block": (lo, hi), "w_block": (hi, lo), "z_block": (hi, hi)}
    if n % 2:
        c = range(nu, nu + 1)
        at.update(v_col=(lo, c), x_col=(hi, c), y_row=(c, lo), z_row=(c, hi), alpha=(c, c))
    return MappingProxyType(at)


class _View:
    """A named block of the conjugate, at the rows and columns `layout` gives it.

    A square block is a Matrix, a centre row or column a Vector, and α a
    Scalar.  A centre view at even n raises ValueError, and a square block
    at n = 1, which is 0×0, raises DimensionError.
    """

    def __init__(self, kind, doc: str):
        self.kind = kind
        self.__doc__ = doc

    def __set_name__(self, owner, name: str):
        self.name = name

    def __get__(self, bf, owner=None):
        if bf is None:
            return self
        try:
            rows, cols = layout(bf.n)[self.name]
        except KeyError:
            raise ValueError("central views are defined only for odd n") from None
        c = bf.conjugate
        if self.kind is Scalar:
            return c[rows[0], cols[0]]
        index = [i * c.n + j for i in rows for j in cols]
        Q = None if c.Q is None else [c.Q[k] for k in index]
        size = len(rows) if self.kind is Matrix else len(index)
        return self.kind.from_parts(size, [c.P[k] for k in index], Q, c.D)


class BlockForm:
    """The conjugate C = X_n·M·X_n with named views into its sub-blocks.

    Stores the full conjugate only; views are sliced out on demand, so
    reassembly is trivially exact.
    """

    __slots__ = ("n", "nu", "odd", "conjugate")

    def __init__(self, conjugate: Matrix):
        object.__setattr__(self, "conjugate", conjugate)
        object.__setattr__(self, "n", conjugate.n)
        object.__setattr__(self, "nu", conjugate.n // 2)
        object.__setattr__(self, "odd", conjugate.n % 2 == 1)

    def __setattr__(self, name, value):
        raise AttributeError("BlockForm is immutable")

    def __eq__(self, other) -> bool:
        return isinstance(other, BlockForm) and self.conjugate == other.conjugate

    y_block = _View(Matrix, "Top-left ν×ν block Y.")
    vt_block = _View(Matrix, "Top-right ν×ν block (Vᵀ in the layout).")
    w_block = _View(Matrix, "Bottom-left ν×ν block W.")
    z_block = _View(Matrix, "Bottom-right ν×ν block Z.")
    v_col = _View(Vector, "Centre column above α (odd n).")
    x_col = _View(Vector, "Centre column below α (odd n).")
    y_row = _View(Vector, "Centre row left of α (odd n).")
    z_row = _View(Vector, "Centre row right of α (odd n).")
    alpha = _View(Scalar, "Centre entry α (odd n).")


def to_block(m: Matrix) -> BlockForm:
    return BlockForm(conjugate_x(m))


def from_block(b: BlockForm) -> Matrix:
    return conjugate_x(b.conjugate)
