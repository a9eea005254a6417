"""Block representation by conjugation with X_n, and the four grading involutions.

`to_block` maps M to C = X_n·M·X_n
and names the sub-blocks of C; since X_n is an involution the map is its
own inverse, and since conjugation is an algebra homomorphism, products of
block representations are block representations of products.

The parity-dependent layout of C for n = 2ν+1 splits rows and columns as
(ν, 1, ν):

    [ Y   v   Vᵀ ]
    [ yᵀ  α   zᵀ ]
    [ W   x   Z  ]

and for even n = 2ν as (ν, ν) with blocks Y, Vᵀ, W, Z.

`INVOLUTIONS` is the one table of the four grading involutions K (J, the
reflections I − 2·11ᵀ/n and I − 2·ΣΣᵀ/n, and T at even n; see `decompose`).
`involution_entries` gives K·M·K entry by entry in O(n²) and never builds K,
so callers that compare can stop at the first mismatch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from .errors import DimensionError
from .matrix import Matrix, Vector, alternating, block_involution, ones
from .scalar import Scalar


def nu_sign(nu: int) -> int:
    """+1 for even ν, −1 for odd ν.

    This is the single ±/∓ convention used throughout the odd-dimensional
    representation formulas ("the upper sign applies if ν is even"); it is
    centralized here because J_ν·Σ_ν = −Σ_ν exactly when ν is even.
    """
    return 1 if nu % 2 == 0 else -1


def conjugate_x(m: Matrix) -> Matrix:
    """X_n·M·X_n — self-inverse, exact."""
    x = block_involution(m.n)
    return x @ m @ x


def conjugate_j(m: Matrix) -> Matrix:
    """J_n·M·J_n: rotates the matrix by a half-turn."""
    return conjugate_k(m, "BA")


# -- the four grading involutions ---------------------------------------------


def _half_shift(n: int) -> Sequence[int]:
    if n % 2:
        raise DimensionError("the half-period shift is an involution only at even n")
    return [(i + n // 2) % n for i in range(n)]


@dataclass(frozen=True)
class Involution:
    """A grading involution K: an index involution σ or a ±1 reflection axis y.

    `permutation(n)` gives σ, and (K·M·K)[i, j] = M[σi, σj].  `axis(n)` gives
    y for K = I − 2·y·yᵀ/n, and K·M·K = M − y·aᵀ − b·yᵀ with b = (2/n)·M·y
    and a = (2/n)·Mᵀ·y − (4·yᵀ·M·y/n²)·y.
    """

    permutation: Callable[[int], Sequence[int]] | None = None
    axis: Callable[[int], Vector] | None = None


INVOLUTIONS = {
    "BA": Involution(permutation=lambda n: range(n - 1, -1, -1)),
    "SV": Involution(axis=ones),
    "NM": Involution(axis=alternating),
    "QP": Involution(permutation=_half_shift),
}


def involution_entries(m: Matrix, kind: str) -> Iterator[Scalar]:
    """The entries of K·M·K in row-major order, computed as they are read.

    Raises DimensionError for QP at odd n, where T is no involution.
    """
    try:
        k = INVOLUTIONS[kind.upper()]
    except KeyError:
        raise ValueError(f"unknown split kind {kind!r}") from None
    n = m.n
    e = m.entries
    if k.permutation is not None:
        sigma = k.permutation(n)
        return map(e.__getitem__, [si * n + sj for si in sigma for sj in sigma])
    y = k.axis(n)
    my = m.apply(y)
    two = Scalar(2) / n
    b = my.scale(two).entries
    a = m.transpose().apply(y).scale(two) - y.scale(2 * two * y.dot(my) / n)
    return _reflected(e, [x.p for x in y], a.entries, b)


def _reflected(e, signs, a, b) -> Iterator[Scalar]:
    # M − y·aᵀ − b·yᵀ for y = signs (±1): each term is a sum or a difference.
    n = len(signs)
    neg_a = [-x for x in a]
    for i, si in enumerate(signs):
        bi = b[i]
        row = a if si > 0 else neg_a
        for j, sj in enumerate(signs):
            x = e[i * n + j] - row[j]
            yield x - bi if sj > 0 else x + bi


def conjugate_k(m: Matrix, kind: str) -> Matrix:
    """K·M·K for the grading involution K of `kind` (BA, SV, NM, QP)."""
    return Matrix(m.n, tuple(involution_entries(m, kind)))


class BlockForm:
    """The conjugate C = X_n·M·X_n with named views into its sub-blocks.

    Stores the full conjugate plus index ranges only; views are sliced out
    on demand, so reassembly is trivially exact.
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

    def _sub(self, rows: range, cols: range) -> Matrix:
        c = self.conjugate
        k = len(rows)
        return Matrix(k, tuple(c[i, j] for i in rows for j in cols))

    def _lo(self) -> range:
        return range(0, self.nu)

    def _hi(self) -> range:
        return range(self.n - self.nu, self.n)

    @property
    def y_block(self) -> Matrix:
        """Top-left ν×ν block Y."""
        return self._sub(self._lo(), self._lo())

    @property
    def vt_block(self) -> Matrix:
        """Top-right ν×ν block (Vᵀ in the layout)."""
        return self._sub(self._lo(), self._hi())

    @property
    def w_block(self) -> Matrix:
        """Bottom-left ν×ν block W."""
        return self._sub(self._hi(), self._lo())

    @property
    def z_block(self) -> Matrix:
        """Bottom-right ν×ν block Z."""
        return self._sub(self._hi(), self._hi())

    # Central row/column views exist only for odd n.

    def _central(self) -> int:
        if not self.odd:
            raise ValueError("central views are defined only for odd n")
        return self.nu

    @property
    def v_col(self) -> Vector:
        c = self._central()
        return Vector([self.conjugate[i, c] for i in self._lo()])

    @property
    def x_col(self) -> Vector:
        c = self._central()
        return Vector([self.conjugate[i, c] for i in self._hi()])

    @property
    def y_row(self) -> Vector:
        c = self._central()
        return Vector([self.conjugate[c, j] for j in self._lo()])

    @property
    def z_row(self) -> Vector:
        c = self._central()
        return Vector([self.conjugate[c, j] for j in self._hi()])

    @property
    def alpha(self) -> Scalar:
        c = self._central()
        return self.conjugate[c, c]


def to_block(m: Matrix) -> BlockForm:
    return BlockForm(conjugate_x(m))


def from_block(b: BlockForm) -> Matrix:
    return conjugate_x(b.conjugate)
