"""Direct-sum splits of the full matrix space.

Four gradings decompose every square matrix exactly.  Each is conjugation
by one involution K of `blockform.INVOLUTIONS`, and the two parts are its
+1 and −1 eigenspaces:

    balanced ⊕ associated      K = J, the half-turn
    semimagic ⊕ vertex-cross   K = I − 2·11ᵀ/n
    alternating ⊕ array-sum    K = I − 2·ΣΣᵀ/n
    quartered ⊕ pandiagonal    K = T, the half-period shift (even n only)

so even = ½(M + K·M·K) and odd = ½(M − K·M·K), with K·M·K read entry by
entry from the table and never as a matrix product.
"""

from __future__ import annotations

from dataclasses import dataclass

from .blockform import involution_entries
from .matrix import Matrix
from .scalar import Scalar


@dataclass(frozen=True)
class GradedPair:
    """Ordered (even-part, odd-part) result of one split."""

    kind: str
    even_part: Matrix
    odd_part: Matrix
    weight: Scalar | None = None

    def reassemble(self) -> Matrix:
        return self.even_part + self.odd_part


def split(m: Matrix, kind: str) -> GradedPair:
    """even = ½(M + K·M·K), odd = ½(M − K·M·K) for the involution of `kind`.

    SV also reports the even part's weight, total sum over n², so callers
    can peel off that multiple of E.  QP raises DimensionError at odd n.
    """
    kmk = involution_entries(m, kind)
    make = Scalar._make
    even, odd = [], []
    # ½(x ± y) summed as one integer triple, one Scalar per part.
    for x, y in zip(m.entries, kmk):
        xd, yd = x.d, y.d
        if xd == yd:
            even.append(make(x.p + y.p, x.q + y.q, 2 * xd))
            odd.append(make(x.p - y.p, x.q - y.q, 2 * xd))
        else:
            p1, q1, p2, q2 = x.p * yd, x.q * yd, y.p * xd, y.q * xd
            d = 2 * xd * yd
            even.append(make(p1 + p2, q1 + q2, d))
            odd.append(make(p1 - p2, q1 - q2, d))
    kind = kind.upper()
    w = m.total_sum() / (m.n * m.n) if kind == "SV" else None
    return GradedPair(kind, Matrix(m.n, tuple(even)), Matrix(m.n, tuple(odd)), weight=w)


def split_ba(m: Matrix) -> GradedPair:
    """Balanced part plus associated part (K = J)."""
    return split(m, "BA")


def split_sv(m: Matrix) -> GradedPair:
    """Semimagic part plus vertex-cross part, with the even part's weight."""
    return split(m, "SV")


def split_nm(m: Matrix) -> GradedPair:
    """N-type part plus M-type part (K = I − 2·ΣΣᵀ/n)."""
    return split(m, "NM")


def split_qp(m: Matrix) -> GradedPair:
    """Quartered part plus pandiagonal part (K = T), for even n."""
    return split(m, "QP")
