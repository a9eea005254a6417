"""Direct-sum splits of the full matrix space.

Four gradings decompose every square matrix exactly.  Each is conjugation
by one involution K of `blockform.INVOLUTIONS`, and the two parts are its
+1 and −1 eigenspaces:

    balanced ⊕ associated      K = J, the half-turn
    semimagic ⊕ vertex-cross   K = I − 2·11ᵀ/n
    alternating ⊕ array-sum    K = I − 2·ΣΣᵀ/n
    quartered ⊕ pandiagonal    K = T, the half-period shift (even n only)

so even = ½(M + K·M·K) and odd = ½(M − K·M·K), on the parts of
M = (P + Q·√2)/D through the kernels of `blockform`, never by a matrix
product.  Both halves are built from their integer parts
(`Matrix.from_parts`), with no Scalar per entry.
"""

from __future__ import annotations

from dataclasses import dataclass

from .blockform import INVOLUTIONS, permuted, reflection_odd
from .errors import shown
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
    can peel off that multiple of E.  `kind` is BA, SV, NM or QP, in any
    case; any other kind raises ValueError.  QP raises DimensionError at
    odd n.
    """
    n, P, Q, D = m.n, m.P, m.Q, m.D
    k = INVOLUTIONS.get(kind.upper())
    if k is None:
        raise ValueError(f"unknown split kind {shown(repr(kind))}")
    kind = kind.upper()
    if k.permutation is not None:
        # K·M·K = (kp + kq·√2)/D, so ½(M ± K·M·K) = (P ± kp + (Q ± kq)·√2)/(2D).
        def halves(e):
            ke = permuted(e, n, kind)
            return [x + y for x, y in zip(e, ke)], [x - y for x, y in zip(e, ke)]

        d = 2 * D
    else:
        # n²·½(M − K·M·K) = O from `reflection_odd`, and n²·½(M + K·M·K) =
        # n²·M − O, both over n²·D: no K·M·K list.
        y, nn = k.axis(n), n * n

        def halves(e):
            odd = list(reflection_odd(e, n, y))
            return [nn * x - c for x, c in zip(e, odd)], odd

        d = nn * D
    even_p, odd_p = halves(P)
    even_q, odd_q = (None, None) if Q is None else halves(Q)
    w = Scalar._make(sum(P), 0 if Q is None else sum(Q), D * n * n) if kind == "SV" else None
    return GradedPair(
        kind,
        Matrix.from_parts(n, even_p, even_q, d),
        Matrix.from_parts(n, odd_p, odd_q, d),
        weight=w,
    )
