"""Direct-sum splits of the full matrix space.

Four gradings decompose every square matrix exactly.  Each is conjugation
by one involution K of `blockform.INVOLUTIONS`, and the two parts are its
+1 and −1 eigenspaces:

    balanced ⊕ associated      K = J, the half-turn
    semimagic ⊕ vertex-cross   K = I − 2·11ᵀ/n
    alternating ⊕ array-sum    K = I − 2·ΣΣᵀ/n
    quartered ⊕ pandiagonal    K = T, the half-period shift (even n only)

so even = ½(M + K·M·K) and odd = ½(M − K·M·K), with K·M·K from the integer
kernel `blockform.involution_entries` on the parts of M = (P + Q·√2)/D and
never as a matrix product.  Both halves are built from their integer parts
(`Matrix.from_parts`), with no Scalar per entry.
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
    n, P, Q, D = m.n, m.P, m.Q, m.D
    s, kp = involution_entries(P, n, kind)
    # M = (P + Q·√2)/D and s·K·M·K = (kp + kq·√2)/D, so ½(M ± K·M·K) =
    # (s·P ± kp + (s·Q ± kq)·√2)/(2·s·D).
    even_p = [s * p + x for p, x in zip(P, kp)]
    odd_p = [s * p - x for p, x in zip(P, kp)]
    even_q = odd_q = None
    if Q is not None:
        kq = involution_entries(Q, n, kind)[1]
        even_q = [s * q + y for q, y in zip(Q, kq)]
        odd_q = [s * q - y for q, y in zip(Q, kq)]
    d = 2 * s * D
    kind = kind.upper()
    w = Scalar._make(sum(P), 0 if Q is None else sum(Q), D * n * n) if kind == "SV" else None
    return GradedPair(
        kind,
        Matrix.from_parts(n, even_p, even_q, d),
        Matrix.from_parts(n, odd_p, odd_q, d),
        weight=w,
    )
