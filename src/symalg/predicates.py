"""Membership tests for the nine matrix symmetry types.

Every property is decided two independent ways: from the entrywise
definition (cyclic indices, weights recovered by a single probe and then
confirmed exactly) and from the matrix-algebra characterisation (eigenvector
conditions, half-turn conjugation identities, projector residuals).
`classify` runs both routes and treats any disagreement as an internal bug,
not as a statement about the input.

Weight conventions: rows/columns of an S-matrix sum to n·w, centrally
opposite entries of an A-matrix to 2w, cyclic 2×2 blocks of an M-matrix to
4w, half-period pairs of a P-matrix to 2w.  For odd n the M- and N-type
spaces are defined by the algebraic conditions alone (the entrywise sums
are either impossible or strictly weaker there), and the report marks those
verdicts accordingly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .blockform import conjugate_j
from .errors import DimensionError, PredicatePathMismatch
from .matrix import Matrix, Vector, alternating, all_ones, ones
from .scalar import ZERO, Scalar

ENTRYWISE_PROPS = frozenset("SABRVMNPQ")
ALGEBRAIC_PROPS = frozenset("SABRVMN")


@dataclass(frozen=True)
class PropertyVerdict:
    holds: bool
    weight: Scalar | None = None
    route: str = "entrywise"

    def __bool__(self) -> bool:
        return self.holds


@dataclass(frozen=True)
class SymmetryReport:
    """Full classification of one square matrix."""

    n: int
    props: dict
    v_sum_zero: bool
    spaces: dict
    composites: dict

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "properties": {
                k: {
                    "holds": v.holds,
                    "weight": None if v.weight is None else str(v.weight),
                    "route": v.route,
                }
                for k, v in self.props.items()
            },
            "v_sum_zero": self.v_sum_zero,
            "spaces": dict(self.spaces),
            "composites": dict(self.composites),
        }

    def pretty(self) -> str:
        lines = [f"n = {self.n}"]
        for k in "SABRVMNPQ":
            if k not in self.props:
                continue
            v = self.props[k]
            mark = "yes" if v.holds else "no"
            w = f"  w = {v.weight}" if v.holds and v.weight is not None else ""
            via = f"  [{v.route}]" if v.route == "algebraic" else ""
            lines.append(f"  ({k})  {mark}{w}{via}")
        lines.append(f"  total sum zero: {'yes' if self.v_sum_zero else 'no'}")
        members = [k for k, yes in self.spaces.items() if yes]
        lines.append("  spaces: " + (", ".join(sorted(members)) if members else "none"))
        flags = [k for k, yes in self.composites.items() if yes]
        lines.append("  composite: " + (", ".join(sorted(flags)) if flags else "none"))
        return "\n".join(lines)


# -- entrywise route ---------------------------------------------------------


def _row_sums(m: Matrix) -> list[Scalar]:
    n = m.n
    e = m.entries
    out = []
    for i in range(n):
        acc = ZERO
        for j in range(n):
            acc = acc + e[i * n + j]
        out.append(acc)
    return out


def _col_sums(m: Matrix) -> list[Scalar]:
    n = m.n
    e = m.entries
    out = []
    for j in range(n):
        acc = ZERO
        for i in range(n):
            acc = acc + e[i * n + j]
        out.append(acc)
    return out


def _ew_semimagic(m: Matrix) -> PropertyVerdict:
    rs = _row_sums(m)
    cs = _col_sums(m)
    c = rs[0]
    if any(x != c for x in rs) or any(x != c for x in cs):
        return PropertyVerdict(False)
    return PropertyVerdict(True, c / m.n)


def _ew_associated(m: Matrix) -> PropertyVerdict:
    n = m.n
    e = m.entries
    two_w = e[0] + e[n * n - 1]
    for i in range(n):
        for j in range(n):
            if e[i * n + j] + e[(n - 1 - i) * n + (n - 1 - j)] != two_w:
                return PropertyVerdict(False)
    return PropertyVerdict(True, two_w / 2)


def _ew_balanced(m: Matrix) -> PropertyVerdict:
    n = m.n
    e = m.entries
    for i in range(n):
        for j in range(n):
            if e[i * n + j] != e[(n - 1 - i) * n + (n - 1 - j)]:
                return PropertyVerdict(False)
    return PropertyVerdict(True)


def _ew_reverse(m: Matrix) -> PropertyVerdict:
    n = m.n
    e = m.entries
    for i in range(n):
        c = e[i * n] + e[i * n + n - 1]
        for j in range(1, n - 1):
            if e[i * n + j] + e[i * n + (n - 1 - j)] != c:
                return PropertyVerdict(False)
    for j in range(n):
        c = e[j] + e[(n - 1) * n + j]
        for i in range(1, n - 1):
            if e[i * n + j] + e[(n - 1 - i) * n + j] != c:
                return PropertyVerdict(False)
    return PropertyVerdict(True)


def _ew_vertex_cross(m: Matrix) -> PropertyVerdict:
    # The adjacent-difference cases span all rectangle conditions, so only
    # (n−1)² checks are needed instead of all index quadruples.
    n = m.n
    e = m.entries
    for i in range(n - 1):
        for j in range(n - 1):
            if e[i * n + j] + e[(i + 1) * n + j + 1] != e[i * n + j + 1] + e[(i + 1) * n + j]:
                return PropertyVerdict(False)
    return PropertyVerdict(True)


def _ew_array_sum(m: Matrix) -> PropertyVerdict:
    n = m.n
    e = m.entries
    four_w = e[0] + e[1] + e[n] + e[n + 1]
    for i in range(n):
        i1 = (i + 1) % n
        for j in range(n):
            j1 = (j + 1) % n
            s = e[i * n + j] + e[i * n + j1] + e[i1 * n + j] + e[i1 * n + j1]
            if s != four_w:
                return PropertyVerdict(False)
    if _alternating_total(m) != ZERO:
        return PropertyVerdict(False)
    return PropertyVerdict(True, four_w / 4)


def _ew_alternating_pairs(m: Matrix) -> PropertyVerdict:
    n = m.n
    e = m.entries
    for j in range(n):
        j1 = (j + 1) % n
        acc = ZERO
        for i in range(n):
            term = e[i * n + j] + e[i * n + j1]
            acc = acc + term if i % 2 == 0 else acc - term
        if acc != ZERO:
            return PropertyVerdict(False)
        acc = ZERO
        for i in range(n):
            term = e[j * n + i] + e[j1 * n + i]
            acc = acc + term if i % 2 == 0 else acc - term
        if acc != ZERO:
            return PropertyVerdict(False)
    return PropertyVerdict(True)


def _ew_pandiagonal(m: Matrix) -> PropertyVerdict:
    n = m.n
    nu = n // 2
    e = m.entries
    two_w = e[0] + e[nu * n + nu]
    for i in range(n):
        i2 = (i + nu) % n
        for j in range(n):
            if e[i * n + j] + e[i2 * n + (j + nu) % n] != two_w:
                return PropertyVerdict(False)
    return PropertyVerdict(True, two_w / 2)


def _ew_quartered(m: Matrix) -> PropertyVerdict:
    n = m.n
    nu = n // 2
    e = m.entries
    for i in range(n):
        i2 = (i + nu) % n
        for j in range(n):
            if e[i * n + j] != e[i2 * n + (j + nu) % n]:
                return PropertyVerdict(False)
    return PropertyVerdict(True)


def _alternating_total(m: Matrix) -> Scalar:
    n = m.n
    e = m.entries
    acc = ZERO
    for i in range(n):
        for j in range(n):
            x = e[i * n + j]
            acc = acc + x if (i + j) % 2 == 0 else acc - x
    return acc


_ENTRYWISE = {
    "S": _ew_semimagic,
    "A": _ew_associated,
    "B": _ew_balanced,
    "R": _ew_reverse,
    "V": _ew_vertex_cross,
    "M": _ew_array_sum,
    "N": _ew_alternating_pairs,
    "P": _ew_pandiagonal,
    "Q": _ew_quartered,
}


def check_entrywise(m: Matrix, prop: str) -> PropertyVerdict:
    """Entrywise verdict for one property tag in S,A,B,R,V,M,N,P,Q.

    M and N fall back to their algebraic definitions when n is odd (that is
    how the odd-dimensional spaces are defined); P and Q have no odd-n form
    at all and raise DimensionError.
    """
    prop = prop.upper()
    if prop not in ENTRYWISE_PROPS:
        raise ValueError(f"unknown property {prop!r}")
    if m.n % 2 == 1:
        if prop in "PQ":
            raise DimensionError(f"entrywise ({prop}) requires even dimension")
        if prop in "MN":
            return check_algebraic(m, prop)
    return _ENTRYWISE[prop](m)


# -- algebraic route ---------------------------------------------------------


def _eigen_pair(m: Matrix, y: Vector) -> PropertyVerdict:
    # Shared kernel: holds iff M·y = λ·y and Mᵀ·y = λ·y for one λ.
    my = m.apply(y)
    lam_num = None
    for yi, ri in zip(y.entries, my.entries):
        if yi.is_zero():
            if not ri.is_zero():
                return PropertyVerdict(False, route="algebraic")
            continue
        q = ri / yi
        if lam_num is None:
            lam_num = q
        elif q != lam_num:
            return PropertyVerdict(False, route="algebraic")
    lam = lam_num if lam_num is not None else ZERO
    mty = m.transpose().apply(y)
    for yi, ri in zip(y.entries, mty.entries):
        if ri != lam * yi:
            return PropertyVerdict(False, route="algebraic")
    return PropertyVerdict(True, lam, route="algebraic")


def _alg_semimagic(m: Matrix) -> PropertyVerdict:
    v = _eigen_pair(m, ones(m.n))
    if not v.holds:
        return v
    return PropertyVerdict(True, v.weight / m.n, route="algebraic")


def _alg_associated(m: Matrix) -> PropertyVerdict:
    n = m.n
    w = (m[0, 0] + m[n - 1, n - 1]) / 2
    m0 = m - all_ones(n).scale(w)
    if (m0 + conjugate_j(m0)).is_zero():
        return PropertyVerdict(True, w, route="algebraic")
    return PropertyVerdict(False, route="algebraic")


def _alg_balanced(m: Matrix) -> PropertyVerdict:
    return PropertyVerdict(m == conjugate_j(m), route="algebraic")


def _columns_constant(m: Matrix) -> bool:
    n = m.n
    e = m.entries
    for j in range(n):
        first = e[j]
        for i in range(1, n):
            if e[i * n + j] != first:
                return False
    return True


def _flip_rows(m: Matrix) -> Matrix:
    # J_n·M: row i becomes row n−1−i.
    n = m.n
    e = m.entries
    return Matrix(
        n, tuple(e[(n - 1 - i) * n + j] for i in range(n) for j in range(n))
    )


def _alg_reverse(m: Matrix) -> PropertyVerdict:
    # (M + J·M) and (Mᵀ + J·Mᵀ) must both map everything into multiples of
    # the all-ones vector, i.e. have constant columns.
    if not _columns_constant(m + _flip_rows(m)):
        return PropertyVerdict(False, route="algebraic")
    mt = m.transpose()
    if not _columns_constant(mt + _flip_rows(mt)):
        return PropertyVerdict(False, route="algebraic")
    return PropertyVerdict(True, route="algebraic")


def _projector_residual_zero(m: Matrix, y: Vector) -> bool:
    # (I − P)·M·(I − P) = O for P = y·yᵀ/(yᵀy), written out entrywise.
    n = m.n
    e = m.entries
    yy = y.dot(y)
    my = m.apply(y)
    ytm = m.transpose().apply(y)
    yty_m_y = y.dot(my)
    for i in range(n):
        yi = y[i]
        for j in range(n):
            r = (
                e[i * n + j]
                - yi * ytm[j] / yy
                - my[i] * y[j] / yy
                + yi * y[j] * yty_m_y / (yy * yy)
            )
            if not r.is_zero():
                return False
    return True


def _alg_vertex_cross(m: Matrix) -> PropertyVerdict:
    return PropertyVerdict(_projector_residual_zero(m, ones(m.n)), route="algebraic")


def _alg_array_sum(m: Matrix) -> PropertyVerdict:
    # For even n the weighted property is tested on M − w·E, since the
    # projector conditions characterise the weight-0 space; for odd n the
    # algebraic conditions on M itself *define* the space, with no weight.
    n = m.n
    if n % 2 == 0:
        w = (m[0, 0] + m[0, 1] + m[1, 0] + m[1, 1]) / 4
        m0 = m - all_ones(n).scale(w)
    else:
        w = None
        m0 = m
    sig = alternating(n)
    if sig.dot(m0.apply(sig)) != ZERO:
        return PropertyVerdict(False, route="algebraic")
    if not _projector_residual_zero(m0, sig):
        return PropertyVerdict(False, route="algebraic")
    return PropertyVerdict(True, w, route="algebraic")


def _alg_alternating_pairs(m: Matrix) -> PropertyVerdict:
    return _eigen_pair(m, alternating(m.n))


_ALGEBRAIC = {
    "S": _alg_semimagic,
    "A": _alg_associated,
    "B": _alg_balanced,
    "R": _alg_reverse,
    "V": _alg_vertex_cross,
    "M": _alg_array_sum,
    "N": _alg_alternating_pairs,
}


def check_algebraic(m: Matrix, prop: str) -> PropertyVerdict:
    """Matrix-algebra verdict for one property tag in S,A,B,R,V,M,N.

    Valid for every dimension; for odd n this route *is* the definition of
    the M- and N-type spaces.
    """
    prop = prop.upper()
    if prop not in ALGEBRAIC_PROPS:
        raise ValueError(f"property {prop!r} has no algebraic characterisation")
    return _ALGEBRAIC[prop](m)


# -- classification ----------------------------------------------------------


def _agree(e: PropertyVerdict, a: PropertyVerdict, prop: str, n: int) -> PropertyVerdict:
    same = e.holds == a.holds
    if same and e.holds and e.weight is not None and a.weight is not None:
        same = e.weight == a.weight
    if not same:
        raise PredicatePathMismatch(
            f"entrywise and algebraic verdicts differ for ({prop}) at n={n}: "
            f"{e} vs {a}"
        )
    return PropertyVerdict(e.holds, e.weight, route="both")


def classify(m: Matrix) -> SymmetryReport:
    """Classify a square matrix against all nine symmetry types.

    Runs the entrywise and algebraic routes wherever both are defined and
    raises PredicatePathMismatch if they ever disagree (a self-check).
    """
    n = m.n
    even = n % 2 == 0
    props: dict[str, PropertyVerdict] = {}
    for prop in "SABRV":
        props[prop] = _agree(_ENTRYWISE[prop](m), _ALGEBRAIC[prop](m), prop, n)
    if even:
        props["M"] = _agree(_ew_array_sum(m), _alg_array_sum(m), "M", n)
        n_e = _ew_alternating_pairs(m)
        n_a = _alg_alternating_pairs(m)
        if n_e.holds != n_a.holds:
            raise PredicatePathMismatch(
                f"entrywise and algebraic verdicts differ for (N) at n={n}"
            )
        props["N"] = PropertyVerdict(n_e.holds, None, "both")
        props["P"] = _ew_pandiagonal(m)
        props["Q"] = _ew_quartered(m)
    else:
        props["M"] = _alg_array_sum(m)
        props["N"] = _alg_alternating_pairs(m)

    v_sum_zero = m.total_sum() == ZERO
    zero = ZERO
    spaces = {
        "S": props["S"].holds,
        "A": props["A"].holds and props["A"].weight == zero,
        "B": props["B"].holds,
        "R": props["R"].holds,
        "V": props["V"].holds and v_sum_zero,
        "M": props["M"].holds and (props["M"].weight == zero if even else True),
        "N": props["N"].holds,
    }
    if even:
        spaces["P"] = props["P"].holds and props["P"].weight == zero
        spaces["Q"] = props["Q"].holds

    composites = {
        "RV": spaces["R"] and spaces["V"],
        "AS": spaces["A"] and spaces["S"],
        "BS": spaces["B"] and spaces["S"],
        "RS": spaces["R"] and spaces["S"],
    }
    if even:
        composites["MPS"] = spaces["M"] and spaces["P"] and spaces["S"]
        composites["NQS"] = spaces["N"] and spaces["Q"] and spaces["S"]

    return SymmetryReport(n, props, v_sum_zero, spaces, composites)


# -- fast membership (single cheapest route, used by the verification suites) -


def in_space(m: Matrix, tag: str) -> bool:
    """Exact membership in a symmetry space or intersection of them.

    Tags: the nine single letters (with their weight-0 conventions for
    A, M, P and the total-sum-zero convention for V), plus Vraw (property V
    without the sum condition) and the composites RV, RVraw, AV, AS, BS,
    RS, MPS, NQS.
    """
    tag = tag.upper()
    even = m.n % 2 == 0
    if tag == "S":
        return _alg_semimagic(m).holds
    if tag == "A":
        v = _ew_associated(m)
        return v.holds and v.weight == ZERO
    if tag == "B":
        return _ew_balanced(m).holds
    if tag == "R":
        return _ew_reverse(m).holds
    if tag == "VRAW":
        return _ew_vertex_cross(m).holds
    if tag == "V":
        return _ew_vertex_cross(m).holds and m.total_sum() == ZERO
    if tag == "M":
        if even:
            v = _ew_array_sum(m)
            return v.holds and v.weight == ZERO
        return _alg_array_sum(m).holds
    if tag == "N":
        if even:
            return _ew_alternating_pairs(m).holds
        return _alg_alternating_pairs(m).holds
    if tag == "P":
        v = _ew_pandiagonal(m)
        return v.holds and v.weight == ZERO
    if tag == "Q":
        return _ew_quartered(m).holds
    if tag in COMPOSITES:
        return all(in_space(m, part) for part in COMPOSITES[tag])
    raise ValueError(f"unknown space tag {tag!r}")


COMPOSITES = {
    "RV": ("R", "V"),
    "RVRAW": ("R", "VRAW"),
    "AV": ("A", "V"),
    "AS": ("A", "S"),
    "BS": ("B", "S"),
    "RS": ("R", "S"),
    "MPS": ("M", "P", "S"),
    "NQS": ("N", "Q", "S"),
    "AM": ("A", "M"),
    "BN": ("B", "N"),
}
