"""Membership tests for the nine matrix symmetry types.

Every property is decided two independent ways: from the entrywise
definition (cyclic indices, weights recovered by a single probe and then
confirmed exactly) and from the matrix-algebra characterisation.  For B,
A, V and M that is K·(M − w·E)·K = ±(M − w·E) for a grading involution K of
`blockform.INVOLUTIONS`, and for S and N that M commutes with a reflection
K.  P and Q have none: for a permutation K it is the entrywise check.
`classify` runs both routes and treats any disagreement as an internal bug,
not as a statement about the input.

One table (`SPACES`) gives each space its two routes, its parity, its rule
and the route `in_space` takes; `COMPOSITES` gives the intersections.
`check_entrywise`, `check_algebraic`, `classify` and `in_space` are all
derived from the two, and so are the oracle's dimension checks.

Weight conventions: rows/columns of an S-matrix sum to n·w, centrally
opposite entries of an A-matrix to 2w, cyclic 2×2 blocks of an M-matrix to
4w, half-period pairs of a P-matrix to 2w.  For odd n the M- and N-type
spaces are defined by the algebraic conditions alone (the entrywise sums
are either impossible or strictly weaker there), and the report marks those
verdicts accordingly.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from math import gcd
from typing import Callable

from .blockform import INVOLUTIONS, involution_entries
from .errors import DimensionError, PredicatePathMismatch
from .matrix import Matrix
from .scalar import ZERO, Scalar


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
        for k, v in self.props.items():
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


def _sum(plus, minus=()) -> Scalar:
    """Σ plus − Σ minus, exactly.

    The entries are accumulated as one integer triple (P + Q√2)/D over the
    least common denominator so far, in the idiom of `matrix._dots`, so a
    sum builds one Scalar instead of one per entry.
    """
    P = Q = 0
    D = 1
    for sign, xs in ((1, plus), (-1, minus)):
        for x in xs:
            d = x.d
            if d != D and D % d:
                g = d // gcd(D, d)
                P, Q, D = P * g, Q * g, D * g
            f = sign * (D // d)
            P += f * x.p
            Q += f * x.q
    return Scalar._make(P, Q, D)


def _row_sums(m: Matrix) -> list[Scalar]:
    n = m.n
    e = m.entries
    return [_sum(e[i * n:(i + 1) * n]) for i in range(n)]


def _col_sums(m: Matrix) -> list[Scalar]:
    n = m.n
    e = m.entries
    return [_sum(e[j::n]) for j in range(n)]


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
    # Σᵀ·M·Σ: the entries with i + j even minus those with i + j odd.
    n = m.n
    e = m.entries
    plus = [e[i * n + j] for i in range(n) for j in range(i % 2, n, 2)]
    minus = [e[i * n + j] for i in range(n) for j in range(1 - i % 2, n, 2)]
    return _sum(plus, minus)


# -- algebraic route ---------------------------------------------------------


def _eigen_pair(m: Matrix, kind: str) -> PropertyVerdict:
    # M commutes with the reflection K = I − 2·y·yᵀ/n of `kind` iff
    # M·y = Mᵀ·y = λ·y.  This is the O(n) form of K·M·K = M: it compares
    # the 2n entries of M·y and Mᵀ·y instead of all n² of K·M·K.
    y = INVOLUTIONS[kind].axis(m.n)
    my = m.apply(y)
    lam = my[0] * y[0]  # (M·y)₀ / y₀, as y has ±1 entries
    lam_y = y.scale(lam)
    holds = my == lam_y and m.transpose().apply(y) == lam_y
    return PropertyVerdict(holds, lam if holds else None, route="algebraic")


def _alg_semimagic(m: Matrix) -> PropertyVerdict:
    v = _eigen_pair(m, "SV")
    if not v.holds:
        return v
    return PropertyVerdict(True, v.weight / m.n, route="algebraic")


def _k_graded(m: Matrix, kind: str, sign: int, w: Scalar | None = None) -> PropertyVerdict:
    """Whether K·(M − w·E)·K = sign·(M − w·E) for the involution of `kind`.

    Every K that a weight is removed for (J, and I − 2·y·yᵀ/n where y is
    1, or Σ at even n) maps E to itself, so K·(M − w·E)·K = K·M·K − w·E and
    the test reads M = K·M·K (sign +1) or M + K·M·K = 2w·E (sign −1).  It
    compares entry by entry and stops at the first mismatch.
    """
    kmk = involution_entries(m, kind)
    if sign > 0:
        holds = all(x == y for x, y in zip(m.entries, kmk))
    else:
        two_w = ZERO if w is None else w + w
        holds = all(x + y == two_w for x, y in zip(m.entries, kmk))
    return PropertyVerdict(holds, w if holds else None, route="algebraic")


def _alg_associated(m: Matrix) -> PropertyVerdict:
    n = m.n
    return _k_graded(m, "BA", -1, (m[0, 0] + m[n - 1, n - 1]) / 2)


def _alg_balanced(m: Matrix) -> PropertyVerdict:
    return _k_graded(m, "BA", 1)


def _alg_reverse(m: Matrix) -> PropertyVerdict:
    # (I + J)·M and (I + J)·Mᵀ must both map everything into multiples of
    # the all-ones vector, i.e. have constant columns.  Entry i of column c
    # of (I + J)·X is c[i] + c[n−1−i], the same at i and n−1−i, so each
    # column of M, then of Mᵀ, is read as it streams past, and the test
    # stops at the first column that is not constant.
    n = m.n
    e = m.entries
    columns = chain((e[j::n] for j in range(n)), (e[j * n:(j + 1) * n] for j in range(n)))
    for c in columns:
        top = c[0] + c[-1]
        if any(c[i] + c[-1 - i] != top for i in range(1, (n + 1) // 2)):
            return PropertyVerdict(False, route="algebraic")
    return PropertyVerdict(True, route="algebraic")


def _alg_vertex_cross(m: Matrix) -> PropertyVerdict:
    # (I − P)·M·(I − P) = O for P = 11ᵀ/n; the mean t/n² is not a weight.
    n = m.n
    holds = _k_graded(m, "SV", -1, m.total_sum() / (n * n)).holds
    return PropertyVerdict(holds, route="algebraic")


def _alg_array_sum(m: Matrix) -> PropertyVerdict:
    # For even n the weighted property is tested on M − w·E; for odd n the
    # algebraic condition on M itself *defines* the space, with no weight.
    w = (m[0, 0] + m[0, 1] + m[1, 0] + m[1, 1]) / 4 if m.n % 2 == 0 else None
    return _k_graded(m, "NM", -1, w)


def _alg_alternating_pairs(m: Matrix) -> PropertyVerdict:
    return _eigen_pair(m, "NM")


# -- the space table -----------------------------------------------------------


@dataclass(frozen=True)
class Space:
    """One symmetry space: the property that decides it and how.

    `prop` names the property whose verdict decides membership (VRAW and V
    share property V).  `algebraic` is None where the paper gives no
    matrix-algebra characterisation.  `odd_algebraic` marks the spaces that
    the algebraic route defines at odd n.  The space is the weight-0 part of
    the property when `zero_weight` is set, and asks for total sum 0 as well
    when `zero_sum` is set.  `in_space` takes the algebraic route where
    `fast_algebraic` is set, else the entrywise one.
    """

    prop: str
    entrywise: Callable[[Matrix], PropertyVerdict]
    algebraic: Callable[[Matrix], PropertyVerdict] | None = None
    even_only: bool = False
    odd_algebraic: bool = False
    zero_weight: bool = False
    zero_sum: bool = False
    fast_algebraic: bool = False


SPACES = {
    "S": Space("S", _ew_semimagic, _alg_semimagic, fast_algebraic=True),
    "A": Space("A", _ew_associated, _alg_associated, zero_weight=True),
    "B": Space("B", _ew_balanced, _alg_balanced),
    "R": Space("R", _ew_reverse, _alg_reverse),
    "V": Space("V", _ew_vertex_cross, _alg_vertex_cross, zero_sum=True),
    "VRAW": Space("V", _ew_vertex_cross, _alg_vertex_cross),
    "M": Space("M", _ew_array_sum, _alg_array_sum, odd_algebraic=True, zero_weight=True),
    "N": Space("N", _ew_alternating_pairs, _alg_alternating_pairs, odd_algebraic=True),
    "P": Space("P", _ew_pandiagonal, even_only=True, zero_weight=True),
    "Q": Space("Q", _ew_quartered, even_only=True),
}

# Intersections of table spaces.
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

# The composites a SymmetryReport names, in report order.
_REPORTED = ("RV", "AS", "BS", "RS", "MPS", "NQS")

# Every tag `in_space` accepts, with the table spaces it intersects.
_PARTS = {tag: (space,) for tag, space in SPACES.items()} | {
    tag: tuple(SPACES[part] for part in parts) for tag, parts in COMPOSITES.items()
}


def even_only(tag: str) -> bool:
    """Whether the space or composite `tag` exists only at even n.

    False for tags outside the table (the oracle's MENTRY and RCOMP).
    """
    return any(space.even_only for space in _PARTS.get(tag.upper(), ()))


def exists(tag: str, n: int) -> bool:
    """Whether the space or composite `tag` exists at size n."""
    return n >= 1 and not (n % 2 and even_only(tag))


def check_dimension(tag: str, n: int) -> None:
    """Raise DimensionError unless the space `tag` exists at size n."""
    if not exists(tag, n):
        raise DimensionError(f"space {tag} does not exist at n={n}")


def _routes(space: Space, n: int) -> tuple:
    # The routes that decide the property at size n, entrywise first.
    if n % 2 and space.odd_algebraic:
        return (space.algebraic,)
    if space.algebraic is None:
        return (space.entrywise,)
    return (space.entrywise, space.algebraic)


def dual_routes(n: int) -> tuple[str, ...]:
    """The properties that two independent routes decide at size n."""
    return tuple(
        tag
        for tag, space in SPACES.items()
        if tag == space.prop and len(_routes(space, n)) == 2
    )


def _property(prop: str) -> Space | None:
    # The table space of a property tag; None for VRAW, which is a space of
    # property V but not a property itself.
    space = SPACES.get(prop.upper())
    return space if space is not None and space.prop == prop.upper() else None


def check_entrywise(m: Matrix, prop: str) -> PropertyVerdict:
    """Entrywise verdict for one property tag (S A B R V M N P Q).

    The spaces the algebraic route defines at odd n (M and N) return that
    verdict there; the even-only ones (P and Q) raise DimensionError.
    """
    space = _property(prop)
    if space is None:
        raise ValueError(f"unknown property {prop!r}")
    check_dimension(prop.upper(), m.n)
    return _routes(space, m.n)[0](m)


def check_algebraic(m: Matrix, prop: str) -> PropertyVerdict:
    """Matrix-algebra verdict for one property tag (S A B R V M N).

    B, S and N are K-invariance of M and A, V and M K-anti-invariance of
    M − w·E, for the grading involutions K.  Valid for every dimension; for odd n this route *is* the definition of
    the M- and N-type spaces.  P and Q have no such route.
    """
    space = _property(prop)
    if space is None or space.algebraic is None:
        raise ValueError(f"property {prop!r} has no algebraic characterisation")
    return space.algebraic(m)


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


def _weight_rule(space: Space, v: PropertyVerdict) -> bool:
    # Membership short of the total-sum rule; no weight (odd M) passes.
    return v.holds and not (space.zero_weight and v.weight is not None and v.weight != ZERO)


def classify(m: Matrix) -> SymmetryReport:
    """Classify a square matrix against every property of `SPACES`.

    Runs the entrywise and algebraic routes wherever both are defined and
    raises PredicatePathMismatch if they ever disagree (a self-check).
    """
    n = m.n
    props: dict[str, PropertyVerdict] = {}
    for tag, space in SPACES.items():
        if space.prop in props or not exists(tag, n):
            continue
        routes = _routes(space, n)
        v = routes[0](m)
        if len(routes) == 2:
            v = _agree(v, routes[1](m), space.prop, n)
        props[space.prop] = v

    v_sum_zero = m.total_sum() == ZERO
    spaces = {
        tag: _weight_rule(space, props[tag]) and (v_sum_zero or not space.zero_sum)
        for tag, space in SPACES.items()
        if tag in props
    }
    composites = {
        tag: all(spaces[part] for part in COMPOSITES[tag])
        for tag in _REPORTED
        if all(part in spaces for part in COMPOSITES[tag])
    }
    return SymmetryReport(n, props, v_sum_zero, spaces, composites)


# -- fast membership (single cheapest route, used by the verification suites) -


def in_space(m: Matrix, tag: str) -> bool:
    """Exact membership in a space of `SPACES` or a composite of `COMPOSITES`.

    Each space applies its table rule: weight 0 for A, M and P, total sum 0
    for V (VRAW is property V alone).  A tag that exists only at even n
    raises DimensionError at odd n.
    """
    parts = _PARTS.get(tag.upper())
    if parts is None:
        raise ValueError(f"unknown space tag {tag!r}")
    n = m.n
    check_dimension(tag, n)
    for space in parts:
        v = _routes(space, n)[-1 if space.fast_algebraic else 0](m)
        if not _weight_rule(space, v):
            return False
        if space.zero_sum and m.total_sum() != ZERO:
            return False
    return True
