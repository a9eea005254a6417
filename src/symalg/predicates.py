"""Membership tests for the nine matrix symmetry types.

Every property is decided from the entrywise definition (cyclic indices,
weights recovered by a single probe and then confirmed exactly) and, but
for P and Q, from the matrix-algebra characterisation by a grading
involution of `blockform.INVOLUTIONS` (`check_algebraic`).  `classify`
runs both routes and treats any disagreement as an internal bug, not as a
statement about the input; `dual_routes` names where the two routes are
not independent.

Every route is a plain decision on one integer part of M (`_decide`).
One table (`SPACES`) gives each space its two decisions, its parity and
its side rule; `COMPOSITES` gives the intersections.  `check_entrywise`,
`check_algebraic`, `classify` and `in_space` are all derived from the two,
and so are the oracle's dimension checks.  `classify` and `in_space` apply
one membership rule (`_admits`), so a space means the same to both; only
`classify` builds weight Scalars.  One rule (`_agree`) states when two routes
agree, on their integer decisions, for `classify` and the dual-path
agreement; each route stops at the first sum or entry that breaks.

Weight conventions: rows/columns of an S-matrix sum to n·w, centrally
opposite entries of an A-matrix to 2w, cyclic 2×2 blocks of an M-matrix to
4w, half-period pairs of a P-matrix to 2w.  For odd n the M- and N-type
spaces are defined by the algebraic conditions alone (the entrywise sums
are either impossible or strictly weaker there), and the report marks those
verdicts accordingly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from operator import mul
from typing import Callable

from .blockform import INVOLUTIONS, permuted, reflection_odd
from .errors import DimensionError, PredicatePathMismatch, shown
from .io import printed
from .matrix import Matrix
from .scalar import Scalar


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
                    "weight": None if v.weight is None else printed("a weight", str, v.weight),
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
            w = ""
            if v.holds and v.weight is not None:
                w = f"  w = {printed('a weight', str, v.weight)}"
            via = f"  [{v.route}]" if v.route == "algebraic" else ""
            lines.append(f"  ({k})  {mark}{w}{via}")
        lines.append(f"  total sum zero: {'yes' if self.v_sum_zero else 'no'}")
        members = [k for k, yes in self.spaces.items() if yes]
        lines.append("  spaces: " + (", ".join(sorted(members)) if members else "none"))
        flags = [k for k, yes in self.composites.items() if yes]
        lines.append("  composite: " + (", ".join(sorted(flags)) if flags else "none"))
        return "\n".join(lines)


# -- integer parts -------------------------------------------------------------


def _decide(route: Decision, m: Matrix) -> tuple:
    """(holds, num_P, num_Q, den) of the decision `route` on M's integer parts.

    `route(e, n)` returns (holds, num, den): whether the integer matrix e
    meets the condition, and its weight num/den (num None where the route
    gives no weight).  Each condition is linear with rational coefficients,
    so M meets it exactly when P and Q do, and M's weight is
    (num_P + num_Q·√2)/(den·D).  Q is read only when P holds.
    """
    holds, num, den = route(m.P, m.n)
    num_q = 0
    if holds and m.Q is not None:
        holds, num_q, _ = route(m.Q, m.n)
    return holds, num, num_q, den


def _verdict(name: str, decided: tuple, m: Matrix) -> PropertyVerdict:
    holds, num, num_q, den = decided
    if not holds:
        return PropertyVerdict(False, route=name)
    weight = None if num is None else Scalar._make(num, num_q, den * m.D)
    return PropertyVerdict(True, weight, name)


def _total_zero(m: Matrix) -> bool:
    return sum(m.P) == 0 and (m.Q is None or sum(m.Q) == 0)


# -- entrywise route ---------------------------------------------------------


def _ew_semimagic(e: tuple[int, ...], n: int) -> tuple:
    c = sum(e[:n])
    holds = all(sum(e[i * n:(i + 1) * n]) == c for i in range(1, n)) and all(
        sum(e[j::n]) == c for j in range(n)
    )
    return holds, c, n


def _ew_associated(e: tuple[int, ...], n: int) -> tuple:
    # Entry k and its centrally opposite entry n² − 1 − k.
    two_w = e[0] + e[-1]
    return all(x + y == two_w for x, y in zip(e, reversed(e))), two_w, 2


def _ew_balanced(e: tuple[int, ...], n: int) -> tuple:
    return e == e[::-1], None, 1


def _ew_reverse(e: tuple[int, ...], n: int) -> tuple:
    # Mirror-pair sums of each row, then each column, up to its centre equal the end pair.
    lines = chain((e[i * n:(i + 1) * n] for i in range(n)), (e[j::n] for j in range(n)))
    for line in lines:
        c = line[0] + line[-1]
        if any(line[j] + line[-1 - j] != c for j in range(1, (n + 1) // 2)):
            return False, None, 1
    return True, None, 1


def _ew_vertex_cross(e: tuple[int, ...], n: int) -> tuple:
    # The adjacent-difference cases span all rectangle conditions, so only
    # (n−1)² checks are needed instead of all index quadruples.
    holds = all(
        e[k] + e[k + n + 1] == e[k + 1] + e[k + n]
        for i in range(n - 1)
        for k in range(i * n, i * n + n - 1)
    )
    return holds, None, 1


def _ew_array_sum(e: tuple[int, ...], n: int) -> tuple:
    four_w = e[0] + e[1] + e[n] + e[n + 1]
    for i in range(n):
        i1 = (i + 1) % n
        # Column j of rows i and i + 1, summed; a cyclic 2×2 block is two of them.
        pairs = [x + y for x, y in zip(e[i * n:(i + 1) * n], e[i1 * n:(i1 + 1) * n])]
        if any(pairs[j] + pairs[(j + 1) % n] != four_w for j in range(n)):
            return False, None, 1
    return _alternating_total(e, n) == 0, four_w, 4


def _ew_alternating_pairs(e: tuple[int, ...], n: int) -> tuple:
    # Σ_i (−1)^i (m_ij + m_i,j+1) = 0 for every j, and the same with the
    # roles of rows and columns swapped: adjacent alternating sums cancel,
    # compared as each sum is formed.
    sig = INVOLUTIONS["NM"].axis(n)
    for lines in ((e[j::n] for j in range(n)), (e[j * n:(j + 1) * n] for j in range(n))):
        prev = first = sum(map(mul, next(lines), sig))
        for s in chain((sum(map(mul, line, sig)) for line in lines), (first,)):
            if prev + s:
                return False, None, 1
            prev = s
    return True, None, 1


def _ew_pandiagonal(e: tuple[int, ...], n: int) -> tuple:
    turned = permuted(e, n, "QP")  # m_{i+ν, j+ν}, indices mod n
    two_w = e[0] + turned[0]
    return all(x + y == two_w for x, y in zip(e, turned)), two_w, 2


def _ew_quartered(e: tuple[int, ...], n: int) -> tuple:
    return e == permuted(e, n, "QP"), None, 1


def _alternating_total(e: tuple[int, ...], n: int) -> int:
    # Σᵀ·M·Σ, for the axis Σ of the NM reflection.
    sig = INVOLUTIONS["NM"].axis(n)
    return sum(s * sum(map(mul, e[i * n:(i + 1) * n], sig)) for i, s in enumerate(sig))


# -- algebraic route ---------------------------------------------------------


def _eigen_pair(e: tuple[int, ...], n: int, kind: str) -> tuple[bool, int]:
    # M commutes with the reflection K = I − 2·y·yᵀ/n of `kind` iff M·y = Mᵀ·y = λ·y:
    # 2n sums, not the n² entries of K·M·K, rows first, up to the first ≠ λ·y_i.
    y = INVOLUTIONS[kind].axis(n)
    lam = sum(map(mul, e[:n], y)) * y[0]  # (M·y)₀ / y₀, as y has ±1 entries
    for i in range(1, n):
        if sum(map(mul, e[i * n:(i + 1) * n], y)) != lam * y[i]:
            return False, lam
    for j in range(n):
        if sum(map(mul, e[j::n], y)) != lam * y[j]:
            return False, lam
    return True, lam


def _alg_semimagic(e: tuple[int, ...], n: int) -> tuple:
    holds, lam = _eigen_pair(e, n, "SV")
    return holds, lam, n


def _k_odd(e: tuple[int, ...], n: int, kind: str, num: int = 0, den: int = 1) -> bool:
    """Whether K·(M − w·E)·K = −(M − w·E) for w = num/den and the K of `kind`.

    Every K that a weight is removed for (J, and I − 2·y·yᵀ/n where y is
    1, or Σ at even n) maps E to itself, so K·(M − w·E)·K = K·M·K − w·E and
    the test reads ½(M + K·M·K) = w·E.  For J that is M + K·M·K = 2w·E on
    the gathered entries.  For a reflection the even part is M − O/n², with
    O from `reflection_odd`, read entry by entry and only up to the first
    entry that breaks: most inputs are not members, and no K·M·K list is
    built for them.
    """
    k = INVOLUTIONS[kind]
    if k.axis is None:
        two_w = 2 * num
        return all(den * (x + y) == two_w for x, y in zip(e, permuted(e, n, kind)))
    nn = n * n
    w = nn * num
    return all(den * (nn * x - c) == w for x, c in zip(e, reflection_odd(e, n, k.axis(n))))


def _alg_associated(e: tuple[int, ...], n: int) -> tuple:
    two_w = e[0] + e[-1]
    return _k_odd(e, n, "BA", two_w, 2), two_w, 2


def _alg_balanced(e: tuple[int, ...], n: int) -> tuple:
    # J·M·J = M, on J's gathered entries.
    return permuted(e, n, "BA") == e, None, 1


def _alg_reverse(e: tuple[int, ...], n: int) -> tuple:
    # (I + J)·M and (I + J)·Mᵀ must both map everything into multiples of
    # the all-ones vector, i.e. have constant columns.  Entry i of column c
    # of (I + J)·X is c[i] + c[n−1−i], the same at i and n−1−i, so each
    # column of M, then of Mᵀ, is read as it streams past, and the test
    # stops at the first column that is not constant.
    columns = chain((e[j::n] for j in range(n)), (e[j * n:(j + 1) * n] for j in range(n)))
    for c in columns:
        top = c[0] + c[-1]
        if any(c[i] + c[-1 - i] != top for i in range(1, (n + 1) // 2)):
            return False, None, 1
    return True, None, 1


def _alg_vertex_cross(e: tuple[int, ...], n: int) -> tuple:
    # (I − P)·M·(I − P) = O for P = 11ᵀ/n; the mean t/n² is not a weight.
    return _k_odd(e, n, "SV", sum(e), n * n), None, 1


def _alg_array_sum(e: tuple[int, ...], n: int) -> tuple:
    # For even n the weighted property is tested on M − w·E; for odd n the
    # algebraic condition on M itself *defines* the space, with no weight.
    if n % 2:
        return _k_odd(e, n, "NM"), None, 1
    four_w = e[0] + e[1] + e[n] + e[n + 1]
    return _k_odd(e, n, "NM", four_w, 4), four_w, 4


def _alg_alternating_pairs(e: tuple[int, ...], n: int) -> tuple:
    holds, lam = _eigen_pair(e, n, "NM")
    return holds, lam, 1


# -- the space table -----------------------------------------------------------

# A decision on one integer part: (e, n) -> (holds, num, den), see `_decide`.
Decision = Callable[[tuple, int], tuple]


@dataclass(frozen=True)
class Space:
    """One symmetry space: the property that decides it and its side rule.

    `prop` names the property whose verdict decides membership (VRAW and V
    share property V).  `entrywise` and `algebraic` are that property's
    decisions on one integer part; `algebraic` is None where the paper
    gives no matrix-algebra characterisation.  `odd_algebraic` marks the
    spaces that the algebraic route defines at odd n.  The space is the
    weight-0 part of the property when `zero_weight` is set, and asks for
    total sum 0 as well when `zero_sum` is set (`_admits`).
    """

    prop: str
    entrywise: Decision
    algebraic: Decision | None = None
    even_only: bool = False
    odd_algebraic: bool = False
    zero_weight: bool = False
    zero_sum: bool = False


SPACES = {
    "S": Space("S", _ew_semimagic, _alg_semimagic),
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
        raise DimensionError(f"space {shown(tag)} does not exist at n={n}")


def _routes(space: Space, n: int) -> tuple:
    # The (name, decision) pairs that decide the property at size n,
    # entrywise first.
    routes = (("entrywise", space.entrywise), ("algebraic", space.algebraic))
    if n % 2 and space.odd_algebraic:
        return routes[1:]
    return routes if space.algebraic is not None else routes[:1]


def dual_routes(n: int) -> tuple[str, ...]:
    """The properties that two routes decide at size n.

    The routes are not independent for four of them: both S routes and both
    R routes compare the same sums, and both A routes and both B routes read
    J's index map.  For those the oracle agreement is the independent check.
    """
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
        raise ValueError(f"unknown property {shown(repr(prop))}")
    check_dimension(prop.upper(), m.n)
    name, route = _routes(space, m.n)[0]
    return _verdict(name, _decide(route, m), m)


def check_algebraic(m: Matrix, prop: str) -> PropertyVerdict:
    """Matrix-algebra verdict for one property tag (S A B R V M N).

    B, S and N are K-invariance of M and A, V and M K-anti-invariance of
    M − w·E, for the grading involutions K.  Valid for every dimension; for
    odd n this route *is* the definition of the M- and N-type spaces.  P
    and Q have no such route.
    """
    space = _property(prop)
    if space is None or space.algebraic is None:
        raise ValueError(f"property {shown(repr(prop))} has no algebraic characterisation")
    return _verdict("algebraic", _decide(space.algebraic, m), m)


# -- membership --------------------------------------------------------------


def _admits(space: Space, decided: tuple, sum_zero: bool) -> bool:
    # The one membership rule, on `_decide`'s (holds, num_P, num_Q, den): the
    # property holds, with weight 0 for A, M and P (num_P = num_Q = 0, √2
    # being irrational; odd M gives no weight) and total sum 0 for V.
    holds, num, num_q, _ = decided
    return holds and not (space.zero_weight and (num or num_q)) and (sum_zero or not space.zero_sum)


def _agree(first: tuple, second: tuple) -> bool:
    # The agreement rule on two `_decide` results: the same `holds`, and where both hold
    # with a weight, num_P·den′ = num_P′·den and num_Q·den′ = num_Q′·den (D cancels).
    (holds, num, num_q, den), (holds2, num2, num_q2, den2) = first, second
    if holds != holds2 or not holds or num is None or num2 is None:
        return holds == holds2
    return num * den2 == num2 * den and num_q * den2 == num_q2 * den


def disagreements(n: int, matrices) -> int:
    """Disagreements (`_agree`) of the routes of `dual_routes(n)`'s properties on `matrices`."""
    pairs = [(SPACES[tag].entrywise, SPACES[tag].algebraic) for tag in dual_routes(n)]
    return sum(not _agree(_decide(e, m), _decide(a, m)) for m in matrices for e, a in pairs)


def classify(m: Matrix) -> SymmetryReport:
    """Classify a square matrix against every property of `SPACES`.

    Runs the entrywise and algebraic routes wherever both are defined and
    raises PredicatePathMismatch if they ever disagree (a self-check).
    """
    n = m.n
    sum_zero = _total_zero(m)
    props: dict[str, PropertyVerdict] = {}
    spaces: dict[str, bool] = {}
    for tag, space in SPACES.items():
        if tag != space.prop or not exists(tag, n):
            continue
        (name, route), *twin = _routes(space, n)
        decided = _decide(route, m)
        for other, route in twin:
            second = _decide(route, m)
            if not _agree(decided, second):
                raise PredicatePathMismatch(
                    f"entrywise and algebraic verdicts differ for ({tag}) at n={n}: "
                    f"{_verdict(name, decided, m)} vs {_verdict(other, second, m)}"
                )
            name = "both"
        props[tag] = _verdict(name, decided, m)
        spaces[tag] = _admits(space, decided, sum_zero)

    composites = {
        tag: all(spaces[part] for part in COMPOSITES[tag])
        for tag in _REPORTED
        if all(part in spaces for part in COMPOSITES[tag])
    }
    return SymmetryReport(n, props, sum_zero, spaces, composites)


@lru_cache(maxsize=None)
def _space_routes(tag: str, n: int) -> tuple:
    # (space, decision) of each part of `tag`: the route that decides it at n.
    parts = _PARTS.get(tag.upper())
    if parts is None:
        raise ValueError(f"unknown space tag {shown(repr(tag))}")
    check_dimension(tag, n)
    return tuple((space, _routes(space, n)[0][1]) for space in parts)


def in_space(m: Matrix, tag: str) -> bool:
    """Exact membership in a space of `SPACES` or a composite of `COMPOSITES`.

    Each part is decided by its first route (the entrywise one, or the
    algebraic one where it alone decides: M and N at odd n) and judged by
    the rule `classify` applies, `_admits`.  A tag that exists only at even
    n raises DimensionError at odd n.  Each (tag, n) is resolved to its
    parts' decisions once, in a module-level `lru_cache`.
    """
    for space, route in _space_routes(tag, m.n):
        if not _admits(space, _decide(route, m), space.zero_sum and _total_zero(m)):
            return False
    return True
