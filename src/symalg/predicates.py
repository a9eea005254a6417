"""Membership tests for the nine matrix symmetry types.

Every property is decided from the entrywise definition (cyclic indices,
weights recovered by a single probe and then confirmed exactly) and, but
for P and Q, from the matrix-algebra characterisation.  For B, A, V and M
that is K·(M − w·E)·K = ±(M − w·E) for a grading involution K of
`blockform.INVOLUTIONS`, and for S and N that M commutes with a reflection
K.  P and Q have none: for a permutation K it is the entrywise check.
`classify` runs both routes and treats any disagreement as an internal bug,
not as a statement about the input.  For S, R, A and B the two routes are
not independent: the algebraic S route (M·1 = Mᵀ·1 = λ·1) compares the same
row and column sums as the entrywise one, both R routes compare the same
mirror-pair sums, and both A and B routes read J's index map (i, j) ↦
(n−1−i, n−1−j).  There the disagreement guard and `verify`'s dual-path
agreement catch only a slip in one copy, not a wrong condition in both;
only the oracle agreement in `verify` checks these four independently.

Every route is a plain decision (e, n) -> (holds, num, den) on one integer
part e of M = (P + Q·√2)/D (`Matrix.P`, `Matrix.Q`, `Matrix.D`; Q is None
when M is rational): whether e meets the condition, and its weight num/den.
Every condition is linear with rational coefficients and √2 is irrational,
so `_decide` lifts a decision to M by deciding on P, then on Q, in int; the
algebraic ones read the parts through the integer kernels of `blockform`.
The algebraic V and M routes read the reflection closed form
`blockform.reflection_odd`, from M·y, Mᵀ·y and yᵀ·M·y, and stop at the
first entry where ½(M + K·M·K) is not w; most inputs are not members, and
no K·M·K list is built for them.  The B, A, P and Q routes gather J·M·J or
T·M·T through `blockform.permuted`.

One table (`SPACES`) gives each space its two decisions, its parity and
its side rule; `COMPOSITES` gives the intersections.  `check_entrywise`,
`check_algebraic`, `classify` and `in_space` are all derived from the two,
and so are the oracle's dimension checks.  One rule, `_admits`, states
membership from a decided property: weight 0 for A, M and P, total sum 0
for V.  `classify` and `in_space` both apply it, so a space means the same
to both; only `classify` builds weight Scalars.

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
from .errors import DimensionError, PredicatePathMismatch
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
    # Mirror-pair sums along every row, then every column, equal the end pair.
    lines = chain((e[i * n:(i + 1) * n] for i in range(n)), (e[j::n] for j in range(n)))
    for line in lines:
        c = line[0] + line[-1]
        if any(line[j] + line[-1 - j] != c for j in range(1, n - 1)):
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
    # roles of rows and columns swapped: adjacent alternating sums cancel.
    sig = INVOLUTIONS["NM"].axis(n)
    cols = [sum(map(mul, e[j::n], sig)) for j in range(n)]
    rows = [sum(map(mul, e[j * n:(j + 1) * n], sig)) for j in range(n)]
    holds = all(s[j] + s[(j + 1) % n] == 0 for s in (cols, rows) for j in range(n))
    return holds, None, 1


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
    # M commutes with the reflection K = I − 2·y·yᵀ/n of `kind` iff
    # M·y = Mᵀ·y = λ·y.  This is the O(n) form of K·M·K = M: it compares
    # the 2n entries of M·y and Mᵀ·y instead of all n² of K·M·K.
    y = INVOLUTIONS[kind].axis(n)
    my = [sum(map(mul, e[i * n:(i + 1) * n], y)) for i in range(n)]
    lam = my[0] * y[0]  # (M·y)₀ / y₀, as y has ±1 entries
    lam_y = [lam * c for c in y]
    holds = my == lam_y and [sum(map(mul, e[j::n], y)) for j in range(n)] == lam_y
    return holds, lam


def _alg_semimagic(e: tuple[int, ...], n: int) -> tuple:
    holds, lam = _eigen_pair(e, n, "SV")
    return holds, lam, n


def _k_odd(e: tuple[int, ...], n: int, kind: str, num: int = 0, den: int = 1) -> bool:
    """Whether K·(M − w·E)·K = −(M − w·E) for w = num/den and the K of `kind`.

    Every K that a weight is removed for (J, and I − 2·y·yᵀ/n where y is
    1, or Σ at even n) maps E to itself, so K·(M − w·E)·K = K·M·K − w·E and
    the test reads ½(M + K·M·K) = w·E.  For J that is M + K·M·K = 2w·E on
    the gathered entries.  For a reflection the even part is M − O/n², with
    O from the closed form `reflection_odd`, read entry by entry and only up
    to the first entry that breaks.
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
        raise DimensionError(f"space {tag} does not exist at n={n}")


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
        raise ValueError(f"unknown property {prop!r}")
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
        raise ValueError(f"property {prop!r} has no algebraic characterisation")
    return _verdict("algebraic", _decide(space.algebraic, m), m)


# -- membership --------------------------------------------------------------


def _admits(space: Space, decided: tuple, sum_zero: bool) -> bool:
    # The one membership rule, on `_decide`'s (holds, num_P, num_Q, den): the
    # property holds, with weight 0 for A, M and P (num_P = num_Q = 0, √2
    # being irrational; odd M gives no weight) and total sum 0 for V.
    holds, num, num_q, _ = decided
    return holds and not (space.zero_weight and (num or num_q)) and (sum_zero or not space.zero_sum)


def verdicts_agree(e: PropertyVerdict, a: PropertyVerdict) -> bool:
    """Two routes agree: the same `holds`, and the same weight where both give one."""
    if e.holds != a.holds:
        return False
    if e.holds and e.weight is not None and a.weight is not None:
        return e.weight == a.weight
    return True


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
        v = _verdict(name, decided, m)
        for other, route in twin:
            a = _verdict(other, _decide(route, m), m)
            if not verdicts_agree(v, a):
                raise PredicatePathMismatch(
                    f"entrywise and algebraic verdicts differ for ({tag}) at n={n}: "
                    f"{v} vs {a}"
                )
            v = PropertyVerdict(v.holds, v.weight, route="both")
        props[tag] = v
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
        raise ValueError(f"unknown space tag {tag!r}")
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
