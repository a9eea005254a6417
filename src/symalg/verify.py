"""Mechanical verification of the structural identities.

An independent oracle compiles each space's defining equations into a
linear constraint system over the n² matrix entries and computes its exact
nullspace.  The suites then check, against that oracle and against the
predicates:

* dimension formulas and the four direct-sum splits,
* the seven graded-algebra product laws, on random members drawn from
  oracle nullspace bases (not from the constructors, so the checks do not
  inherit constructor bugs),
* rank bounds for most perfect squares, reversible squares and the
  vertex-cross space,
* the impossibility of nonzero odd-dimensional array-sum matrices,
* the most-perfect triple-product and parasymmetry identities,
* that the constructor parameter spans match the oracle nullspaces.

Failures are data (reported with witnesses), except for the internal
consistency assertions which raise VerificationError.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .construct import (
    CONSTRUCTIBLE,
    constructor_basis,
    make_most_perfect,
    random_member,
    random_parameters,
)
from .elim import Echelon, echelon_of, nullspace_of_rows
from .errors import DimensionError, VerificationError
from .matrix import Matrix, Vector, all_ones, alternating, ones, rank, zeros
from .predicates import COMPOSITES, check_algebraic, check_entrywise, in_space
from .scalar import ZERO, Scalar, as_scalar

# -- constraint systems ------------------------------------------------------


def _int_row(n2: int, cells: dict) -> list[Scalar]:
    row = [ZERO] * n2
    for idx, c in cells.items():
        if c:
            row[idx] = Scalar._make(c, 0, 1)
    return row


def _rows_semimagic(n: int) -> list:
    rows = []
    first = {j: 1 for j in range(n)}
    for i in range(1, n):
        cells = dict(first)
        for j in range(n):
            cells[i * n + j] = cells.get(i * n + j, 0) - 1
        rows.append(_int_row(n * n, {k: -v for k, v in cells.items()}))
    for j in range(n):
        cells = {i * n + j: 1 for i in range(n)}
        for k, v in first.items():
            cells[k] = cells.get(k, 0) - v
        rows.append(_int_row(n * n, cells))
    return rows


def _rows_associated(n: int) -> list:
    rows = []
    seen = set()
    for i in range(n):
        for j in range(n):
            a, b = i * n + j, (n - 1 - i) * n + (n - 1 - j)
            key = (min(a, b), max(a, b))
            if key in seen:
                continue
            seen.add(key)
            cells = {a: 1}
            cells[b] = cells.get(b, 0) + 1
            rows.append(_int_row(n * n, cells))
    return rows


def _rows_balanced(n: int) -> list:
    rows = []
    for i in range(n):
        for j in range(n):
            a, b = i * n + j, (n - 1 - i) * n + (n - 1 - j)
            if a < b:
                rows.append(_int_row(n * n, {a: 1, b: -1}))
    return rows


def _rows_reverse(n: int) -> list:
    rows = []
    for i in range(n):
        for j in range(1, n - 1):
            if j > n - 1 - j:
                continue
            cells = {i * n + j: 1}
            for idx, c in ((i * n + (n - 1 - j), 1), (i * n, -1), (i * n + n - 1, -1)):
                cells[idx] = cells.get(idx, 0) + c
            rows.append(_int_row(n * n, cells))
    for j in range(n):
        for i in range(1, n - 1):
            if i > n - 1 - i:
                continue
            cells = {i * n + j: 1}
            for idx, c in (((n - 1 - i) * n + j, 1), (j, -1), ((n - 1) * n + j, -1)):
                cells[idx] = cells.get(idx, 0) + c
            rows.append(_int_row(n * n, cells))
    return rows


def _rows_vertex_raw(n: int) -> list:
    rows = []
    for i in range(n):
        for k in range(i + 1, n):
            for j in range(n):
                for l in range(j + 1, n):
                    rows.append(
                        _int_row(
                            n * n,
                            {i * n + j: 1, k * n + l: 1, i * n + l: -1, k * n + j: -1},
                        )
                    )
    return rows


def _total_row(n: int) -> list:
    return _int_row(n * n, {k: 1 for k in range(n * n)})


def _alt_total_row(n: int) -> list:
    return _int_row(
        n * n,
        {i * n + j: (1 if (i + j) % 2 == 0 else -1) for i in range(n) for j in range(n)},
    )


def _rows_vertex(n: int) -> list:
    return _rows_vertex_raw(n) + [_total_row(n)]


def _pair_basis(n: int) -> list:
    # The vectors with 1 in positions a and a+1; they span {Σ_n}^⊥.
    return [(a, a + 1) for a in range(n - 1)]


def _rows_array_sum(n: int) -> list:
    n2 = n * n
    rows = []
    if n % 2 == 0:
        for i in range(n):
            i1 = (i + 1) % n
            for j in range(n):
                j1 = (j + 1) % n
                cells: dict = {}
                for idx in (i * n + j, i * n + j1, i1 * n + j, i1 * n + j1):
                    cells[idx] = cells.get(idx, 0) + 1
                rows.append(_int_row(n2, cells))
        rows.append(_alt_total_row(n))
        return rows
    # Odd n: algebraic definition u·Mᵀ-free form — uᵀMv = 0 on the pair
    # basis of {Σ}^⊥, plus the alternating total.
    for a, a1 in _pair_basis(n):
        for b, b1 in _pair_basis(n):
            cells = {}
            for i in (a, a1):
                for j in (b, b1):
                    cells[i * n + j] = cells.get(i * n + j, 0) + 1
            rows.append(_int_row(n2, cells))
    rows.append(_alt_total_row(n))
    return rows


def _rows_alternating_pairs(n: int) -> list:
    n2 = n * n
    rows = []
    sgn = [1 if i % 2 == 0 else -1 for i in range(n)]
    if n % 2 == 0:
        for j in range(n):
            j1 = (j + 1) % n
            cells: dict = {}
            for i in range(n):
                cells[i * n + j] = cells.get(i * n + j, 0) + sgn[i]
                cells[i * n + j1] = cells.get(i * n + j1, 0) + sgn[i]
            rows.append(_int_row(n2, cells))
            cells = {}
            for i in range(n):
                cells[j * n + i] = cells.get(j * n + i, 0) + sgn[i]
                cells[j1 * n + i] = cells.get(j1 * n + i, 0) + sgn[i]
            rows.append(_int_row(n2, cells))
        return rows
    for b, b1 in _pair_basis(n):
        cells = {}
        for i in range(n):
            for j in (b, b1):
                cells[i * n + j] = cells.get(i * n + j, 0) + sgn[i]
        rows.append(_int_row(n2, cells))
        cells = {}
        for j in range(n):
            for i in (b, b1):
                cells[i * n + j] = cells.get(i * n + j, 0) + sgn[j]
        rows.append(_int_row(n2, cells))
    return rows


def _rows_half_period(n: int, sign: int) -> list:
    nu = n // 2
    rows = []
    for i in range(n):
        i2 = (i + nu) % n
        for j in range(nu):
            j2 = (j + nu) % n
            cells = {i * n + j: 1}
            idx = i2 * n + j2
            cells[idx] = cells.get(idx, 0) + sign
            rows.append(_int_row(n * n, cells))
    return rows


def _rows_pandiagonal(n: int) -> list:
    return _rows_half_period(n, +1)


def _rows_quartered(n: int) -> list:
    return _rows_half_period(n, -1)


def _rows_array_sum_entrywise(n: int) -> list:
    # Literal 2×2 cyclic sums, all equal (weight eliminated by differencing)
    # plus the alternating total; meaningful for every parity.
    n2 = n * n

    def block(i, j):
        i1, j1 = (i + 1) % n, (j + 1) % n
        cells: dict = {}
        for idx in (i * n + j, i * n + j1, i1 * n + j, i1 * n + j1):
            cells[idx] = cells.get(idx, 0) + 1
        return cells

    ref = block(0, 0)
    rows = []
    for i in range(n):
        for j in range(n):
            if i == 0 and j == 0:
                continue
            cells = block(i, j)
            for k, v in ref.items():
                cells[k] = cells.get(k, 0) - v
            rows.append(_int_row(n2, cells))
    rows.append(_alt_total_row(n))
    return rows


def _reflect_neg_basis(n: int) -> list[list[int]]:
    # Basis of {u : J·u = −u}: e_a − e_{n−1−a} for a < ν.
    out = []
    for a in range(n // 2):
        v = [0] * n
        v[a] = 1
        v[n - 1 - a] = -1
        out.append(v)
    return out


def _rows_reverse_complement(n: int) -> list:
    n2 = n * n
    basis = _reflect_neg_basis(n)
    rows = [_total_row(n)]
    for u in basis:
        cells = {}
        for i in range(n):
            if u[i] == 0:
                continue
            for j in range(n):
                cells[i * n + j] = cells.get(i * n + j, 0) + u[i]
        rows.append(_int_row(n2, cells))
        cells = {}
        for j in range(n):
            if u[j] == 0:
                continue
            for i in range(n):
                cells[i * n + j] = cells.get(i * n + j, 0) + u[j]
        rows.append(_int_row(n2, cells))
    for u in basis:
        for v in basis:
            cells = {}
            for i in range(n):
                if u[i] == 0:
                    continue
                for j in range(n):
                    if v[j]:
                        cells[i * n + j] = cells.get(i * n + j, 0) + u[i] * v[j]
            rows.append(_int_row(n2, cells))
    return rows


_ATOMS = {
    "S": _rows_semimagic,
    "A": _rows_associated,
    "B": _rows_balanced,
    "R": _rows_reverse,
    "V": _rows_vertex,
    "VRAW": _rows_vertex_raw,
    "M": _rows_array_sum,
    "N": _rows_alternating_pairs,
    "P": _rows_pandiagonal,
    "Q": _rows_quartered,
    "MENTRY": _rows_array_sum_entrywise,
    "RCOMP": _rows_reverse_complement,
}

_EVEN_ONLY = {"P", "Q", "MPS", "NQS"}


class ConstraintSystem:
    """Defining equations of one space, with its exact nullspace basis."""

    def __init__(self, space: str, n: int, rows: list):
        self.space = space
        self.n = n
        self.rows = rows
        self.nullspace = nullspace_of_rows(rows, n * n)
        self._span: Echelon | None = None

    @property
    def nullity(self) -> int:
        return len(self.nullspace)

    def basis_matrices(self) -> list[Matrix]:
        return [Matrix(self.n, tuple(v)) for v in self.nullspace]

    def satisfies(self, m: Matrix) -> bool:
        """C·vec(M) = 0, i.e. M satisfies every defining equation."""
        vec = m.entries
        for row in self.rows:
            acc = ZERO
            for c, x in zip(row, vec):
                if not (c.is_zero() or x.is_zero()):
                    acc = acc + c * x
            if not acc.is_zero():
                return False
        return True

    def in_span(self, m: Matrix) -> bool:
        """Span-membership via elimination residual against the basis."""
        if self._span is None:
            self._span = echelon_of([list(v) for v in self.nullspace], self.n * self.n)
        return self._span.contains(list(m.entries))


@lru_cache(maxsize=None)
def build_constraints(space: str, n: int) -> ConstraintSystem:
    """Compile one space's definition to linear equations and solve them.

    Composite tags stack the rows of their parts.  The result is cached;
    treat it as read-only.
    """
    tag = space.upper()
    if tag in _EVEN_ONLY and n % 2 == 1:
        raise DimensionError(f"space {space} needs even dimension")
    if tag in _ATOMS:
        return ConstraintSystem(tag, n, _ATOMS[tag](n))
    if tag in COMPOSITES:
        rows = []
        for part in COMPOSITES[tag]:
            rows.extend(_ATOMS[part](n))
        return ConstraintSystem(tag, n, rows)
    raise ValueError(f"unknown space tag {space!r}")


def random_space_member(
    space: str, n: int, rng: random.Random, terms: int = 3
) -> Matrix:
    """Random rational combination of oracle nullspace basis vectors."""
    sys = build_constraints(space, n)
    if sys.nullity == 0:
        return zeros(n)
    picks = rng.sample(range(sys.nullity), k=min(terms, sys.nullity))
    acc = [ZERO] * (n * n)
    for idx in picks:
        c = Scalar(Fraction(rng.randint(-9, 9), rng.choice((1, 2))))
        if c.is_zero():
            continue
        vec = sys.nullspace[idx]
        for k in range(n * n):
            if not vec[k].is_zero():
                acc[k] = acc[k] + c * vec[k]
    return Matrix(n, tuple(acc))


@lru_cache(maxsize=None)
def _constructor_span_check(kind: str, n: int) -> int:
    sys = build_constraints(kind.upper(), n)
    outputs = constructor_basis(kind, n)
    for m in outputs:
        if not sys.satisfies(m):
            raise VerificationError(
                f"constructor output violates the {kind} constraints at n={n}"
            )
    return echelon_of([list(m.entries) for m in outputs], n * n).rank


def dimension_probe(space: str, n: int, check_constructors: bool = True) -> int:
    """Nullity of the space's constraint system.

    For constructible spaces this also asserts that the constructor outputs
    over a parameter basis (a) satisfy every constraint and (b) span a
    space of exactly the oracle's dimension.
    """
    sys = build_constraints(space, n)
    kind = space.lower()
    if check_constructors and kind in CONSTRUCTIBLE:
        span_rank = _constructor_span_check(kind, n)
        if span_rank != sys.nullity:
            raise VerificationError(
                f"constructor span for {space} at n={n} has dimension "
                f"{span_rank}, oracle nullity is {sys.nullity}"
            )
    return sys.nullity


# -- grading checks ----------------------------------------------------------

GRADING_PAIRS = {
    "BA": (("B", "B", "B"), ("A", "A", "B"), ("A", "B", "A"), ("B", "A", "A")),
    "QP": (("Q", "Q", "Q"), ("P", "P", "Q"), ("P", "Q", "P"), ("Q", "P", "P")),
    "SV": (("S", "S", "S"), ("V", "V", "S"), ("V", "S", "V"), ("S", "V", "V")),
    "NM": (("N", "N", "N"), ("M", "M", "N"), ("M", "N", "M"), ("N", "M", "M")),
    "R": (("R", "R", "R"),),
    "NQS-MPS": (
        ("NQS", "NQS", "NQS"),
        ("MPS", "MPS", "NQS"),
        ("MPS", "NQS", "MPS"),
        ("NQS", "MPS", "MPS"),
    ),
    "BS-RV": (
        ("BS", "BS", "BS"),
        ("RV", "RV", "BS"),
        ("RV", "BS", "RV"),
        ("BS", "RV", "RV"),
    ),
}

_EVEN_ONLY_PAIRS = {"QP", "NQS-MPS"}


@dataclass
class GradingCheckResult:
    pair: str
    n: int
    trials: int
    failures: int = 0
    witnesses: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.failures == 0

    def to_dict(self) -> dict:
        return {
            "pair": self.pair,
            "n": self.n,
            "trials": self.trials,
            "failures": self.failures,
            "ok": self.ok,
        }


def _normalize_pair(pair: str) -> str:
    tag = pair.upper().replace("_", "-")
    if tag in ("R-CLOSURE", "RR"):
        tag = "R"
    if tag not in GRADING_PAIRS:
        raise ValueError(f"unknown grading pair {pair!r}")
    return tag


def grading_check(pair: str, n: int, trials: int, seed: int = 0) -> GradingCheckResult:
    """Check every product law of one grading on random oracle members."""
    tag = _normalize_pair(pair)
    if tag in _EVEN_ONLY_PAIRS and n % 2 == 1:
        raise DimensionError(f"grading pair {tag} needs even dimension")
    result = GradingCheckResult(tag, n, trials)
    for li, (left, right, target) in enumerate(GRADING_PAIRS[tag]):
        for t in range(trials):
            rng = random.Random(seed * 1_000_003 + li * 10_007 + t)
            a = random_space_member(left, n, rng)
            b = random_space_member(right, n, rng)
            if not in_space(a @ b, target):
                result.failures += 1
                if len(result.witnesses) < 3:
                    result.witnesses.append((left, right, target, a, b))
    return result


# -- most perfect square identities ------------------------------------------


def _random_mps_vectors(n: int, rng: random.Random) -> tuple[Vector, Vector]:
    p = random_parameters("mps", n, rng)
    return p["gamma"], p["delta"]


def mps_triple_product_check(
    gamma1, delta1, gamma2, delta2, gamma3, delta3, n: int
) -> bool:
    """(γ₁;δ₁)(γ₂;δ₂)(γ₃;δ₃) = n·((δ₂ᵀγ₃)γ₁; (δ₁ᵀγ₂)δ₃), exactly."""
    ms = [
        make_most_perfect(g, d, n)
        for g, d in ((gamma1, delta1), (gamma2, delta2), (gamma3, delta3))
    ]
    lhs = ms[0] @ ms[1] @ ms[2]
    sig = alternating(n)
    g1 = gamma1 if isinstance(gamma1, Vector) else Vector(gamma1)
    d1 = delta1 if isinstance(delta1, Vector) else Vector(delta1)
    g2 = gamma2 if isinstance(gamma2, Vector) else Vector(gamma2)
    d2 = delta2 if isinstance(delta2, Vector) else Vector(delta2)
    g3 = gamma3 if isinstance(gamma3, Vector) else Vector(gamma3)
    d3 = delta3 if isinstance(delta3, Vector) else Vector(delta3)
    c_left = d2.dot(g3) * n
    c_right = d1.dot(g2) * n
    rhs = g1.scale(c_left).outer(sig) + sig.outer(d3.scale(c_right))
    return lhs == rhs


def parasymmetry_check(gamma, delta, n: int) -> bool:
    """M² is symmetric iff γ and δ are linearly dependent.

    Also asserts the closed form M² = n·γδᵀ + (δᵀγ)·ΣΣᵀ.  (The coefficient
    is n: expanding (γΣᵀ + Σδᵀ)² with Σᵀγ = δᵀΣ = 0 and ΣᵀΣ = n leaves
    n·γδᵀ from the cross term.)
    """
    m = make_most_perfect(gamma, delta, n)
    g = gamma if isinstance(gamma, Vector) else Vector(gamma)
    d = delta if isinstance(delta, Vector) else Vector(delta)
    sig = alternating(n)
    m2 = m @ m
    closed = g.scale(as_scalar(n)).outer(d) + sig.scale(d.dot(g)).outer(sig)
    if m2 != closed:
        raise VerificationError("closed form for the squared most perfect square failed")
    symmetric = m2 == m2.transpose()
    stack = [list(g.entries), list(d.entries)]
    dependent = echelon_of(stack, n).rank <= 1
    return symmetric == dependent


# -- rank bounds ---------------------------------------------------------------


@dataclass
class RankBoundResult:
    space: str
    n: int
    bound: int
    trials: int
    max_rank: int
    attained: bool

    @property
    def ok(self) -> bool:
        return self.max_rank <= self.bound

    def to_dict(self) -> dict:
        return {
            "space": self.space,
            "n": self.n,
            "bound": self.bound,
            "trials": self.trials,
            "max_rank": self.max_rank,
            "attained": self.attained,
            "ok": self.ok,
        }


_RANK_BOUNDS = {
    "MPS": 2,  # weightless most perfect squares
    "MPS+WE": 3,  # general (weighted) most perfect squares
    "REVERSIBLE": 2,  # reverse ∧ vertex-cross property, any weight
    "V": 7,
}


def rank_bound_check(space: str, n: int, trials: int, seed: int = 0) -> RankBoundResult:
    """Max observed rank over random members against the proven bound."""
    tag = space.upper().replace(" ", "")
    if tag not in _RANK_BOUNDS:
        raise ValueError(f"no rank bound registered for {space!r}")
    bound = _RANK_BOUNDS[tag]
    rng = random.Random(seed)
    max_rank = 0
    for _ in range(trials):
        if tag == "MPS":
            g, d = _random_mps_vectors(n, rng)
            m = make_most_perfect(g, d, n)
        elif tag == "MPS+WE":
            g, d = _random_mps_vectors(n, rng)
            w = Scalar(rng.randint(1, 9))
            m = make_most_perfect(g, d, n) + all_ones(n).scale(w)
        elif tag == "REVERSIBLE":
            m = random_space_member("RVRAW", n, rng, terms=2 * n + 1)
        else:
            # Full-basis combinations, so generic members can actually
            # approach the rank ceiling instead of being capped by a
            # sparse draw.
            m = random_space_member("V", n, rng, terms=2 * n - 2)
        max_rank = max(max_rank, rank(m))
    return RankBoundResult(tag, n, bound, trials, max_rank, attained=max_rank == bound)


# -- lemma-level checks --------------------------------------------------------


def reversible_implies_associated(n: int, trials: int, seed: int = 0) -> bool:
    """Raw reverse ∧ vertex-cross members all carry the associated property."""
    rng = random.Random(seed)
    for _ in range(trials):
        m = random_space_member("RVRAW", n, rng)
        if not check_entrywise(m, "A").holds:
            return False
    return True


def r_complement_membership(m: Matrix) -> bool:
    """Membership in the proposed complement of the reverse space.

    Tests (1_n + u)ᵀ·M·(1_n + v) = 0 with u, v running over the −1
    eigenspace of the half-turn J, via the four homogeneous families on a
    basis (including u = v = 0).
    """
    n = m.n
    one = ones(n)
    basis = [Vector(u) for u in _reflect_neg_basis(n)]
    if not one.dot(m.apply(one)).is_zero():
        return False
    mt = m.transpose()
    for u in basis:
        if not one.dot(m.apply(u)).is_zero():
            return False
        if not one.dot(mt.apply(u)).is_zero():
            return False
    for u in basis:
        mu = m.apply(u)
        for v in basis:
            if not v.dot(mu).is_zero():
                return False
    return True


def rv_equals_av(n: int) -> bool:
    """Mutual span inclusion of the reverse∧vertex and associated∧vertex spaces."""
    rv = build_constraints("RV", n)
    av = build_constraints("AV", n)
    if rv.nullity != av.nullity:
        return False
    return all(av.satisfies(m) for m in rv.basis_matrices()) and all(
        rv.satisfies(m) for m in av.basis_matrices()
    )


def dual_path_agreement(n: int, trials: int, seed: int = 0) -> int:
    """Entrywise vs algebraic verdicts on random members and non-members.

    Returns the number of disagreements (0 on a correct implementation).
    """
    rng = random.Random(seed)
    member_kinds = ("s", "a", "b", "r", "v", "n", "m")
    props = "SABRV" + ("MN" if n % 2 == 0 else "")
    mismatches = 0
    for t in range(trials):
        if t % 3 == 0:
            m = random_member(member_kinds[t % len(member_kinds)], n, rng)
        else:
            m = Matrix(n, tuple(Scalar(rng.randint(-5, 5)) for _ in range(n * n)))
        for prop in props:
            e = check_entrywise(m, prop)
            a = check_algebraic(m, prop)
            if e.holds != a.holds:
                mismatches += 1
            elif e.holds and e.weight is not None and a.weight is not None:
                if e.weight != a.weight:
                    mismatches += 1
    return mismatches


def oracle_predicate_agreement(space: str, n: int, trials: int, seed: int = 0) -> bool:
    """Oracle basis passes the predicate; constructed members lie in its span."""
    sys = build_constraints(space, n)
    for m in sys.basis_matrices():
        if not in_space(m, space):
            return False
    kind = space.lower()
    if kind in CONSTRUCTIBLE:
        rng = random.Random(seed)
        for _ in range(trials):
            if not sys.in_span(random_member(kind, n, rng)):
                return False
    return True


# -- suites --------------------------------------------------------------------

_SPLIT_DIM_PAIRS = (("B", "A"), ("S", "V"), ("N", "M"), ("Q", "P"))


def _check(name: str, ok: bool, **extra) -> dict:
    out = {"name": name, "ok": bool(ok)}
    for k, v in extra.items():
        if k not in ("name", "ok"):
            out[k] = v
    return out


def _result_check(name: str, ok: bool, result) -> dict:
    return _check(name, ok, **{k: v for k, v in result.to_dict().items() if k != "ok"})


def suite_dimensions(n_max: int = 8, **_) -> list[dict]:
    checks = []
    for n in range(2, n_max + 1):
        dim_s = dimension_probe("S", n)
        dim_v = dimension_probe("V", n)
        checks.append(
            _check(f"dim S_{n} = n²−2n+2", dim_s == n * n - 2 * n + 2, value=dim_s)
        )
        checks.append(_check(f"dim V_{n} = 2n−2", dim_v == 2 * n - 2, value=dim_v))
        for even_tag, odd_tag in _SPLIT_DIM_PAIRS:
            if even_tag == "Q" and n % 2 == 1:
                continue
            de = dimension_probe(even_tag, n)
            do = dimension_probe(odd_tag, n)
            checks.append(
                _check(
                    f"dim {even_tag}_{n} + dim {odd_tag}_{n} = n²",
                    de + do == n * n,
                    even=de,
                    odd=do,
                )
            )
    return checks


def suite_gradings(n_max: int = 6, trials: int = 200, seed: int = 0, **_) -> list[dict]:
    checks = []
    for pair in GRADING_PAIRS:
        for n in range(2, n_max + 1):
            if pair in _EVEN_ONLY_PAIRS and n % 2 == 1:
                continue
            res = grading_check(pair, n, trials, seed)
            checks.append(_result_check(f"grading {pair} n={n}", res.ok, res))
    return checks


def suite_ranks(n_max: int = 8, trials: int = 200, seed: int = 0, **_) -> list[dict]:
    checks = []
    for n in range(4, n_max + 1, 2):
        res = rank_bound_check("MPS", n, trials, seed)
        checks.append(
            _result_check(f"weightless MPS rank ≤ 2 (n={n})", res.ok and res.attained, res)
        )
        res = rank_bound_check("MPS+WE", n, trials, seed)
        checks.append(_result_check(f"weighted MPS rank ≤ 3 (n={n})", res.ok, res))
    for n in range(2, n_max + 1):
        res = rank_bound_check("REVERSIBLE", n, trials, seed)
        checks.append(_result_check(f"reversible rank ≤ 2 (n={n})", res.ok, res))
    for n in (8, 9):
        if n <= n_max:
            res = rank_bound_check("V", n, trials, seed)
            checks.append(_result_check(f"vertex-cross rank ≤ 7 (n={n})", res.ok, res))
    return checks


def suite_lemmas(n_max: int = 7, trials: int = 100, seed: int = 0, **_) -> list[dict]:
    checks = []
    for n in (3, 5, 7):
        if n <= max(n_max, 3):
            nullity = build_constraints("MENTRY", n).nullity
            checks.append(
                _check(f"odd entrywise array-sum space is null (n={n})", nullity == 0, nullity=nullity)
            )
    for n in range(2, n_max + 1):
        checks.append(_check(f"reverse∧vertex ⇒ associated (n={n})",
                             reversible_implies_associated(n, trials, seed)))
        checks.append(_check(f"RV = AV (n={n})", rv_equals_av(n)))
        rcomp = build_constraints("RCOMP", n).nullity
        dim_r = dimension_probe("R", n)
        checks.append(
            _check(
                f"reverse-complement dimension (n={n})",
                rcomp + dim_r == n * n,
                complement=rcomp,
                reverse=dim_r,
            )
        )
    for n in (4, 6, 8):
        rng = random.Random(seed + n)
        ok = True
        for _ in range(trials):
            triple = [_random_mps_vectors(n, rng) for _ in range(3)]
            if not mps_triple_product_check(
                triple[0][0], triple[0][1], triple[1][0], triple[1][1],
                triple[2][0], triple[2][1], n,
            ):
                ok = False
                break
        checks.append(_check(f"MPS triple product (n={n})", ok, trials=trials))
        rng = random.Random(seed + 100 + n)
        ok = True
        for t in range(trials):
            g, d = _random_mps_vectors(n, rng)
            if t % 3 == 0:
                d = g.scale(as_scalar(rng.randint(-3, 3)))  # force dependence
            if not parasymmetry_check(g, d, n):
                ok = False
                break
        checks.append(_check(f"parasymmetry ⇔ dependence (n={n})", ok, trials=trials))
    for n in range(2, min(n_max, 7) + 1):
        mismatches = dual_path_agreement(n, trials, seed)
        checks.append(
            _check(f"dual-path predicate agreement (n={n})", mismatches == 0, mismatches=mismatches)
        )
        ok = all(
            oracle_predicate_agreement(sp, n, max(5, trials // 10), seed)
            for sp in ("S", "A", "B", "R", "V", "M", "N")
            + (("P", "Q", "MPS", "NQS") if n % 2 == 0 else ())
            + ("RV",)
        )
        checks.append(_check(f"oracle/predicate span agreement (n={n})", ok))
    return checks


_SUITES = {
    "dimensions": suite_dimensions,
    "gradings": suite_gradings,
    "ranks": suite_ranks,
    "lemmas": suite_lemmas,
}


def run_suite(
    suite: str, n_max: int | None = None, trials: int | None = None, seed: int = 0
) -> dict:
    """Run one named suite (or 'all'); returns a JSON-ready report.

    A run that checked nothing is not a pass: its report has ok = False.
    """
    for name, value in (("n_max", n_max), ("trials", trials)):
        if value is not None and value < 1:
            raise ValueError(f"{name} must be a positive integer, got {value}")
    names = list(_SUITES) if suite == "all" else [suite]
    checks = []
    for name in names:
        if name not in _SUITES:
            raise ValueError(f"unknown suite {suite!r}")
        kwargs: dict = {"seed": seed}
        if n_max is not None:
            kwargs["n_max"] = n_max
        if trials is not None:
            kwargs["trials"] = trials
        checks.extend(_SUITES[name](**kwargs))
    return {
        "suite": suite,
        "seed": seed,
        "checks": checks,
        "passed": sum(1 for c in checks if c["ok"]),
        "failed": sum(1 for c in checks if not c["ok"]),
        "ok": bool(checks) and all(c["ok"] for c in checks),
    }
