"""Mechanical verification of the structural identities.

An independent oracle compiles each space's defining equations into a
linear constraint system over the n² matrix entries and reduces it
exactly.  Its nullity is n² − rank, read from the pivot count; its
nullspace basis is read off the pivots on first use and then cached, so a
dimension check never builds it.  The suites then check, against that
oracle and against the predicates:

* dimension formulas and the four direct-sum splits,
* the seven graded-algebra product laws, proved on every product of two
  oracle nullspace basis matrices (not built by the constructors, so the
  checks do not inherit constructor bugs),
* rank bounds for most perfect squares, reversible squares and the
  vertex-cross space,
* the impossibility of nonzero odd-dimensional array-sum matrices,
* the most-perfect triple-product and parasymmetry identities,
* that every constructor output over a parameter basis solves its space's
  equations and that these outputs span the oracle nullspace.

A linear or multilinear claim is proved once, on a basis, in `int`
arithmetic: the product laws and the closed form of M(x)·M(y) are
bilinear, the triple product is trilinear, the makers are linear, and each
rank bound follows from a linear condition on the member.  Only the
dual-path agreement, which compares two predicates on non-members too,
draws random matrices; its members are seeded √2 combinations of the
oracle basis (`ConstraintSystem.member`), so no constructor runs per
draw.  Each grading product is judged by the oracle, on the target's
reduced rows (its RREF, kept from the oracle's build; a failing product
is named by its first broken literal row), and by `in_space`.

The oracle reduces each atom's literal rows once per n (`_atom`), and
every other system from pivot rows already found (`_stack`).

Each such proof returns one `Certificate`: the claim, the number of
basis members, the products checked, the failures and the first three
failures as witnesses; a rank bound adds the bound and the rank of one
member.  Failures are data, except for the internal consistency
assertions which raise VerificationError.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from math import lcm
from operator import mul

from .construct import CONSTRUCTIBLE, constructor_basis, extract_most_perfect_vectors
from .blockform import INVOLUTIONS, SPLIT_TAGS, reflection_odd
from .elim import integer_rref, nullspace_of_rref, rank_of_parts
from .errors import DimensionError, VerificationError, shown
from .io import matrix_to_json_obj
from .matrix import Matrix, Vector, all_ones, rank
from .predicates import (
    COMPOSITES,
    check_dimension,
    check_entrywise,
    disagreements,
    exists,
    in_space,
)

# -- constraint systems ------------------------------------------------------
#
# Every defining equation is a sum of bilinear forms uᵀ·M·v = 0 in the n²
# entries of M.  The vectors u, v are sparse: lists of (index, integer
# coefficient) pairs, in which a repeated index adds up.


def _row(n: int, *forms) -> dict[int, int]:
    """The equation Σ uᵀ·M·v = 0 over the (u, v) pairs, as a row over vec(M).

    The row is sparse: {index into vec(M): integer coefficient}, nonzeros
    only.
    """
    cells: dict = {}
    for u, v in forms:
        for i, a in u:
            base = i * n
            for j, b in v:
                cells[base + j] = cells.get(base + j, 0) + a * b
    return {k: c for k, c in cells.items() if c}


def _e(*indices) -> list:
    # e_i + e_j + ...
    return [(i, 1) for i in indices]


def _neg(u: list) -> list:
    return [(i, -c) for i, c in u]


def _sigma(n: int) -> list:
    return [(i, 1 - 2 * (i % 2)) for i in range(n)]


def _adjacent(n: int) -> list:
    # e_a + e_{a+1} with a + 1 taken mod n.
    return [_e(a, (a + 1) % n) for a in range(n)]


def _pairs(n: int) -> list:
    # The n cyclic adjacent pairs at even n; at odd n the n − 1 open ones,
    # a basis of {Σ}^⊥.
    return _adjacent(n) if n % 2 == 0 else _adjacent(n)[:-1]


def _rows_semimagic(n: int) -> list:
    # Every row sum and column sum equals the first row sum.
    one, first = _e(*range(n)), _neg(_e(0))
    return [_row(n, (_e(i), one), (first, one)) for i in range(1, n)] + [
        _row(n, (one, _e(j)), (first, one)) for j in range(n)
    ]


def _rows_central(n: int, sign: int) -> list:
    # m_ij + sign·m_{n−1−i,n−1−j} = 0 once per centrally opposite pair, at
    # its first entry k < n² − 1 − k; the centre (odd n), its own partner,
    # only for sign +1.
    last = n * n - 1
    return [
        _row(n, (_e(i), _e(j)), ([(n - 1 - i, sign)], _e(n - 1 - j)))
        for i in range(n)
        for j in range(n)
        if 2 * (i * n + j) < last or (2 * (i * n + j) == last and sign == 1)
    ]


def _rows_reverse(n: int) -> list:
    # Mirror-pair sums along every row, then every column, equal the end pair.
    ends = _neg(_e(0, n - 1))
    mirror = [_e(k, n - 1 - k) + ends for k in range(1, n - 1) if 2 * k <= n - 1]
    return [_row(n, (_e(i), u)) for i in range(n) for u in mirror] + [
        _row(n, (u, _e(j))) for j in range(n) for u in mirror
    ]


def _rows_vertex_raw(n: int) -> list:
    # Rectangles (e_i − e_k)ᵀ·M·(e_j − e_l) = 0, as the adjacent ones: e_i − e_k =
    # Σ_{a=i}^{k−1}(e_a − e_{a+1}), so by bilinearity each is the sum of those inside it.
    steps = [[(a, 1), (a + 1, -1)] for a in range(n - 1)]
    return [_row(n, (u, v)) for u in steps for v in steps]


def _total_row(n: int) -> list:
    one = _e(*range(n))
    return _row(n, (one, one))


def _alt_total_row(n: int) -> list:
    sig = _sigma(n)
    return _row(n, (sig, sig))


def _rows_array_sum(n: int) -> list:
    # Even n: every cyclic 2×2 block sums to 0.  Odd n, the algebraic
    # definition: uᵀ·M·v = 0 on the basis of {Σ}^⊥.  Both: ΣᵀMΣ = 0.
    pairs = _pairs(n)
    return [_row(n, (u, v)) for u in pairs for v in pairs] + [_alt_total_row(n)]


def _rows_alternating_pairs(n: int) -> list:
    # Σᵀ·M·u = uᵀ·M·Σ = 0 for each pair u: consecutive row and column
    # alternating sums cancel (even n), the algebraic definition (odd n).
    sig = _sigma(n)
    return [row for u in _pairs(n) for row in (_row(n, (sig, u)), _row(n, (u, sig)))]


def _rows_half_period(n: int, sign: int) -> list:
    # m_ij + sign·m_{i+ν,j+ν} = 0, indices mod n, once per pair (j < ν).
    nu = n // 2
    return [
        _row(n, (_e(i), _e(j)), ([((i + nu) % n, sign)], _e(j + nu)))
        for i in range(n)
        for j in range(nu)
    ]


def _rows_array_sum_entrywise(n: int) -> list:
    # Cyclic 2×2 sums all equal, each block (a, b) less (a, b − 1), or (a − 1, 0) at
    # b = 0: these telescope to block(a, b) − block(0, 0).  Plus the alternating total.
    blocks = _adjacent(n)
    return [
        _row(n, (u, v), (_neg(u), blocks[b - 1]) if b else (_neg(blocks[a - 1]), v))
        for a, u in enumerate(blocks)
        for b, v in enumerate(blocks)
        if a or b
    ] + [_alt_total_row(n)]


def _rows_reverse_complement(n: int) -> list:
    # (1 + u)ᵀ·M·(1 + v) = 0 over the −1 eigenspace of J: its four
    # homogeneous families 1ᵀM1, uᵀM1, 1ᵀMu and uᵀMv on its basis
    # e_a − e_{n−1−a}, a < ν.
    one = _e(*range(n))
    basis = [[(a, 1), (n - 1 - a, -1)] for a in range(n // 2)]
    rows = [_total_row(n)]
    for u in basis:
        rows += [_row(n, (u, one)), _row(n, (one, u))]
    return rows + [_row(n, (u, v)) for u in basis for v in basis]


# tag: (the atoms whose rows come first, the generator of its own rows).
# V's rows are VRAW's rows, then the total sum.
_ATOMS = {
    "S": ((), _rows_semimagic),
    "A": ((), lambda n: _rows_central(n, 1)),
    "B": ((), lambda n: _rows_central(n, -1)),
    "R": ((), _rows_reverse),
    "V": (("VRAW",), lambda n: [_total_row(n)]),
    "VRAW": ((), _rows_vertex_raw),
    "M": ((), _rows_array_sum),
    "N": ((), _rows_alternating_pairs),
    "P": ((), lambda n: _rows_half_period(n, 1)),
    "Q": ((), lambda n: _rows_half_period(n, -1)),
    "MENTRY": ((), _rows_array_sum_entrywise),
    "RCOMP": ((), _rows_reverse_complement),
}


def _stack(parts: list[tuple[list, dict]]) -> tuple[list, dict]:
    """The literal rows of stacked parts, in order, and their RREF pivots.

    Each part is (rows, `integer_rref(rows)`).  The RREF depends only on
    the row space, and the row space of stacked rows is the sum of the
    parts', so the other parts' pivot rows are reduced into a copy of the
    RREF of the part with the most pivots; one part is its own stack.
    """
    if len(parts) == 1:
        return parts[0]
    rows = [row for part_rows, _ in parts for row in part_rows]
    largest = max((pivots for _, pivots in parts), key=len)
    rest = [row for _, pivots in parts if pivots is not largest for row in pivots.values()]
    return rows, integer_rref(rest, start=largest)


@lru_cache(maxsize=None)
def _atom(atom: str, n: int) -> tuple[list, dict]:
    """An atom's literal rows and their pivots, reduced once per n."""
    base, own = _ATOMS[atom]
    rows = own(n)
    return _stack([*(_atom(part, n) for part in base), (rows, integer_rref(rows))])


class ConstraintSystem:
    """Defining equations of one space, with its exact nullspace basis.

    `rows` are sparse {index into vec(M): int} dicts, as `_row` builds
    them, and `pivots` is `elim.integer_rref(rows)`, as the build found it.
    `nullity` is n² − rank, the number of free columns.  `basis` is the
    nullspace read off the pivots by `elim.nullspace_of_rref` on first
    use and then cached, one vector per free column as
    (den, [(index, num)]) over its nonzeros; `member` combines it into a
    matrix and `basis_matrices` builds each vector as one.  The space is
    the solution set of `rows`, so `satisfies` is its membership test.
    """

    def __init__(self, space: str, n: int, rows: list, pivots: dict):
        self.space = space
        self.n = n
        self.rows = rows
        self.pivots = pivots

    @property
    def nullity(self) -> int:
        """n² − rank: `nullspace_of_rref` gives one vector per non-pivot column."""
        return self.n * self.n - len(self.pivots)

    @cached_property
    def basis(self) -> list[tuple[int, list[tuple[int, int]]]]:
        return nullspace_of_rref(self.pivots, self.n * self.n)

    def member(self, P: list[int], Q: list[int] | None = None) -> Matrix:
        """Σ (P_k + Q_k·√2)·b_k over the basis matrices b_k, for ints P_k, Q_k.

        A coefficient list shorter than the basis leaves the rest out, and
        Q None is zero.  Each part is summed in `int` over the basis' common
        denominator, and the matrix is built once from the two parts.
        """
        common = lcm(*(den for den, _ in self.basis))
        parts = []
        for coeffs in (P, Q):
            vec = None if coeffs is None else [0] * (self.n * self.n)
            for c, (den, entries) in zip(coeffs or (), self.basis):
                if not c:
                    continue
                f = c * (common // den)
                for k, num in entries:
                    vec[k] += f * num
            parts.append(vec)
        return Matrix.from_parts(self.n, *parts, common)

    def basis_matrices(self) -> list[Matrix]:
        return [self.member([0] * k + [1]) for k in range(len(self.basis))]

    def satisfies(self, m: Matrix) -> bool:
        """C·vec(M) = 0, i.e. M satisfies every defining equation.

        M = (P + Q·√2)/D entrywise for its integer parts P and Q, and
        C·vec(M) = 0 exactly when C·vec(P) = C·vec(Q) = 0.
        """
        return all(self.first_broken(part) is None for part in (m.P, m.Q) if part is not None)

    @cached_property
    def reduced_rows(self) -> list[tuple[list[int], list[int]]]:
        """The RREF of `rows`, rank(C) rows, each as (indices, coefficients).

        C·x = 0 exactly when RREF(C)·x = 0, and there are often fewer
        reduced rows than literal ones (32 against 66 for MPS at n = 6).
        Read from `pivots`, which the build already reduced.
        """
        return [(list(row), list(row.values())) for row in self.pivots.values()]

    def first_broken(self, vec: list[int]) -> int | None:
        """Index of the first row with C_k·vec ≠ 0, or None if vec solves all.

        `vec` is an integer vector over vec(M), dense, of length n².  It is
        judged on the reduced rows; only a vector that breaks one of them
        is scanned row by row for the first literal row it breaks.
        """
        get = vec.__getitem__
        if not any(sum(map(mul, coeffs, map(get, idx))) for idx, coeffs in self.reduced_rows):
            return None
        for k, row in enumerate(self.rows):
            if sum(c * vec[i] for i, c in row.items()):
                return k
        raise VerificationError(f"the reduced rows of {self.space} at n={self.n} are not its rows")


@lru_cache(maxsize=None)
def build_constraints(space: str, n: int) -> ConstraintSystem:
    """Compile one space's definition to linear equations and solve them.

    Composite tags stack the rows of their parts (`_stack`), and each
    atom is reduced once per n (`_atom`).  The result is cached, once
    per upper-case tag; treat it as read-only: its rows are shared with its
    parts' systems.
    """
    tag = space.upper()
    if space != tag:
        return build_constraints(tag, n)
    parts = COMPOSITES.get(tag, (tag,))
    if any(part not in _ATOMS for part in parts):
        raise ValueError(f"unknown space tag {shown(repr(space))}")
    check_dimension(tag, n)
    return ConstraintSystem(tag, n, *_stack([_atom(part, n) for part in parts]))


@lru_cache(maxsize=None)
def _constructor_span_rank(kind: str, n: int) -> int:
    """Rank of the constructor outputs over a parameter basis.

    Raises VerificationError unless every output solves the kind's oracle
    equations.
    """
    sys = build_constraints(kind.upper(), n)
    outputs = constructor_basis(kind, n)
    for m in outputs:
        if not sys.satisfies(m):
            raise VerificationError(
                f"constructor output violates the {kind} constraints at n={n}"
            )
    return rank_of_parts([(m.P, m.Q) for m in outputs])


def dimension_probe(space: str, n: int) -> int:
    """Nullity of the space's constraint system.

    For constructible spaces this also asserts that the constructor outputs
    over a parameter basis (a) satisfy every constraint and (b) span a
    space of exactly the oracle's dimension.
    """
    sys = build_constraints(space, n)
    kind = space.lower()
    if kind in CONSTRUCTIBLE:
        span_rank = _constructor_span_rank(kind, n)
        if span_rank != sys.nullity:
            raise VerificationError(
                f"constructor span for {space} at n={n} has dimension "
                f"{span_rank}, oracle nullity is {sys.nullity}"
            )
    return sys.nullity


# -- certificates --------------------------------------------------------------


@dataclass
class Certificate:
    """A claim proved at n on every product of `basis` oracle basis members.

    `products` counts the products checked, `failures` the ones where the
    claim broke, and `witnesses` keeps the first three of those, each
    naming the basis members and what broke; `record` adds one product.  A rank bound
    also sets `bound` and the rank `max_rank` of one member, named by
    `member` and given as io matrix JSON by `member_matrix`, that shows
    how far the bound is reached; there `products` equals `basis`, one
    compression per basis matrix.  `basis` is unset where the laws of a
    grading multiply bases of different spaces.
    """

    claim: str
    n: int
    basis: int | None = None
    products: int = 0
    failures: int = 0
    bound: int | None = None
    member: str | None = None
    max_rank: int | None = None
    member_matrix: dict | None = None
    witnesses: list = field(default_factory=list)

    def record(self, holds: bool, **witness) -> None:
        self.products += 1
        if not holds:
            self.failures += 1
            if len(self.witnesses) < 3:
                self.witnesses.append(witness)

    @property
    def ok(self) -> bool:
        return self.failures == 0 and (self.bound is None or self.max_rank <= self.bound)

    @property
    def attained(self) -> bool:
        return self.max_rank == self.bound

    def to_dict(self) -> dict:
        """The set fields, `attained` for a rank bound, `ok`, and any witnesses."""
        out = {k: v for k, v in vars(self).items() if v is not None and k != "witnesses"}
        if self.bound is not None:
            out["attained"] = self.attained
        out["ok"] = self.ok
        if self.witnesses:
            out["witnesses"] = self.witnesses
        return out


def _by_row(n: int, entries: list) -> list[list]:
    # A sparse basis vector over vec(M) as its rows, row i [(column j, num)].
    rows: list = [[] for _ in range(n)]
    for k, num in entries:
        i, j = divmod(k, n)
        rows[i].append((j, num))
    return rows


def _terms(n: int, entries: list) -> list[tuple[int, int, int]]:
    # A sparse basis vector over vec(M) as (row offset i·n, column, num).
    return [(k - k % n, k % n, num) for k, num in entries]


def _int_product(n: int, left: list, right: list) -> list[int]:
    # vec(L·R) for L from `_terms` and R from `_by_row`, in int.
    out = [0] * (n * n)
    for base, mid, a in left:
        for j, b in right[mid]:
            out[base + j] += a * b
    return out


# -- grading checks ----------------------------------------------------------

def _graded(even: str, odd: str) -> tuple:
    # The laws of a Z₂-grading: even·even ⊂ even, odd·odd ⊂ even,
    # odd·even ⊂ odd, even·odd ⊂ odd.
    return ((even, even, even), (odd, odd, even), (odd, even, odd), (even, odd, odd))


# The four involution gradings, the permutations (BA, QP) before the
# reflections (SV, NM) as the report lists them, then the other laws.
GRADING_PAIRS = {
    **{
        kind: _graded(*SPLIT_TAGS[kind])
        for kind in sorted(SPLIT_TAGS, key=lambda kind: INVOLUTIONS[kind].permutation is None)
    },
    "R": (("R", "R", "R"),),
    "NQS-MPS": _graded("NQS", "MPS"),
    "BS-RV": _graded("BS", "RV"),
}


def _grading_exists(pair: str, n: int) -> bool:
    return all(exists(tag, n) for law in GRADING_PAIRS[pair] for tag in law)


def grading_certificate(pair: str, n: int) -> Certificate:
    """Prove every product law of one grading on all oracle basis products.

    A law L·R ⊂ T is bilinear, so it holds at n exactly when aᵢ·bⱼ lies in T
    for every pair of oracle basis matrices aᵢ of L and bⱼ of R.  Each
    product is formed in int from the integer numerators of the bases; T is
    a linear space, so the positive denominators, which only scale the
    product, are left out.  Each distinct product in a law is judged once
    by each of two judges.  The oracle judge (`first_broken`) checks it
    against T's reduced rows, rank(T) rows with the same solutions as T's
    literal rows, and scans the literal rows only when it fails, for the
    first broken one.  `in_space` judges it as a Matrix.  Both are pure
    functions of (product, T), so identical products in a law (many
    repeat, the zero matrix among them) share one verdict; every product
    is still counted.  A product either judge rejects is a failure; the
    first three are kept as witnesses naming the law, the basis pair
    (i, j), the index of the first broken literal row (None when only
    `in_space` said no) and the judges that said no; a product both
    accept builds no witness.  Each left basis matrix is read into its
    (row offset, column, num) terms once, for all right basis matrices.
    """
    tag = pair.upper()
    if tag not in GRADING_PAIRS:
        raise ValueError(f"unknown grading pair {shown(repr(pair))}")
    if not _grading_exists(tag, n):
        raise DimensionError(f"grading pair {tag} does not exist at n={n}")
    cert = Certificate(tag, n)
    for law in GRADING_PAIRS[tag]:
        left, right, target = law
        sys = build_constraints(target, n)
        rights = [_by_row(n, e) for _, e in build_constraints(right, n).basis]
        verdicts: dict[tuple, tuple] = {}
        for i, (_, entries) in enumerate(build_constraints(left, n).basis):
            terms = _terms(n, entries)
            for j, rows in enumerate(rights):
                vec = _int_product(n, terms, rows)
                key = tuple(vec)
                verdict = verdicts.get(key)
                if verdict is None:
                    broken = sys.first_broken(vec)
                    judges = [] if broken is None else ["oracle"]
                    if not in_space(Matrix.from_parts(n, vec, None, 1), target):
                        judges.append("in_space")
                    verdict = verdicts[key] = (broken, judges)
                broken, judges = verdict
                if judges:
                    cert.record(False, law=list(law), basis_pair=[i, j],
                                equation=broken, rejected_by=list(judges))
                else:
                    cert.products += 1
    return cert


# -- most perfect square identities ------------------------------------------


def _ints(x: Vector | Matrix) -> list[int]:
    # Exact entries read as ints; a fraction or a √2 part would be lost.
    if x.D != 1 or x.Q is not None:
        raise VerificationError("expected integer entries")
    return list(x.P)


def _mps_members(n: int) -> list[tuple[list[int], list[int], list[int]]]:
    """(γ, δ, vec M) in int for the 2k members M = M(γ, δ) of the mps basis.

    They are `constructor_basis("mps", n)`: each of the k spanning vectors
    of the parameter space as γ with δ = 0, then as δ with γ = 0.  Σᵀγ =
    δᵀΣ = 0 gives M·Σ = n·γ and Mᵀ·Σ = n·δ, so
    `extract_most_perfect_vectors` reads (γ, δ) back exactly.
    """
    return [
        (*map(_ints, extract_most_perfect_vectors(m)), _ints(m))
        for m in constructor_basis("mps", n)
    ]


def _sparse(vec: list[int]) -> list:
    # The (index, num) pairs of a dense int vector's nonzeros.
    return [(k, c) for k, c in enumerate(vec) if c]


def _dot(u: list[int], v: list[int]) -> int:
    return sum(map(mul, u, v))


def mps_certificates(n: int) -> tuple[Certificate, Certificate]:
    """Prove the closed form of M(x)·M(y) and the triple product at even n.

    For M(x) = γΣᵀ + Σδᵀ, Σᵀγ = δᵀΣ = 0 and ΣᵀΣ = n give the identities
    in the certificates' `claim`.  The first is bilinear, the second
    trilinear in x = (γ, δ), so checking them in int on every basis pair
    and triple of `_mps_members` proves them (64, 64 and 512 triples at
    n = 4, 6, 8).  Each pair product is used for its triples straight
    away and then dropped.  Failures keep their first three basis pairs
    or triples as witnesses.

    The closed form gives M² = n·γδᵀ + (δᵀγ)·ΣΣᵀ, so M² − (M²)ᵀ =
    n·(γδᵀ − δγᵀ), which is zero iff γ and δ are dependent: the
    parasymmetry theorem follows from the pair certificate.
    """
    members = _mps_members(n)
    sig = INVOLUTIONS["NM"].axis(n)
    sparse = [_sparse(m) for _, _, m in members]
    terms = [_terms(n, m) for m in sparse]
    rows = [_by_row(n, m) for m in sparse]
    pairs = Certificate("M(x)·M(y) = n·γₓδᵧᵀ + (δₓᵀγᵧ)·ΣΣᵀ", n, len(members))
    triples = Certificate(
        "M(x)·M(y)·M(z) = n·((δᵧᵀγ_z)·γₓΣᵀ + (δₓᵀγᵧ)·Σδ_zᵀ)", n, len(members)
    )
    for i, (gx, dx, _) in enumerate(members):
        for j, (gy, dy, _) in enumerate(members):
            xy = _int_product(n, terms[i], rows[j])
            c = _dot(dx, gy)
            want = [n * g * d + c * s * t for g, s in zip(gx, sig) for d, t in zip(dy, sig)]
            pairs.record(xy == want, basis_pair=[i, j])
            xy = _terms(n, _sparse(xy))
            right = n * c
            for k, (gz, dz, _) in enumerate(members):
                left = n * _dot(dy, gz)
                want = [
                    left * g * t + right * s * d
                    for g, s in zip(gx, sig)
                    for t, d in zip(sig, dz)
                ]
                triples.record(_int_product(n, xy, rows[k]) == want, basis_triple=[i, j, k])
    return pairs, triples


# -- rank bounds ---------------------------------------------------------------
#
# For u with uᵀu = n, P = u·uᵀ/n is a projector and C = n·I − u·uᵀ = n·(I − P).
# If C·M·C = 0 then M = P·M + (I − P)·M·P, a sum of two terms of rank ≤ 1,
# so rank M ≤ 2.  The condition is linear in M: it holds on a space once it
# holds on every oracle basis matrix.  u is the ±1 axis of a reflection
# grading involution K = I − 2·u·uᵀ/n, so C = (n/2)·(I + K).


_RANK_BOUNDS = {
    # tag: (oracle space, involution of u, weighted); the bound is 2, plus
    # 1 = rank E when the weight part w·E is added.
    "MPS": ("MPS", "NM", False),  # weightless most perfect squares
    "MPS+WE": ("MPS", "NM", True),  # general (weighted) most perfect squares
    "REVERSIBLE": ("RVRAW", "SV", False),  # reverse ∧ vertex-cross, any weight
    "V": ("V", "SV", False),  # every member is a·1ᵀ + 1·bᵀ
}


def _compressed_entry(n: int, u: list[int], entries: list) -> list[int] | None:
    """First entry [i, j] with (C·B·C)ᵢⱼ ≠ 0, or None if C·B·C = 0.

    C = n·I − u·uᵀ and B is the integer matrix with the nonzeros `entries`
    over vec(M).  As C = (n/2)·(I + K) for the reflection K = I − 2·u·uᵀ/n,
    C·B·C = n²·B − O − t·u·uᵀ, with O = n²·½(B − K·B·K) from the closed form
    `reflection_odd` and t = uᵀ·B·u, in O(n²).
    """
    nn = n * n
    b = [0] * nn
    for k, num in entries:
        b[k] = num
    t = sum(num * u[k // n] * u[k % n] for k, num in entries)
    for k, (x, o) in enumerate(zip(b, reflection_odd(b, n, u))):
        if nn * x - o - t * u[k // n] * u[k % n]:
            return list(divmod(k, n))
    return None


def rank_bound_check(space: str, n: int) -> Certificate:
    """Prove the rank bound on the whole space, and rank one member.

    The bound: C·B·C = 0 for C = n·I − u·uᵀ on every oracle basis matrix B
    (see above), in int; the denominators only scale B.  A basis matrix
    with C·B·C ≠ 0 is a witness, by its index into the oracle basis and
    the first nonzero entry.  The member is the combination Σ k·b_k of the
    basis matrices b_1, b_2, … (`ConstraintSystem.member`), plus E for the
    weighted most perfect squares; its exact rank is `max_rank`, and
    `member_matrix` gives it in the io matrix JSON form.
    """
    tag = space.upper()
    if tag not in _RANK_BOUNDS:
        raise ValueError(f"no rank bound registered for {shown(repr(space))}")
    oracle, kind, weighted = _RANK_BOUNDS[tag]
    sys = build_constraints(oracle, n)
    basis = sys.basis
    u = INVOLUTIONS[kind].axis(n)
    cert = Certificate(tag, n, len(basis), bound=3 if weighted else 2,
                       member="Σ k·b_k + E" if weighted else "Σ k·b_k")
    for idx, (_, entries) in enumerate(basis):
        entry = _compressed_entry(n, u, entries)
        cert.record(entry is None, basis_index=idx, entry=entry)
    member = sys.member(list(range(1, len(basis) + 1)))
    if weighted:
        member = member + all_ones(n)
    cert.max_rank = rank(member)
    cert.member_matrix = matrix_to_json_obj(member)
    return cert


# -- lemma-level checks --------------------------------------------------------


def reversible_implies_associated(n: int) -> bool:
    """Raw reverse ∧ vertex-cross members all carry the associated property.

    The associated matrices of any weight form a linear space, so checking
    the 2ν + 1 oracle basis matrices of RVRAW proves the lemma at n.
    """
    basis = build_constraints("RVRAW", n).basis_matrices()
    return all(check_entrywise(m, "A").holds for m in basis)


def rv_equals_av(n: int) -> bool:
    """The reverse∧vertex and associated∧vertex spaces are one space.

    Two systems have the same solutions exactly when their rows span the
    same space, and the RREF (`pivots`) is unique per row space.
    """
    return build_constraints("RV", n).pivots == build_constraints("AV", n).pivots


def dual_path_agreement(n: int, trials: int, seed: int = 0) -> int:
    """Entrywise vs algebraic verdicts on random members and non-members.

    Every third trial is a member Σ (p_k + q_k·√2)·b_k over the oracle
    basis of S, A, B, R, V, N and M in turn (`ConstraintSystem.member`),
    every p_k and then every q_k drawn from −9..9.  The others are integer
    matrices with entries in −5..5.  The routes' decision pairs are looked
    up once per n, and each trial counts the pairs that disagree by the rule
    `classify` applies, building no verdict.  Returns the number of
    disagreements (0 on a correct implementation).
    """
    rng = random.Random(seed)
    member_tags = ("S", "A", "B", "R", "V", "N", "M")

    def draw(t: int) -> Matrix:
        if t % 3 == 0:
            sys = build_constraints(member_tags[t % len(member_tags)], n)
            p = [rng.randint(-9, 9) for _ in sys.basis]
            q = [rng.randint(-9, 9) for _ in sys.basis]
            return sys.member(p, q)
        return Matrix.from_parts(n, [rng.randint(-5, 5) for _ in range(n * n)], None, 1)

    return disagreements(n, map(draw, range(trials)))


def oracle_predicate_agreement(space: str, n: int) -> bool:
    """Oracle basis passes the predicate; constructed members solve and span it.

    Two matrices with a √2 part are judged as well, as the rational basis
    alone leaves the predicate's √2 part unjudged: b₀ + √2·b₁, from the
    first two oracle basis matrices (zero where the basis is shorter), must
    pass, and b₀ + √2·U, for the first unit matrix U that breaks the
    equations, must fail.  U sits at the first pivot column, as no reduced
    row has a nonzero left of its pivot.  The makers are linear, so the
    constructor basis outputs cover every member they can build;
    `dimension_probe` checks that each solves the equations and that they
    span the oracle nullspace, and raises VerificationError if not.
    """
    sys = build_constraints(space, n)
    if not all(in_space(m, space) for m in sys.basis_matrices()):
        return False
    if not in_space(sys.member([1], [0, 1]), space):
        return False
    if sys.pivots:
        unit = [0] * (n * n)
        unit[min(sys.pivots)] = 1
        if in_space(sys.member([1]) + Matrix.from_parts(n, [0] * (n * n), unit, 1), space):
            return False
    dimension_probe(space, n)
    return True


# -- suites --------------------------------------------------------------------


def _check(name: str, ok: bool, **extra) -> dict:
    return {"name": name, "ok": bool(ok), **extra}


def _cert_check(name: str, cert: Certificate, sharp: bool = False) -> dict:
    # A sharp rank bound must also be attained.
    extra = cert.to_dict()
    del extra["ok"]
    return _check(name, cert.ok and (cert.attained or not sharp), **extra)


def suite_dimensions(n_max: int = 8, **_) -> list[dict]:
    checks = []
    for n in range(2, n_max + 1):
        dim_s = dimension_probe("S", n)
        dim_v = dimension_probe("V", n)
        checks.append(
            _check(f"dim S_{n} = n²−2n+2", dim_s == n * n - 2 * n + 2, value=dim_s)
        )
        checks.append(_check(f"dim V_{n} = 2n−2", dim_v == 2 * n - 2, value=dim_v))
        for even_tag, odd_tag in SPLIT_TAGS.values():
            if not (exists(even_tag, n) and exists(odd_tag, n)):
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


def suite_gradings(n_max: int = 6, **_) -> list[dict]:
    # A certificate over all basis products: no trials, no seed.
    checks = []
    for pair in GRADING_PAIRS:
        for n in range(2, n_max + 1):
            if not _grading_exists(pair, n):
                continue
            checks.append(_cert_check(f"grading {pair} n={n}", grading_certificate(pair, n)))
    return checks


def suite_ranks(n_max: int = 8, **_) -> list[dict]:
    # Certificates on the oracle bases: no trials, no seed.
    checks = []
    for n in range(4, n_max + 1, 2):
        checks.append(_cert_check(f"weightless MPS rank ≤ 2 (n={n})",
                                  rank_bound_check("MPS", n), sharp=True))
        checks.append(_cert_check(f"weighted MPS rank ≤ 3 (n={n})", rank_bound_check("MPS+WE", n)))
    for n in range(2, n_max + 1):
        checks.append(_cert_check(f"reversible rank ≤ 2 (n={n})",
                                  rank_bound_check("REVERSIBLE", n)))
    for n in (8, 9):
        if n <= n_max:
            checks.append(_cert_check(f"vertex-cross rank ≤ 2 (n={n})",
                                      rank_bound_check("V", n), sharp=True))
    return checks


def suite_lemmas(n_max: int = 7, trials: int = 100, seed: int = 0, **_) -> list[dict]:
    # Only the dual-path agreement samples, with `trials` and `seed`.
    checks = []
    for n in (3, 5, 7):
        if n <= max(n_max, 3):
            nullity = build_constraints("MENTRY", n).nullity
            checks.append(
                _check(f"odd entrywise array-sum space is null (n={n})", nullity == 0, nullity=nullity)
            )
    for n in range(2, n_max + 1):
        checks.append(_check(f"reverse∧vertex ⇒ associated (n={n})",
                             reversible_implies_associated(n)))
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
        pairs, triples = mps_certificates(n)
        checks.append(_cert_check(f"MPS triple product (n={n})", triples))
        checks.append(_cert_check(f"parasymmetry ⇔ dependence (n={n})", pairs))
    for n in range(2, min(n_max, 7) + 1):
        mismatches = dual_path_agreement(n, trials, seed)
        checks.append(
            _check(f"dual-path predicate agreement (n={n})", mismatches == 0, mismatches=mismatches)
        )
        ok = all(
            oracle_predicate_agreement(sp, n)
            for sp in map(str.upper, CONSTRUCTIBLE)
            if exists(sp, n)
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
            raise ValueError(f"unknown suite {shown(repr(suite))}")
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
