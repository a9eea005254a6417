"""Matrix-arithmetic references for the `int` proofs of `symalg.verify`.

The library proves the most-perfect identities and the reverse
complement's equations in `int`, on a basis.  The checks here state the
same claims in `Matrix` and `Scalar` arithmetic, on given vectors and
matrices, so that the tests can compare the two.  `space_member` draws a
random member of an oracle space as a `Scalar` combination of its basis,
and `basis_combination` one of a constructible space as a combination of
its constructor basis.  `membership_inputs` draws the seeded inputs on
which `in_space` must judge every space as `classify` does (`classified`).

The `ref_*` functions state the array operations per entry, on tuples of
`Scalar`s (row-major for a matrix), so that the tests can compare the
integer-parts arithmetic of `Vector` and `Matrix` with them.

`verdicts_agree` states the route agreement rule on two `PropertyVerdict`s,
and `eigen_pair_full`, `alternating_pairs_full` and `reflection_odd_full`
form every row and column sum before they compare any, so that the
tests can compare the early-exit routes of `symalg.predicates` with them.

`rows_vertex_raw` and `rows_array_sum_entrywise` write every instance of
the VRAW and MENTRY definitions, where the oracle writes a generating set;
`reference_oracle` builds the oracle on them.
"""

from contextlib import contextmanager
from fractions import Fraction
from operator import mul

from symalg import verify as V
from symalg.blockform import INVOLUTIONS
from symalg.construct import constructor_basis, make_most_perfect
from symalg.elim import rank_of_parts
from symalg.errors import VerificationError
from symalg.matrix import Matrix, Vector, all_ones, alternating, ones, zeros
from symalg.predicates import COMPOSITES, SPACES, exists
from symalg.scalar import SQRT2, Scalar, as_scalar, integer_parts


def space_member(space, n, rng, terms=3):
    """A random rational combination of oracle nullspace basis vectors.

    Picks up to `terms` distinct basis vectors and gives each a coefficient
    a/b with a in −9..9 and b in {1, 2} (a may be 0); per pick the draw
    order is randint, then choice.
    """
    sys = V.build_constraints(space, n)
    if sys.nullity == 0:
        return zeros(n)
    basis = sys.basis_matrices()
    picks = rng.sample(range(sys.nullity), k=min(terms, sys.nullity))
    acc = [Scalar(0)] * (n * n)
    for idx in picks:
        c = Scalar(Fraction(rng.randint(-9, 9), rng.choice((1, 2))))
        if not c:
            continue
        for k, x in enumerate(basis[idx].entries):
            if x:
                acc[k] = acc[k] + c * x
    return Matrix(n, tuple(acc))


def basis_combination(kind, n, rng):
    """Σ cᵢ·Bᵢ over the outputs Bᵢ of `constructor_basis(kind, n)`.

    One coefficient cᵢ = a/b per output, in order, with a in −9..9 and
    b in {1, 2}; per output the draw order is randint, then choice.
    """
    acc = zeros(n)
    for b in constructor_basis(kind, n):
        acc = acc + b.scale(Scalar(Fraction(rng.randint(-9, 9), rng.choice((1, 2)))))
    return acc


def membership_inputs(n, rng):
    """Seeded inputs at size n for comparing `in_space` with `classify`.

    For each space and composite of the predicate table that exists at n: a
    member, the member shifted by c·E and by c·√2·E (which keeps every
    property but moves the weight and the total sum), and the member plus √2
    times a second member.  Then three dense √2 matrices, members of almost
    nothing.
    """
    for tag in list(SPACES) + list(COMPOSITES):
        if not exists(tag, n):
            continue
        m = space_member(tag, n, rng)
        c = Fraction(rng.randint(1, 9), rng.choice((1, 2, 3)))
        yield m
        yield m + all_ones(n).scale(c)
        yield m + all_ones(n).scale(SQRT2 * c)
        yield m + space_member(tag, n, rng).scale(SQRT2)
    for _ in range(3):
        yield Matrix(n, [Scalar(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(n * n)])


def classified(report, tag):
    """`classify`'s judgement of the space or composite `tag`.

    A composite is the intersection of its parts; VRAW, a space of property
    V with no total-sum rule, is the property itself.
    """
    if tag in COMPOSITES:
        return all(classified(report, part) for part in COMPOSITES[tag])
    return report.props["V"].holds if tag == "VRAW" else report.spaces[tag]


def verdicts_agree(e, a):
    """Two routes agree: the same `holds`, and the same weight where both give one."""
    if e.holds != a.holds:
        return False
    if e.holds and e.weight is not None and a.weight is not None:
        return e.weight == a.weight
    return True


# -- the early-exit routes with every sum formed first -------------------------


def eigen_pair_full(e, n, kind):
    """(M·y = Mᵀ·y = λ·y, λ) for the axis y of `kind`, every sum formed first."""
    y = INVOLUTIONS[kind].axis(n)
    my = [sum(map(mul, e[i * n:(i + 1) * n], y)) for i in range(n)]
    lam = my[0] * y[0]
    lam_y = [lam * c for c in y]
    return my == lam_y and [sum(map(mul, e[j::n], y)) for j in range(n)] == lam_y, lam


def reverse_full(e, n):
    """The entrywise R decision, every mirror-pair sum of every line formed first."""
    lines = [e[i * n:(i + 1) * n] for i in range(n)] + [e[j::n] for j in range(n)]
    holds = all(len({line[j] + line[-1 - j] for j in range(n)}) == 1 for line in lines)
    return holds, None, 1


def alternating_pairs_full(e, n):
    """The entrywise N decision, every alternating sum formed first."""
    sig = INVOLUTIONS["NM"].axis(n)
    cols = [sum(map(mul, e[j::n], sig)) for j in range(n)]
    rows = [sum(map(mul, e[j * n:(j + 1) * n], sig)) for j in range(n)]
    holds = all(s[j] + s[(j + 1) % n] == 0 for s in (cols, rows) for j in range(n))
    return holds, None, 1


def reflection_odd_full(e, n, y):
    """n²·½(M − K·M·K) for K = I − 2·y·yᵀ/n as a list, every sum formed first."""
    my = [sum(map(mul, e[i * n:(i + 1) * n], y)) for i in range(n)]
    mty = [sum(map(mul, e[j::n], y)) for j in range(n)]
    t = sum(map(mul, y, my))
    a = [n * c - t * yj for c, yj in zip(mty, y)]
    b = [n * c - t * yi for c, yi in zip(my, y)]
    return [yi * aj + bi * yj for yi, bi in zip(y, b) for aj, yj in zip(a, y)]


def mps_triple_product_check(gamma1, delta1, gamma2, delta2, gamma3, delta3, n):
    """(γ₁;δ₁)(γ₂;δ₂)(γ₃;δ₃) = n·((δ₂ᵀγ₃)γ₁; (δ₁ᵀγ₂)δ₃), exactly."""
    ms = [
        make_most_perfect(g, d, n)
        for g, d in ((gamma1, delta1), (gamma2, delta2), (gamma3, delta3))
    ]
    lhs = ms[0] @ ms[1] @ ms[2]
    sig = alternating(n)
    g1, d1, g2, d2, g3, d3 = map(Vector, (gamma1, delta1, gamma2, delta2, gamma3, delta3))
    rhs = g1.scale(d2.dot(g3) * n).outer(sig) + sig.outer(d3.scale(d1.dot(g2) * n))
    return lhs == rhs


def parasymmetry_check(gamma, delta, n):
    """M² is symmetric iff γ and δ are linearly dependent.

    Also asserts the closed form M² = n·γδᵀ + (δᵀγ)·ΣΣᵀ.
    """
    m = make_most_perfect(gamma, delta, n)
    g = Vector(gamma)
    d = Vector(delta)
    sig = alternating(n)
    m2 = m @ m
    closed = g.scale(as_scalar(n)).outer(d) + sig.scale(d.dot(g)).outer(sig)
    if m2 != closed:
        raise VerificationError("closed form for the squared most perfect square failed")
    symmetric = m2 == m2.transpose()
    dependent = rank_of_parts([integer_parts(v.entries)[:2] for v in (g, d)]) <= 1
    return symmetric == dependent


def r_complement_membership(m):
    """Membership in the proposed complement of the reverse space.

    Tests (1_n + u)ᵀ·M·(1_n + v) = 0 with u, v running over the −1
    eigenspace of the half-turn J, via the four homogeneous families on a
    basis (including u = v = 0).
    """
    n = m.n
    one = ones(n)
    # e_a − e_{n−1−a} for a < ν.
    basis = [Vector([(i == a) - (i == n - 1 - a) for i in range(n)]) for a in range(n // 2)]
    mt = m.transpose()
    return (
        one.dot(m.apply(one)).is_zero()
        and all(one.dot(m.apply(u)).is_zero() and one.dot(mt.apply(u)).is_zero() for u in basis)
        and all(v.dot(m.apply(u)).is_zero() for u in basis for v in basis)
    )


# -- every instance of the VRAW and MENTRY definitions ---------------------------


def rows_vertex_raw(n):
    """(e_i − e_k)ᵀ·M·(e_j − e_l) = 0 for i < k, j < l: every rectangle."""
    diffs = [[(i, 1), (k, -1)] for i in range(n) for k in range(i + 1, n)]
    return [V._row(n, (u, v)) for u in diffs for v in diffs]


def rows_array_sum_entrywise(n):
    """Every cyclic 2×2 sum less block (0, 0), then the alternating total."""
    blocks = V._adjacent(n)
    first = (V._neg(blocks[0]), blocks[0])
    return [
        V._row(n, (u, v), first)
        for a, u in enumerate(blocks)
        for b, v in enumerate(blocks)
        if a or b
    ] + [V._alt_total_row(n)]


@contextmanager
def reference_oracle():
    """The oracle with VRAW and MENTRY on the generators above.

    Clears the oracle's caches on entry and on exit, so that no system
    built on one set of generators is served under the other.
    """
    saved = dict(V._ATOMS)
    V._ATOMS.update(VRAW=((), rows_vertex_raw), MENTRY=((), rows_array_sum_entrywise))
    V._atom.cache_clear()
    V.build_constraints.cache_clear()
    try:
        yield
    finally:
        V._ATOMS.update(saved)
        V._atom.cache_clear()
        V.build_constraints.cache_clear()


# -- per-entry Scalar references for the array operations ----------------------


def ref_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def ref_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def ref_scale(c, a):
    return tuple(c * x for x in a)


def ref_dot(u, v):
    return sum((x * y for x, y in zip(u, v)), Scalar(0))


def ref_outer(u, v):
    return tuple(x * y for x in u for y in v)


def ref_row(a, n, i):
    return a[i * n : (i + 1) * n]


def ref_col(a, n, j):
    return a[j::n]


def ref_apply(a, n, v):
    return tuple(ref_dot(ref_row(a, n, i), v) for i in range(n))


def ref_matmul(a, b, n):
    return tuple(ref_dot(ref_row(a, n, i), ref_col(b, n, j)) for i in range(n) for j in range(n))
