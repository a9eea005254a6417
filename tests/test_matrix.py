import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, strategies as st

from symalg.errors import DimensionError
from symalg.matrix import (
    Matrix,
    Vector,
    all_ones,
    alternating,
    block_involution,
    exchange,
    identity,
    ones,
    rank,
    zeros,
)
from symalg.scalar import SQRT2, ZERO, Scalar

from references import (
    ref_add,
    ref_apply,
    ref_col,
    ref_dot,
    ref_matmul,
    ref_outer,
    ref_row,
    ref_scale,
    ref_sub,
)


def rand_matrix(n, rng):
    return Matrix(n, tuple(Scalar(rng.randint(-9, 9)) for _ in range(n * n)))


def test_special_matrices():
    assert all_ones(2) == Matrix.from_rows([[1, 1], [1, 1]])
    assert exchange(3) == Matrix.from_rows(
        [[0, 0, 1], [0, 1, 0], [1, 0, 0]]
    )
    assert identity(2) == Matrix.from_rows([[1, 0], [0, 1]])
    assert zeros(2).is_zero()
    half = Fraction(1, 2)
    assert block_involution(2) == Matrix.from_rows(
        [[Scalar(0, half), Scalar(0, half)], [Scalar(0, half), Scalar(0, -half)]]
    )
    with pytest.raises(DimensionError):
        all_ones(0)


def test_special_vectors():
    assert alternating(4) == Vector([1, -1, 1, -1])
    assert alternating(3) == Vector([1, -1, 1])
    assert ones(2) == Vector([1, 1])
    # Σ ⟂ 1 exactly for even length.
    for n in range(1, 8):
        d = alternating(n).dot(ones(n))
        assert d.is_zero() == (n % 2 == 0)
    for make in (ones, alternating):
        with pytest.raises(DimensionError, match="dimension must be positive, got 0"):
            make(0)


def test_involution_x_every_parity():
    for n in range(1, 11):
        x = block_involution(n)
        assert x == x.transpose()
        assert x @ x == identity(n)
    assert block_involution(1) == identity(1)


def test_matmul_examples():
    x2 = block_involution(2)
    assert x2 @ x2 == identity(2)
    j3 = exchange(3)
    assert j3 @ j3 == identity(3)
    e2 = all_ones(2)
    assert e2 @ e2 == e2.scale(2)


def test_matvec_and_outer():
    m = Matrix.from_rows([[1, 2], [3, 4]])
    assert m.apply(Vector([1, 1])) == Vector([3, 7])
    assert Vector([1, 2]).outer(Vector([3, 4])) == Matrix.from_rows([[3, 4], [6, 8]])


def test_dimension_mismatch():
    with pytest.raises(DimensionError):
        all_ones(2) @ all_ones(3)
    with pytest.raises(DimensionError):
        all_ones(2) + all_ones(3)
    with pytest.raises(DimensionError):
        Matrix.from_rows([[1, 2], [3]])


def test_length_and_part_mismatches():
    with pytest.raises(DimensionError, match="matrix is 2×2, vector has length 3"):
        all_ones(2).apply(ones(3))
    with pytest.raises(DimensionError, match="matrix is 2×2, vector has length 3"):
        all_ones(2) @ ones(3)
    with pytest.raises(DimensionError, match="expected 4 √2 parts, got 3"):
        Matrix.from_parts(2, [1, 2, 3, 4], [1, 2, 3], 1)
    with pytest.raises(ZeroDivisionError, match="matrix denominator is zero"):
        Matrix.from_parts(2, [1, 2, 3, 4], None, 0)
    with pytest.raises(ZeroDivisionError, match="vector denominator is zero"):
        Vector.from_parts(2, [1, 2], [0, 1], 0)
    with pytest.raises(DimensionError, match="expected 4 entries, got 3"):
        Matrix(2, [1, 2, 3])
    with pytest.raises(DimensionError, match="expected 3 entries, got 2"):
        Vector.from_parts(3, [1, 2], None, 1)


def test_repr_shows_sqrt2_entries():
    assert repr(Vector([1, SQRT2])) == "Vector([1, 1*sqrt2])"
    m = Matrix(2, [1, SQRT2, Scalar(Fraction(1, 3), Fraction(2, 3)), 0])
    assert repr(m) == "Matrix(2: [1, 1*sqrt2; 1/3+2/3*sqrt2, 0])"


def test_rank_examples():
    assert rank(all_ones(4)) == 1
    assert rank(identity(3)) == 3
    # Rank-2 sum of two rank-1 terms built from independent admissible
    # vectors; expected value fixed by hand elimination on the 4×4 case.
    sig = alternating(4)
    gamma = Vector([1, 0, -1, 0])
    delta = Vector([0, 1, 0, -1])
    m = gamma.outer(sig) + sig.outer(delta)
    assert rank(m) == 2


def test_rank_of_transpose_and_double_transpose():
    rng = random.Random(11)
    for n in (2, 3, 5):
        m = rand_matrix(n, rng)
        assert m.transpose().transpose() == m
        assert rank(m) == rank(m.transpose())


def test_entries_are_exact_sqrt2_values():
    x3 = block_involution(3)
    assert x3[0, 0] == SQRT2 / 2
    assert x3[1, 1] == Scalar(1)
    assert x3[2, 2] == -SQRT2 / 2


# Entries with √2 parts and mixed denominators; zero often, so the sums
# skip terms.
_rationals = st.fractions(min_value=-6, max_value=6, max_denominator=6)
_entries = st.one_of(st.just(ZERO), st.builds(Scalar, _rationals, _rationals))


@st.composite
def _vector_entries(draw, n=None):
    # Lengths 0..6 unless given; length 0 is the vector at ν = 0 (n = 1).
    n = draw(st.integers(0, 6)) if n is None else n
    return tuple(draw(st.lists(_entries, min_size=n, max_size=n)))


@st.composite
def _matrix_and_vector(draw):
    n = draw(st.integers(1, 5))
    m = Matrix(n, tuple(draw(st.lists(_entries, min_size=n * n, max_size=n * n))))
    v = Vector(draw(_vector_entries(n)))
    return m, v


@given(_matrix_and_vector())
def test_apply_matches_scalar_sums_and_matmul(mv):
    m, v = mv
    n = m.n
    got = list(m.apply(v))
    naive = [sum((m[i, j] * v[j] for j in range(n)), ZERO) for i in range(n)]
    assert got == naive
    # v as column 0 of an otherwise zero matrix.
    c = Matrix(n, tuple(v[i] if j == 0 else ZERO for i in range(n) for j in range(n)))
    assert got == list((m @ c).col(0))
    assert m.row(0).dot(v) == naive[0]
    for x in got:
        assert x.d > 0 and gcd(x.p, x.q, x.d) == 1


# -- the canonical parts (P + Q·√2)/D ------------------------------------------
#
# Each operation is checked against the per-entry Scalar references of
# `references`, on tuples of Scalars in row-major order.


def _ref_transpose(a, n):
    return tuple(a[j * n + i] for i in range(n) for j in range(n))


@st.composite
def _entry_lists(draw, n=None):
    n = draw(st.integers(1, 5)) if n is None else n
    return n, tuple(draw(st.lists(_entries, min_size=n * n, max_size=n * n)))


@st.composite
def _two_entry_lists(draw):
    n, a = draw(_entry_lists())
    return n, a, draw(_entry_lists(n))[1]


@given(_entry_lists())
def test_parts_are_canonical_and_give_the_entries_back(case):
    n, xs = case
    m = Matrix(n, xs)
    assert m.entries == xs
    assert isinstance(m.P, tuple) and (m.Q is None or isinstance(m.Q, tuple))
    assert m.D > 0 and gcd(m.D, *m.P, *(m.Q or ())) == 1
    assert m.D == lcm(*(x.d for x in xs))
    assert (m.Q is None) == all(x.is_rational() for x in xs)


@given(_entry_lists(), st.integers(1, 50))
def test_from_parts_of_scaled_parts_is_the_same_matrix(case, k):
    n, xs = case
    m = Matrix(n, xs)
    Q = None if m.Q is None else [k * x for x in m.Q]
    scaled = Matrix.from_parts(n, [k * x for x in m.P], Q, k * m.D)
    assert scaled == m and hash(scaled) == hash(m)
    assert (scaled.P, scaled.Q, scaled.D) == (m.P, m.Q, m.D)
    negated = Matrix.from_parts(n, [-k * x for x in m.P], Q and [-x for x in Q], -k * m.D)
    assert negated == m


_int_parts = st.integers(1, 5).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.integers(-9, 9), min_size=n * n, max_size=n * n))
)


@given(_int_parts, st.integers(1, 6))
def test_an_all_zero_sqrt2_part_becomes_none(case, D):
    n, P = case
    m = Matrix.from_parts(n, P, [0] * (n * n), D)
    assert m.Q is None
    assert m == Matrix.from_parts(n, P, None, D)


@given(_two_entry_lists(), _entries)
def test_operations_match_the_scalar_reference(case, c):
    n, a, b = case
    ma, mb = Matrix(n, a), Matrix(n, b)
    assert (ma + mb).entries == ref_add(a, b)
    assert (ma - mb).entries == ref_sub(a, b)
    assert (-ma).entries == tuple(-x for x in a)
    assert ma.scale(c).entries == ref_scale(c, a)
    assert (ma @ mb).entries == ref_matmul(a, b, n)
    assert ma.transpose().entries == _ref_transpose(a, n)
    assert ma.total_sum() == sum(a, ZERO)
    assert ma.is_zero() == all(x.is_zero() for x in a)
    assert (ma - ma).is_zero()
    for i in range(n):
        for j in range(n):
            assert ma[i, j] == a[i * n + j]


def _assert_canonical(x):
    # The parts of a Vector or Matrix are its one canonical form.
    assert isinstance(x.P, tuple) and (x.Q is None or isinstance(x.Q, tuple))
    assert x.D > 0 and gcd(x.D, *x.P, *(x.Q or ())) == 1
    assert (x.Q is None) == all(e.is_rational() for e in x.entries)


@st.composite
def _two_vectors(draw):
    u = draw(_vector_entries())
    return u, draw(_vector_entries(len(u)))


@given(_two_vectors(), _entries)
def test_vector_operations_match_the_scalar_reference(case, c):
    a, b = case
    u, v = Vector(a), Vector(b)
    assert u.entries == a and len(u) == len(a) and list(u) == list(a)
    assert [u[i] for i in range(-len(a), len(a))] == list(a + a) and u[1::2] == a[1::2]
    results = [u + v, u - v, -u, u.scale(c)]
    want = [ref_add(a, b), ref_sub(a, b), tuple(-x for x in a), ref_scale(c, a)]
    for got, ref in zip(results, want):
        assert got.entries == ref
        _assert_canonical(got)
    _assert_canonical(u)
    assert u.dot(v) == ref_dot(a, b)
    assert u.is_zero() == all(x.is_zero() for x in a)
    if a:
        outer = u.outer(v)
        assert outer.entries == ref_outer(a, b)
        _assert_canonical(outer)
    else:
        with pytest.raises(DimensionError):
            u.outer(v)


@given(_entry_lists(), st.data())
def test_apply_row_and_col_match_the_scalar_reference(case, data):
    n, a = case
    m = Matrix(n, a)
    x = data.draw(_vector_entries(n))
    got = m.apply(Vector(x))
    assert got.entries == ref_apply(a, n, x)
    _assert_canonical(got)
    for i in range(n):
        for view, ref in ((m.row(i), ref_row(a, n, i)), (m.col(i), ref_col(a, n, i))):
            assert isinstance(view, Vector) and view.entries == ref
            _assert_canonical(view)



def test_matrix_indices_run_from_minus_n_to_n_as_a_vectors_do():
    m = Matrix.from_rows([[1, 2], [3, 4]])
    assert m[0, -1] == Scalar(2) and m[-1, -2] == Scalar(3) and m[1, 1] == Scalar(4)
    assert m.row(-1) == Vector([3, 4]) and m.col(-1) == Vector([2, 4])
    for i in (2, -3):
        with pytest.raises(IndexError, match="out of range for n = 2"):
            m[0, i]
        with pytest.raises(IndexError, match="out of range for n = 2"):
            m[i, 0]
        with pytest.raises(IndexError, match="out of range for n = 2"):
            m.row(i)
        with pytest.raises(IndexError, match="out of range for n = 2"):
            m.col(i)

@given(st.lists(_rationals, max_size=6))
def test_equal_vectors_from_ints_fractions_and_scalars_hash_alike(xs):
    exact = [int(x) if x.denominator == 1 else x for x in xs]
    built = [Vector(exact), Vector(xs), Vector(Scalar(x) for x in xs)]
    for v in built:
        _assert_canonical(v)
        assert v == built[0] and hash(v) == hash(built[0])


def test_a_vector_never_equals_a_matrix_with_the_same_parts():
    v, m = Vector([1, 2, 3, 4]), Matrix(2, (1, 2, 3, 4))
    assert (v.P, v.Q, v.D) == (m.P, m.Q, m.D)
    assert v != m and m != v
    assert Vector([SQRT2]) != Matrix(1, (SQRT2,))


def test_a_vector_and_a_matrix_never_add():
    v, m = Vector([1, 2]), Matrix(2, (1, 2, 3, 4))
    for a, b in ((v, m), (m, v)):
        with pytest.raises(TypeError, match=f"^cannot combine {type(a).__name__} and "):
            a + b
        with pytest.raises(TypeError, match=f"^cannot combine {type(a).__name__} and "):
            a - b


def test_arrays_are_immutable():
    v, m = Vector([1, 2]), identity(2)
    with pytest.raises(AttributeError, match="^Vector is immutable$"):
        v.n = 3
    with pytest.raises(AttributeError, match="^Vector is immutable$"):
        v.P = (0, 0)
    with pytest.raises(AttributeError, match="^Matrix is immutable$"):
        m.D = 2
    with pytest.raises(AttributeError):
        v.extra = 1
    assert v == Vector([1, 2]) and m == identity(2)


def test_an_empty_vector_is_the_zero_of_length_zero():
    e = Vector([])
    assert e.n == 0 and (e.P, e.Q, e.D) == ((), None, 1)
    assert e.is_zero() and e.dot(e) == ZERO and e + e == e
    assert Vector.from_parts(0, [], None, 1) == e
    with pytest.raises(DimensionError, match="vector lengths differ: 0 vs 1"):
        e + Vector([1])
    with pytest.raises(DimensionError, match="matrix dimensions differ: 1 vs 2"):
        identity(1) - identity(2)


def test_entries_are_coerced_and_floats_are_refused():
    m = Matrix(2, (1, Fraction(5, 2), Scalar(0, 1), 4))
    assert m.entries == (Scalar(1), Scalar(Fraction(5, 2)), SQRT2, Scalar(4))
    assert m == Matrix.from_rows([[1, Fraction(5, 2)], [SQRT2, 4]])
    with pytest.raises(TypeError):
        Matrix(2, (1, 2.5, 3, 4))
    with pytest.raises(TypeError):
        Matrix.from_rows([[1, 2], [3, 4.0]])


# -- no Scalar per entry -------------------------------------------------------


@pytest.fixture
def scalar_builds(monkeypatch):
    """A counter of the Scalars built, by `Scalar._make` or `Scalar(...)`."""
    count = [0]
    make, init = Scalar._make.__func__, Scalar.__init__

    def counted_make(cls, p, q, d):
        count[0] += 1
        return make(cls, p, q, d)

    def counted_init(self, *args):
        count[0] += 1
        init(self, *args)

    monkeypatch.setattr(Scalar, "_make", classmethod(counted_make))
    monkeypatch.setattr(Scalar, "__init__", counted_init)
    return count


def _dense_sqrt2(n):
    # Every entry has a nonzero √2 part, and the denominators differ.
    rng = random.Random(n)
    a = [Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(n * n)]
    b = [Fraction(rng.randint(1, 9), rng.randint(1, 3)) for _ in range(n * n)]
    return Matrix(n, tuple(Scalar(x, y) for x, y in zip(a, b)))


def test_splits_blocks_and_io_build_no_scalar_per_entry(scalar_builds):
    from symalg import blockform, decompose
    from symalg import io as mio

    m = _dense_sqrt2(12)
    text = mio.dumps_matrix(m)
    for kind in ("BA", "SV", "NM", "QP"):
        scalar_builds[0] = 0
        pair = decompose.split(m, kind)
        # The SV weight is the one Scalar a split builds.
        assert scalar_builds[0] == (kind == "SV"), kind
        assert pair.even_part.Q is not None
    scalar_builds[0] = 0
    block = blockform.to_block(m)
    assert scalar_builds[0] == 0
    assert mio.loads_matrix(text) == m
    assert mio.dumps_matrix(block.conjugate)
    assert scalar_builds[0] == 0


def test_a_grading_law_builds_no_scalar_per_entry(scalar_builds):
    from symalg.verify import grading_certificate

    cert = grading_certificate("R", 6)  # one law: R·R ⊂ R
    assert cert.ok
    assert scalar_builds[0] == 0
