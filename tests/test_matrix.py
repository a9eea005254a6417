import random
from fractions import Fraction
from math import gcd

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
    nullspace_dim,
    ones,
    rank,
    special_matrix,
    special_vector,
    zeros,
)
from symalg.scalar import SQRT2, ZERO, Scalar


def rand_matrix(n, rng):
    return Matrix(n, tuple(Scalar(rng.randint(-9, 9)) for _ in range(n * n)))


def test_special_matrices():
    assert special_matrix("E", 2) == Matrix.from_rows([[1, 1], [1, 1]])
    assert special_matrix("J", 3) == Matrix.from_rows(
        [[0, 0, 1], [0, 1, 0], [1, 0, 0]]
    )
    assert special_matrix("I", 2) == Matrix.from_rows([[1, 0], [0, 1]])
    assert special_matrix("O", 2).is_zero()
    half = Fraction(1, 2)
    assert special_matrix("X", 2) == Matrix.from_rows(
        [[Scalar(0, half), Scalar(0, half)], [Scalar(0, half), Scalar(0, -half)]]
    )
    with pytest.raises(ValueError):
        special_matrix("Z", 2)
    with pytest.raises(DimensionError):
        special_matrix("E", 0)


def test_special_vectors():
    assert special_vector("sigma", 4) == Vector([1, -1, 1, -1])
    assert special_vector("sigma", 3) == Vector([1, -1, 1])
    assert special_vector("ones", 2) == Vector([1, 1])
    assert special_vector("zeros", 3).is_zero()
    # Σ ⟂ 1 exactly for even length.
    for n in range(1, 8):
        d = alternating(n).dot(ones(n))
        assert d.is_zero() == (n % 2 == 0)


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


def test_rank_examples():
    assert rank(all_ones(4)) == 1
    assert rank(identity(3)) == 3
    assert nullspace_dim(all_ones(4)) == 3
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
def _matrix_and_vector(draw):
    n = draw(st.integers(1, 5))
    m = Matrix(n, tuple(draw(st.lists(_entries, min_size=n * n, max_size=n * n))))
    v = Vector(draw(st.lists(_entries, min_size=n, max_size=n)))
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
