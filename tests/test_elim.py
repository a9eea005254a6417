from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from symalg.elim import (
    Echelon,
    _integer_rref,
    echelon_of,
    integer_nullspace,
    nullspace_of_rows,
    rank_of_rows,
)
from symalg.scalar import ONE, ZERO, Scalar


def S(x):
    return Scalar(x)


def test_rank_and_nullspace_of_simple_system():
    rows = [
        [S(1), S(2), S(3)],
        [S(2), S(4), S(6)],
        [S(0), S(1), S(1)],
    ]
    assert rank_of_rows(rows) == 2
    basis = nullspace_of_rows(rows, 3)
    assert len(basis) == 1
    for row in rows:
        acc = ZERO
        for c, x in zip(row, basis[0]):
            acc = acc + c * x
        assert acc.is_zero()


def test_nullspace_of_empty_system_is_everything():
    basis = nullspace_of_rows([], 3)
    assert len(basis) == 3


def test_echelon_span_membership():
    ech = echelon_of([[S(1), S(0), S(1)], [S(0), S(1), S(1)]])
    assert ech.contains([S(2), S(3), S(5)])
    assert not ech.contains([S(0), S(0), S(1)])
    assert ech.rank == 2


def test_echelon_rejects_dependent_rows():
    ech = Echelon()
    assert ech.add([ONE, ONE])
    assert not ech.add([S(2), S(2)])
    assert ech.rank == 1


def test_exact_sqrt2_pivoting():
    # Rows proportional over Q(√2) but not over Q must still collapse.
    rows = [[Scalar(0, 1), S(2)], [S(2), Scalar(0, 2)]]
    assert rank_of_rows(rows) == 1


# -- properties on random small systems, sparse and dense --------------------

ENTRIES = st.builds(Scalar, st.integers(-3, 3), st.integers(-2, 2))
RATIONALS = st.builds(Scalar, st.fractions(min_value=-4, max_value=4, max_denominator=3))


@st.composite
def systems(draw, entries=ENTRIES):
    width = draw(st.integers(1, 6))
    if draw(st.booleans()):  # sparse: mostly zeros
        entries = st.one_of(st.just(ZERO), st.just(ZERO), entries)
    rows = draw(st.lists(st.lists(entries, min_size=width, max_size=width), max_size=7))
    return rows, width


def _sparse(row):
    return {j: x for j, x in enumerate(row) if x}


def _dot(row, vec):
    acc = ZERO
    for c, x in zip(row, vec):
        acc = acc + c * x
    return acc


@settings(max_examples=150, deadline=None)
@given(systems())
def test_dense_and_sparse_rows_give_one_echelon_form(system):
    rows, width = system
    dense = echelon_of(rows)
    sparse = echelon_of([_sparse(r) for r in rows])
    assert dense.pivots == sparse.pivots
    assert dense.rows == sparse.rows
    assert nullspace_of_rows(rows, width) == nullspace_of_rows([_sparse(r) for r in rows], width)


@settings(max_examples=150, deadline=None)
@given(systems())
def test_rank_nullity_annihilation_and_membership(system):
    rows, width = system
    basis = nullspace_of_rows(rows, width)
    ech = echelon_of(rows)
    assert ech.rank + len(basis) == width
    # Each pivot is the leftmost nonzero of its row, normalized to 1.
    assert all(min(ech.rows[i]) == col and ech.rows[i][col] == ONE for col, i in ech.pivots.items())
    for vec in basis:
        assert all(_dot(row, vec).is_zero() for row in rows)
    assert all(ech.contains(row) and ech.contains(_sparse(row)) for row in rows)


@settings(max_examples=100, deadline=None)
@given(systems(RATIONALS))
def test_rational_rank_matches_sympy(system):
    pytest.importorskip("sympy")
    from sympy.polys.domains import QQ
    from sympy.polys.matrices import DomainMatrix

    rows, width = system
    if not rows:
        return
    entries = [[QQ(x.p, x.d) for x in row] for row in rows]
    assert rank_of_rows(rows) == DomainMatrix(entries, (len(rows), width), QQ).rank()


# -- the integer kernel against the Q(√2) one ------------------------------

@st.composite
def integer_systems(draw):
    width = draw(st.integers(1, 7))
    entries = st.integers(-6, 6)
    if draw(st.booleans()):  # sparse: mostly zeros
        entries = st.one_of(st.just(0), st.just(0), entries)
    rows = draw(st.lists(st.lists(entries, min_size=width, max_size=width), max_size=8))
    return [_sparse(r) for r in rows], width


def _dense_fractions(den, entries, width):
    vec = [Fraction(0)] * width
    for k, num in entries:
        vec[k] = Fraction(num, den)
    return vec


@settings(max_examples=200, deadline=None)
@given(integer_systems())
def test_integer_nullspace_matches_the_scalar_kernel(system):
    rows, width = system
    basis = integer_nullspace(rows, width)
    want = [[Fraction(x.p, x.d) for x in vec] for vec in nullspace_of_rows(rows, width)]
    assert [_dense_fractions(den, e, width) for den, e in basis] == want
    for den, entries in basis:
        assert den > 0 and gcd(den, *(num for _, num in entries)) == 1
        assert [k for k, _ in entries] == sorted(k for k, num in entries if num)
        vec = dict(entries)
        assert all(sum(c * vec.get(j, 0) for j, c in row.items()) == 0 for row in rows)
    pivots = _integer_rref(rows)
    for col, row in pivots.items():
        assert min(row) == col and row[col] > 0 and gcd(*row.values()) == 1
        assert all(other not in row for other in pivots if other != col)
