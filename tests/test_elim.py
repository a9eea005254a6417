from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings, strategies as st

from symalg.elim import (
    _combine,
    _primitive,
    integer_rref,
    nullspace_of_rref,
    rank_of_parts,
)
from symalg.scalar import ZERO, Scalar, integer_parts


def S(x):
    return Scalar(x)


def _rank(rows):
    # Rank over Q(√2) of rows of Scalars, read as their integer parts.
    return rank_of_parts([integer_parts(row)[:2] for row in rows])


def test_rank_and_nullspace_of_simple_system():
    rows = [{0: 1, 1: 2, 2: 3}, {0: 2, 1: 4, 2: 6}, {1: 1, 2: 1}]
    assert _rank([_dense(r, 3) for r in rows]) == 2
    basis = nullspace_of_rref(integer_rref(rows), 3)
    assert len(basis) == 1
    vec = dict(basis[0][1])
    for row in rows:
        assert sum(c * vec.get(j, 0) for j, c in row.items()) == 0


def test_nullspace_of_empty_system_is_everything():
    basis = nullspace_of_rref(integer_rref([]), 3)
    assert len(basis) == 3


def test_exact_sqrt2_pivoting():
    # Rows proportional over Q(√2) but not over Q must still collapse.
    rows = [[Scalar(0, 1), S(2)], [S(2), Scalar(0, 2)]]
    assert _rank(rows) == 1
    # The same with a denominator per entry: √2·(√2/2, 1/3) = (1, √2/3).
    half, third = Fraction(1, 2), Fraction(1, 3)
    assert _rank([[Scalar(0, half), S(third)], [S(1), Scalar(0, third)]]) == 1
    assert _rank([[S(half), S(third)], [S(3), S(2)]]) == 1
    assert _rank([[S(half), S(third)], [S(1), S(1)]]) == 2


# -- rank over Q(√2) on random small systems, sparse and dense --------------

ENTRIES = st.builds(Scalar, st.fractions(min_value=-3, max_value=3, max_denominator=3),
                    st.fractions(min_value=-2, max_value=2, max_denominator=3))
RATIONALS = st.builds(Scalar, st.fractions(min_value=-4, max_value=4, max_denominator=3))


@st.composite
def systems(draw, entries=ENTRIES):
    width = draw(st.integers(1, 6))
    if draw(st.booleans()):  # sparse: mostly zeros
        entries = st.one_of(st.just(ZERO), st.just(ZERO), entries)
    rows = draw(st.lists(st.lists(entries, min_size=width, max_size=width), max_size=7))
    if rows and draw(st.booleans()):  # a dependent row c·r_i + r_j
        i, j = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(rows) - 1))
        c = draw(entries)
        rows.append([c * x + y for x, y in zip(rows[i], rows[j])])
    return rows, width


def _sparse(row):
    return {j: x for j, x in enumerate(row) if x}


def _dense(row, width):
    return [Scalar(row.get(j, 0)) for j in range(width)]


@settings(max_examples=100, deadline=None)
@given(systems(RATIONALS))
def test_rational_rank_matches_sympy(system):
    pytest.importorskip("sympy")
    from sympy.polys.domains import QQ
    from sympy.polys.matrices import DomainMatrix

    rows, width = system
    if not rows:
        return
    parts = [integer_parts(row)[:2] for row in rows]
    assert all(Q is None for _, Q in parts)
    entries = [[QQ(x.p, x.d) for x in row] for row in rows]
    want = DomainMatrix(entries, (len(rows), width), QQ).rank()
    assert rank_of_parts(parts) == _embedded_rank(parts) == want


def _embedded_rank(parts):
    # The reference for rational rows: each (P + Q·√2)/D embedded as the
    # integer rows (P | Q) and (2Q | P), half their Q-rank.
    embedded = []
    for P, Q in parts:
        Q = Q or [0] * len(P)
        embedded.append(dict(enumerate(P + Q)))
        embedded.append(dict(enumerate([2 * q for q in Q] + P)))
    return len(integer_rref(embedded)) // 2


@settings(max_examples=100, deadline=None)
@given(systems())
def test_sqrt2_rank_matches_sympy(system):
    pytest.importorskip("sympy")
    from sympy import sqrt
    from sympy.polys.domains import QQ
    from sympy.polys.matrices import DomainMatrix

    rows, width = system
    field = QQ.algebraic_field(sqrt(2))
    # An element of the field from its coefficients, of √2 first, then of 1.
    entries = [[field([QQ(x.q, x.d), QQ(x.p, x.d)]) for x in row] for row in rows]
    want = DomainMatrix(entries, (len(rows), width), field).rank() if rows else 0
    assert _rank(rows) == want


# -- the integer kernel -------------------------------------------------------

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
def test_integer_nullspace_matches_sympy(system):
    pytest.importorskip("sympy")
    from sympy.polys.domains import QQ
    from sympy.polys.matrices import DomainMatrix

    rows, width = system
    basis = nullspace_of_rref(integer_rref(rows), width)
    dense = [[QQ(row.get(j, 0)) for j in range(width)] for row in rows]
    null = DomainMatrix(dense, (len(rows), width), QQ).nullspace().to_list()
    want = [[Fraction(int(x.numerator), int(x.denominator)) for x in vec] for vec in null]
    assert [_dense_fractions(den, e, width) for den, e in basis] == want
    for den, entries in basis:
        assert den > 0 and gcd(den, *(num for _, num in entries)) == 1
        assert [k for k, _ in entries] == sorted(k for k, num in entries if num)
        vec = dict(entries)
        assert all(sum(c * vec.get(j, 0) for j, c in row.items()) == 0 for row in rows)
    pivots = integer_rref(rows)
    for col, row in pivots.items():
        assert min(row) == col and row[col] > 0 and gcd(*row.values()) == 1
        assert all(other not in row for other in pivots if other != col)


@settings(max_examples=150, deadline=None)
@given(integer_systems(), st.integers(0, 8))
def test_rref_of_stacked_rows_is_the_rref_of_the_parts_pivot_rows(system, cut):
    # The RREF depends only on the row space, so a stack of rows may be
    # reduced from its parts' pivot rows, entry for entry.
    rows, width = system
    parts = [integer_rref(rows[:cut]), integer_rref(rows[cut:])]
    stacked = integer_rref([row for pivots in parts for row in pivots.values()])
    assert stacked == integer_rref(rows)
    assert nullspace_of_rref(stacked, width) == nullspace_of_rref(integer_rref(rows), width)


def _rref_scanning_every_row(rows, start=None):
    # `integer_rref` with the back-substitution into every pivot row, not
    # only into the rows that lead left of the new lead.
    pivots = {col: dict(row) for col, row in (start or {}).items()}
    for row in sorted(filter(None, rows), key=min, reverse=True):
        row = {j: x for j, x in row.items() if x}
        for col in [c for c in row if c in pivots]:
            row = _combine(row, pivots[col], col)
        if not row:
            continue
        lead = min(row)
        row = _primitive(row, lead)
        for col, other in pivots.items():
            if lead in other:
                pivots[col] = _primitive(_combine(other, row, lead), col)
        pivots[lead] = row
    return pivots


@settings(max_examples=150, deadline=None)
@given(integer_systems(), st.integers(0, 8))
@example(([{1: 1, 2: 1}, {2: 1}], 3), 1)  # back-substitutes into a start row
def test_back_substitution_into_the_rows_left_of_the_lead_only(system, cut):
    # The pivots come out as with a scan of every pivot row: the same rows,
    # each with its entries in the same order, in the same insertion order.
    rows, _ = system
    for start in (None, integer_rref(rows[:cut])):
        got = integer_rref(rows[cut:] if start else rows, start=start)
        want = _rref_scanning_every_row(rows[cut:] if start else rows, start=start)
        assert [(col, list(row.items())) for col, row in got.items()] == [
            (col, list(row.items())) for col, row in want.items()
        ]


@settings(max_examples=150, deadline=None)
@given(integer_systems(), st.randoms(use_true_random=False))
def test_rref_does_not_depend_on_the_row_order(system, rnd):
    rows, _ = system
    shuffled = list(rows)
    rnd.shuffle(shuffled)
    assert integer_rref(shuffled) == integer_rref(rows)


@settings(max_examples=150, deadline=None)
@given(integer_systems(), st.integers(0, 8))
@example(([{1: 1, 2: 1}, {2: 1}], 3), 1)  # back-substitutes into a start row
def test_rref_from_a_start_is_the_rref_of_the_stack(system, cut):
    # Rows added to the RREF of a part give the RREF of the whole stack,
    # and the start, rows and all, is left as it was.
    rows, _ = system
    start = integer_rref(rows[:cut])
    snapshot = {col: dict(row) for col, row in start.items()}
    assert integer_rref(rows[cut:], start=start) == integer_rref(rows)
    assert start == snapshot


@settings(max_examples=150, deadline=None)
@given(integer_systems())
def test_rank_nullity_annihilation_and_membership(system):
    rows, width = system
    dense = [_dense(row, width) for row in rows]
    basis = nullspace_of_rref(integer_rref(rows), width)
    rank = _rank(dense)
    assert rank + len(basis) == width
    assert rank == len(integer_rref(rows))
    for den, entries in basis:
        vec = dict(entries)
        assert all(sum(c * vec.get(j, 0) for j, c in row.items()) == 0 for row in rows)
    # A row already in the span leaves the rank as it was.
    assert all(_rank(dense + [row]) == rank for row in dense)


def test_span_membership_and_dependent_rows():
    rows = [[S(1), S(0), S(1)], [S(0), S(1), S(1)]]
    assert _rank(rows) == 2
    assert _rank(rows + [[S(2), S(3), S(5)]]) == 2
    assert _rank(rows + [[S(0), S(0), S(1)]]) == 3
    assert _rank([[S(1), S(1)], [S(2), S(2)]]) == 1
    # √2 times a row is in its Q(√2)-span.
    assert _rank([[S(1), Scalar(0, 1)], [Scalar(0, 1), S(2)]]) == 1
