import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from symalg.scalar import ONE, SQRT2, ZERO, Scalar, as_scalar, integer_parts

rationals = st.fractions(min_value=-10, max_value=10, max_denominator=12)
scalars = st.builds(Scalar, rationals, rationals)
nonzero_scalars = scalars.filter(bool)


def test_conjugate_product():
    assert Scalar(1, 1) * Scalar(1, -1) == Scalar(-1)


def test_sqrt2_squares_to_two():
    assert SQRT2 * SQRT2 == Scalar(2)


def test_division_by_one_plus_sqrt2():
    q = Scalar(1) / Scalar(1, 1)
    assert q == Scalar(-1, 1)
    assert q * Scalar(1, 1) == ONE


def test_components_in_lowest_terms():
    s = Scalar(Fraction(2, 4), Fraction(6, 9))
    assert s.a == Fraction(1, 2) and s.b == Fraction(2, 3)
    assert s.a.denominator > 0 and s.b.denominator > 0


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()
    with pytest.raises(ZeroDivisionError):
        Scalar(3) / Scalar(0)


def test_int_and_fraction_interop():
    assert Scalar(3) + 1 == 4
    assert 2 * SQRT2 == Scalar(0, 2)
    assert Scalar(1) / 2 == Fraction(1, 2)
    assert Fraction(1, 2) - Scalar(Fraction(1, 2)) == ZERO
    assert 1 / SQRT2 == Scalar(0, Fraction(1, 2))


def test_immutability_and_hash():
    s = Scalar(1, 2)
    for name in ("p", "q", "d", "extra"):
        with pytest.raises(AttributeError):
            setattr(s, name, 5)
    assert (s.p, s.q, s.d) == (1, 2, 1)
    assert hash(Scalar(2)) == hash(Fraction(2))
    assert len({Scalar(1, 1), Scalar(1, 1), Scalar(1)}) == 2


@given(scalars, scalars, scalars)
def test_field_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + y == y + x
    assert x * y == y * x
    assert x + ZERO == x
    assert x * ONE == x
    assert x + (-x) == ZERO


@given(nonzero_scalars)
def test_exact_inverse(x):
    assert x * x.inverse() == ONE
    assert ONE / x == x.inverse()


@given(scalars)
def test_zero_iff_both_components_zero(x):
    assert x.is_zero() == (x.a == 0 and x.b == 0)
    assert bool(x) != x.is_zero()


@given(nonzero_scalars)
def test_norm_never_vanishes(x):
    # p² − 2q² = 0 would make √2 rational.
    assert x.p * x.p != 2 * x.q * x.q


@given(scalars)
def test_conjugation_is_multiplicative_involution(x):
    assert x.conjugate().conjugate() == x
    assert (x * x.conjugate()).is_rational()


def test_as_scalar_rejects_junk():
    with pytest.raises(TypeError):
        as_scalar("1/2")
    with pytest.raises(TypeError):
        as_scalar(0.5)


def test_constructor_rejects_floats():
    # Scalar(0.1) would otherwise become 3602879701896397/36028797018963968.
    with pytest.raises(TypeError):
        Scalar(0.1)
    with pytest.raises(TypeError):
        Scalar(1, 0.5)


@given(scalars, scalars)
def test_subtraction_adds_the_negation(x, y):
    assert x - y == x + (-y)


def test_make_returns_the_canonical_triple():
    for triple, canonical in (
        ((6, -4, 1), (6, -4, 1)),  # d = 1: already canonical
        ((0, 0, 1), (0, 0, 1)),
        ((3, -1, -1), (-3, 1, 1)),  # d < 0: signs move to p and q
        ((4, 6, -2), (-2, -3, 1)),
        ((6, 9, 12), (2, 3, 4)),  # common factor 3
        ((0, 0, 5), (0, 0, 1)),
    ):
        s = Scalar._make(*triple)
        assert (s.p, s.q, s.d) == canonical


def test_reflected_subtraction_examples():
    s = Scalar(Fraction(3, 4), Fraction(-1, 6))
    assert 5 - s == Scalar(Fraction(17, 4), Fraction(1, 6))
    assert Fraction(1, 3) - s == Scalar(Fraction(-5, 12), Fraction(1, 6))
    with pytest.raises(TypeError):
        0.5 - s


@given(scalars, st.integers(-50, 50), rationals)
def test_reflected_subtraction_agrees_with_negated_subtraction(x, k, f):
    for other in (k, f):
        got = other - x
        assert got == -(x - other) == as_scalar(other) - x
        assert got.d > 0 and gcd(got.p, got.q, got.d) == 1


def test_reflected_division_by_a_scalar():
    s = Scalar(1, 1)
    assert 2 / s == Scalar(-2, 2)  # 2/(1 + √2) = 2(√2 − 1)
    assert Fraction(1, 2) / Scalar(2) == Scalar(Fraction(1, 4))
    with pytest.raises(TypeError, match="float"):
        0.5 / Scalar(1)


def test_integer_parts_round_trip_over_the_common_denominator():
    rng = random.Random(13)
    for t in range(200):
        k = rng.randint(1, 40)
        with_sqrt2 = t % 2 == 0
        xs = [
            Scalar(
                Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 4, 6, 7))),
                Fraction(rng.randint(-9, 9), rng.choice((1, 3, 5))) if with_sqrt2 else 0,
            )
            for _ in range(k)
        ]
        P, Q, D = integer_parts(xs)
        assert D > 0 and all(D % x.d == 0 for x in xs)
        assert (Q is None) == all(x.is_rational() for x in xs)
        for k, x in enumerate(xs):
            assert Scalar._make(P[k], 0 if Q is None else Q[k], D) == x
    assert integer_parts([Scalar(1), Scalar(-2)]) == ([1, -2], None, 1)
    assert integer_parts([Scalar(Fraction(1, 2), 1), Scalar(0, Fraction(1, 3))]) == (
        [3, 0], [6, 2], 6
    )
