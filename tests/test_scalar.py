from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from symalg.scalar import INV_SQRT2, ONE, SQRT2, ZERO, Scalar, as_scalar

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
    assert 1 / SQRT2 == INV_SQRT2


def test_immutability_and_hash():
    s = Scalar(1, 2)
    with pytest.raises(AttributeError):
        s.p = 5
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
