import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from symalg import io as mio
from symalg.errors import ParseError
from symalg.matrix import Matrix, all_ones, block_involution
from symalg.scalar import Scalar

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=16)
scalars = st.builds(Scalar, rationals, rationals)


@given(scalars)
def test_scalar_string_round_trip(s):
    assert mio.scalar_from_string(mio.scalar_to_string(s)) == s


def test_scalar_literals():
    assert mio.scalar_from_string("3") == Scalar(3)
    assert mio.scalar_from_string("-3/2") == Scalar(Fraction(-3, 2))
    assert mio.scalar_from_string("1/2+1/3*sqrt2") == Scalar(Fraction(1, 2), Fraction(1, 3))
    assert mio.scalar_from_string("-1/2-3/4*sqrt2") == Scalar(Fraction(-1, 2), Fraction(-3, 4))
    assert mio.scalar_from_string("5/7*sqrt2") == Scalar(0, Fraction(5, 7))
    assert mio.scalar_from_string("-2*sqrt2") == Scalar(0, -2)
    assert mio.scalar_from_string(" 1 / 2 ") == Scalar(Fraction(1, 2))
    for bad in ("", "sqrt2", "1.5", "1/2+sqrt2", "1//2", "1/2*sqrt3"):
        with pytest.raises(ParseError):
            mio.scalar_from_string(bad)


def test_scalar_canonical_form_has_positive_denominators():
    s = mio.scalar_to_string(Scalar(Fraction(-1, 2), Fraction(-3, 4)))
    assert s == "-1/2-3/4*sqrt2"
    assert mio.scalar_to_string(Scalar(5)) == "5/1"


def test_pretty_rendering():
    assert mio.scalar_pretty(Scalar(Fraction(3, 2))) == "3/2"
    assert mio.scalar_pretty(Scalar(0, Fraction(1, 2))) == "0 + 1/2√2"
    assert mio.scalar_pretty(Scalar(1, -1)) == "1 - 1√2"


def test_matrix_json_round_trip_with_sqrt2_entries():
    m = block_involution(5)
    assert mio.loads_matrix(mio.dumps_matrix(m)) == m


def test_matrix_json_round_trip_random():
    rng = random.Random(5)
    for n in (1, 2, 4):
        m = Matrix(
            n,
            tuple(
                Scalar(Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
                       Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
                for _ in range(n * n)
            ),
        )
        assert mio.loads_matrix(mio.dumps_matrix(m)) == m


def test_csv_round_trip_and_sqrt2_rejection():
    m = Matrix.from_rows([[1, Fraction(-2, 3)], [0, 4]])
    assert mio.loads_matrix_csv(mio.dumps_matrix_csv(m)) == m
    with pytest.raises(ValueError):
        mio.dumps_matrix_csv(block_involution(2))


def test_csv_parse_errors():
    with pytest.raises(ParseError):
        mio.loads_matrix_csv("1,2\n3")
    with pytest.raises(ParseError):
        mio.loads_matrix_csv("")
    with pytest.raises(ParseError):
        mio.loads_matrix_csv("1,x\n2,3")


def test_matrix_json_validation():
    with pytest.raises(ParseError):
        mio.loads_matrix("[1,2]")
    with pytest.raises(ParseError):
        mio.loads_matrix('{"n": 2, "entries": ["1", "2", "3"]}')
    with pytest.raises(ParseError):
        mio.loads_matrix('{"n": 0, "entries": []}')
    with pytest.raises(ParseError):
        mio.loads_matrix("not json")


def test_file_round_trip(tmp_path):
    m = all_ones(3)
    p = tmp_path / "m.json"
    mio.write_matrix(m, str(p))
    assert mio.read_matrix(str(p)) == m
    c = tmp_path / "m.csv"
    mio.write_matrix(m, str(c))
    assert mio.read_matrix(str(c)) == m
    with pytest.raises(ParseError):
        mio.read_matrix(str(tmp_path / "missing.json"))


def test_zero_denominator_is_a_parse_error():
    for bad in ("1/0", "1/2+1/0*sqrt2", "3/0*sqrt2"):
        with pytest.raises(ParseError):
            mio.scalar_from_string(bad)
    with pytest.raises(ParseError):
        mio.loads_matrix('{"n": 1, "entries": ["1/0"]}')
