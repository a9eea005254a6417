import random
from fractions import Fraction

import pytest

from symalg.blockform import SPLIT_TAGS
from symalg.construct import random_member
from symalg.decompose import GradedPair, split
from symalg.errors import DimensionError
from symalg.matrix import Matrix, all_ones, alternating, zeros
from symalg.predicates import check_algebraic, check_entrywise, in_space
from symalg.scalar import Scalar

def rand_matrix(n, rng):
    return Matrix(n, tuple(Scalar(rng.randint(-9, 9)) for _ in range(n * n)))


def test_hand_example_balanced_associated():
    pair = split(Matrix.from_rows([[1, 2], [3, 4]]), "BA")
    h = Fraction(1, 2)
    assert pair.even_part == Matrix.from_rows([[5 * h, 5 * h], [5 * h, 5 * h]])
    assert pair.odd_part == Matrix.from_rows([[-3 * h, -h], [h, 3 * h]])


def test_hand_example_quartered_pandiagonal_coincides_at_two():
    m = Matrix.from_rows([[1, 2], [3, 4]])
    assert split(m, "QP").even_part == split(m, "BA").even_part
    assert split(m, "QP").odd_part == split(m, "BA").odd_part


def test_all_ones_is_fixed_by_even_projections():
    for n in (2, 3, 4):
        for kind in ("BA", "SV"):
            pair = split(all_ones(n), kind)
            assert pair.even_part == all_ones(n)
            assert pair.odd_part.is_zero()
    pair = split(all_ones(4), "QP")
    assert pair.even_part == all_ones(4) and pair.odd_part.is_zero()


def test_alternating_outer_is_semimagic_with_weight_zero():
    m = alternating(2).outer(alternating(2))
    pair = split(m, "SV")
    assert pair.even_part == m and pair.odd_part.is_zero()
    assert pair.weight == Scalar(0)


def test_all_ones_under_alternating_split():
    pair = split(all_ones(2), "NM")
    assert pair.even_part == all_ones(2)
    assert pair.odd_part.is_zero()


def test_sv_weight_reported():
    m = Matrix.from_rows([[1, 2], [3, 4]])
    assert split(m, "SV").weight == Scalar(10) / 4


def test_qp_needs_even_dimension():
    with pytest.raises(DimensionError):
        split(zeros(3), "QP")


def test_reconstruction_and_membership_thousand_matrices():
    rng = random.Random(13)
    for n in range(2, 10):
        for _ in range(125):
            m = rand_matrix(n, rng)
            kinds = ["BA", "SV", "NM"] + (["QP"] if n % 2 == 0 else [])
            for kind in kinds:
                pair = split(m, kind)
                assert pair.reassemble() == m
                even_tag, odd_tag = SPLIT_TAGS[kind]
                assert in_space(pair.even_part, even_tag), (kind, n)
                assert in_space(pair.odd_part, odd_tag), (kind, n)


def test_membership_by_both_routes():
    rng = random.Random(14)
    for n in (3, 4):
        m = rand_matrix(n, rng)
        ba = split(m, "BA")
        assert check_entrywise(ba.even_part, "B").holds
        assert check_algebraic(ba.even_part, "B").holds
        a = check_entrywise(ba.odd_part, "A")
        assert a.holds and a.weight == Scalar(0)
        assert check_algebraic(ba.odd_part, "A").holds
        sv = split(m, "SV")
        assert check_entrywise(sv.even_part, "S").holds
        assert check_algebraic(sv.even_part, "S").holds
        assert check_entrywise(sv.odd_part, "V").holds
        assert sv.odd_part.total_sum().is_zero()
        nm = split(m, "NM")
        assert check_algebraic(nm.even_part, "N").holds
        assert check_algebraic(nm.odd_part, "M").holds
        if n % 2 == 0:
            assert check_entrywise(nm.even_part, "N").holds
            v = check_entrywise(nm.odd_part, "M")
            assert v.holds and v.weight == Scalar(0)
            qp = split(m, "QP")
            assert check_entrywise(qp.even_part, "Q").holds
            v = check_entrywise(qp.odd_part, "P")
            assert v.holds and v.weight == Scalar(0)


def test_idempotence():
    rng = random.Random(15)
    for n in (2, 3, 4, 5):
        m = rand_matrix(n, rng)
        for kind in ("BA", "SV", "NM") + (("QP",) if n % 2 == 0 else ()):
            pair = split(m, kind)
            again = split(pair.even_part, kind)
            assert again.even_part == pair.even_part
            assert again.odd_part.is_zero()


def test_projection_fixes_odd_member():
    rng = random.Random(16)
    for n in (2, 3, 4, 5, 6):
        m = random_member("a", n, rng)
        pair = split(m, "BA")
        assert pair.even_part.is_zero() and pair.odd_part == m
        m = random_member("v", n, rng)
        pair = split(m, "SV")
        assert pair.even_part.is_zero() and pair.odd_part == m
        m = random_member("m", n, rng)
        pair = split(m, "NM")
        assert pair.even_part.is_zero() and pair.odd_part == m
        if n % 2 == 0:
            m = random_member("p", n, rng)
            pair = split(m, "QP")
            assert pair.even_part.is_zero() and pair.odd_part == m


def test_split_dispatcher():
    with pytest.raises(ValueError):
        split(zeros(2), "xy")
    assert isinstance(split(zeros(2), "ba"), GradedPair)
