import random
from fractions import Fraction
from math import gcd

import pytest

from symalg.blockform import (
    BlockForm,
    conjugate_x,
    from_block,
    layout,
    nu_sign,
    to_block,
)
from symalg.construct import _write
from symalg.decompose import split
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
)
from symalg.scalar import SQRT2, Scalar


def rand_matrix(n, rng):
    return Matrix(n, tuple(Scalar(rng.randint(-9, 9)) for _ in range(n * n)))


def _entry(rng, kind):
    a = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
    b = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
    return {"rational": Scalar(a), "sqrt2": Scalar(0, b), "mixed": Scalar(a, b)}[kind]


@pytest.mark.parametrize("kind", ["rational", "sqrt2", "mixed"])
def test_integer_kernel_equals_the_dense_conjugate(kind):
    # block_involution builds X entry by entry; the kernel never builds it.
    rng = random.Random(7)
    for n in range(1, 17):
        m = Matrix(n, tuple(_entry(rng, kind) for _ in range(n * n)))
        x = block_involution(n)
        c = conjugate_x(m)
        assert c == x @ m @ x
        assert conjugate_x(c) == m


def test_all_ones_block_even():
    assert to_block(all_ones(2)).conjugate == Matrix.from_rows([[2, 0], [0, 0]])
    assert to_block(all_ones(4)).conjugate == Matrix.from_rows(
        [[2, 2, 0, 0], [2, 2, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]
    )
    bf = to_block(all_ones(4))
    assert bf.y_block == all_ones(2).scale(2)
    assert bf.vt_block.is_zero() and bf.w_block.is_zero() and bf.z_block.is_zero()


def test_all_ones_block_odd():
    bf = to_block(all_ones(3))
    assert bf.conjugate == Matrix.from_rows(
        [[2, SQRT2, 0], [SQRT2, 1, 0], [0, 0, 0]]
    )
    assert bf.y_block == all_ones(1).scale(2)
    assert bf.v_col == Vector([SQRT2])
    assert bf.alpha == Scalar(1)
    assert bf.x_col.is_zero() and bf.z_row.is_zero()


def test_hand_conjugation():
    m = Matrix.from_rows([[1, 2], [3, 4]])
    assert to_block(m).conjugate == Matrix.from_rows([[5, -1], [-2, 0]])


def conjugate_k(m, kind):
    # K·M·K = ½(M + K·M·K) − ½(M − K·M·K), from the split of `kind`.
    pair = split(m, kind)
    return pair.even_part - pair.odd_part


def test_half_turn_rotation():
    assert conjugate_k(identity(3), "BA") == identity(3)
    assert conjugate_k(Matrix.from_rows([[1, 2], [3, 4]]), "BA") == Matrix.from_rows(
        [[4, 3], [2, 1]]
    )
    rng = random.Random(0)
    m = rand_matrix(5, rng)
    assert conjugate_k(conjugate_k(m, "BA"), "BA") == m
    assert conjugate_k(m, "BA") == exchange(5) @ m @ exchange(5)


def test_exchange_conjugate_in_block_form():
    # X·J·X is diagonal ±identity blocks, both parities.
    assert conjugate_x(exchange(2)) == Matrix.from_rows([[1, 0], [0, -1]])
    assert conjugate_x(exchange(5)) == Matrix.from_rows(
        [
            [1, 0, 0, 0, 0],
            [0, 1, 0, 0, 0],
            [0, 0, 1, 0, 0],
            [0, 0, 0, -1, 0],
            [0, 0, 0, 0, -1],
        ]
    )


def test_involution_round_trip_thousand_matrices():
    rng = random.Random(1)
    for n in range(1, 10):
        for _ in range(112):
            m = rand_matrix(n, rng)
            assert from_block(to_block(m)) == m


def test_conjugation_is_algebra_homomorphism():
    rng = random.Random(2)
    for n in (2, 3, 4, 5, 6):
        a, b = rand_matrix(n, rng), rand_matrix(n, rng)
        assert to_block(a @ b).conjugate == to_block(a).conjugate @ to_block(b).conjugate


def test_views_reassemble_exactly():
    rng = random.Random(3)
    for n in (4, 7):
        bf = to_block(rand_matrix(n, rng))
        nu = bf.nu
        c = bf.conjugate
        for i in range(nu):
            for j in range(nu):
                assert bf.y_block[i, j] == c[i, j]
                assert bf.vt_block[i, j] == c[i, n - nu + j]
                assert bf.w_block[i, j] == c[n - nu + i, j]
                assert bf.z_block[i, j] == c[n - nu + i, n - nu + j]
        if bf.odd:
            for i in range(nu):
                assert bf.v_col[i] == c[i, nu]
                assert bf.x_col[i] == c[nu + 1 + i, nu]
                assert bf.y_row[i] == c[nu, i]
                assert bf.z_row[i] == c[nu, nu + 1 + i]
            assert bf.alpha == c[nu, nu]
        else:
            with pytest.raises(ValueError):
                bf.v_col


@pytest.mark.parametrize("kind", ["rational", "sqrt2", "mixed"])
def test_central_views_are_vectors_of_the_conjugate_entries(kind):
    rng = random.Random(5)
    for n in range(1, 10):
        bf = to_block(Matrix(n, tuple(_entry(rng, kind) for _ in range(n * n))))
        if not bf.odd:
            for name in ("v_col", "x_col", "y_row", "z_row"):
                with pytest.raises(ValueError):
                    getattr(bf, name)
            continue
        c, nu = bf.conjugate, bf.nu
        lo, hi = range(nu), range(nu + 1, n)
        views = {
            "v_col": [c[i, nu] for i in lo],
            "x_col": [c[i, nu] for i in hi],
            "y_row": [c[nu, j] for j in lo],
            "z_row": [c[nu, j] for j in hi],
        }
        for name, entries in views.items():
            view = getattr(bf, name)
            assert view == Vector(entries), (n, name)
            assert view.D > 0 and gcd(view.D, *view.P, *(view.Q or ())) == 1
            assert (view.Q is None) == all(x.is_rational() for x in entries)


def test_block_forms_compare_by_their_conjugate():
    rng = random.Random(31)
    for n in (3, 4):
        m = rand_matrix(n, rng)
        a = to_block(m)
        assert a == BlockForm(Matrix(n, a.conjugate.entries)) and not a != to_block(m)
        other = to_block(m + identity(n))
        assert a != other and not a == other
        # Neither the conjugate itself nor the matrix is a block form.
        assert a != a.conjugate and a != m and not a == m


def test_a_block_form_refuses_assignment():
    bf = to_block(identity(3))
    for name in ("n", "conjugate", "y_block", "other"):
        with pytest.raises(AttributeError, match="BlockForm is immutable"):
            setattr(bf, name, 0)
    assert bf.conjugate == identity(3)

def test_layout_covers_every_cell_once():
    for n in range(1, 13):
        cells = [(i, j) for rows, cols in layout(n).values() for i in rows for j in cols]
        assert sorted(cells) == [(i, j) for i in range(n) for j in range(n)], n


def test_layout_is_shared_and_read_only():
    # One layout per n, shared by every view and writer, so no caller may
    # change it.
    for n in range(1, 13):
        at = layout(n)
        assert layout(n) is at
        with pytest.raises(TypeError):
            at["y_block"] = (range(0), range(0))


def test_writing_the_views_back_gives_the_conjugate():
    rng = random.Random(11)
    for n in range(2, 10):
        bf = to_block(Matrix(n, tuple(_entry(rng, "mixed") for _ in range(n * n))))
        assert _write(n, **{name: getattr(bf, name) for name in layout(n)}) == bf.conjugate


def test_views_at_n_1():
    # ν = 0: the square views are 0×0 and raise, the centre views are empty
    # and α is the one entry.
    bf = to_block(Matrix(1, (Scalar(3, 2),)))
    for name in ("y_block", "vt_block", "w_block", "z_block"):
        with pytest.raises(DimensionError):
            getattr(bf, name)
    for name in ("v_col", "x_col", "y_row", "z_row"):
        assert getattr(bf, name) == Vector([])
    assert bf.alpha == Scalar(3, 2) == bf.conjugate[0, 0]


def test_nu_sign_convention():
    # The single ± convention: J_ν·Σ_ν = −Σ_ν exactly for even ν.
    for nu in range(1, 8):
        s = nu_sign(nu)
        assert exchange(nu).apply(alternating(nu)) == alternating(nu).scale(-s)


def test_image_of_ones_vector():
    for n in (4, 6):
        nu = n // 2
        img = block_involution(n).apply(ones(n))
        assert img == Vector(list(ones(nu).scale(SQRT2)) + [Scalar(0)] * nu)
    for n in (3, 5, 7):
        nu = n // 2
        img = block_involution(n).apply(ones(n))
        expected = list(ones(nu).scale(SQRT2)) + [Scalar(1)] + [Scalar(0)] * nu
        assert img == Vector(expected)


def test_image_of_alternating_vector():
    # Even n: X·Σ_n = ∓√2·(0, Σ_ν); odd n: (√2·Σ_ν, ±1, 0) — upper sign
    # when ν is even.
    for n in (4, 6, 8):
        nu = n // 2
        s = nu_sign(nu)
        img = block_involution(n).apply(alternating(n))
        tail = alternating(nu).scale(SQRT2 * (-s))
        assert img == Vector([Scalar(0)] * nu + list(tail))
    for n in (3, 5, 7, 9):
        nu = n // 2
        s = nu_sign(nu)
        img = block_involution(n).apply(alternating(n))
        expected = (
            list(alternating(nu).scale(SQRT2)) + [Scalar(s)] + [Scalar(0)] * nu
        )
        assert img == Vector(expected)
