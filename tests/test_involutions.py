"""The table of the four grading involutions (`blockform.INVOLUTIONS`).

Each split is conjugation by one involution K: K·M·K read from the table
must match the explicit product, applying it twice must give M back, and
the oracle's bases of the even and odd parts that `blockform.SPLIT_TAGS`
names must be the +1 and −1 eigenspaces of M ↦ K·M·K.
"""

import random
from fractions import Fraction

from symalg.blockform import SPLIT_TAGS, conjugate_k
from symalg.matrix import Matrix, alternating, exchange, identity, ones
from symalg.scalar import Scalar
from symalg.verify import build_constraints


def _kinds(n):
    return [k for k in SPLIT_TAGS if k != "QP" or n % 2 == 0]


def _sqrt2_matrix(n, rng):
    def frac():
        return Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3)))

    return Matrix(n, tuple(Scalar(frac(), frac()) for _ in range(n * n)))


def _explicit_k(kind, n):
    if kind == "BA":
        return exchange(n)
    if kind == "QP":
        nu = n // 2
        return Matrix.from_rows(
            [[1 if j == (i + nu) % n else 0 for j in range(n)] for i in range(n)]
        )
    y = ones(n) if kind == "SV" else alternating(n)
    return identity(n) - y.outer(y).scale(Fraction(2, n))


def test_table_matches_the_explicit_product():
    rng = random.Random(61)
    for n in range(1, 7):
        m = _sqrt2_matrix(n, rng)
        for kind in _kinds(n):
            k = _explicit_k(kind, n)
            assert k @ k == identity(n), (kind, n)
            assert conjugate_k(m, kind) == k @ m @ k, (kind, n)


def test_conjugating_twice_is_the_identity():
    rng = random.Random(62)
    for n in range(1, 10):
        for _ in range(3):
            m = _sqrt2_matrix(n, rng)
            for kind in _kinds(n):
                assert conjugate_k(conjugate_k(m, kind), kind) == m, (kind, n)


def test_oracle_bases_are_the_two_eigenspaces():
    for n in range(1, 11):
        for kind in _kinds(n):
            even, odd = (build_constraints(tag, n) for tag in SPLIT_TAGS[kind])
            assert even.nullity + odd.nullity == n * n, (kind, n)
            for b in even.basis_matrices():
                assert conjugate_k(b, kind) == b, (kind, n)
            for b in odd.basis_matrices():
                assert conjugate_k(b, kind) == -b, (kind, n)
