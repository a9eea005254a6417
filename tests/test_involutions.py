"""The table of the four grading involutions (`blockform.INVOLUTIONS`).

Each split is conjugation by one involution K: K·M·K read from the table
(as even − odd of `split`) must match the explicit product, applying it
twice must give M back, and the oracle's bases of the even and odd parts
that `blockform.SPLIT_TAGS` names must be the +1 and −1 eigenspaces of
M ↦ K·M·K.  The splits of all four kinds, and the V and M algebraic
verdicts, which read the closed form from M·y, Mᵀ·y and yᵀ·M·y, must match
the dense product K@M@K (`beyond.reflection_splits` and
`beyond.odd_verdicts`).
"""

import random

from symalg.blockform import SPLIT_TAGS
from symalg.decompose import split
from symalg.matrix import identity
from symalg.verify import build_constraints

import beyond
from beyond import explicit_k, sqrt2_matrix


def conjugate_k(m, kind):
    # K·M·K = ½(M + K·M·K) − ½(M − K·M·K), from the split of `kind`.
    pair = split(m, kind)
    return pair.even_part - pair.odd_part


def _kinds(n):
    return [k for k in SPLIT_TAGS if k != "QP" or n % 2 == 0]


def test_table_matches_the_explicit_product():
    rng = random.Random(61)
    for n in range(1, 7):
        m = sqrt2_matrix(n, rng)
        for kind in _kinds(n):
            k = explicit_k(kind, n)
            assert k @ k == identity(n), (kind, n)
            assert conjugate_k(m, kind) == k @ m @ k, (kind, n)


def test_conjugating_twice_is_the_identity():
    rng = random.Random(62)
    for n in range(1, 10):
        for _ in range(3):
            m = sqrt2_matrix(n, rng)
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


def test_reflection_splits_match_the_dense_product():
    beyond.reflection_splits(range(1, 10), seed=63)


def test_odd_algebraic_routes_match_the_dense_definition():
    beyond.odd_verdicts(range(1, 10), seed=64)
