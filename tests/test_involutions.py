"""The table of the four grading involutions (`blockform.INVOLUTIONS`).

Each split is conjugation by one involution K: K·M·K read from the table
(as even − odd of `split`) must match the explicit product, applying it
twice must give M back, and the oracle's bases of the even and odd parts
that `blockform.SPLIT_TAGS` names must be the +1 and −1 eigenspaces of
M ↦ K·M·K.  The splits of all four kinds, and the V and M algebraic
verdicts, which read the closed form from M·y, Mᵀ·y and yᵀ·M·y, must match
the dense product K@M@K.
"""

import random
from fractions import Fraction

from symalg.blockform import SPLIT_TAGS
from symalg.construct import random_member
from symalg.decompose import split
from symalg.matrix import Matrix, all_ones, alternating, exchange, identity, ones
from symalg.predicates import check_algebraic
from symalg.scalar import SQRT2, Scalar
from symalg.verify import build_constraints


def conjugate_k(m, kind):
    # K·M·K = ½(M + K·M·K) − ½(M − K·M·K), from the split of `kind`.
    pair = split(m, kind)
    return pair.even_part - pair.odd_part


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


def _rational_matrix(n, rng):
    return Matrix(n, tuple(Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3))) for _ in range(n * n)))


def test_reflection_splits_match_the_dense_product():
    rng = random.Random(63)
    half = Fraction(1, 2)
    for n in range(1, 10):
        cases = [(m, kind) for m in (_rational_matrix(n, rng), _sqrt2_matrix(n, rng))
                 for kind in ("SV", "NM")]
        # The permutation splits, gathered through J's and T's index maps.
        cases += [(_sqrt2_matrix(n, rng), kind) for kind in _kinds(n) if kind in ("BA", "QP")]
        for m, kind in cases:
            k = _explicit_k(kind, n)
            kmk = k @ m @ k
            pair = split(m, kind)
            assert pair.even_part == (m + kmk).scale(half), (kind, n)
            assert pair.odd_part == (m - kmk).scale(half), (kind, n)


def _dense_odd(m, prop):
    # K·(M − w·E)·K = −(M − w·E) by the dense product, with V's w the mean
    # and M's a quarter of the first 2×2 block (none at odd n).
    n = m.n
    if prop == "V":
        kind, w = "SV", m.total_sum() / (n * n)
    else:
        kind, w = "NM", Scalar(0) if n % 2 else (m[0, 0] + m[0, 1] + m[1, 0] + m[1, 1]) / 4
    k = _explicit_k(kind, n)
    d = m - all_ones(n).scale(w)
    return k @ d @ k == -d


def _odd_route_cases(prop, n, rng):
    # Members with √2 parts and a weight, random non-members, and members
    # changed only at the first or only at the last entry.
    kind = prop.lower()
    w = Scalar(Fraction(rng.randint(-5, 5), 3), Fraction(rng.randint(-5, 5), 2))
    if prop == "M" and n % 2:
        w = Scalar(0)
    member = random_member(kind, n, rng) + random_member(kind, n, rng).scale(SQRT2)
    member = member + all_ones(n).scale(w)
    cases = [member, _rational_matrix(n, rng), _sqrt2_matrix(n, rng)]
    for k in (0, n * n - 1):
        for delta in (Scalar(1), SQRT2):
            bump = Matrix(n, [delta if j == k else 0 for j in range(n * n)])
            cases.append(member + bump)
    return member, cases


def test_odd_algebraic_routes_match_the_dense_definition():
    rng = random.Random(64)
    for n in range(1, 10):
        for prop in ("V", "M"):
            member, cases = _odd_route_cases(prop, n, rng)
            assert check_algebraic(member, prop).holds, (prop, n)
            if n > 1:  # one changed entry, first or last, breaks membership
                assert not any(check_algebraic(m, prop).holds for m in cases[1:]), (prop, n)
            for m in cases:
                assert check_algebraic(m, prop).holds == _dense_odd(m, prop), (prop, n, m)
