import random
from fractions import Fraction

import pytest

from symalg import construct as C
from symalg.elim import rank_of_parts
from symalg.errors import DimensionError, PreconditionError
from symalg.matrix import Matrix, all_ones, alternating, identity, rank, zeros
from symalg.predicates import check_entrywise, classify, even_only, in_space
from symalg.scalar import SQRT2, Scalar
from symalg.verify import build_constraints, dimension_probe

import beyond


def entrywise_vertex_all_quadruples(m):
    # Independent oracle: the literal rectangle condition on every quadruple.
    n = m.n
    for i in range(n):
        for k in range(n):
            for j in range(n):
                for l in range(n):
                    if m[i, j] + m[k, l] != m[i, l] + m[k, j]:
                        return False
    return True


def entrywise_array_sums_constant(m):
    n = m.n
    first = m[0, 0] + m[0, 1 % n] + m[1 % n, 0] + m[1 % n, 1 % n]
    for i in range(n):
        for j in range(n):
            s = (
                m[i, j]
                + m[i, (j + 1) % n]
                + m[(i + 1) % n, j]
                + m[(i + 1) % n, (j + 1) % n]
            )
            if s != first:
                return False
    return True


def test_zero_parameters_give_zero():
    assert C.make_associated(None, None, 4).is_zero()
    assert C.make_balanced(None, None, 5).is_zero()
    assert C.make_semimagic(4).is_zero()
    assert C.make_vertex_cross(5).is_zero()
    assert C.make_alternating_pairs(6).is_zero()
    assert C.make_array_sum(3).is_zero()
    assert C.make_reverse(4).is_zero()
    assert C.make_pandiagonal(zeros(2), None).is_zero()
    assert C.make_quartered(zeros(2), None).is_zero()
    assert C.make_most_perfect_block(None, None, None, 6).is_zero()
    assert C.make_most_perfect(None, None, 4).is_zero()
    assert C.make_quartered_semimagic(None, None, None, None, 4).is_zero()
    assert C.make_reversible(None, None, 5).is_zero()


def test_associated_hand_examples():
    assert C.make_associated([[1]], [[1]], 2) == Matrix.from_rows([[1, 0], [0, -1]])
    m = C.make_associated([[1, 0]], [[0], [1]], 3)
    assert in_space(m, "A")
    assert classify(m).props["A"].weight == Scalar(0)


def test_balanced_hand_examples():
    # Υ = 2·(all ones), Ω = 0 reproduces the all-ones matrix.
    assert C.make_balanced(all_ones(2).scale(2), None, 4) == all_ones(4)
    m = C.make_balanced(identity(2), identity(2), 4)
    assert in_space(m, "B")
    m = C.make_balanced([[1, 2], [3, 4]], [[5]], 3)
    assert in_space(m, "B")


def test_balanced_at_n_one_has_no_omega():
    # At n = 1 (ν = 0) there is no ν×ν block for omega.
    assert C.make_balanced([[3]], None, 1) == Matrix(1, (3,))
    with pytest.raises(PreconditionError, match=r"\['omega'\] do not apply"):
        C.make_balanced([[1]], [[5]], 1)


def test_semimagic_hand_examples():
    assert C.make_semimagic(3, w=1) == all_ones(3)
    m = C.make_semimagic(4, Z=identity(2))
    rep = classify(m)
    assert rep.spaces["S"] and rep.props["S"].weight == Scalar(0)
    s, z = Scalar(5), Scalar(3)
    m = C.make_semimagic(2, Y=[[5]], Z=[[3]])
    h = Scalar(1) / 2
    assert m == Matrix.from_rows(
        [[(s + z) * h, (s - z) * h], [(s - z) * h, (s + z) * h]]
    )


def test_semimagic_weight_is_exact():
    rng = random.Random(20)
    for n in (3, 5):
        m = C.random_member("s", n, rng, weight=Fraction(7, 2))
        assert classify(m).props["S"].weight == Scalar(Fraction(7, 2))
    m = C.random_member("s", 4, rng, weight=2)
    assert classify(m).props["S"].weight == Scalar(2)


def test_semimagic_preconditions():
    with pytest.raises(PreconditionError):
        C.make_semimagic(4, Y=[[1, 2], [3, 4]])  # unequal row sums
    with pytest.raises(PreconditionError):
        C.make_semimagic(4, V=identity(2))  # nonzero row sums
    with pytest.raises(PreconditionError):
        C.make_semimagic(4, w=1)  # even form has no weight slot


def test_vertex_cross_odd_example_checked_on_all_quadruples():
    m = C.make_vertex_cross(3, x=[1])
    assert entrywise_vertex_all_quadruples(m)
    assert m.total_sum().is_zero()
    assert not m.is_zero()


def test_vertex_cross_even_example():
    m = C.make_vertex_cross(4, a=[1, 0])
    rep = classify(m)
    assert rep.spaces["V"]
    assert rank(m) <= 2
    # At n = 1 (ν = 0) the space is null: the zero matrix, empty vectors.
    assert C.make_vertex_cross(1) == zeros(1)
    with pytest.raises(PreconditionError):
        C.make_vertex_cross(1, v=[1])
    with pytest.raises(PreconditionError):
        C.make_vertex_cross(4, Y=identity(2))
    with pytest.raises(PreconditionError):
        C.make_vertex_cross(4, v=[1, 0])  # odd-form parameter on even n


def test_alternating_pairs_examples():
    # λ alone gives the pure alternating outer product (the display's λ is
    # the Σ-eigenvalue divided by n).
    sig = alternating(3)
    m = C.make_alternating_pairs(3, lam=1)
    assert m == sig.outer(sig)
    assert m.apply(sig) == sig.scale(Scalar(3))
    m = C.make_alternating_pairs(4, Y=all_ones(2))
    assert in_space(m, "N")
    with pytest.raises(PreconditionError):
        C.make_alternating_pairs(4, V=identity(2))
    with pytest.raises(PreconditionError):
        C.make_alternating_pairs(4, lam=2)


def test_array_sum_examples():
    h = Fraction(1, 2)
    assert C.make_array_sum(2, a=[1]) == Matrix.from_rows([[h, -h], [h, -h]])
    rng = random.Random(21)
    m = C.random_member("m", 5, rng)
    assert in_space(m, "M")
    assert not m.is_zero()
    # Only the zero matrix has the literal entrywise sums at odd n.
    assert not (entrywise_array_sums_constant(m) and alternating(5).dot(m.apply(alternating(5))).is_zero())
    with pytest.raises(PreconditionError):
        C.make_array_sum(4, Z=identity(2))
    with pytest.raises(PreconditionError):
        C.make_array_sum(4, v=[1, 1])


def test_reverse_examples():
    assert C.make_reverse(2, gamma=1) == all_ones(2).scale(Fraction(1, 2))
    m = C.make_reverse(3, x=[1])
    assert check_entrywise(m, "R").holds
    assert not m.is_zero()
    m = C.make_reverse(1, gamma=SQRT2)
    assert m == Matrix(1, (Scalar(1),))


def test_pandiagonal_and_quartered():
    m = C.make_pandiagonal(identity(2), None)
    assert m == Matrix.from_rows(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]]
    )
    for i in range(4):
        for j in range(4):
            assert (m[i, j] + m[(i + 2) % 4, (j + 2) % 4]).is_zero()
    assert C.make_quartered(all_ones(2), all_ones(2)) == all_ones(4)
    # With n, A and B are ν×ν and may be left out; without it, A fixes ν.
    for make in (C.make_pandiagonal, C.make_quartered):
        assert make(None, None, 4) == zeros(4)
        assert make(None, identity(2), 4) == make(zeros(2), identity(2))
        with pytest.raises(PreconditionError, match="^A must be a 2×2 matrix, got 1×1$"):
            make([[1]], [[2]], 4)
        with pytest.raises(PreconditionError, match="^A must be a square matrix"):
            make(None, identity(2))
        with pytest.raises(PreconditionError, match="^B must be a 2×2 matrix, got 1×1$"):
            make(None, [[2]], 4)
        with pytest.raises(DimensionError):
            make(None, None, 5)


def test_most_perfect_block_explicit_parameters():
    z = Matrix.from_rows([[1, 0, -1], [-1, 0, 1], [1, 0, -1]]).scale(2)
    m = C.make_most_perfect_block([2, -4, 2], [-4, 8, -4], z, 6)
    expected = Matrix.from_rows(
        [
            [-2, 3, 0, -4, 5, -2],
            [1, -2, -1, 5, -6, 3],
            [-2, 3, 0, -4, 5, -2],
            [4, -5, 2, 2, -3, 0],
            [-5, 6, -3, -1, 2, 1],
            [4, -5, 2, 2, -3, 0],
        ]
    )
    assert m == expected


def test_most_perfect_block_preconditions():
    with pytest.raises(PreconditionError):
        C.make_most_perfect_block([1, 1], None, None, 4)  # not ⟂ ones
    with pytest.raises(PreconditionError):
        C.make_most_perfect_block([1, 1, -2], None, None, 6)  # wrong mirror parity
    with pytest.raises(PreconditionError):
        C.make_most_perfect_block(None, None, identity(2), 4)  # Z not associated
    with pytest.raises(DimensionError):
        C.make_most_perfect_block(None, None, None, 5)


def test_most_perfect_block_form_from_named_parameters():
    # Any of a, b or Z selects the block form.
    assert C.member_from_params("mps", 4, {"a": [1, -1]}) == C.make_most_perfect_block(
        [1, -1], None, None, 4
    )


def test_most_perfect_vectors_examples():
    m = C.make_most_perfect([1, 0, -1, 0], None, 4)
    assert m == Matrix.from_rows(
        [[1, -1, 1, -1], [0, 0, 0, 0], [-1, 1, -1, 1], [0, 0, 0, 0]]
    )
    assert classify(m).composites["MPS"]
    with pytest.raises(PreconditionError):
        C.make_most_perfect([1, 0, 1, 0], None, 4)  # second half must negate
    with pytest.raises(PreconditionError):
        C.make_most_perfect([1, 1, 1, 1, 1, 1], None, 6)  # odd ν: halves ⟂ 1


def test_most_perfect_round_trip():
    rng = random.Random(22)
    for n in (4, 6, 8, 10):
        m = C.random_member("mps", n, rng)
        g, d = C.extract_most_perfect_vectors(m)
        assert C.make_most_perfect(g, d, n) == m


def test_quartered_semimagic_examples():
    m = C.make_quartered_semimagic(all_ones(2).scale(2), None, None, None, 4)
    assert m == all_ones(4)
    with pytest.raises(PreconditionError):
        C.make_quartered_semimagic([[1, 0], [0, 0]], None, None, None, 4)  # not balanced
    with pytest.raises(PreconditionError):
        C.make_quartered_semimagic(None, None, identity(2), None, 4)  # not associated


def test_reversible_examples():
    assert C.make_reversible(None, None, 3, w=1) == all_ones(3)
    a, b = Scalar(7), Scalar(5)
    h = Scalar(1) / 2
    m = C.make_reversible([7], [5], 2)
    assert m == Matrix.from_rows(
        [[(a + b) * h, (b - a) * h], [(a - b) * h, -(a + b) * h]]
    )
    rep = classify(m)
    assert rep.spaces["R"] and rep.spaces["V"] and rep.spaces["A"]
    # Reverse ∧ vertex members are associated (they are exactly the
    # associated ∧ vertex members).
    m = C.make_reversible([1], [1], 3)
    rep = classify(m)
    assert rep.composites["RV"] and rep.spaces["A"]


def test_reversible_is_the_reverse_member_without_z():
    # make_reversible(a, b, w) = make_reverse(γ, x = b, z = a, Z = 0), with
    # γ = 2w at even n and √2·w at odd n, triple for triple.
    rng = random.Random(19)
    for n in range(1, 10):
        nu = n // 2
        for _ in range(5):
            a = [Scalar(Fraction(rng.randint(-9, 9), rng.choice((1, 2)))) for _ in range(nu)]
            b = [Scalar(rng.randint(-9, 9), rng.randint(-3, 3)) for _ in range(nu)]
            w = Scalar(Fraction(rng.randint(-9, 9), 3), rng.randint(-2, 2))
            got = C.make_reversible(a, b, n, w=w)
            gamma = w * (SQRT2 if n % 2 else 2)
            want = C.make_reverse(n, gamma, x=b, z=a)  # Z defaults to 0
            assert [(x.p, x.q, x.d) for x in got.entries] == [
                (x.p, x.q, x.d) for x in want.entries
            ], n
    for name, args in (("a", ([1, 2, 3], None)), ("b", (None, [1]))):
        with pytest.raises(PreconditionError, match=f"^{name} must be a vector of length 2"):
            C.make_reversible(*args, 4)


def test_constructor_soundness_random_sweep():
    rng = random.Random(23)
    for kind in C.CONSTRUCTIBLE:
        for n in range(2, 10):
            if n % 2 and even_only(kind):
                continue
            for _ in range(40):
                m = C.random_member(kind, n, rng)
                assert in_space(m, kind.upper()), (kind, n)


def test_constructor_outputs_pass_both_predicate_routes():
    # classify() runs the entrywise and algebraic routes together and
    # raises on any disagreement.
    rng = random.Random(25)
    for kind in C.CONSTRUCTIBLE:
        for n in (4, 5, 6):
            if n % 2 and even_only(kind):
                continue
            for _ in range(3):
                rep = classify(C.random_member(kind, n, rng))
                tag = kind.upper()
                if tag in rep.composites:
                    assert rep.composites[tag], (kind, n)
                else:
                    assert rep.spaces[tag], (kind, n)


def test_classify_confirms_composites():
    rng = random.Random(24)
    rep = classify(C.random_member("mps", 6, rng))
    assert rep.composites["MPS"]
    rep = classify(C.random_member("nqs", 6, rng))
    assert rep.composites["NQS"]
    rep = classify(C.random_member("rv", 5, rng))
    assert rep.composites["RV"]


def test_shape_validation():
    with pytest.raises(PreconditionError):
        C.make_associated([[1, 2]], None, 2)
    with pytest.raises(PreconditionError):
        C.make_semimagic(4, Y=[[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    with pytest.raises(PreconditionError):
        C.make_reversible([1, 2, 3], None, 4)


@pytest.mark.parametrize(
    "kind, n",
    [
        (kind, n)
        for kind in C.CONSTRUCTIBLE
        for n in range(1, 7)
        if not (n % 2 and even_only(kind))
    ],
)
def test_constructor_covers_oracle_space(kind, n):
    # dimension_probe raises unless the constructor span has the oracle's
    # dimension and every constructor output satisfies the oracle equations.
    tag = kind.upper()
    dimension_probe(tag, n)
    rng = random.Random(n)
    assert build_constraints(tag, n).satisfies(C.random_member(kind, n, rng))


def test_table_rejects_unknown_kinds():
    with pytest.raises(ValueError, match="no constructor for kind 'zz'"):
        C.random_member("zz", 4, random.Random(0))
    with pytest.raises(ValueError, match="no constructor for kind 'zz'"):
        C.constructor_basis("zz", 4)


def test_table_rejects_nonpositive_n():
    rng = random.Random(0)
    for n in (0, -3):
        with pytest.raises(DimensionError):
            C.random_member("s", n, rng)
        with pytest.raises(DimensionError):
            C.constructor_basis("v", n)
        with pytest.raises(DimensionError):
            C.member_from_params("r", n, {})


def test_member_from_params_names():
    assert C.member_from_params("s", 3, {"w": 2}) == all_ones(3).scale(2)
    with pytest.raises(ValueError, match="'w'"):
        C.member_from_params("s", 4, {"w": 2})  # the even form's weight comes via Y
    with pytest.raises(ValueError):
        C.random_member("b", 4, random.Random(0), weight=1)


def test_even_only_kinds_match_the_space_table():
    # The constructor table marks a kind even-only by a missing odd form;
    # the space table marks it by its spaces.
    no_odd_form = {kind for kind, (_, odd) in C._FORMS.items() if odd is None}
    assert no_odd_form == {kind for kind in C.CONSTRUCTIBLE if even_only(kind)}
    assert no_odd_form


@pytest.mark.parametrize("kind", C.CONSTRUCTIBLE)
def test_a_draw_is_a_combination_of_the_constructor_basis(kind):
    beyond.seeded_draws(range(1, 9), seeds=range(3), kinds=(kind,))


def test_entry_spaces_do_no_scalar_arithmetic(monkeypatch):
    # Spanning elements and draws are summed in int and packed from parts.
    def no_arithmetic(*args):
        raise AssertionError("Scalar arithmetic in a parameter space")

    for op in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__"):
        monkeypatch.setattr(Scalar, op, no_arithmetic)
    spaces = {
        id(space): space
        for forms in C._FORMS.values()
        for form in forms
        if form is not None
        for _, space in form.params
        if isinstance(space, C._Entries)
    }
    rng = random.Random(0)
    for space in spaces.values():
        for nu in range(5):
            assert len(space.spanning(nu)) == len(space._span(nu))
            space.draw(nu, rng)


def test_a_draw_never_builds_a_basis(monkeypatch):
    # A draw runs the makers on drawn parameters; at n = 32 a basis costs
    # hundreds of maker calls where a draw costs one per level.
    def no_basis(kind, n):
        raise AssertionError(f"a draw built the {kind} basis at n={n}")

    monkeypatch.setattr(C, "constructor_basis", no_basis)
    for kind in ("s", "nqs"):
        assert C.random_member(kind, 32, random.Random(0)).n == 32


@pytest.mark.parametrize("kind", [kind for kind in C.CONSTRUCTIBLE if kind != "nqs"])
def test_each_formula_is_a_bijective_parametrisation(kind):
    # The constructor basis is as large as its rank and the oracle nullity:
    # distinct parameters give distinct members.
    for n in range(1, 9):
        if n % 2 and even_only(kind):
            continue
        basis = C.constructor_basis(kind, n)
        span_rank = rank_of_parts([(m.P, m.Q) for m in basis])
        assert len(basis) == span_rank == build_constraints(kind.upper(), n).nullity, n


def test_constructor_basis_is_one_shared_tuple_per_kind_and_size():
    # The cached basis equals a fresh build, and every caller gets the same
    # immutable tuple.
    for kind in C.CONSTRUCTIBLE:
        for n in range(1, 9):
            if n % 2 and even_only(kind):
                continue
            basis = C.constructor_basis(kind, n)
            assert isinstance(basis, tuple), (kind, n)
            assert basis == C.constructor_basis.__wrapped__(kind, n), (kind, n)
            assert C.constructor_basis(kind, n) is basis, (kind, n)


def test_the_nqs_formula_is_redundant():
    # Its Y, Z, V and W are projections of full S, N and A bases at size ν,
    # so the spanning set outgrows the space; it still spans all of it.
    for n, size, dim in ((4, 8, 6), (6, 18, 10), (8, 36, 22)):
        basis = C.constructor_basis("nqs", n)
        assert len(basis) == size
        assert rank_of_parts([(m.P, m.Q) for m in basis]) == dim
        assert build_constraints("NQS", n).nullity == dim
