import importlib.util
import random
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest

from symalg import verify as V
from symalg.blockform import INVOLUTIONS
from symalg.construct import (
    _Form,
    constructor_basis,
    extract_most_perfect_vectors,
    make_most_perfect,
    make_reversible,
    random_member,
)
from symalg.elim import integer_rref, nullspace_of_rref
from symalg.errors import DimensionError, VerificationError
from symalg.io import matrix_from_json_obj
from symalg.matrix import Matrix, Vector, all_ones, rank, zeros
from symalg.predicates import COMPOSITES, SPACES, check_entrywise, even_only, exists, in_space
from symalg.scalar import Scalar

from references import (
    mps_triple_product_check,
    parasymmetry_check,
    r_complement_membership,
    rows_array_sum_entrywise,
    rows_vertex_raw,
    space_member,
)


def test_contract_examples():
    assert V.build_constraints("V", 3).nullity == 4
    assert V.build_constraints("S", 4).nullity == 10
    assert V.build_constraints("MENTRY", 3).nullity == 0
    assert V.dimension_probe("V", 4) == 6


def test_dimension_formulas_small():
    for n in range(2, 7):
        assert V.dimension_probe("S", n) == n * n - 2 * n + 2
        assert V.dimension_probe("V", n) == 2 * n - 2


def test_split_dimensions_sum_to_full_space():
    for n in range(2, 7):
        for even_tag, odd_tag in (("B", "A"), ("S", "V"), ("N", "M"), ("Q", "P")):
            if n % 2 and even_only(even_tag):
                continue
            assert (
                V.dimension_probe(even_tag, n) + V.dimension_probe(odd_tag, n) == n * n
            )


def test_even_only_spaces_rejected_at_odd_n():
    with pytest.raises(DimensionError):
        V.build_constraints("P", 3)
    with pytest.raises(DimensionError):
        V.build_constraints("MPS", 5)
    with pytest.raises(ValueError):
        V.build_constraints("XYZ", 4)


def test_basis_members_pass_predicates():
    for space in ("S", "A", "B", "R", "V", "M", "N"):
        for n in (3, 4):
            sys = V.build_constraints(space, n)
            for m in sys.basis_matrices():
                assert in_space(m, space), (space, n)


def test_disjointness_of_split_pairs():
    # Stacking the two halves' constraints leaves only the zero matrix.
    for n in (2, 3, 4, 5):
        for a, b in (("A", "B"), ("S", "V"), ("N", "M")):
            rows = V.build_constraints(a, n).rows + V.build_constraints(b, n).rows
            assert nullspace_of_rref(integer_rref(rows), n * n) == []
    for n in (2, 4):
        rows = V.build_constraints("P", n).rows + V.build_constraints("Q", n).rows
        assert nullspace_of_rref(integer_rref(rows), n * n) == []


def _row_sum(rows):
    total = {}
    for row in rows:
        for k, c in row.items():
            total[k] = total.get(k, 0) + c
    return {k: c for k, c in total.items() if c}


def test_every_rectangle_is_the_sum_of_the_adjacent_ones_inside_it():
    # VRAW row a·(n − 1) + b is the rectangle on rows a, a + 1, columns b, b + 1.
    for n in range(2, 9):
        adjacent = V._rows_vertex_raw(n)
        assert len(adjacent) == (n - 1) ** 2
        rectangles = iter(rows_vertex_raw(n))
        sides = [(i, k) for i in range(n) for k in range(i + 1, n)]
        for i, k in sides:
            for j, l in sides:
                inside = [adjacent[a * (n - 1) + b] for a in range(i, k) for b in range(j, l)]
                assert next(rectangles) == _row_sum(inside), (n, i, k, j, l)


def test_every_block_less_block_0_0_telescopes_to_neighbour_differences():
    # MENTRY row a·n + b − 1 differences block (a, b) against its neighbour:
    # (a, b − 1), or (a − 1, 0) at b = 0.  The alternating total comes last.
    for n in range(2, 9):
        steps = V._rows_array_sum_entrywise(n)
        reference = rows_array_sum_entrywise(n)
        assert len(steps) == len(reference) == n * n and steps[-1] == reference[-1]
        for a in range(n):
            for b in range(n):
                if a or b:
                    path = [a * n + c - 1 for c in range(1, b + 1)]
                    path += [c * n - 1 for c in range(1, a + 1)]
                    want = _row_sum(steps[k] for k in path)
                    assert reference[a * n + b - 1] == want, (n, a, b)


def test_odd_entrywise_array_sum_space_is_null():
    for n in (3, 5):
        assert V.build_constraints("MENTRY", n).nullity == 0
    # At even n the same system is the weighted space, dimension dim M + 1.
    assert V.build_constraints("MENTRY", 4).nullity == V.dimension_probe("M", 4) + 1


def test_random_space_member_is_a_member():
    rng = random.Random(31)
    for space in ("S", "A", "B", "R", "V", "M", "N", "RV", "MPS", "NQS"):
        for n in (4, 6):
            m = space_member(space, n, rng)
            assert in_space(m, space)


def _mps_vectors(n, rng):
    return extract_most_perfect_vectors(random_member("mps", n, rng))


def test_triple_product_trivial_and_random():
    z = Vector([Scalar(0)] * 4)
    assert mps_triple_product_check(z, z, z, z, z, z, 4)
    rng = random.Random(32)
    for n in (4, 6, 8):
        for _ in range(10):
            t = [_mps_vectors(n, rng) for _ in range(3)]
            assert mps_triple_product_check(
                t[0][0], t[0][1], t[1][0], t[1][1], t[2][0], t[2][1], n
            )


def test_triple_product_single_direction():
    g = Vector([1, 0, -1, 0])
    assert mps_triple_product_check(g, g, g, g, g, g, 4)


def test_parasymmetry_cases():
    g = Vector([1, 0, -1, 0])
    d = Vector([0, 1, 0, -1])
    z = Vector([Scalar(0)] * 4)
    assert parasymmetry_check(g, g.scale(Scalar(2)), 4)  # dependent
    assert parasymmetry_check(g, d, 4)  # independent: square asymmetric
    assert parasymmetry_check(z, d, 4)  # zero γ: dependent and symmetric
    m = (
        g.outer(Vector([1, -1, 1, -1]))
        + Vector([1, -1, 1, -1]).outer(d)
    )
    assert (m @ m) != (m @ m).transpose()


def test_rank_bounds_small():
    res = V.rank_bound_check("MPS", 6)
    assert res.ok and res.attained and res.max_rank == 2
    res = V.rank_bound_check("MPS+WE", 6)
    assert res.ok and res.max_rank <= 3
    res = V.rank_bound_check("REVERSIBLE", 5)
    assert res.ok
    res = V.rank_bound_check("V", 6)
    assert res.ok
    with pytest.raises(ValueError):
        V.rank_bound_check("S", 4)


def test_reversible_implies_associated_cases():
    assert check_entrywise(all_ones(4), "A").weight == Scalar(1)
    rng = random.Random(33)
    m = make_reversible([1, 2], [3, -1], 4) + all_ones(4).scale(Scalar(3))
    v = check_entrywise(m, "A")
    assert v.holds and v.weight == Scalar(3)
    for n in (3, 4, 5):
        assert V.reversible_implies_associated(n)


def test_reverse_complement():
    assert r_complement_membership(zeros(4))
    assert not r_complement_membership(all_ones(4))
    for n in (2, 3, 4, 5, 6):
        comp = V.build_constraints("RCOMP", n).nullity
        assert comp + V.dimension_probe("R", n) == n * n
        for m in V.build_constraints("RCOMP", n).basis_matrices():
            assert r_complement_membership(m)


def test_rv_equals_av():
    for n in (2, 3, 4, 5, 6):
        assert V.rv_equals_av(n)


def test_rv_equals_av_compares_the_reduced_rows(monkeypatch):
    # AM has RV's nullity at n = 3..7 but is another space: the check must
    # compare the reduced rows, not only the dimensions.
    build = V.build_constraints
    monkeypatch.setattr(
        V, "build_constraints", lambda tag, n: build("AM" if tag == "AV" else tag, n)
    )
    for n in range(3, 8):
        assert build("AM", n).nullity == build("RV", n).nullity
        assert not V.rv_equals_av(n), n


def test_reversible_constructor_spans_whole_space():
    # dimension_probe already asserts span-rank = nullity; the value itself
    # is 2ν (the two free vectors).
    for n in (2, 3, 4, 5, 6):
        assert V.dimension_probe("RV", n) == 2 * (n // 2)


def test_dual_path_agreement_small():
    for n in (2, 3, 4, 5):
        assert V.dual_path_agreement(n, 40, seed=8) == 0


def test_dual_path_members_run_no_maker(monkeypatch):
    # Each member is drawn from the oracle basis, so no draw runs a maker.
    def no_maker(*args):
        raise AssertionError("a dual-path draw ran a maker")

    monkeypatch.setattr(_Form, "build", no_maker)
    for n in (4, 5):
        assert V.dual_path_agreement(n, 21, seed=2) == 0


def test_every_third_dual_path_trial_is_a_member(monkeypatch):
    # Trials 0, 3 and 6 draw members, of the tags at those places of the
    # cyclic tag list; the others are dense integer matrices.
    tags = []
    member = V.ConstraintSystem.member

    def recorded(sys, P, Q=None):
        tags.append((sys.space, sys.n))
        return member(sys, P, Q)

    monkeypatch.setattr(V.ConstraintSystem, "member", recorded)
    assert V.dual_path_agreement(4, 9, seed=0) == 0
    assert tags == [("S", 4), ("R", 4), ("M", 4)]


def test_dual_path_members_have_a_sqrt2_part_and_solve_their_rows(monkeypatch):
    # Every member is a √2 combination of the oracle basis: it carries a √2
    # part and both of its integer parts solve each literal row.
    drawn = []
    member = V.ConstraintSystem.member

    def recorded(sys, P, Q=None):
        m = member(sys, P, Q)
        drawn.append((sys, m))
        return m

    monkeypatch.setattr(V.ConstraintSystem, "member", recorded)
    for n in range(2, 8):
        assert V.dual_path_agreement(n, 21, seed=n) == 0
    assert len(drawn) == 6 * 7
    for sys, m in drawn:
        assert m.Q is not None, (sys.space, sys.n)
        for part in (m.P, m.Q):
            assert all(sum(c * part[k] for k, c in row.items()) == 0 for row in sys.rows)
        assert in_space(m, sys.space), (sys.space, sys.n)


def test_member_is_the_scalar_combination_of_the_basis():
    # member(p, q) against Σ (p_k + q_k·√2)·b_k in Scalar arithmetic, with
    # each b_k read from the basis vector (den, [(index, num)]) directly.
    rng = random.Random(33)
    for n in range(1, 9):
        for tag in list(V._ATOMS) + list(COMPOSITES):
            if not exists(tag, n):
                continue
            sys = V.build_constraints(tag, n)
            basis = []
            for den, entries in sys.basis:
                vec = [Scalar(0)] * (n * n)
                for k, num in entries:
                    vec[k] = Scalar(Fraction(num, den))
                basis.append(Matrix(n, vec))
            assert sys.basis_matrices() == basis, (tag, n)
            p = [rng.randint(-9, 9) for _ in basis]
            q = [rng.randint(-9, 9) for _ in basis]
            # A list shorter than the basis, or Q None, is zero past its end.
            for P, Q in ((p, q), (p, None), (p[:1], q[:2])):
                want = zeros(n)
                for k, b in enumerate(basis):
                    pk = P[k] if k < len(P) else 0
                    qk = Q[k] if Q and k < len(Q) else 0
                    want = want + b.scale(Scalar(pk, qk))
                assert sys.member(P, Q) == want, (tag, n, Q is None)


def test_oracle_predicate_agreement_small():
    for n in (3, 4):
        for space in ("S", "A", "B", "R", "V", "M", "N", "RV"):
            assert V.oracle_predicate_agreement(space, n)
        if n % 2 == 0:
            for space in ("P", "Q", "MPS", "NQS"):
                assert V.oracle_predicate_agreement(space, n)


@pytest.fixture
def fresh_span_ranks():
    # A cached rank would hide patched constructor outputs, and patched
    # outputs must not outlive the test.
    V._constructor_span_rank.cache_clear()
    yield
    V._constructor_span_rank.cache_clear()


def test_oracle_predicate_agreement_rejects_a_constructed_non_member(
    monkeypatch, fresh_span_ranks
):
    # A constructor whose basis output (one nonzero corner entry, so its row
    # sums differ) breaks the semimagic equations.
    corner = Matrix(4, (Scalar(1),) + (Scalar(0),) * 15)
    assert not in_space(corner, "S")
    monkeypatch.setattr(V, "constructor_basis", lambda kind, n: [corner])
    with pytest.raises(VerificationError, match="violates the s constraints"):
        V.oracle_predicate_agreement("S", 4)


def test_oracle_predicate_agreement_judges_the_sqrt2_part(monkeypatch):
    # A predicate that reads only the rational part passes every rational
    # basis matrix; only the matrices with a √2 part expose it.
    def rational_part_only(m, tag):
        return in_space(Matrix(m.n, tuple(Scalar._make(x.p, 0, x.d) for x in m.entries)), tag)

    seen = []

    def recording(m, tag):
        seen.append(m)
        return in_space(m, tag)

    monkeypatch.setattr(V, "in_space", recording)
    for space in ("S", "V", "MPS", "RV"):
        seen.clear()
        assert V.oracle_predicate_agreement(space, 4)
        assert sum(not x.is_rational() for m in seen for x in m.entries) > 0, space
    monkeypatch.setattr(V, "in_space", rational_part_only)
    for space in ("S", "A", "V", "MPS", "RV"):
        assert not V.oracle_predicate_agreement(space, 4), space


def test_oracle_predicate_agreement_fails_before_the_span_check(monkeypatch):
    # A predicate that rejects an oracle basis matrix, or the combination
    # b₀ + √2·b₁ of two of them, fails the agreement at once.
    def no_probe(space, n):
        raise AssertionError("the constructor span check ran")

    monkeypatch.setattr(V, "dimension_probe", no_probe)
    monkeypatch.setattr(V, "in_space", lambda m, tag: False)
    assert not V.oracle_predicate_agreement("S", 4)
    monkeypatch.setattr(V, "in_space", lambda m, tag: m.Q is None and in_space(m, tag))
    assert not V.oracle_predicate_agreement("S", 4)


def test_first_broken_raises_when_the_reduced_rows_are_not_the_rows():
    # vec breaks the reduced row x₁ = 0 but not the literal row x₀ = 0.
    system = V.ConstraintSystem("S", 2, [{0: 1}], integer_rref([{1: 1}]))
    with pytest.raises(VerificationError, match="are not its rows"):
        system.first_broken([0, 1, 0, 0])

def test_oracle_predicate_agreement_rejects_a_short_constructor_span(
    monkeypatch, fresh_span_ranks
):
    # The agreement runs the span check too, so a constructor that misses
    # part of a composite space fails it, and the lemma suite with it.
    full = V.constructor_basis
    for kind in ("mps", "nqs", "rv"):
        monkeypatch.setattr(
            V, "constructor_basis",
            lambda k, n, short=kind: full(k, n)[1:] if k == short else full(k, n),
        )
        V._constructor_span_rank.cache_clear()
        with pytest.raises(VerificationError, match=f"span for {kind.upper()} at n=4 has dimension"):
            V.oracle_predicate_agreement(kind.upper(), 4)
        V._constructor_span_rank.cache_clear()
        with pytest.raises(VerificationError, match=f"span for {kind.upper()} at n=. has dimension"):
            V.run_suite("lemmas", n_max=4, trials=1)


def test_constructor_span_mismatch_detection(monkeypatch, fresh_span_ranks):
    # Outputs that each solve the equations but span too little: one
    # dropped output leaves the span a dimension short of the oracle.
    full = V.constructor_basis
    monkeypatch.setattr(V, "constructor_basis", lambda kind, n: full(kind, n)[1:])
    with pytest.raises(VerificationError, match="has dimension"):
        V.dimension_probe("S", 4)


def test_run_suite_quick():
    report = V.run_suite("dimensions", n_max=4)
    assert report["ok"] and report["failed"] == 0
    report = V.run_suite("all", n_max=3, trials=5, seed=1)
    assert report["ok"], [c for c in report["checks"] if not c["ok"]]
    with pytest.raises(ValueError):
        V.run_suite("nope")
    for bad in ({"trials": 0}, {"n_max": 0}):
        with pytest.raises(ValueError):
            V.run_suite("gradings", **bad)


def test_oracle_rejects_nonpositive_n():
    for tag, n in (("V", -3), ("S", 0), ("MENTRY", 0), ("RV", -1)):
        with pytest.raises(DimensionError):
            V.build_constraints(tag, n)
    with pytest.raises(DimensionError):
        V.dimension_probe("MENTRY", 0)


def test_oracle_nullity_matches_sympy():
    # A second, independent exact solver on the same equations.  Its
    # nullspace uses the same free-variable basis, so the bases must agree
    # entry for entry, not only in number.
    pytest.importorskip("sympy")
    from sympy.polys.domains import QQ
    from sympy.polys.matrices import DomainMatrix

    for tag in list(V._ATOMS) + list(V.COMPOSITES):
        for n in range(1, 9):
            if n % 2 and even_only(tag):
                continue
            sys = V.build_constraints(tag, n)
            assert all(type(x) is int for row in sys.rows for x in row.values())
            rows = [[QQ(0)] * (n * n) for _ in sys.rows]
            for dense, row in zip(rows, sys.rows):
                for k, x in row.items():
                    dense[k] = QQ(x)
            null = DomainMatrix(rows, (len(rows), n * n), QQ).nullspace()
            assert null.shape[0] == sys.nullity, (tag, n)
            want = [
                [Fraction(int(x.numerator), int(x.denominator)) for x in vec]
                for vec in null.to_list()
            ]
            got = []
            for den, entries in sys.basis:
                vec = [Fraction(0)] * (n * n)
                for k, num in entries:
                    vec[k] = Fraction(num, den)
                got.append(vec)
            assert got == want, (tag, n)


def test_composed_reduction_equals_a_fresh_reduction_of_the_literal_rows():
    # Composites and V are reduced from their parts' pivot rows; the result
    # must be the RREF and nullspace of the stacked literal rows themselves.
    for tag in list(V._ATOMS) + list(V.COMPOSITES):
        for n in range(1, 13):
            if not exists(tag, n):
                continue
            sys = V.build_constraints(tag, n)
            assert sys.pivots == integer_rref(sys.rows), (tag, n)
            assert sys.basis == nullspace_of_rref(integer_rref(sys.rows), n * n), (tag, n)


def test_nullity_from_the_pivot_count_is_the_basis_size():
    # Rank–nullity: the nullity is read from the pivot count, the basis off
    # the pivot rows, one vector per free column.
    for tag in list(V._ATOMS) + list(V.COMPOSITES):
        for n in range(1, 11):
            if not exists(tag, n):
                continue
            sys = V.build_constraints(tag, n)
            assert sys.nullity == len(sys.basis) == n * n - len(sys.pivots), (tag, n)


def test_nullity_never_builds_the_basis(monkeypatch):
    calls = []

    def counted(pivots, width):
        calls.append(width)
        return nullspace_of_rref(pivots, width)

    monkeypatch.setattr(V, "nullspace_of_rref", counted)
    V._atom.cache_clear()
    V.build_constraints.cache_clear()
    for tag in list(V._ATOMS) + list(V.COMPOSITES):
        if exists(tag, 6):
            V.build_constraints(tag, 6).nullity
    assert calls == []
    sys = V.build_constraints("RV", 6)
    basis = sys.basis
    assert calls == [36] and len(basis) == sys.nullity
    assert sys.basis is basis and calls == [36]


def test_stacking_leaves_the_cached_atoms_as_they_were():
    # A stack is reduced into a copy of its largest part's RREF; reducing
    # into the cached rows themselves would change every system built on
    # them.  Snapshot every atom but V (built on VRAW), then build V and
    # every composite.
    V._atom.cache_clear()
    V.build_constraints.cache_clear()
    sizes = range(2, 11)
    snapshot = {
        (tag, n): {col: dict(row) for col, row in V._atom(tag, n)[1].items()}
        for tag in V._ATOMS
        for n in sizes
        if tag != "V" and exists(tag, n)
    }
    for tag in ["V", *V.COMPOSITES]:
        for n in sizes:
            if exists(tag, n):
                V.build_constraints(tag, n)
    for (tag, n), pivots in snapshot.items():
        assert V._atom(tag, n)[1] == pivots, (tag, n)


def test_the_benchmark_clears_the_per_atom_reductions():
    # oracle_cold stays cold only if clear_caches() reaches the atom cache.
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    V.build_constraints("RV", 4)
    assert V._atom.cache_info().currsize > 0
    workloads.clear_caches()
    assert V._atom.cache_info().currsize == 0
    assert V.build_constraints.cache_info().currsize == 0


def test_oracle_builds_each_system_once_whatever_the_case():
    assert V.build_constraints("v", 6) is V.build_constraints("V", 6)
    assert V.build_constraints("mps", 4) is V.build_constraints("MPS", 4)


def test_satisfies_rejects_a_member_moved_off_its_space():
    # C·vec(M) is checked on the rational and the √2 part of M, so moving a
    # member along e_k for a column k that some equation reads breaks it,
    # whether the step is √2 or 1/3.
    steps = (Scalar(0, 1), Scalar(Fraction(1, 3)))
    for tag, n in (("S", 4), ("V", 5), ("MPS", 4), ("RV", 6), ("N", 3)):
        sys = V.build_constraints(tag, n)
        m = space_member(tag, n, random.Random(7))
        assert sys.satisfies(m) and sys.satisfies(m.scale(Scalar(1, 1)))
        read = sorted({k for row in sys.rows for k in row})
        for k in (read[0], read[-1]):
            for step in steps:
                moved = list(m.entries)
                moved[k] = moved[k] + step
                assert not sys.satisfies(Matrix(n, tuple(moved))), (tag, n, k, step)


def _law_products(pair, n):
    return sum(
        V.build_constraints(left, n).nullity * V.build_constraints(right, n).nullity
        for left, right, _ in V.GRADING_PAIRS[pair]
    )


def test_grading_certificate_proves_every_law_at_small_n():
    # Every product is counted, a passing one without a witness: at n = 2..6,
    # the suite's sizes, each certificate counts Σ nullity(left)·nullity(right).
    for pair in V.GRADING_PAIRS:
        for n in range(2, 7):
            if not V._grading_exists(pair, n):
                continue
            cert = V.grading_certificate(pair, n)
            assert cert.ok and cert.witnesses == [], (pair, n, cert.witnesses)
            assert cert.products == _law_products(pair, n), (pair, n)


def test_grading_certificate_guards():
    with pytest.raises(DimensionError):
        V.grading_certificate("QP", 3)
    with pytest.raises(ValueError):
        V.grading_certificate("??", 4)


def test_grading_suite_counts_every_basis_product():
    checks = V.suite_gradings()
    assert len(checks) == 31 and all(c["ok"] for c in checks)
    total = sum(c["products"] for c in checks)
    assert total == 9850
    assert total == sum(
        _law_products(pair, n)
        for pair in V.GRADING_PAIRS
        for n in range(2, 7)
        if V._grading_exists(pair, n)
    )
    assert all("trials" not in c and "witnesses" not in c for c in checks)


def _int_parts(m):
    # vec(M) = (P + Q·√2)/d over one common denominator: [P] or [P, Q].
    den = lcm(*(x.d for x in m.entries))
    parts = [[x.p * (den // x.d) for x in m.entries]]
    if any(x.q for x in m.entries):
        parts.append([x.q * (den // x.d) for x in m.entries])
    return parts


def test_false_law_fails_with_a_witness_the_oracle_confirms(monkeypatch):
    monkeypatch.setitem(V.GRADING_PAIRS, "BA", (("A", "A", "A"),))
    n = 4
    cert = V.grading_certificate("BA", n)
    assert not cert.ok and cert.products == V.build_constraints("A", n).nullity ** 2
    assert 0 < len(cert.witnesses) <= 3 < cert.failures
    report = cert.to_dict()
    assert report["witnesses"] == cert.witnesses and report["ok"] is False
    target = V.build_constraints("A", n)
    basis = target.basis_matrices()
    for w in cert.witnesses:
        assert w["law"] == ["A", "A", "A"]
        i, j = w["basis_pair"]
        product = basis[i] @ basis[j]
        assert w["rejected_by"] == ["oracle", "in_space"]
        assert not in_space(product, "A")
        k = w["equation"]
        (part,) = _int_parts(product)
        assert target.first_broken(part) == k
        # The same verdict in Scalar arithmetic: row k is the first one broken.
        sums = [
            sum((c * product.entries[idx] for idx, c in row.items()), Scalar(0))
            for row in target.rows[: k + 1]
        ]
        assert all(s == 0 for s in sums[:-1]) and sums[-1] != 0


def _literal_first_broken(sys, vec):
    # The first literal row that vec breaks, scanning every row.
    return next(
        (k for k, row in enumerate(sys.rows) if sum(c * vec[i] for i, c in row.items())),
        None,
    )


def _basis_products(left, right, n):
    rights = [V._by_row(n, e) for _, e in V.build_constraints(right, n).basis]
    return [
        V._int_product(n, V._terms(n, e), r)
        for _, e in V.build_constraints(left, n).basis
        for r in rights
    ]


def test_reduced_rows_and_literal_rows_name_the_same_first_broken_row():
    # C·x = 0 ⇔ RREF(C)·x = 0.  On every basis product of every grading law
    # at n ≤ 5, and on the first product (or 0) moved by each unit matrix.
    for pair, laws in V.GRADING_PAIRS.items():
        for n in range(2, 6):
            if not V._grading_exists(pair, n):
                continue
            for left, right, target in laws:
                sys = V.build_constraints(target, n)
                assert len(sys.reduced_rows) == n * n - sys.nullity
                products = _basis_products(left, right, n)
                for vec in products:
                    assert sys.first_broken(vec) is None
                    assert _literal_first_broken(sys, vec) is None
                first = products[0] if products else [0] * (n * n)
                broken = 0
                for k in range(n * n):
                    moved = list(first)
                    moved[k] += 1
                    want = _literal_first_broken(sys, moved)
                    assert sys.first_broken(moved) == want, (pair, n, target, k)
                    broken += want is not None
                assert broken or not sys.rows, (pair, n, target)


def test_false_laws_keep_the_first_broken_literal_row_as_witness(monkeypatch):
    # Each grading's even·even law, retargeted to its odd part, is false.
    n = 4
    for pair in ("BA", "SV", "NM", "QP"):
        even, odd = pair
        monkeypatch.setitem(V.GRADING_PAIRS, pair, ((even, even, odd),))
        cert = V.grading_certificate(pair, n)
        assert not cert.ok and cert.witnesses, pair
        products = _basis_products(even, even, n)
        width = V.build_constraints(even, n).nullity
        target = V.build_constraints(odd, n)
        for w in cert.witnesses:
            i, j = w["basis_pair"]
            assert w["equation"] == _literal_first_broken(target, products[i * width + j])
            assert w["equation"] is not None and w["rejected_by"] == ["oracle", "in_space"]


def _unmemoised_certificate(pair, n):
    # The reference: every basis product judged by both judges, none shared.
    cert = V.Certificate(pair, n)
    for law in V.GRADING_PAIRS[pair]:
        left, right, target = law
        sys = V.build_constraints(target, n)
        width = V.build_constraints(right, n).nullity
        for k, vec in enumerate(_basis_products(left, right, n)):
            broken = sys.first_broken(vec)
            judges = [] if broken is None else ["oracle"]
            if not in_space(Matrix.from_parts(n, vec, None, 1), target):
                judges.append("in_space")
            cert.record(not judges, law=list(law), basis_pair=list(divmod(k, width)),
                        equation=broken, rejected_by=judges)
    return cert


# Each grading's even·even law retargeted to its odd part, and SV's
# even·odd law retargeted to its even part, whose first three failing
# products repeat: all false at n = 4.
FALSE_LAWS = [
    ("BA", (("B", "B", "A"),)),
    ("SV", (("S", "S", "V"),)),
    ("NM", (("N", "N", "M"),)),
    ("QP", (("Q", "Q", "P"),)),
    ("SV", (("S", "V", "S"),)),
]


def test_grading_certificate_matches_the_unmemoised_reference(monkeypatch):
    for pair in V.GRADING_PAIRS:
        for n in (2, 3, 4, 5):
            if V._grading_exists(pair, n):
                want = _unmemoised_certificate(pair, n).to_dict()
                assert V.grading_certificate(pair, n).to_dict() == want, (pair, n)
    for pair, laws in FALSE_LAWS:
        monkeypatch.setitem(V.GRADING_PAIRS, pair, laws)
        cert = V.grading_certificate(pair, 4)
        assert not cert.ok and cert.to_dict() == _unmemoised_certificate(pair, 4).to_dict()
        # No two witnesses share a list, even where their products are equal.
        lists = [w["rejected_by"] for w in cert.witnesses]
        assert len({id(x) for x in lists}) == len(lists), pair


def test_each_distinct_product_is_judged_once_per_law(monkeypatch):
    n = 4
    calls = {}
    first_broken, judge = V.ConstraintSystem.first_broken, V.in_space

    def counted_first_broken(self, vec):
        calls["oracle"] += 1
        return first_broken(self, vec)

    def counted_in_space(m, tag):
        calls["in_space"] += 1
        return judge(m, tag)

    monkeypatch.setattr(V.ConstraintSystem, "first_broken", counted_first_broken)
    monkeypatch.setattr(V, "in_space", counted_in_space)
    for pair, laws in [*V.GRADING_PAIRS.items(), *FALSE_LAWS]:
        if not V._grading_exists(pair, n):
            continue
        monkeypatch.setitem(V.GRADING_PAIRS, pair, laws)
        calls.update(oracle=0, in_space=0)
        cert = V.grading_certificate(pair, n)
        distinct = sum(len({tuple(v) for v in _basis_products(l, r, n)}) for l, r, _ in laws)
        assert calls == {"oracle": distinct, "in_space": distinct}, pair
        assert distinct < cert.products, pair


def test_satisfies_is_first_broken_none():
    rng = random.Random(41)
    for tag, n in (("S", 4), ("V", 5), ("A", 3), ("MPS", 4), ("RV", 6), ("NQS", 4)):
        sys = V.build_constraints(tag, n)
        members = [space_member(tag, n, rng) for _ in range(3)]
        others = [
            Matrix(n, tuple(Scalar(rng.randint(-3, 3)) for _ in range(n * n)))
            for _ in range(3)
        ]
        for m in members + others + [members[0].scale(Scalar(1, 1))]:
            broken = [sys.first_broken(part) for part in _int_parts(m)]
            assert sys.satisfies(m) == all(k is None for k in broken), (tag, n)
        for m in members:
            assert sys.satisfies(m)
            assert sys.first_broken(_int_parts(m)[0]) is None
        for m in others:
            (part,) = _int_parts(m)
            k = sys.first_broken(part)
            broken = [sum(c * part[i] for i, c in row.items()) != 0 for row in sys.rows]
            assert k == (broken.index(True) if any(broken) else None), (tag, n)


def test_reversible_implies_associated_reads_the_rvraw_basis():
    for n in range(2, 8):
        assert V.build_constraints("RVRAW", n).nullity == 2 * (n // 2) + 1
        assert V.reversible_implies_associated(n)


def test_vertex_cross_rank_is_two():
    # Every V member is a·1ᵀ + 1·bᵀ, so rank ≤ 2, and generic members reach
    # it; the report's registered bound of 7 is not sharp.
    for n in (8, 9):
        res = V.rank_bound_check("V", n)
        assert res.ok and res.max_rank == 2, (n, res)


def _compressed(m, u):
    # C·M·C for C = n·I − u·uᵀ, in Matrix arithmetic.
    n = m.n
    c = Matrix.from_rows(
        [[n * (i == j) - u[i] * u[j] for j in range(n)] for i in range(n)]
    )
    return c @ m @ c


def test_rank_certificate_matches_the_matrix_compression():
    # Every basis matrix the certificate passes is compressed to 0, and
    # the witness is Σ k·b_k (+ E), ranked in Scalar arithmetic.
    for tag, oracle, u, n in (
        ("MPS", "MPS", [1, -1] * 3, 6),
        ("MPS+WE", "MPS", [1, -1] * 2, 4),
        ("REVERSIBLE", "RVRAW", [1] * 5, 5),
        ("V", "V", [1] * 8, 8),
    ):
        res = V.rank_bound_check(tag, n)
        basis = V.build_constraints(oracle, n).basis_matrices()
        assert res.ok and res.failures == 0 and res.basis == len(basis)
        assert all(_compressed(b, u).is_zero() for b in basis)
        witness = zeros(n)
        for k, b in enumerate(basis, 1):
            witness = witness + b.scale(Scalar(k))
        if tag == "MPS+WE":
            witness = witness + all_ones(n)
        assert rank(witness) == res.max_rank == res.bound, tag
        assert matrix_from_json_obj(res.to_dict()["member_matrix"]) == witness, tag
        assert "trials" not in res.to_dict()


def test_compressed_entry_is_the_first_nonzero_of_the_dense_compression():
    # `_compressed_entry` reads C·B·C = n²·B − O − t·u·uᵀ from the closed
    # form; here C@B@C is the dense product, on every oracle basis matrix of
    # the rank-bound spaces and on each with a unit added at its first or
    # at its last entry, so both the zero and the witness branch are met.
    found = {True: 0, False: 0}
    for tag in ("MPS", "REVERSIBLE", "V"):
        oracle, kind, _ = V._RANK_BOUNDS[tag]
        for n in range(1, 9):
            if not exists(oracle, n):
                continue
            u = INVOLUTIONS[kind].axis(n)
            for _, entries in V.build_constraints(oracle, n).basis:
                for bump in ((), (0,), (n * n - 1,)):
                    vec = [0] * (n * n)
                    for k, num in entries:
                        vec[k] = num
                    for k in bump:
                        vec[k] += 1
                    cbc = _compressed(Matrix.from_parts(n, vec, None, 1), u)
                    first = next(
                        ([r, c] for r in range(n) for c in range(n) if cbc[r, c] != 0), None
                    )
                    assert V._compressed_entry(n, u, V._sparse(vec)) == first, (tag, n, bump)
                    found[first is None] += 1
    assert found[True] > 0 and found[False] > 0, found


def test_first_broken_unit_sits_at_the_first_pivot_column():
    # No reduced row has a nonzero left of its pivot, so the first unit
    # matrix that breaks a system's equations is at its first pivot column.
    for tag in [*SPACES, *COMPOSITES]:
        for n in range(1, 8):
            if not exists(tag, n):
                continue
            sys = V.build_constraints(tag, n)
            units = ([int(j == k) for j in range(n * n)] for k in range(n * n))
            broken = (k for k, unit in enumerate(units) if sys.first_broken(unit) is not None)
            first = next(broken, None)
            assert first == min(sys.pivots, default=None), (tag, n)


def test_rank_certificate_names_the_basis_matrix_it_breaks(monkeypatch):
    # The semimagic space with u = 1 claims rank ≤ 2, which is false.
    monkeypatch.setitem(V._RANK_BOUNDS, "V", ("S", "SV", False))
    n = 4
    res = V.rank_bound_check("V", n)
    basis = V.build_constraints("S", n).basis_matrices()
    assert not res.ok and 0 < len(res.witnesses) <= 3 <= res.failures
    assert res.to_dict()["witnesses"] == res.witnesses
    assert res.products == res.basis == len(basis)
    u = [1] * n
    broken = [k for k, b in enumerate(basis) if not _compressed(b, u).is_zero()]
    assert res.failures == len(broken)
    assert [w["basis_index"] for w in res.witnesses] == broken[:3]
    for w in res.witnesses:
        cbc = _compressed(basis[w["basis_index"]], u)
        first = next([r, c] for r in range(n) for c in range(n) if cbc[r, c] != 0)
        assert w["entry"] == first


def test_mps_certificate_counts_every_basis_pair_and_triple():
    for n, k in ((4, 4), (6, 4), (8, 8)):
        pairs, triples = V.mps_certificates(n)
        assert pairs.basis == triples.basis == k
        # The members span the whole oracle space: the certificate covers
        # every most perfect square, not only the constructor's.
        assert V.dimension_probe("MPS", n) == k
        assert (pairs.products, triples.products) == (k**2, k**3)
        assert pairs.ok and triples.ok and not pairs.witnesses
    checks = [c for c in V.run_suite("lemmas", n_max=2, trials=1)["checks"]
              if "MPS" in c["name"] or "parasymmetry" in c["name"]]
    assert [c["products"] for c in checks] == [64, 16, 64, 16, 512, 64]
    assert all("trials" not in c for c in checks)


def _mps_basis(n):
    # The (γ, δ) pairs of the members the certificate is proved on.
    return [extract_most_perfect_vectors(m) for m in constructor_basis("mps", n)]


def test_mps_certificate_agrees_with_the_matrix_path():
    for n in (4, 6, 8):
        basis = _mps_basis(n)
        assert [m for _, _, m in V._mps_members(n)] == [
            [x.p for x in make_most_perfect(g, d, n).entries] for g, d in basis
        ]
        k = len(basis)
        for i, j, l in ((0, 0, 0), (0, k - 1, 1), (k - 1, 1, k // 2), (1, k // 2, k - 1)):
            (g1, d1), (g2, d2), (g3, d3) = basis[i], basis[j], basis[l]
            assert mps_triple_product_check(g1, d1, g2, d2, g3, d3, n)
            # The member x + y: its square expands over the pair (x, y).
            assert parasymmetry_check(g1 + g2, d1 + d2, n)


def test_perturbed_mps_identity_fails_with_its_basis_witness(monkeypatch):
    n, bad = 4, 2
    members = V._mps_members(n)
    gamma, delta, m = members[bad]
    m = list(m)
    m[1] += 1  # no longer γΣᵀ + Σδᵀ
    members[bad] = (gamma, delta, m)
    monkeypatch.setattr(V, "_mps_members", lambda n: members)
    pairs, triples = V.mps_certificates(n)
    assert not pairs.ok and not triples.ok
    assert pairs.to_dict()["witnesses"] == pairs.witnesses
    (i, j), (x, y, z) = pairs.witnesses[0]["basis_pair"], triples.witnesses[0]["basis_triple"]
    assert bad in (i, j) and bad in (x, y, z)
    # Confirmed in Matrix arithmetic: with the perturbed member, the pair
    # and the triple named as witnesses break their identities.
    basis = _mps_basis(n)
    mats = [make_most_perfect(g, d, n) for g, d in basis]
    mats[bad] = Matrix(n, tuple(Scalar(v) for v in m))
    sig = Vector([1, -1] * (n // 2))
    (gi, di), (gj, dj) = basis[i], basis[j]
    want = gi.scale(Scalar(n)).outer(dj) + sig.scale(di.dot(gj)).outer(sig)
    assert mats[i] @ mats[j] != want
    (gx, dx), (gy, dy), (gz, dz) = basis[x], basis[y], basis[z]
    want = gx.scale(dy.dot(gz) * n).outer(sig) + sig.outer(dz.scale(dx.dot(gy) * n))
    assert mats[x] @ mats[y] @ mats[z] != want
    # The unperturbed members pass both on the same witnesses.
    assert mps_triple_product_check(gx, dx, gy, dy, gz, dz, n)
