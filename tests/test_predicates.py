import dataclasses
import random

import pytest

from symalg import verify as V
from symalg.blockform import INVOLUTIONS, reflection_odd
from symalg.construct import random_member
from symalg.errors import DimensionError, PredicatePathMismatch
from symalg.matrix import Matrix, all_ones, alternating, identity, zeros
from symalg.predicates import (
    COMPOSITES,
    SPACES,
    _ew_reverse,
    check_algebraic,
    check_entrywise,
    classify,
    dual_routes,
    even_only,
    exists,
    in_space,
)
from symalg.scalar import SQRT2, Scalar

import beyond
from references import reverse_full, space_member, verdicts_agree


def rand_matrix(n, rng):
    return Matrix(n, tuple(Scalar(rng.randint(-4, 4)) for _ in range(n * n)))


def test_all_ones_has_every_property():
    # The all-ones matrix carries S, A, B, R, V for every n and also
    # M, N, P, Q for even n, all with weight 1 where weighted.
    for n in range(1, 9):
        rep = classify(all_ones(n))
        for prop in "SABRV":
            assert rep.props[prop].holds, (n, prop)
        for prop in "SA":
            assert rep.props[prop].weight == Scalar(1)
        if n % 2 == 0:
            for prop in "MNPQ":
                assert rep.props[prop].holds, (n, prop)
            assert rep.props["M"].weight == Scalar(1)
            assert rep.props["P"].weight == Scalar(1)
        else:
            assert not rep.props["M"].holds
            if n > 1:  # at n = 1 the alternating eigencondition is vacuous
                assert not rep.props["N"].holds


def test_all_ones_semimagic_weight_odd():
    v = check_entrywise(all_ones(3), "S")
    assert v.holds and v.weight == Scalar(1)


def test_zero_matrix_everything_with_weight_zero():
    for n in (2, 3, 4, 5):
        rep = classify(zeros(n))
        for prop, v in rep.props.items():
            assert v.holds, prop
            if v.weight is not None:
                assert v.weight == Scalar(0)
        assert all(rep.spaces.values())
        assert all(rep.composites.values())


def test_odd_alternating_pairs_example():
    m = Matrix.from_rows([[1, 2, 1], [1, 0, -1], [0, -2, -2]])
    assert check_entrywise(m, "N").holds
    rep = classify(m)
    assert rep.props["N"].holds
    assert rep.props["N"].route == "algebraic"
    assert rep.props["N"].weight == Scalar(0)


def test_weightless_most_perfect_six_by_six():
    m = Matrix.from_rows(
        [
            [-2, 3, 0, -4, 5, -2],
            [1, -2, -1, 5, -6, 3],
            [-2, 3, 0, -4, 5, -2],
            [4, -5, 2, 2, -3, 0],
            [-5, 6, -3, -1, 2, 1],
            [4, -5, 2, 2, -3, 0],
        ]
    )
    v = check_entrywise(m, "S")
    assert v.holds and v.weight == Scalar(0)
    rep = classify(m)
    assert rep.composites["MPS"]
    assert rep.props["M"].weight == Scalar(0)
    assert rep.props["P"].weight == Scalar(0)


def test_entrywise_pq_need_even_n():
    for prop in "PQ":
        with pytest.raises(DimensionError):
            check_entrywise(identity(3), prop)


def test_odd_mn_fall_back_to_algebraic():
    m = rand_matrix(5, random.Random(0))
    for prop in "MN":
        v = check_entrywise(m, prop)
        assert v.route == "algebraic"
        assert v.holds == check_algebraic(m, prop).holds


def test_identity_classification():
    rep = classify(identity(4))
    assert rep.props["B"].holds and bool(rep.props["B"]) and not rep.props["A"]
    assert rep.props["Q"].holds
    assert rep.props["S"].holds and rep.props["S"].weight == Scalar(1) / 4
    assert not rep.props["A"].holds
    assert not rep.props["V"].holds


def test_disjointness_on_members():
    # A matrix in both halves of a split must be the zero matrix.
    rng = random.Random(7)
    for n in (3, 4, 5, 6):
        for a, b in (("A", "B"), ("S", "V"), ("N", "M")):
            m = random_member(a.lower(), n, rng)
            if in_space(m, b):
                assert m.is_zero()


def test_pandiagonal_implies_alternating_sum():
    rng = random.Random(8)
    sig4 = alternating(4)
    sig6 = alternating(6)
    for n, sig in ((4, sig4), (6, sig6)):
        for _ in range(25):
            m = random_member("p", n, rng)
            assert sig.dot(m.apply(sig)).is_zero()


def test_dual_route_agreement_members_and_non_members():
    rng = random.Random(9)
    for n in range(2, 9):
        props = dual_routes(n)
        for t in range(60):
            if t % 3 == 0:
                m = random_member("sabrvnm"[t % 7], n, rng)
            else:
                m = rand_matrix(n, rng)
            for prop in props:
                e, a = check_entrywise(m, prop), check_algebraic(m, prop)
                assert verdicts_agree(e, a), (n, prop, m)


def _property_member(prop, n, rng):
    # A rational matrix with property `prop`: an oracle member of its space,
    # plus a multiple of E where E has the property, so that A, M and P
    # members carry a nonzero weight too.
    m = space_member("VRAW" if prop == "V" else prop, n, rng)
    if n % 2 == 0 or prop in "SABRV":
        m = m + all_ones(n).scale(Scalar(rng.randint(1, 5)))
    return m


def _property_non_member(prop, n, rng):
    # None where every matrix has the property (R at n = 2).
    for _ in range(20):
        m = rand_matrix(n, rng)
        if not check_entrywise(m, prop).holds:
            return m
    return None


def test_routes_decide_the_rational_and_sqrt2_parts_separately():
    # M = X + √2·Y has a property exactly when X and Y both have it, with
    # weight w(X) + √2·w(Y).  The pairs put a member beside a non-member
    # in either part, so the rational part of an irrational non-member can
    # pass, and a member beside a member.
    rng = random.Random(23)
    for n in range(2, 9):
        for prop in "SABRVMNPQ":
            if not exists(prop, n):
                continue
            checks = [check_entrywise]
            if SPACES[prop].algebraic is not None:
                checks.append(check_algebraic)
            x, y = _property_member(prop, n, rng), _property_non_member(prop, n, rng)
            assert all(check(x, prop).holds for check in checks), (n, prop)
            cases = [(x, _property_member(prop, n, rng))]
            if y is not None:
                cases += [(x, y), (y, x)]
            else:
                assert n == 2 and prop == "R"
            for t, pairs in enumerate(cases):
                m = pairs[0] + pairs[1].scale(SQRT2)
                for check in checks:
                    vx, vy, vm = (check(a, prop) for a in (*pairs, m))
                    assert vm.holds == (vx.holds and vy.holds), (n, prop, t, check)
                    assert vm.route == vx.route
                    if vm.holds and vm.weight is not None:
                        assert vm.weight == vx.weight + SQRT2 * vy.weight, (n, prop, check)
                    assert (vm.weight is None) == (not vm.holds or vx.weight is None)


def test_in_space_judges_the_weight_of_both_parts():
    # A, M and P are the weight-0 parts of their properties.  X + √2·Y with
    # X of weight 0 and Y of weight w ≠ 0 has the property, with weight
    # √2·w, so it is not in the space although its rational part is.
    rng = random.Random(31)
    for n in range(2, 9):
        for tag in ("A", "M", "P"):
            if n % 2 and tag != "A":
                continue
            x, y = space_member(tag, n, rng), _property_member(tag, n, rng)
            assert in_space(x, tag) and not in_space(y, tag), (n, tag)
            for m in (x + y.scale(SQRT2), y + x.scale(SQRT2), x + x.scale(SQRT2)):
                assert check_entrywise(m, tag).holds, (n, tag)
                assert in_space(m, tag) == classify(m).spaces[tag], (n, tag)
            assert not in_space(x + y.scale(SQRT2), tag), (n, tag)
            assert in_space(x + x.scale(SQRT2), tag), (n, tag)


def test_in_space_applies_the_rule_classify_does():
    beyond.in_space_rule(range(1, 10), seed=2016)


def test_dual_route_agreement_large_n_eight():
    from symalg.verify import dual_path_agreement

    assert dual_path_agreement(8, 1000, seed=88) == 0


def test_classify_runs_both_routes_without_mismatch():
    rng = random.Random(10)
    for n in range(1, 8):
        for _ in range(40):
            classify(rand_matrix(n, rng))  # raises on any path mismatch


def test_vertex_space_vs_raw_property():
    # The all-ones matrix has the raw vertex-cross property but a nonzero
    # total, so it sits outside the normalized space.
    e = all_ones(3)
    assert check_entrywise(e, "V").holds
    rep = classify(e)
    assert rep.props["V"].holds and not rep.v_sum_zero and not rep.spaces["V"]
    assert in_space(e, "VRAW") and not in_space(e, "V")


def test_in_space_rejects_unknown_tag():
    with pytest.raises(ValueError):
        in_space(identity(2), "ZZ")


def test_route_checks_reject_tags_that_are_not_properties():
    # VRAW is a space of property V, not a property of its own.
    for tag in ("ZZ", "VRAW", "MPS"):
        for check in (check_entrywise, check_algebraic):
            with pytest.raises(ValueError):
                check(identity(2), tag)


def test_space_table_facts():
    # M and N have both routes at even n and are defined algebraically at
    # odd n; P and Q have no algebraic route and exist only at even n, and
    # so do the composites built on them.
    assert dual_routes(4) == tuple("SABRVMN")
    assert dual_routes(5) == tuple("SABRV")
    tags = list(SPACES) + list(COMPOSITES)
    assert {tag for tag in tags if even_only(tag)} == {"P", "Q", "MPS", "NQS"}
    assert exists("P", 4) and not exists("P", 3) and not exists("S", 0)
    assert exists("MENTRY", 3) and not exists("NQS", 1)


def test_in_space_rejects_even_only_tags_at_odd_n():
    even_tags = [tag for tag in list(SPACES) + list(COMPOSITES) if even_only(tag)]
    for n in (1, 3, 5):
        for tag in even_tags:
            with pytest.raises(DimensionError):
                in_space(zeros(n), tag)
    assert all(in_space(zeros(4), tag) for tag in even_tags)


def test_agreement_rule_on_decisions_is_the_verdict_rule():
    beyond.agreement_rule(range(1, 10), seed=34)


def test_early_exit_routes_equal_their_full_sum_references():
    beyond.early_exit_kernels(range(1, 10), seed=35)


def test_entrywise_reverse_reads_each_mirror_pair_once_and_still_sees_every_break():
    # A reverse member broken at one entry of one row: at the odd-n centre,
    # which is its own mirror, or in the second half of the row, whose
    # mirror pair the route reads from the first half.  Each row is also
    # read as a column, by the transpose.
    rng = random.Random(4)
    for n in range(3, 10):
        e = random_member("r", n, rng).P
        assert _ew_reverse(e, n) == reverse_full(e, n) == (True, None, 1)
        spots = [n // 2] if n % 2 else []
        spots += range((n + 1) // 2, n - 1)
        for i in range(n):
            for j in spots:
                for k in (i * n + j, j * n + i):
                    bumped = list(e)
                    bumped[k] += 1
                    got = _ew_reverse(bumped, n)
                    assert got == reverse_full(bumped, n) == (False, None, 1), (n, k)


class _CountedReads(tuple):
    # A row-major tuple that counts the row slices read from it.
    def __getitem__(self, k):
        if isinstance(k, slice) and k.step is None:
            self.rows += 1
        return super().__getitem__(k)


def test_reflection_closed_form_reads_a_row_only_when_it_reaches_it():
    for n in (3, 6):
        e = _CountedReads(range(n * n))
        e.rows = 0
        odd = reflection_odd(e, n, INVOLUTIONS["SV"].axis(n))
        assert e.rows == 0
        for i in range(n):
            for _ in range(n):
                next(odd)
            assert e.rows == i + 1


def test_a_disagreeing_route_is_counted_and_raises(monkeypatch):
    # An algebraic S route that gets `holds` wrong on every trial matrix, or
    # only the weight, on the semimagic ones.
    calls, counted = [], V.disagreements

    def recorded(n, matrices):
        calls.append(list(matrices))
        return counted(n, calls[-1])

    monkeypatch.setattr(V, "disagreements", recorded)
    assert V.dual_path_agreement(4, 30, seed=3) == 0
    semimagic = sum(classify(m).props["S"].holds for m in calls[0])
    assert len(calls[0]) == 30 and 0 < semimagic < 30

    def wrong_holds(e, n):
        holds, num, den = alg(e, n)
        return not holds, num, den

    def wrong_weight(e, n):
        holds, num, den = alg(e, n)
        return holds, num + 1, den

    alg = SPACES["S"].algebraic
    for wrong, broken in ((wrong_holds, 30), (wrong_weight, semimagic)):
        monkeypatch.setitem(SPACES, "S", dataclasses.replace(SPACES["S"], algebraic=wrong))
        assert V.dual_path_agreement(4, 30, seed=3) == broken, wrong
        with pytest.raises(PredicatePathMismatch):
            classify(all_ones(4))
