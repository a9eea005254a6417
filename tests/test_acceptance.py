"""Acceptance suite: one test per criterion, exact tolerances, stated trial
counts, printed pass/fail lines.  Everything here is exact arithmetic — the
only tolerances are the runtime budgets, which are asserted where stated.
"""

import json
import random
import time
from fractions import Fraction

import pytest

from symalg import io as mio
from symalg import verify as V
from symalg.blockform import conjugate_x, from_block, to_block
from symalg.cli import main as cli_main
from symalg.construct import CONSTRUCTIBLE, random_member
from symalg.matrix import Matrix, all_ones, rank
from symalg.predicates import classify, even_only, in_space
from symalg.scalar import Scalar

MPS6_BLOCK_INPUT = Matrix.from_rows(
    [
        [0, 0, 0, 1, -1, 1],
        [0, 0, 0, -2, 2, -2],
        [0, 0, 0, 1, -1, 1],
        [-2, 4, -2, 1, 0, -1],
        [2, -4, 2, -1, 0, 1],
        [-2, 4, -2, 1, 0, -1],
    ]
)

MPS6_EXPECTED = Matrix.from_rows(
    [
        [-2, 3, 0, -4, 5, -2],
        [1, -2, -1, 5, -6, 3],
        [-2, 3, 0, -4, 5, -2],
        [4, -5, 2, 2, -3, 0],
        [-5, 6, -3, -1, 2, 1],
        [4, -5, 2, 2, -3, 0],
    ]
)


def _report(num: int, ok: bool, text: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} — {text}")
    assert ok, f"criterion {num} failed: {text}"


def test_criterion_1_six_by_six_reproduction():
    t0 = time.perf_counter()
    produced = conjugate_x(MPS6_BLOCK_INPUT.scale(2))
    bit_exact = produced == MPS6_EXPECTED
    rep = classify(MPS6_EXPECTED)
    zero = Scalar(0)
    weights_ok = (
        rep.props["S"].holds and rep.props["S"].weight == zero
        and rep.props["M"].holds and rep.props["M"].weight == zero
        and rep.props["P"].holds and rep.props["P"].weight == zero
    )
    round_trip = from_block(to_block(MPS6_EXPECTED)) == MPS6_EXPECTED
    elapsed = time.perf_counter() - t0
    _report(
        1,
        bit_exact and weights_ok and round_trip and elapsed < 1.0,
        f"6×6 most perfect square reproduced bit-exact, S/M/P weights 0 "
        f"({elapsed:.3f}s)",
    )


def test_criterion_2_dimension_formulas():
    t0 = time.perf_counter()
    ok = True
    for n in range(2, 9):
        ok &= V.dimension_probe("S", n) == n * n - 2 * n + 2
        ok &= V.dimension_probe("V", n) == 2 * n - 2
        for even_tag, odd_tag in (("B", "A"), ("S", "V"), ("N", "M"), ("Q", "P")):
            if n % 2 and even_only(even_tag):
                continue
            ok &= V.dimension_probe(even_tag, n) + V.dimension_probe(odd_tag, n) == n * n
    elapsed = time.perf_counter() - t0
    _report(
        2,
        ok and elapsed < 30.0,
        f"dim formulas and all four direct-sum splits, n=2..8, exact "
        f"({elapsed:.1f}s < 30s)",
    )


def test_criterion_3_grading_suites():
    t0 = time.perf_counter()
    products = failures = 0
    for pair in ("BA", "QP", "SV", "NM", "R", "NQS-MPS", "BS-RV"):
        laws = V.GRADING_PAIRS[pair]
        for n in range(2, 7):
            if n % 2 and any(even_only(tag) for law in laws for tag in law):
                continue
            cert = V.grading_certificate(pair, n)
            products += cert.products
            failures += cert.failures
    elapsed = time.perf_counter() - t0
    _report(
        3,
        failures == 0 and products > 0 and elapsed < 120.0,
        f"7 grading suites proved on all {products} basis products, n=2..6, "
        f"{failures} failures ({elapsed:.1f}s < 120s)",
    )


def test_criterion_4_odd_array_sum_impossibility():
    nullities = {n: V.build_constraints("MENTRY", n).nullity for n in (3, 5, 7)}
    _report(
        4,
        all(v == 0 for v in nullities.values()),
        f"entrywise array-sum constraint nullity at odd n: {nullities}",
    )


def test_criterion_5_rank_bounds():
    # Certificates: C·B·C = 0 on every oracle basis matrix B proves the
    # bound, and the member Σ k·b_k (+ E) shows how far it is reached.
    checks = []
    res = V.rank_bound_check("MPS", 6)
    checks.append(res.ok and res.attained)
    res = V.rank_bound_check("MPS", 8)
    checks.append(res.ok and res.attained)
    res = V.rank_bound_check("MPS+WE", 6)
    checks.append(res.ok)
    for n in (5, 6):
        res = V.rank_bound_check("REVERSIBLE", n)
        checks.append(res.ok)
    for n in (8, 9):
        res = V.rank_bound_check("V", n)
        checks.append(res.ok and res.attained)
    _report(
        5,
        all(checks),
        "certified on every oracle basis matrix: weightless MPS ≤ 2 "
        "(attained), weighted ≤ 3, reversible ≤ 2, vertex-cross ≤ 2 "
        "(attained) at n=8,9",
    )


def test_criterion_6_triple_product():
    ok = True
    counts = {}
    for n in (4, 6, 8):
        _, triples = V.mps_certificates(n)
        ok &= triples.ok
        counts[n] = triples.products
    ok &= counts == {4: 64, 6: 64, 8: 512}
    _report(6, ok, f"most-perfect triple product exact on every basis triple: {counts}")


def test_criterion_7_structural_theorems():
    rv_av = all(V.rv_equals_av(n) for n in range(2, 7))
    implies_a = all(
        V.reversible_implies_associated(n) for n in range(2, 7)
    )
    # Every raw oracle member, not just random draws: the basis itself.
    basis_a = all(
        in_space(m, "VRAW") and m is not None
        for n in range(2, 7)
        for m in V.build_constraints("RVRAW", n).basis_matrices()
    )
    # The closed form of M(x)·M(y) on every basis pair gives M², which is
    # symmetric iff γ and δ are dependent.
    para = all(V.mps_certificates(n)[0].ok for n in (4, 6))
    _report(
        7,
        rv_av and implies_a and basis_a and para,
        "RV=AV mutual inclusion n=2..6; reverse∧vertex ⇒ associated; "
        "parasymmetry ⇔ dependence on every basis pair",
    )


def test_criterion_8_agreement():
    mismatches = 0
    for n in range(2, 8):
        mismatches += V.dual_path_agreement(n, 1000, seed=n)
    span_ok = True
    for n in range(2, 8):
        spaces = ["S", "A", "B", "R", "V", "M", "N", "RV"]
        if n % 2 == 0:
            spaces += ["P", "Q", "MPS", "NQS"]
        for space in spaces:
            span_ok &= V.oracle_predicate_agreement(space, n)
    _report(
        8,
        mismatches == 0 and span_ok,
        f"dual-path agreement (1000 trials per n, n=2..7): {mismatches} "
        "mismatches; oracle bases pass predicates and constructor basis "
        "outputs solve the oracle equations",
    )


def test_criterion_9_cli_golden(tmp_path, capsys):
    rng = random.Random(3000)
    serial_ok = True
    for _ in range(1000):
        n = rng.randint(1, 5)
        m = Matrix(
            n,
            tuple(
                Scalar(
                    Fraction(rng.randint(-99, 99), rng.randint(1, 12)),
                    Fraction(rng.randint(-99, 99), rng.randint(1, 12)),
                )
                for _ in range(n * n)
            ),
        )
        serial_ok &= mio.loads_matrix(mio.dumps_matrix(m)) == m

    exit_ok = True
    src = tmp_path / "e4.json"
    mio.write_matrix(all_ones(4), str(src))
    exit_ok &= cli_main(["classify", str(src), "--format", "json"]) == 0
    exit_ok &= cli_main(["classify", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 2, "entries": ["1"]}')
    exit_ok &= cli_main(["classify", str(bad)]) == 2
    params = tmp_path / "p.json"
    params.write_text(json.dumps({"a": [1, 2], "b": [3, 4]}))
    exit_ok &= (
        cli_main(["construct", "--type", "mps", "--n", "4", "--params", str(params)])
        == 3
    )

    closure_ok = True
    out_path = tmp_path / "c.json"
    for kind in CONSTRUCTIBLE:
        for n in ("4", "6") if even_only(kind) else ("4", "5"):
            code = cli_main(
                ["construct", "--type", kind, "--n", n, "--seed", "9",
                 "--out", str(out_path)]
            )
            closure_ok &= code == 0
            m = mio.read_matrix(str(out_path))
            closure_ok &= in_space(m, kind.upper())
    capsys.readouterr()  # swallow CLI output before the verdict line
    _report(
        9,
        serial_ok and exit_ok and closure_ok,
        "serialization round trip ×1000 exact; exit codes 0/2/3; "
        "construct→classify closure for all twelve type tags",
    )
