#!/usr/bin/env python3
# Mechanically checking the structural identities.
#
# The verification layer compiles each space's definition into an exact
# linear constraint system (the oracle), then checks dimension formulas,
# the graded-algebra product laws, rank bounds, the most perfect square
# identities and the impossibility results against it.

import json

from symalg import (
    build_constraints,
    dimension_probe,
    grading_certificate,
    mps_certificates,
    rank_bound_check,
    run_suite,
    rv_equals_av,
)

# Dimension formulas: semimagic has dimension n²−2n+2, vertex-cross 2n−2.
print("dimensions:")
for n in range(2, 7):
    print(
        f"  n={n}:  dim S = {dimension_probe('S', n):>2}   "
        f"dim V = {dimension_probe('V', n):>2}"
    )

# At odd n the literal 2×2-sum property admits only the zero matrix.
for n in (3, 5, 7):
    assert build_constraints("MENTRY", n).nullity == 0
print("\nodd-dimensional array-sum impossibility: nullity 0 at n = 3, 5, 7")

# The graded-algebra laws: even·even ⊂ even, odd·odd ⊂ even,
# mixed ⊂ odd — for all seven pairings.  A law is bilinear, so checking
# every product of two oracle basis matrices proves it at that n.
print("\ngrading certificates (every basis product of every law):")
for pair in ("BA", "QP", "SV", "NM", "R", "NQS-MPS", "BS-RV"):
    n = 5 if pair not in ("QP", "NQS-MPS") else 6
    res = grading_certificate(pair, n)
    print(f"  {pair:>8} at n={n}: {res.products} products, {res.failures} failures")

# Rank bounds: weightless most perfect squares cap at rank 2 (and reach
# it), weighted ones at 3, reversible squares at 2, vertex-cross members
# (a·1ᵀ + 1·bᵀ) at 2.  With C = n·I − u·uᵀ (u = Σ or 1), C·B·C = 0 on every
# oracle basis matrix B proves the bound; the member Σ k·b_k (+ E) shows it
# is reached.
print("\nrank bounds (certified on the oracle basis):")
for space, n in (("MPS", 6), ("MPS+WE", 6), ("REVERSIBLE", 6), ("V", 8)):
    res = rank_bound_check(space, n)
    print(
        f"  {space:>10} n={n}: {res.basis} basis matrices, rank ≤ {res.bound}; "
        f"{res.member} has rank {res.max_rank}"
    )

# The most perfect square identities are bilinear and trilinear in the
# vector pairs (γ, δ), so every basis pair and triple proves them.
pairs, triples = mps_certificates(8)
print(
    f"\nMPS identities at n=8 on {pairs.basis} basis members: "
    f"{pairs.products} pairs, {triples.products} triples, "
    f"{pairs.failures + triples.failures} failures"
)

# Weightless reversible squares coincide with associated ∧ vertex-cross.
assert all(rv_equals_av(n) for n in range(2, 7))
print("\nreversible = associated ∧ vertex-cross: mutual span inclusion, n = 2..6")

# The same machinery drives `symalg verify`; here is the compact report.
report = run_suite("dimensions", n_max=5)
print("\nsuite report:", json.dumps({k: report[k] for k in ("suite", "passed", "failed", "ok")}))
