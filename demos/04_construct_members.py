#!/usr/bin/env python3
# Constructing members of every symmetry space from free parameters.
#
# Each space has a representation formula: fill in free blocks/vectors,
# conjugate with X, and membership is guaranteed.  Random members come
# from small rational parameter draws; everything is verified by the
# predicates afterwards.

import random

from symalg import (
    alternating,
    classify,
    extract_most_perfect_vectors,
    in_space,
    make_most_perfect,
    make_most_perfect_block,
    make_reversible,
    make_semimagic,
    mps_certificates,
    random_member,
)

rng = random.Random(7)

# -- one member of each space, by tag ----------------------------------------

for kind in ("a", "b", "s", "v", "n", "m", "r", "p", "q", "mps", "nqs", "rv"):
    n = 6 if kind in ("p", "q", "mps", "nqs") else 5
    m = random_member(kind, n, rng)
    tag = {"mps": "MPS", "nqs": "NQS", "rv": "RV"}.get(kind, kind.upper())
    assert in_space(m, tag)
    print(f"random member of {tag:>3} at n={n}: verified")

# -- explicit parameters -----------------------------------------------------

# A semimagic matrix of weight 3/2 at odd dimension: the weight is a free
# parameter of the odd-n formula.
from fractions import Fraction

m = make_semimagic(5, w=Fraction(3, 2))
print("\nsemimagic weight:", classify(m).props["S"].weight)

# The 6×6 most perfect square from its block parameters: two mirror-odd
# vectors orthogonal to the all-ones vector, plus an associated array-sum
# core.
core = [[2, 0, -2], [-2, 0, 2], [2, 0, -2]]
m = make_most_perfect_block([2, -4, 2], [-4, 8, -4], core, 6)
print("\nmost perfect square from block parameters:")
for i in range(6):
    print("   ", [str(m[i, j]) for j in range(6)])

# Every weightless most perfect square is γ·Σᵀ + Σ·δᵀ; the two vectors can
# be read back off the matrix, exactly.
gamma, delta = extract_most_perfect_vectors(m)
assert make_most_perfect(gamma, delta, 6) == m
print("vector form recovered and re-assembled exactly")

# Products of three most perfect squares are most perfect again, with a
# closed formula for the resulting vectors:
# M(γ₁;δ₁)·M(γ₂;δ₂)·M(γ₃;δ₃) = n·((δ₂ᵀγ₃)·γ₁Σᵀ + (δ₁ᵀγ₂)·Σδ₃ᵀ).
m2, m3 = random_member("mps", 6, rng), random_member("mps", 6, rng)
(g2, d2), (g3, d3) = extract_most_perfect_vectors(m2), extract_most_perfect_vectors(m3)
sig = alternating(6)
assert m @ m2 @ m3 == gamma.scale(d2.dot(g3) * 6).outer(sig) + sig.outer(d3.scale(delta.dot(g2) * 6))
print("triple-product identity: exact")
# The identity is trilinear, so checking it on every triple of basis
# members, in integers, proves it for all most perfect squares at n = 6.
pairs, triples = mps_certificates(6)
print(f"proved on all {triples.products} basis triples:", triples.ok)

# Reversible squares: two free vectors and an optional weight.  They are
# exactly the associated ∧ vertex-cross matrices and never exceed rank 2.
m = make_reversible([1, 2], [0, -1], 5, w=2)
rep = classify(m)
print("\nreversible square: associated weight =", rep.props["A"].weight)
