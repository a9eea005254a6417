#!/usr/bin/env python3
# The four direct-sum splits of the full matrix space.
#
# Every square matrix decomposes exactly as
#   balanced ⊕ associated, semimagic ⊕ vertex-cross,
#   alternating-pairs ⊕ array-sum, and (even n) quartered ⊕ pandiagonal.
# Each split is conjugation by one involution K (the half-turn J, the
# reflections I − 2·11ᵀ/n and I − 2·ΣΣᵀ/n, the half-period shift T):
# even = ½(M + K·M·K), odd = ½(M − K·M·K); reassembly is bit-exact.

import random

from symalg import Matrix, Scalar, dimension_probe, in_space, split

rng = random.Random(42)
n = 6
m = Matrix(n, tuple(Scalar(rng.randint(-9, 9)) for _ in range(n * n)))

for kind, (even_tag, odd_tag) in {
    "BA": ("B", "A"),
    "SV": ("S", "V"),
    "NM": ("N", "M"),
    "QP": ("Q", "P"),
}.items():
    pair = split(m, kind)
    assert pair.reassemble() == m
    assert in_space(pair.even_part, even_tag)
    assert in_space(pair.odd_part, odd_tag)
    extras = f", even-part weight {pair.weight}" if pair.weight is not None else ""
    print(f"split {kind}: exact reassembly, parts in {even_tag}/{odd_tag}{extras}")

# The split dimensions always add up to n².
print("\ndimension bookkeeping at n = 6:")
for even_tag, odd_tag in (("B", "A"), ("S", "V"), ("N", "M"), ("Q", "P")):
    de = dimension_probe(even_tag, n)
    do = dimension_probe(odd_tag, n)
    print(f"  dim {even_tag} + dim {odd_tag} = {de} + {do} = {de + do} = n²")

# Splitting a part again changes nothing: the maps are projections.
pair = split(m, "SV")
again = split(pair.even_part, "SV")
assert again.even_part == pair.even_part and again.odd_part.is_zero()
print("\nprojection idempotence: exact")
