"""Regression pins, triple for triple.

One sha256 covers, for a seeded set of dense √2 matrices, dense rational
matrices and oracle members (some shifted off weight 0) at n = 1..9, the
(p, q, d) triples of both parts of every split and the SV weight, and
`classify(m).to_dict()`.  The pinned value was computed before the splits
and the algebraic routes were rewritten on the involution table, so any
change to what they return shows here.

A second sha256 covers the oracle: for every space and composite tag at
every n = 1..12 where it exists (240 constraint systems), each row
coefficient and each entry of each nullspace basis vector as a (p, q, d)
triple, so an `int` coefficient and the equal `Scalar` hash alike.  It was
computed while the oracle still eliminated in `Scalar` arithmetic, and
while VRAW and MENTRY still wrote every instance of their definitions, so
it is checked with those generators (`references.reference_oracle`).  The
same digest over the oracle's own rows has its own pin: the RREF depends
only on the row space, so both digests hash the same bases.

A third sha256 covers the constructors: for every constructible kind at
every n = 1..8 where it has a form (80 cases), the (p, q, d) triples of
each `constructor_basis` output and of seeded `random_member` outputs.  It
was computed while each odd-n formula still had its own block assembly.

A fourth sha256 covers the verify report: for each entry of the 63-check
run (`run_suite("all", n_max=4, trials=3, seed=0)`), its name, verdict and
counts.  It was computed while each kind of certificate still had its own
result record, so a change to how the records are built or serialised
that moves a count shows here.  A fifth covers the 123-check default run
(`run_suite("all")`) the same way; it was computed before the predicates'
routes became plain decisions on one integer part.
"""

import hashlib
import json
import random
from fractions import Fraction

import pytest

from symalg import verify as V
from symalg.construct import CONSTRUCTIBLE, constructor_basis, random_member
from symalg.decompose import split
from symalg.errors import DimensionError
from symalg.matrix import Matrix, all_ones
from symalg.predicates import classify, exists
from symalg.scalar import Scalar, as_scalar

import beyond
from references import reference_oracle, space_member

PINNED = "b377bf6f9f936be41d44bc1dd1526a55f70a050e86ee63956a71cb08cb5b4437"
ORACLE_PINNED = "611f0b21991fd50089e7c71eb023994da3410cc4c89f0d99ff157fd6886cdbde"
ORACLE_ROWS_PINNED = "d0f73631543c01be624fb4aa18a4d4754421a3f45a267dacdada0d3969c478ee"
CONSTRUCTOR_PINNED = "48f026ecd4494e22c72b6432ac0c8f4648d171c1dd60cc7fed06c2705d66e082"
REPORT_PINNED = "9f4204c8babf560e2e4f210354be3661943146592fafabbb2e6ed1ebfd4c741f"
DEFAULT_REPORT_PINNED = "0c46d26a22a65d090f760cb723047b649e8c058d6db0937123ab7cef1c1bc046"

MEMBER_SPACES = ("A", "B", "S", "V", "M", "N", "R", "P", "Q")
# A member plus c·E keeps its property and moves its weight off 0.
WEIGHTED = ("A", "M", "P", "V")


def _frac(rng) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3)))


def _dense(n, rng, sqrt2):
    return Matrix(
        n, tuple(Scalar(_frac(rng), _frac(rng) if sqrt2 else 0) for _ in range(n * n))
    )


def _inputs():
    rng = random.Random(2016)
    for n in range(1, 10):
        for sqrt2 in (True, False, True, False):
            yield _dense(n, rng, sqrt2)
        for tag in MEMBER_SPACES:
            if tag in "PQ" and n % 2:
                continue
            m = space_member(tag, n, rng)
            yield m
            if tag in WEIGHTED:
                yield m + all_ones(n).scale(Scalar(_frac(rng), _frac(rng)))


def _triples(m):
    return [(x.p, x.q, x.d) for x in m.entries]


def pin_digest() -> str:
    h = hashlib.sha256()
    for m in _inputs():
        for kind in ("BA", "SV", "NM") + (("QP",) if m.n % 2 == 0 else ()):
            pair = split(m, kind)
            w = None if pair.weight is None else (pair.weight.p, pair.weight.q, pair.weight.d)
            h.update(repr((kind, _triples(pair.even_part), _triples(pair.odd_part), w)).encode())
        h.update(json.dumps(classify(m).to_dict(), sort_keys=True).encode())
    return h.hexdigest()


def test_splits_and_classify_match_the_pin():
    assert pin_digest() == PINNED


def _triple(x):
    s = as_scalar(x)
    return (s.p, s.q, s.d)


def oracle_digest() -> tuple[int, str]:
    h = hashlib.sha256()
    count = 0
    for tag in list(V._ATOMS) + list(V.COMPOSITES):
        for n in range(1, 13):
            if not exists(tag, n):
                continue
            count += 1
            sys = V.build_constraints(tag, n)
            rows = [sorted((k, _triple(c)) for k, c in row.items()) for row in sys.rows]
            h.update(repr((tag, n, rows)).encode())
            h.update(repr([[_triple(x) for x in m.entries] for m in sys.basis_matrices()]).encode())
    return count, h.hexdigest()


@pytest.fixture
def reference_generators():
    with reference_oracle():
        yield


def test_oracle_rows_and_bases_match_the_pin(reference_generators):
    assert oracle_digest() == (240, ORACLE_PINNED)


def test_oracle_generating_rows_and_bases_match_the_pin():
    assert oracle_digest() == (240, ORACLE_ROWS_PINNED)


def test_generating_rows_reduce_as_every_instance_does():
    beyond.generating_rows(range(1, 13))


def constructor_digest() -> tuple[int, str]:
    # Every constructible kind at n = 1..8: its constructor basis, then three
    # seeded random members (and one with a weight, where the kind takes one).
    h = hashlib.sha256()
    count = 0
    for kind in CONSTRUCTIBLE:
        for n in range(1, 9):
            try:
                basis = constructor_basis(kind, n)
            except DimensionError:
                continue
            count += 1
            h.update(repr((kind, n, [_triples(m) for m in basis])).encode())
            rng = random.Random(1000 * n + len(kind))
            members = [random_member(kind, n, rng) for _ in range(3)]
            if kind in ("s", "rv"):
                members.append(random_member(kind, n, rng, weight=Fraction(3, 2)))
            h.update(repr([_triples(m) for m in members]).encode())
    return count, h.hexdigest()


def test_constructor_bases_and_members_match_the_pin():
    assert constructor_digest() == (80, CONSTRUCTOR_PINNED)


def report_digest(**config) -> tuple[int, str]:
    # A rank entry forms one product per basis matrix; `basis` counts them
    # where an entry gives no `products`.
    h = hashlib.sha256()
    checks = V.run_suite("all", **config)["checks"]
    for c in checks:
        products = c.get("products", c.get("basis"))
        fields = (c["name"], c["ok"], products, c.get("failures"), c.get("basis"),
                  c.get("bound"), c.get("max_rank"))
        h.update(repr(fields).encode())
    return len(checks), h.hexdigest()


def test_verify_report_matches_the_pin():
    assert report_digest(n_max=4, trials=3, seed=0) == (63, REPORT_PINNED)


def test_default_verify_report_matches_the_pin():
    # The run a reader of the paper makes, `symalg verify --suite all`.  Its
    # grading proofs judge every product with `in_space`.
    assert report_digest() == (123, DEFAULT_REPORT_PINNED)
