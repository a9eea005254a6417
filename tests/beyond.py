"""The checks that run at two sizes: small in tier-1, large in CI.

Each function asserts one claim over the sizes (and seed) it is given and
prints one summary line per part.  Tier-1 calls it at small sizes, from the
test of the module whose claim it checks.  CI runs each entry of `CHECKS`,
which holds CI's sizes, from one workflow step:

    python3 tests/beyond.py NAME >> "$GITHUB_STEP_SUMMARY"

The CLI checks run `python -m symalg.cli` in a fresh interpreter, with
`src/` first on its path, and write their files to a temporary directory.
"""

import json
import os
import random
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from functools import partial
from pathlib import Path

from symalg import verify as V
from symalg.blockform import INVOLUTIONS, SPLIT_TAGS, BlockForm, from_block, layout, reflection_odd
from symalg.construct import CONSTRUCTIBLE, _write, constructor_basis, random_member
from symalg.decompose import split
from symalg.elim import integer_rref, nullspace_of_rref
from symalg.io import dumps_matrix, loads_matrix, read_matrix, write_matrix
from symalg.matrix import (
    Matrix, all_ones, alternating, block_involution, exchange, identity, ones,
)
from symalg.predicates import (
    COMPOSITES, SPACES, _agree, _decide, _eigen_pair, _ew_alternating_pairs, _ew_reverse,
    _verdict, check_algebraic, check_entrywise, classify, dual_routes, exists, in_space,
)
from symalg.scalar import SQRT2, Scalar

from references import (
    alternating_pairs_full, basis_combination, classified, eigen_pair_full, membership_inputs,
    reference_oracle, reflection_odd_full, reverse_full, verdicts_agree,
)

ROOT = Path(__file__).resolve().parent.parent
ORACLE_TAGS = (*V._ATOMS, *V.COMPOSITES)


def _sizes(ns):
    return f"{ns[0]}" if len(ns) == 1 else f"{ns[0]}..{ns[-1]}"


def _since(start):
    return f"{time.perf_counter() - start:.2f} s"


def _symalg(*args):
    # The CLI in a fresh interpreter, reading the library of this checkout.
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "symalg.cli", *args],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True,
    )


def _split_kinds(n):
    return [kind for kind, tags in SPLIT_TAGS.items() if all(exists(tag, n) for tag in tags)]


def _rational_matrix(n, rng):
    return Matrix(n, tuple(Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3))) for _ in range(n * n)))


def sqrt2_matrix(n, rng):
    def frac():
        return Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3)))

    return Matrix(n, tuple(Scalar(frac(), frac()) for _ in range(n * n)))


def explicit_k(kind, n):
    """The involution of the split `kind` as a dense matrix: J, T or I − 2·y·yᵀ/n."""
    if kind == "BA":
        return exchange(n)
    if kind == "QP":
        return Matrix.from_rows([[int(j == (i + n // 2) % n) for j in range(n)] for i in range(n)])
    y = ones(n) if kind == "SV" else alternating(n)
    return identity(n) - y.outer(y).scale(Fraction(2, n))


# -- the verify runs ------------------------------------------------------------


def verify_report(n_max=None):
    """`symalg verify --suite all --seed 0` passes, at the default sizes or up to `n_max`.

    The summary line is printed before the exit code is judged, so a failing
    run still reports its counts.
    """
    args = ["verify", "--suite", "all", "--seed", "0", *(["--n-max", str(n_max)] if n_max else [])]
    start = time.perf_counter()
    done = _symalg(*args)
    seconds = _since(start)
    try:
        report = json.loads(done.stdout)
        products = sum(c["products"] for c in report["checks"] if c["name"].startswith("grading "))
        counts = f"{report['passed']} of {len(report['checks'])} checks passed, {products} grading products"
    except ValueError:
        counts = "no report"
    version = ".".join(map(str, sys.version_info[:2]))
    print(f"symalg {' '.join(args)} (Python {version}): {counts}, exit {done.returncode}, {seconds}")
    assert done.returncode == 0, done.stderr


# -- constructors -----------------------------------------------------------------


def constructor_spans(ns):
    """Every constructible kind that exists at n spans its oracle space.

    `dimension_probe` raises unless it does, and every basis but nqs's (whose
    parameters are projections of full bases) is exactly as large as it.
    """
    start = time.perf_counter()
    spans = 0
    for n in ns:
        for kind in CONSTRUCTIBLE:
            if not exists(kind.upper(), n):
                continue
            nullity = V.dimension_probe(kind.upper(), n)
            spans += 1
            if kind != "nqs":
                size = len(constructor_basis(kind, n))
                assert size == nullity, (kind, n, size, nullity)
    print(f"Constructor spans at n = {_sizes(ns)}: {spans} span checks, "
          f"every basis but nqs's of the oracle's size, {_since(start)}")


def seeded_draws(ns, seeds, kinds=CONSTRUCTIBLE):
    """`random_member`'s draw is the same combination of the constructor basis.

    The makers are linear, so a draw of one coefficient per parameter
    spanning element equals `references.basis_combination` drawn from the
    same generator, and leaves the generator in the same state.
    """
    start = time.perf_counter()
    draws = 0
    for n in ns:
        for kind in kinds:
            if not exists(kind.upper(), n):
                continue
            for seed in seeds:
                rng, ref = random.Random(seed), random.Random(seed)
                assert random_member(kind, n, rng) == basis_combination(kind, n, ref), (kind, n, seed)
                assert rng.getstate() == ref.getstate(), (kind, n, seed)
                draws += 1
    print(f"Seeded draws against the constructor basis at n = {_sizes(ns)}: "
          f"{draws} random_member draws equal their basis combination, {_since(start)}")


# -- predicates -------------------------------------------------------------------


def in_space_rule(ns, seed):
    """`in_space` judges every space and composite as `classify` does.

    The inputs are `references.membership_inputs`: seeded members, members
    shifted by c·E and c·√2·E, and dense non-members.  Each tag must be
    judged both ways somewhere.
    """
    start = time.perf_counter()
    rng = random.Random(seed)
    seen, judged = {}, 0
    for n in ns:
        tags = [tag for tag in (*SPACES, *COMPOSITES) if exists(tag, n)]
        for m in membership_inputs(n, rng):
            report = classify(m)
            for tag in tags:
                verdict = in_space(m, tag)
                assert verdict == classified(report, tag), (n, tag, m)
                seen.setdefault(tag, set()).add(verdict)
                judged += 1
    assert all(verdicts == {True, False} for verdicts in seen.values()), seen
    print(f"Membership rule at n = {_sizes(ns)}: {judged} in_space verdicts equal classify's, {_since(start)}")


def _moved(decided):
    # `_decide` results near `decided`: `holds` flipped, the weight of the
    # rational or the √2 part moved, and the weight written over 2·den.
    holds, num, num_q, den = decided
    yield (not holds, num, num_q, den)
    if num is not None:
        yield (holds, num + 1, num_q, den)
        yield (holds, num, num_q - 1, den)
        yield (holds, num, num_q + 1, den)
        yield (holds, 2 * num, 2 * num_q, 2 * den)
        yield (holds, 2 * num + 1, 2 * num_q, 2 * den)
        yield (holds, None, 0, den)


def agreement_rule(ns, seed):
    """The agreement rule on two `_decide` results is the rule on their verdicts.

    For every dual-route property, on the two routes' decisions and on the
    algebraic one moved in `holds` or weight, `_agree` says what
    `references.verdicts_agree` says on the verdicts built from them; the
    two routes' verdicts agree, and every (holds, agrees) pair is met.
    """
    start = time.perf_counter()
    rng = random.Random(seed)
    seen, judged = set(), 0
    for n in ns:
        for m in membership_inputs(n, rng):
            for prop in dual_routes(n):
                space = SPACES[prop]
                first, second = _decide(space.entrywise, m), _decide(space.algebraic, m)
                assert verdicts_agree(check_entrywise(m, prop), check_algebraic(m, prop)), (n, prop)
                for other in (second, *_moved(second)):
                    want = verdicts_agree(_verdict("entrywise", first, m), _verdict("algebraic", other, m))
                    assert _agree(first, other) == want, (n, prop, first, other)
                    seen.add((first[0], want))
                    judged += 1
    assert seen == {(True, True), (True, False), (False, True), (False, False)}, seen
    print(f"Route agreement at n = {_sizes(ns)}: {judged} decision pairs judged as their verdicts are, "
          f"{_since(start)}")


def early_exit_kernels(ns, seed):
    """The routes that stop at the first broken sum equal their full-sum references.

    The eigen-pair test and the reflection closed form for SV and NM, and
    the entrywise N and R tests, on both integer parts of
    `references.membership_inputs`, where some decisions hold and some do
    not.
    """
    start = time.perf_counter()
    rng = random.Random(seed)
    holds, kernels = set(), 0
    for n in ns:
        for m in membership_inputs(n, rng):
            for e in filter(None, (m.P, m.Q)):
                for kind in ("SV", "NM"):
                    got = _eigen_pair(e, n, kind)
                    assert got == eigen_pair_full(e, n, kind), (n, kind, e)
                    y = INVOLUTIONS[kind].axis(n)
                    assert list(reflection_odd(e, n, y)) == reflection_odd_full(e, n, y), (n, kind, e)
                    holds.add(got[0])
                for got, want in ((_ew_alternating_pairs(e, n), alternating_pairs_full(e, n)),
                                  (_ew_reverse(e, n), reverse_full(e, n))):
                    assert got == want, (n, e)
                    holds.add(got[0])
                kernels += 6
    assert holds == {True, False}, holds
    print(f"Early-exit kernels at n = {_sizes(ns)}: {kernels} equal their full-sum references, "
          f"{_since(start)}")


# -- the oracle -------------------------------------------------------------------


def oracle_systems(ns):
    """Every oracle system at n, reduced as its literal rows are, and its dimensions.

    Composites and V are reduced from their parts' pivot rows; that must be
    the RREF and nullspace of the stacked literal rows themselves, with the
    nullity read from the pivot count the basis size.  S and V have
    dimension n² − 2n + 2 and 2n − 2, and each split pair's sum to n².
    """
    start = time.perf_counter()
    systems = 0
    for n in ns:
        dims = {}
        for tag in ORACLE_TAGS:
            if not exists(tag, n):
                continue
            system = V.build_constraints(tag, n)
            pivots = integer_rref(system.rows)
            assert system.pivots == pivots, (tag, n)
            assert system.basis == nullspace_of_rref(pivots, n * n), (tag, n)
            assert system.nullity == len(system.basis) == n * n - len(system.pivots), (tag, n)
            dims[tag] = system.nullity
            systems += 1
        assert (dims["S"], dims["V"]) == (n * n - 2 * n + 2, 2 * n - 2), (n, dims)
        for kind in _split_kinds(n):
            assert sum(dims[tag] for tag in SPLIT_TAGS[kind]) == n * n, (kind, n)
    print(f"Oracle systems at n = {_sizes(ns)}: {systems} equal a fresh reduction of their rows, "
          f"{_since(start)}")


def desk_scale(n):
    """The nullities of the systems whose elimination back-substitutes most."""
    for tag in ("M", "MENTRY", "AV", "MPS", "RV"):
        start = time.perf_counter()
        system = V.build_constraints(tag, n)
        assert system.nullity == len(system.basis) == n * n - len(system.pivots), tag
        print(f"Oracle at n = {n}: {tag}, nullity {system.nullity}, {_since(start)}")


def sympy_nullities(ns):
    """sympy, a second, independent exact solver, finds every oracle basis.

    The rows are `int`, and sympy's nullspace uses the same free-variable
    basis, so the bases must agree entry for entry, not only in number.
    """
    from sympy.polys.domains import QQ
    from sympy.polys.matrices import DomainMatrix

    start = time.perf_counter()
    checked = 0
    for n in ns:
        for tag in ORACLE_TAGS:
            if not exists(tag, n):
                continue
            system = V.build_constraints(tag, n)
            assert all(type(x) is int for row in system.rows for x in row.values()), (tag, n)
            # sympy's sparse form holds only the rows that are not empty.
            rows = {i: {k: QQ(x) for k, x in row.items()} for i, row in enumerate(system.rows) if row}
            null = DomainMatrix(rows, (len(system.rows), n * n), QQ).nullspace()
            want = [[Fraction(int(x.numerator), int(x.denominator)) for x in vec] for vec in null.to_list()]
            got = []
            for den, entries in system.basis:
                vec = [Fraction(0)] * (n * n)
                for k, num in entries:
                    vec[k] = Fraction(num, den)
                got.append(vec)
            assert got == want, (tag, n)
            checked += 1
    print(f"sympy nullity cross-check: {checked} systems at n = {_sizes(ns)}, {_since(start)}")


def generating_rows(ns):
    """VRAW's and MENTRY's generating rows reduce as every instance of their definitions.

    The RREF is unique given the row space, so with every rectangle and
    every 2×2 block difference (`references.reference_oracle`) each system
    must keep its pivot rows and basis.
    """
    def reductions():
        return {
            (tag, n): (system.pivots, system.basis)
            for n in ns
            for tag in ORACLE_TAGS
            if exists(tag, n)
            for system in [V.build_constraints(tag, n)]
        }

    start = time.perf_counter()
    generating = reductions()
    with reference_oracle():
        assert reductions() == generating
    print(f"Every rectangle and 2×2 block difference at n = {_sizes(ns)}: "
          f"{len(generating)} systems reduce as on the generating rows, {_since(start)}")


def mps_identities(ns):
    """The closed form of M(x)·M(y) and the triple product on the oracle's MPS basis.

    Both hold on every pair and triple of basis members, and the basis is as
    large as the constructor's span.
    """
    for n in ns:
        start = time.perf_counter()
        pairs, triples = V.mps_certificates(n)
        seconds = _since(start)
        assert pairs.ok and triples.ok and not pairs.witnesses, (n, pairs.witnesses, triples.witnesses)
        assert pairs.basis == triples.basis == len(V.build_constraints("MPS", n).basis), n
        assert pairs.basis == V.dimension_probe("MPS", n), n
        assert (pairs.products, triples.products) == (pairs.basis**2, pairs.basis**3), n
        print(f"MPS identities at n = {n}: basis {pairs.basis}, {pairs.products} pairs, "
              f"{triples.products} triples, {seconds}")


# -- the CLI round trips ------------------------------------------------------------


def block_round_trip(cases):
    """`symalg block` prints X·M·X for a constructed member, and from_block inverts it.

    Each named view is C at the rows and columns that layout(n) names, and
    the constructors' writer rebuilds C from the views.
    """
    with tempfile.TemporaryDirectory() as tmp:
        for kind, n in cases:
            path = str(Path(tmp, f"{kind}{n}.json"))
            done = _symalg("construct", "--type", kind, "--n", str(n), "--seed", "0", "--out", path)
            assert done.returncode == 0, done.stderr
            done = _symalg("block", path)
            assert done.returncode == 0, done.stderr
            m, c = read_matrix(path), loads_matrix(done.stdout)
            x = block_involution(n)
            assert c == x @ m @ x, f"{kind}{n}: the printed conjugate is not X·M·X"
            assert from_block(BlockForm(c)) == m, f"{kind}{n}: from_block does not give M back"
            bf, at = BlockForm(c), layout(n)
            for view, (rows, cols) in at.items():
                got = getattr(bf, view)
                got = [got] if view == "alpha" else list(got.entries)
                assert got == [c[i, j] for i in rows for j in cols], f"{kind}{n}: view {view}"
            assert _write(n, **{view: getattr(bf, view) for view in at}) == c, f"{kind}{n}: writer"
            print(f"{kind}{n}: X·M·X and its inverse agree, {len(at)} views at layout({n}) rebuild C")


def split_round_trip(ns, seed):
    """`symalg decompose --split` writes the in-process split of a dense √2 matrix.

    For every split kind at n: even + odd = M, each part lies in its tag, and
    each file holds the printed part that `split` gives.
    """
    rng = random.Random(seed)
    with tempfile.TemporaryDirectory() as tmp:
        for n in ns:
            m = sqrt2_matrix(n, rng)
            dense = str(Path(tmp, f"dense{n}.json"))
            write_matrix(m, dense)
            for kind in _split_kinds(n):
                tags, kind = SPLIT_TAGS[kind], kind.lower()
                files = [str(Path(tmp, f"dense{n}-{kind}-{half}.json")) for half in ("even", "odd")]
                done = _symalg("decompose", dense, "--split", kind, "--even-out", files[0], "--odd-out", files[1])
                assert done.returncode == 0, done.stderr
                parts = [read_matrix(f) for f in files]
                assert parts[0] + parts[1] == m, f"{kind} at n={n}: even + odd is not M"
                for part, tag in zip(parts, tags):
                    assert in_space(part, tag), f"{kind} at n={n}: a part is not in {tag}"
                pair = split(m, kind)
                for f, half in zip(files, (pair.even_part, pair.odd_part)):
                    assert Path(f).read_text() == dumps_matrix(half) + "\n", f"{f} is not the in-process split"
                print(f"{kind} at n={n}: even + odd = M, parts in {'/'.join(tags)}, files as in process")


# -- the involutions and the rank bounds against dense products ----------------------


def reflection_splits(ns, seed):
    """Each split is ½(M ± K·M·K), with K·M·K the dense product.

    The SV and NM splits read the closed form from M·y, Mᵀ·y and yᵀ·M·y, on
    a rational and a √2 matrix; the BA and QP splits gather K·M·K through
    the index maps of J and T, on a √2 matrix.
    """
    start = time.perf_counter()
    rng = random.Random(seed)
    half = Fraction(1, 2)
    splits = dict.fromkeys(SPLIT_TAGS, 0)
    for n in ns:
        cases = [(m, kind) for m in (_rational_matrix(n, rng), sqrt2_matrix(n, rng)) for kind in ("SV", "NM")]
        cases += [(sqrt2_matrix(n, rng), kind) for kind in _split_kinds(n) if kind in ("BA", "QP")]
        for m, kind in cases:
            k = explicit_k(kind, n)
            kmk = k @ m @ k
            pair = split(m, kind)
            assert pair.even_part == (m + kmk).scale(half), (kind, n)
            assert pair.odd_part == (m - kmk).scale(half), (kind, n)
            splits[kind] += 1
    counts = ", ".join(f"{count} {kind}" for kind, count in splits.items())
    print(f"Splits against the dense product at n = {_sizes(ns)}: {counts}, {_since(start)}")


def _dense_odd(m, prop):
    # K·(M − w·E)·K = −(M − w·E) by the dense product, with V's w the mean
    # and M's a quarter of the first 2×2 block (none at odd n).
    n = m.n
    if prop == "V":
        kind, w = "SV", m.total_sum() / (n * n)
    else:
        kind, w = "NM", Scalar(0) if n % 2 else (m[0, 0] + m[0, 1] + m[1, 0] + m[1, 1]) / 4
    k = explicit_k(kind, n)
    d = m - all_ones(n).scale(w)
    return k @ d @ k == -d


def odd_verdicts(ns, seed):
    """The V and M algebraic verdicts are the dense definition's.

    The inputs: a member with √2 parts and a weight, which must hold; a
    rational and a √2 matrix; and the member changed by 1 or √2 only at its
    first or only at its last entry.  Past n = 1 none of these but the
    member holds.
    """
    start = time.perf_counter()
    rng = random.Random(seed)
    verdicts = 0
    for n in ns:
        for prop in ("V", "M"):
            w = Scalar(Fraction(rng.randint(-5, 5), 3), Fraction(rng.randint(-5, 5), 2))
            if prop == "M" and n % 2:
                w = Scalar(0)
            member = random_member(prop.lower(), n, rng) + random_member(prop.lower(), n, rng).scale(SQRT2)
            member = member + all_ones(n).scale(w)
            cases = [member, _rational_matrix(n, rng), sqrt2_matrix(n, rng)]
            cases += [member + Matrix(n, [delta if j == k else 0 for j in range(n * n)])
                      for k in (0, n * n - 1) for delta in (Scalar(1), SQRT2)]
            assert check_algebraic(member, prop).holds, (prop, n)
            if n > 1:
                assert not any(check_algebraic(m, prop).holds for m in cases[1:]), (prop, n)
            for m in cases:
                assert check_algebraic(m, prop).holds == _dense_odd(m, prop), (prop, n)
                verdicts += 1
    print(f"V and M verdicts against the dense product at n = {_sizes(ns)}: {verdicts} verdicts, "
          f"{_since(start)}")


def compressions(ns, seed):
    """The rank bounds' closed form of C·B·C is the dense product.

    `_compressed_entry` reads C·B·C = n²·B − O − t·u·uᵀ from the closed
    form; here C = n·I − u·uᵀ and C@B@C is the dense product, on every oracle
    basis matrix of the rank-bound spaces, on each with a unit added at its
    first or at its last entry, and on Σ k·B_k with a unit added at a seeded
    entry, so both the zero and the witness branch are met.
    """
    start = time.perf_counter()
    rng = random.Random(seed)
    found = {True: 0, False: 0}
    for tag in ("MPS", "REVERSIBLE", "V"):
        oracle, kind, _ = V._RANK_BOUNDS[tag]
        for n in ns:
            if not exists(oracle, n):
                continue
            u = INVOLUTIONS[kind].axis(n)
            c = Matrix.from_rows([[n * (i == j) - u[i] * u[j] for j in range(n)] for i in range(n)])
            vecs = []
            for _, entries in V.build_constraints(oracle, n).basis:
                vec = [0] * (n * n)
                for k, num in entries:
                    vec[k] = num
                vecs.append(vec)
            member = [sum(k * v[idx] for k, v in enumerate(vecs, 1)) for idx in range(n * n)]
            member[rng.randrange(n * n)] += 1
            bumped = [[x + (idx == at) for idx, x in enumerate(v)] for v in vecs for at in (0, n * n - 1)]
            for vec in vecs + bumped + [member]:
                cbc = c @ Matrix.from_parts(n, vec, None, 1) @ c
                first = next(([i, j] for i in range(n) for j in range(n) if cbc[i, j] != 0), None)
                assert V._compressed_entry(n, u, V._sparse(vec)) == first, (tag, n)
                found[first is None] += 1
    assert found[True] and found[False], found
    print(f"Rank-bound compressions against the dense C@B@C at n = {_sizes(ns)}: "
          f"{found[True] + found[False]} matrices, {found[False]} witnesses, {_since(start)}")


# -- the benchmark's trace --------------------------------------------------------------


def trace_counts(seconds):
    """One traced verify_all round at seed 0, read from the benchmark's last output line.

    blockform.reflection_odd is a generator function, so its span covers only
    the creation of the generator: the sums it forms are timed as self time
    of its callers (predicates, decompose, verify).
    """
    argv = [sys.executable, "bench/run.py", "--workload", "verify_all", "--seed", "0",
            "--seconds", str(seconds), "--trace", "1"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    metrics = json.loads(done.stdout.splitlines()[-1])["metrics"]
    names = ("scalar.add_calls", "scalar.mul_calls", "predicates.in_space_calls",
             "construct.calls", "verify.build_misses")
    counts = ", ".join(f"{name} {metrics[name]['value']}" for name in names)
    print(f"verify_all traced at seed 0: {counts}")


# CI's sizes, one entry per workflow step.
CHECKS = {
    "verify": (verify_report,),
    "verify-12": (partial(verify_report, n_max=12),),
    "spans": (partial(constructor_spans, range(9, 13)),),
    "draws": (partial(seeded_draws, range(8, 13), seeds=(0, 1)),),
    "in-space": (partial(in_space_rule, range(10, 17), seed=0),),
    "agreement": (
        partial(agreement_rule, range(10, 17), seed=0),
        partial(early_exit_kernels, range(10, 17), seed=0),
    ),
    "oracle": (
        partial(oracle_systems, range(13, 17)),
        partial(desk_scale, 64),
        partial(sympy_nullities, (13,)),
        partial(generating_rows, (13,)),
    ),
    "mps": (partial(mps_identities, (10, 12, 14, 16)),),
    "block": (partial(block_round_trip, (("mps", 8), ("s", 7))),),
    "split": (partial(split_round_trip, (7, 8), seed=0),),
    "kernels": (
        partial(reflection_splits, range(10, 25), seed=0),
        partial(odd_verdicts, range(10, 25), seed=0),
        partial(compressions, range(10, 17), seed=0),
    ),
    "trace": (partial(trace_counts, seconds=1),),
}


if __name__ == "__main__":
    if len(sys.argv) != 2 or sys.argv[1] not in CHECKS:
        sys.exit(f"usage: python3 tests/beyond.py NAME, with NAME one of {', '.join(CHECKS)}")
    for check in CHECKS[sys.argv[1]]:
        check()
