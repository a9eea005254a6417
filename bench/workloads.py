"""The benchmark's three workloads: inputs from a seed, timed ops, checks.

Each workload is single-client and closed-loop: the next op starts when the
previous one returns.  `run_round(clock)` runs one fixed batch of ops with
cold `lru_cache`s, as every CLI call is a fresh interpreter, and returns
each op's (start, end) on `clock` with the outputs;
`check` judges that round's outputs outside the timed region and returns
the number of failed ops.  Library functions are looked up through their modules at call time,
so a traced run sees every call.

Why these three (each optimisation on the roadmap has a workload that
exercises it and one that bypasses it):

* verify_all: the paper's claims as a user checks them; rational, sparse
  Scalar work, Matrix @, predicates, and 45k oracle cache hits.
* oracle_cold: every constraint system built once with cold caches; the
  Echelon elimination and row generation, no cache hits, no Matrix @.
* classify_stream: a library user's pipeline on dense √2 and rational
  matrices; the only workload that runs decompose, blockform and io.
"""

from __future__ import annotations

import contextlib
import hashlib
import io as stdio
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

from symalg import blockform, cli, construct, decompose, predicates, verify
from symalg import io as sio

CACHES = list(
    {
        id(obj): obj
        for name, mod in list(sys.modules.items())
        if name == "symalg" or name.startswith("symalg.")
        for obj in vars(mod).values()
        if hasattr(obj, "cache_clear")
    }.values()
)


def clear_caches() -> None:
    for cache in CACHES:
        cache.cache_clear()


def build_cache_info():
    """CacheInfo of the oracle's build_constraints cache."""
    return next(c for c in CACHES if c.__name__ == "build_constraints").cache_info()


# -- verify_all ---------------------------------------------------------------


class VerifyAll:
    """One `symalg verify --suite all` call at the default sizes."""

    CHECKS = {False: 123, True: 63}  # at the defaults; at --n-max 4 --trials 3

    def __init__(self, seed: int, tiny: bool = False):
        self.argv = ["verify", "--suite", "all", "--seed", str(seed)]
        if tiny:
            self.argv += ["--n-max", "4", "--trials", "3"]
        self.expected = self.CHECKS[tiny]
        self.mix = {"argv": self.argv, "expected_checks": self.expected}

    def run_round(self, clock):
        buf = stdio.StringIO()
        t0 = clock()
        with contextlib.redirect_stdout(buf):
            code = cli.main(self.argv)
        return [(t0, clock())], [(code, buf.getvalue())]

    def check(self, outputs) -> int:
        failed = 0
        for code, text in outputs:
            report = json.loads(text) if code == 0 else {}
            ok = (
                report.get("ok") is True
                and len(report["checks"]) == report["passed"] == self.expected
            )
            failed += not ok
        return failed


# -- oracle_cold --------------------------------------------------------------

ORACLE_TAGS = (
    "S A B R V VRAW M N P Q MENTRY RCOMP RV RVRAW AV AS BS RS MPS NQS AM BN".split()
)
EVEN_ONLY = {"P", "Q", "MPS", "NQS"}
SPLIT_PAIRS = (("B", "A"), ("S", "V"), ("N", "M"), ("Q", "P"))
NULLITIES = Path(__file__).with_name("nullities.json")


class OracleCold:
    """build_constraints once for every tag and size, caches cold.

    The systems are fixed by the paper's spaces, so the seed is unused.  They
    run in a fixed order: the cache grows through the round, and a fixed
    order keeps each garbage collection on the same op from run to run.
    """

    def __init__(self, seed: int, tiny: bool = False):
        sizes = range(4, 6) if tiny else range(4, 13)
        self.systems = [
            (tag, n)
            for n in sizes
            for tag in ORACLE_TAGS
            if not (tag in EVEN_ONLY and n % 2)
        ]
        with open(NULLITIES, encoding="utf-8") as fh:
            self.pinned = json.load(fh)
        self.mix = {"systems": len(self.systems), "n": [sizes.start, sizes.stop - 1], "tags": len(ORACLE_TAGS)}

    def run_round(self, clock):
        times, out = [], []
        for tag, n in self.systems:
            t0 = clock()
            nullity = verify.build_constraints(tag, n).nullity
            times.append((t0, clock()))
            out.append(nullity)
        return times, out

    def check(self, outputs) -> int:
        got = {}
        for (tag, n), nullity in zip(self.systems, outputs):
            got.setdefault(n, {})[tag] = nullity
        bad = set()
        for n, dims in got.items():
            formulas = [("S", dims["S"] == n * n - 2 * n + 2), ("V", dims["V"] == 2 * n - 2)]
            for even, odd in SPLIT_PAIRS:
                if even in dims:
                    formulas.append((even, dims[even] + dims[odd] == n * n))
            if n % 2:
                formulas.append(("MENTRY", dims["MENTRY"] == 0))
            bad.update((tag, n) for tag, ok in formulas if not ok)
            bad.update(
                (tag, n) for tag, d in dims.items() if self.pinned[str(n)][tag] != d
            )
        return len(bad)


# -- classify_stream ------------------------------------------------------------
#
# Inputs are drawn with the benchmark's own RNG and built by explicit make_*
# calls, never by random_member, so a change to how the library draws its
# random members cannot change this workload.


def _frac(rng) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3)))


def _grid(rng, rows: int, cols: int | None = None) -> list:
    return [[_frac(rng) for _ in range(rows if cols is None else cols)] for _ in range(rows)]


def _vec(rng, k: int) -> list:
    return [_frac(rng) for _ in range(k)]


def _zero_row_sums(rng, k: int) -> list:
    rows = []
    for _ in range(k):
        head = _vec(rng, k - 1)
        rows.append(head + [-sum(head)])
    return rows


def _zero_alt_col_sums(rng, k: int) -> list:
    rows = _grid(rng, k - 1, k)
    s_last = 1 if (k - 1) % 2 == 0 else -1
    last = [-s_last * sum((-1) ** i * rows[i][j] for i in range(k - 1)) for j in range(k)]
    return rows + [last]


def _member(kind: str, n: int, rng):
    """A member of `kind` at size n from parameters drawn here."""
    nu, odd = divmod(n, 2)
    c = construct
    if kind == "a":
        if odd:
            return c.make_associated(_grid(rng, nu, nu + 1), _grid(rng, nu + 1, nu), n)
        return c.make_associated(_grid(rng, nu), _grid(rng, nu), n)
    if kind == "b":
        if odd:
            return c.make_balanced(_grid(rng, nu + 1), _grid(rng, nu) if nu else None, n)
        return c.make_balanced(_grid(rng, nu), _grid(rng, nu), n)
    if kind == "s":
        if n == 1:
            return c.make_semimagic(1, w=_frac(rng))
        if odd:
            g = [_grid(rng, nu) for _ in range(4)]
            return c.make_semimagic(n, Y=g[0], V=g[1], W=g[2], Z=g[3], w=_frac(rng))
        return c.make_semimagic(
            n, Y=_member("s", nu, rng), V=_zero_row_sums(rng, nu),
            W=_zero_row_sums(rng, nu), Z=_grid(rng, nu),
        )
    if kind == "v":
        if odd:
            v, x, y, z = (_vec(rng, nu) for _ in range(4))
            return c.make_vertex_cross(n, v=v, x=x, y=y, z=z)
        Y = _member("v", nu, rng) if nu > 1 else None
        return c.make_vertex_cross(n, Y=Y, a=_vec(rng, nu), b=_vec(rng, nu))
    if kind == "m":
        if odd:
            v, x, y, z = (_vec(rng, nu) for _ in range(4))
            return c.make_array_sum(n, v=v, x=x, y=y, z=z)
        Z = _member("m", nu, rng) if nu > 1 else None
        return c.make_array_sum(n, a=_vec(rng, nu), b=_vec(rng, nu), Z=Z)
    if kind == "n":
        if n == 1:
            return c.make_alternating_pairs(1, lam=_frac(rng))
        if odd:
            g = [_grid(rng, nu) for _ in range(4)]
            return c.make_alternating_pairs(n, Y=g[0], V=g[1], W=g[2], Z=g[3], lam=_frac(rng))
        return c.make_alternating_pairs(
            n, Y=_grid(rng, nu), V=_zero_alt_col_sums(rng, nu),
            W=_zero_alt_col_sums(rng, nu), Z=_member("n", nu, rng),
        )
    if kind == "r":
        return c.make_reverse(n, gamma=_frac(rng), x=_vec(rng, nu), z=_vec(rng, nu), Z=_grid(rng, nu))
    if kind == "rv":
        return c.make_reversible(_vec(rng, nu), _vec(rng, nu), n, w=_frac(rng))
    if kind == "p":
        return c.make_pandiagonal(_grid(rng, nu), _grid(rng, nu))
    if kind == "q":
        return c.make_quartered(_grid(rng, nu), _grid(rng, nu))
    if kind == "mps":
        halves = []
        for _ in range(2):
            if nu % 2 == 0:
                g = _vec(rng, nu)
                halves.append(g + [-x for x in g])
            else:
                g = _vec(rng, nu - 1)
                g.append(-sum(g))
                halves.append(g + g)
        return c.make_most_perfect(halves[0], halves[1], n)
    raise ValueError(kind)


MEMBER_KINDS = {
    0: ("a", "b", "s", "v", "r", "rv", "m", "n", "p", "q", "mps"),
    1: ("a", "b", "s", "v", "r", "rv", "m", "n"),
}
# Properties a member of each kind has, whatever its parameters.
MEMBER_PROPS = {
    "a": "A", "b": "B", "s": "S", "v": "V", "r": "R", "rv": "RVA",
    "m": "M", "n": "N", "p": "P", "q": "Q", "mps": "MPS",
}


def _entry_text(a: Fraction, b: Fraction) -> str:
    rational = f"{a.numerator}/{a.denominator}"
    if b == 0:
        return rational
    sign = "+" if b > 0 else "-"
    return f"{rational}{sign}{abs(b.numerator)}/{b.denominator}*sqrt2"


def _matrix_text(n: int, pairs: list) -> str:
    return json.dumps({"n": n, "entries": [_entry_text(a, b) for a, b in pairs]})


def _pairs(m) -> list:
    return [(x.a, x.b) for x in m.entries]


# Independent reference for the entrywise definitions.  Every condition is
# linear in the entries and √2 is irrational, so a + b√2 entries satisfy it
# exactly when the rational parts a and the parts b both do; each routine
# takes one rational part and returns (holds, weight or None).


def _ref_semimagic(e, n):
    sums = [sum(e[i * n:(i + 1) * n]) for i in range(n)] + [sum(e[j::n]) for j in range(n)]
    return all(s == sums[0] for s in sums), sums[0] / n


def _ref_associated(e, n):
    two_w = e[0] + e[-1]
    return all(e[k] + e[-1 - k] == two_w for k in range(n * n)), two_w / 2


def _ref_balanced(e, n):
    return all(e[k] == e[-1 - k] for k in range(n * n)), None


def _ref_reverse(e, n):
    rows = all(
        e[i * n + j] + e[i * n + n - 1 - j] == e[i * n] + e[i * n + n - 1]
        for i in range(n) for j in range(n)
    )
    cols = all(
        e[i * n + j] + e[(n - 1 - i) * n + j] == e[j] + e[(n - 1) * n + j]
        for i in range(n) for j in range(n)
    )
    return rows and cols, None


def _ref_vertex(e, n):
    return all(
        e[i * n + j] + e[(i + 1) * n + j + 1] == e[i * n + j + 1] + e[(i + 1) * n + j]
        for i in range(n - 1) for j in range(n - 1)
    ), None


def _alt_total(e, n):
    return sum(e[i * n + j] * (-1) ** (i + j) for i in range(n) for j in range(n))


def _block_sum(e, n, i, j):
    i1, j1 = (i + 1) % n, (j + 1) % n
    return e[i * n + j] + e[i * n + j1] + e[i1 * n + j] + e[i1 * n + j1]


def _ref_array_sum(e, n):
    if n % 2:  # odd n: u·M·v = 0 for u, v ⟂ Σ, and Σ·M·Σ = 0
        blocks = all(_block_sum(e, n, i, j) == 0 for i in range(n - 1) for j in range(n - 1))
        return blocks and _alt_total(e, n) == 0, None
    four_w = _block_sum(e, n, 0, 0)
    blocks = all(_block_sum(e, n, i, j) == four_w for i in range(n) for j in range(n))
    return blocks and _alt_total(e, n) == 0, four_w / 4


def _ref_alternating_pairs(e, n):
    sig = [(-1) ** i for i in range(n)]
    if n % 2:  # odd n: M·Σ = λΣ and Mᵀ·Σ = λΣ
        r = [sum(e[i * n + j] * sig[j] for j in range(n)) for i in range(n)]
        c = [sum(e[i * n + j] * sig[i] for i in range(n)) for j in range(n)]
        lam = r[0]
        return all(r[i] == lam * sig[i] and c[i] == lam * sig[i] for i in range(n)), lam
    cols = all(
        sum(sig[i] * (e[i * n + j] + e[i * n + (j + 1) % n]) for i in range(n)) == 0
        for j in range(n)
    )
    rows = all(
        sum(sig[i] * (e[j * n + i] + e[((j + 1) % n) * n + i]) for i in range(n)) == 0
        for j in range(n)
    )
    return cols and rows, None


def _half_turn(n, k):
    nu = n // 2
    i, j = divmod(k, n)
    return ((i + nu) % n) * n + (j + nu) % n


def _ref_pandiagonal(e, n):
    two_w = e[0] + e[_half_turn(n, 0)]
    return all(e[k] + e[_half_turn(n, k)] == two_w for k in range(n * n)), two_w / 2


def _ref_quartered(e, n):
    return all(e[k] == e[_half_turn(n, k)] for k in range(n * n)), None


_REFERENCE = {
    "S": _ref_semimagic, "A": _ref_associated, "B": _ref_balanced, "R": _ref_reverse,
    "V": _ref_vertex, "M": _ref_array_sum, "N": _ref_alternating_pairs,
    "P": _ref_pandiagonal, "Q": _ref_quartered,
}


def reference_verdict(n: int, pairs: list, prop: str) -> tuple:
    """(holds, (a, b) weight or None) for one property, in classify's conventions."""
    (ha, wa), (hb, wb) = (_REFERENCE[prop]([x[k] for x in pairs], n) for k in (0, 1))
    holds = ha and hb
    return holds, (wa, wb) if holds and wa is not None else None


def reference_verdicts(n: int, pairs: list) -> dict:
    return {p: reference_verdict(n, pairs, p) for p in "SABRVMN" + ("PQ" if n % 2 == 0 else "")}


def report_verdicts(report) -> dict:
    return {
        k: (v.holds, None if v.weight is None else (v.weight.a, v.weight.b))
        for k, v in report.props.items()
    }


def _in_space(n: int, pairs: list, tag: str) -> bool:
    """Membership of the space `tag`, by the reference definitions."""
    holds, weight = reference_verdict(n, pairs, tag)
    if tag in "AP" or (tag == "M" and weight is not None):
        return holds and weight == (0, 0)
    if tag == "V":
        return holds and all(sum(x[k] for x in pairs) == 0 for k in (0, 1))
    return holds


SPLIT_SPACES = {"ba": ("B", "A"), "sv": ("S", "V"), "nm": ("N", "M"), "qp": ("Q", "P")}


class ClassifyStream:
    """loads → classify → split (ba, sv, nm, qp) → to_block → dumps, per matrix."""

    # One batch of inputs per entry: 117 ops at full size.  The batch counts
    # put the median op in the middle of the n = 12 group and the 90th
    # percentile in the middle of the n = 16 group; on a gap between groups
    # (n = 6, 7: 5-12 ms an op; 12: 25-40 ms; 16: 35-70 ms) they would jump
    # from run to run.
    SIZES = {False: (6, 7, 12, 12, 12, 12, 16, 16), True: (4, 5)}
    DENSE = 2  # dense √2 matrices and dense rational ones, each, per batch

    def __init__(self, seed: int, tiny: bool = False):
        rng = random.Random(seed)
        inputs = []  # (n, member kind or None, entry pairs)
        for n in self.SIZES[tiny]:
            for sqrt2 in (True, False):
                for _ in range(self.DENSE):
                    pairs = [(_frac(rng), _frac(rng) if sqrt2 else Fraction(0)) for _ in range(n * n)]
                    inputs.append((n, None, pairs))
            for kind in MEMBER_KINDS[n % 2]:
                inputs.append((n, kind, _pairs(_member(kind, n, rng))))
        # Only text and expected verdicts are kept, so the benchmark's own live
        # objects add little to the garbage collector's work in the timed region.
        self.inputs = [(n, _matrix_text(n, p)) for n, _, p in inputs]
        self.expected = [reference_verdicts(n, p) for n, _, p in inputs]
        # A member that lacks its kind's properties is a constructor fault.
        self.bad_members = sum(
            1
            for (_, kind, _), verdicts in zip(inputs, self.expected)
            if kind is not None and not all(verdicts[p][0] for p in MEMBER_PROPS[kind])
        )
        entries = [x for _, _, p in inputs for x in p]
        self.mix = {
            "ops_per_round": len(inputs),
            "sizes": {str(n): sum(1 for i in inputs if i[0] == n) for n in sorted(set(self.SIZES[tiny]))},
            "parity": {
                "even": sum(1 for i in inputs if i[0] % 2 == 0),
                "odd": sum(1 for i in inputs if i[0] % 2),
            },
            "sqrt2_entry_share": sum(1 for _, b in entries if b != 0) / len(entries),
            "member_share": sum(1 for i in inputs if i[1]) / len(inputs),
        }
        self.first = None  # fingerprints of the first round, which is checked in full

    def run_round(self, clock):
        times, out = [], []
        for n, text in self.inputs:
            t0 = clock()
            m = sio.loads_matrix(text)
            report = predicates.classify(m)
            parts = [decompose.split(m, k) for k in SPLIT_SPACES if k != "qp" or n % 2 == 0]
            block = blockform.to_block(m)
            dumped = sio.dumps_matrix(block.conjugate)
            times.append((t0, clock()))
            out.append((m, report, parts, block, dumped))
        return times, out

    def check(self, outputs) -> int:
        """Check the first round in full; later rounds must match it exactly."""
        prints = [self._fingerprint(result) for result in outputs]
        if self.first is not None:
            return sum(a != b for a, b in zip(self.first, prints)) + abs(len(self.first) - len(prints))
        failed = self.bad_members
        for (n, text), expected, result in zip(self.inputs, self.expected, outputs):
            failed += not self._correct(n, text, expected, result)
        self.first = prints
        return failed

    @staticmethod
    def _fingerprint(result) -> tuple:
        _, report, parts, _, dumped = result
        entries = tuple(
            (x.p, x.q, x.d) for p in parts for half in (p.even_part, p.odd_part) for x in half.entries
        )
        return report_verdicts(report), hash(entries), dumped

    @staticmethod
    def _correct(n, text, expected, result) -> bool:
        m, report, parts, block, dumped = result
        if _matrix_text(n, _pairs(m)) != text or report_verdicts(report) != expected:
            return False
        for pair, (even_tag, odd_tag) in zip(parts, SPLIT_SPACES.values()):
            if pair.reassemble() != m:
                return False
            for part, tag in ((pair.even_part, even_tag), (pair.odd_part, odd_tag)):
                if not _in_space(n, _pairs(part), tag):
                    return False
        return blockform.from_block(block) == m and sio.loads_matrix(dumped) == block.conjugate

    def digest(self) -> str:
        """Hash of the first round's verdicts, holds and weights only."""
        h = hashlib.sha256()
        for verdicts, _, _ in self.first or ():
            h.update(repr(sorted(verdicts.items())).encode())
        return h.hexdigest()[:16]


WORKLOADS = {"verify_all": VerifyAll, "oracle_cold": OracleCold, "classify_stream": ClassifyStream}
