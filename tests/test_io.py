import os
import random
import re
import stat
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from symalg import io as mio
from symalg.errors import ParseError, shown
from symalg.matrix import Matrix, all_ones, block_involution
from symalg.scalar import Scalar

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=16)
scalars = st.builds(Scalar, rationals, rationals)


@given(scalars)
def test_scalar_string_round_trip(s):
    assert mio.scalar_from_string(mio.scalar_to_string(s)) == s


def test_scalar_literals():
    assert mio.scalar_from_string("3") == Scalar(3)
    assert mio.scalar_from_string("-3/2") == Scalar(Fraction(-3, 2))
    assert mio.scalar_from_string("1/2+1/3*sqrt2") == Scalar(Fraction(1, 2), Fraction(1, 3))
    assert mio.scalar_from_string("-1/2-3/4*sqrt2") == Scalar(Fraction(-1, 2), Fraction(-3, 4))
    assert mio.scalar_from_string("5/7*sqrt2") == Scalar(0, Fraction(5, 7))
    assert mio.scalar_from_string("-2*sqrt2") == Scalar(0, -2)
    assert mio.scalar_from_string(" 1 / 2 ") == Scalar(Fraction(1, 2))
    for bad in ("", "sqrt2", "1.5", "1/2+sqrt2", "1//2", "1/2*sqrt3"):
        with pytest.raises(ParseError):
            mio.scalar_from_string(bad)


def test_scalar_canonical_form_has_positive_denominators():
    s = mio.scalar_to_string(Scalar(Fraction(-1, 2), Fraction(-3, 4)))
    assert s == "-1/2-3/4*sqrt2"
    assert mio.scalar_to_string(Scalar(5)) == "5/1"


def test_pretty_rendering():
    assert mio.scalar_pretty(Scalar(Fraction(3, 2))) == "3/2"
    assert mio.scalar_pretty(Scalar(0, Fraction(1, 2))) == "0 + 1/2√2"
    assert mio.scalar_pretty(Scalar(1, -1)) == "1 - 1√2"


def test_pretty_matrix_right_aligns_every_entry_to_one_width():
    m = Matrix.from_rows([[1, Fraction(-1, 2)], [Scalar(0, 1), 10]])
    assert mio.dumps_matrix_pretty(m) == "      1     -1/2\n0 + 1√2       10"


def test_matrix_json_round_trip_with_sqrt2_entries():
    m = block_involution(5)
    assert mio.loads_matrix(mio.dumps_matrix(m)) == m


def test_matrix_json_round_trip_random():
    rng = random.Random(5)
    for n in (1, 2, 4):
        m = Matrix(
            n,
            tuple(
                Scalar(Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
                       Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
                for _ in range(n * n)
            ),
        )
        assert mio.loads_matrix(mio.dumps_matrix(m)) == m


def test_csv_round_trip_and_sqrt2_rejection():
    m = Matrix.from_rows([[1, Fraction(-2, 3)], [0, 4]])
    assert mio.loads_matrix_csv(mio.dumps_matrix_csv(m)) == m
    with pytest.raises(ValueError):
        mio.dumps_matrix_csv(block_involution(2))


def test_csv_parse_errors():
    with pytest.raises(ParseError):
        mio.loads_matrix_csv("1,2\n3")
    with pytest.raises(ParseError):
        mio.loads_matrix_csv("")
    with pytest.raises(ParseError):
        mio.loads_matrix_csv("1,x\n2,3")


def test_csv_cells_refused_past_the_int_string_limit():
    # A decimal with an exponent is read while its numerator and denominator
    # need at most 4,300 digits, Python's int-string limit; beyond that it is
    # refused before `Fraction` expands the exponent.
    assert mio.loads_matrix_csv("12.5e-3,1_0e1\n-.5E1,3/4\n") == Matrix.from_rows(
        [[Fraction(1, 80), 100], [-5, Fraction(3, 4)]]
    )
    assert mio.loads_matrix_csv("1e4299\n").P == (10**4299,)
    assert mio.loads_matrix_csv("1e-4299\n").D == 10**4299
    for cell in ("1e4300", "1e-4300", "1.1e-4299", "10e4299", "1e1000000000", "1e" + "9" * 5000):
        with pytest.raises(ParseError, match="^line 1: bad rational"):
            mio.loads_matrix_csv(cell + "\n")

def test_matrix_json_validation():
    with pytest.raises(ParseError):
        mio.loads_matrix("[1,2]")
    with pytest.raises(ParseError):
        mio.loads_matrix('{"n": 2, "entries": ["1", "2", "3"]}')
    with pytest.raises(ParseError):
        mio.loads_matrix('{"n": 0, "entries": []}')
    with pytest.raises(ParseError):
        mio.loads_matrix("not json")


@pytest.mark.parametrize("n", ["true", "false", "1.0", '"1"'])
def test_matrix_json_size_must_be_an_integer_not_a_bool(n):
    # bool is a subclass of int, so `true` would otherwise read as n = 1.
    with pytest.raises(ParseError, match='"n" must be a positive integer'):
        mio.loads_matrix('{"n": %s, "entries": ["1/2"]}' % n)


def test_file_round_trip(tmp_path):
    m = all_ones(3)
    p = tmp_path / "m.json"
    mio.write_matrix(m, str(p))
    assert mio.read_matrix(str(p)) == m
    c = tmp_path / "m.csv"
    mio.write_matrix(m, str(c))
    assert mio.read_matrix(str(c)) == m
    with pytest.raises(ParseError):
        mio.read_matrix(str(tmp_path / "missing.json"))


def test_writes_go_through_symlinks_and_into_pipes(tmp_path):
    # A symlinked path writes its target and stays a link; a pipe is written
    # in place, not replaced by a file; no temporary file is left behind.
    m = all_ones(3)
    target, link, pipe = tmp_path / "target.json", tmp_path / "link.json", tmp_path / "pipe"
    target.write_text("old\n")
    link.symlink_to(target)
    os.mkfifo(pipe)
    reader = os.open(pipe, os.O_RDONLY | os.O_NONBLOCK)
    try:
        mio.write_matrices([(m, str(link)), (m, str(pipe))])
        assert os.read(reader, 4096).decode() == mio.dumps_matrix(m) + "\n"
    finally:
        os.close(reader)
    assert link.is_symlink() and mio.read_matrix(str(target)) == m
    assert stat.S_ISFIFO(os.stat(pipe).st_mode)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.json", "pipe", "target.json"]


def test_zero_denominator_is_a_parse_error():
    for bad in ("1/0", "1/2+1/0*sqrt2", "3/0*sqrt2"):
        with pytest.raises(ParseError):
            mio.scalar_from_string(bad)
    with pytest.raises(ParseError):
        mio.loads_matrix('{"n": 1, "entries": ["1/0"]}')


# -- the integer-triple parser and printer against a Fraction reference -------

_REF_RATIONAL = r"[+-]?\d+(?:/\d+)?"
_REF_PLAIN = re.compile(rf"^({_REF_RATIONAL})$")
_REF_FULL = re.compile(rf"^({_REF_RATIONAL})([+-]\d+(?:/\d+)?)\*sqrt2$")
_REF_SQRT_ONLY = re.compile(rf"^({_REF_RATIONAL})\*sqrt2$")


def _ref_fraction(text):
    try:
        return Fraction(text)
    except ZeroDivisionError as exc:
        raise ParseError(f"zero denominator in {shown(repr(text))}") from exc


def _ref_from_string(text):
    # Each part read through Fraction, the value built by Scalar(a, b).
    s = text.replace(" ", "")
    m = _REF_PLAIN.match(s)
    if m:
        return Scalar(_ref_fraction(m.group(1)))
    m = _REF_FULL.match(s)
    if m:
        return Scalar(_ref_fraction(m.group(1)), _ref_fraction(m.group(2)))
    m = _REF_SQRT_ONLY.match(s)
    if m:
        return Scalar(0, _ref_fraction(m.group(1)))
    raise ParseError(f"cannot parse scalar literal {shown(repr(text))}")


def _ref_to_string(s):
    a, b = s.a, s.b
    rational = f"{a.numerator}/{a.denominator}"
    if b == 0:
        return rational
    sign = "+" if b > 0 else "-"
    return f"{rational}{sign}{abs(b.numerator)}/{b.denominator}*sqrt2"


def _outcome(parse, text):
    try:
        return ("ok", parse(text))
    except Exception as exc:  # the type and message must match too
        return (type(exc), str(exc))


def _literal_grid(rng, count):
    nums = ["0", "1", "7", "12", "007", "360", "123456789012345678901234567890"]
    dens = [None, "0", "1", "2", "3", "12", "00", "05", "1024"]
    malformed = ["", " ", "sqrt2", "*sqrt2", "1.5", "1/2+sqrt2", "1//2", "1/2*sqrt3",
                 "/2", "1/", "+", "--1", "1/-2", "1/2+-3*sqrt2", "1/2sqrt2", "1e3",
                 "\t1", "1/2\n", "1/2+3/4*sqrt2*sqrt2", "x", "1,2", "½"]

    def part(signs):
        text = rng.choice(signs) + rng.choice(nums)
        den = rng.choice(dens)
        return text if den is None else f"{text}/{den}"

    def spaced(text):
        return "".join(c + " " * rng.choice((0, 0, 0, 1, 2)) for c in text)

    out = list(malformed)
    for _ in range(count):
        form = rng.randrange(4)
        if form == 0:
            text = part(("", "+", "-"))
        elif form == 1:
            text = part(("", "+", "-")) + part(("+", "-")) + "*sqrt2"
        elif form == 2:
            text = part(("", "+", "-")) + "*sqrt2"
        else:
            text = rng.choice(malformed) + part(("", "-", "+"))
        out.append(spaced(text) if rng.random() < 0.3 else text)
    return out


def test_triple_parser_and_printer_match_the_fraction_reference():
    rng = random.Random(2016)
    literals = _literal_grid(rng, 4000)
    kinds = {"ok": 0, "zero": 0, "bad": 0}
    for text in literals:
        got = _outcome(mio.scalar_from_string, text)
        want = _outcome(_ref_from_string, text)
        if got[0] != "ok" or want[0] != "ok":
            assert got == want, text
            kinds["zero" if "zero denominator" in want[1] else "bad"] += 1
            continue
        kinds["ok"] += 1
        s, r = got[1], want[1]
        assert (s.p, s.q, s.d) == (r.p, r.q, r.d), text
        assert mio.scalar_to_string(s) == _ref_to_string(r), text
    # The grid reaches every outcome, the part-naming zero-denominator one included.
    assert min(kinds.values()) > 100, kinds
    with pytest.raises(ParseError, match=r"^zero denominator in '\+3/0'$"):
        mio.scalar_from_string("1/2 + 3/0*sqrt2")


# -- the triple pretty and CSV printers against a Fraction reference ----------


def _ref_pretty(s):
    a, b = s.a, s.b
    if b == 0:
        return str(a)
    sign = "+" if b > 0 else "-"
    return f"{a} {sign} {abs(b)}√2"


def _ref_csv(m):
    lines = []
    for i in range(m.n):
        cells = []
        for j in range(m.n):
            x = m[i, j]
            if not x.is_rational():
                raise ValueError("CSV form cannot represent √2 entries")
            cells.append(str(x.a))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _pretty_grid(rng, count):
    # Zero, integers, negatives, fractions, pure √2 and mixed values.
    def part():
        num = rng.choice((0, 1, -1, 2, -3, 7, 12, -360, 10**20 + 1))
        return Fraction(num, rng.choice((1, 1, 2, 3, 4, 12, 1024)))

    out = [Scalar(0), Scalar(1), Scalar(-1), Scalar(0, 1), Scalar(0, -1), Scalar(-1, 1)]
    for _ in range(count):
        form = rng.randrange(3)
        a = Fraction(0) if form == 1 else part()
        b = Fraction(0) if form == 0 else part()
        out.append(Scalar(a, b))
    return out


def test_pretty_and_csv_printers_match_the_fraction_reference():
    rng = random.Random(2016)
    values = _pretty_grid(rng, 3000)
    kinds = {"zero": 0, "integer": 0, "negative": 0, "sqrt2 only": 0, "mixed": 0}
    for s in values:
        assert mio.scalar_pretty(s) == _ref_pretty(s), (s.p, s.q, s.d)
        kinds["zero"] += s.is_zero()
        kinds["integer"] += s.q == 0 and s.d == 1 and s.p != 0
        kinds["negative"] += s.q == 0 and s.p < 0
        kinds["sqrt2 only"] += s.p == 0 and s.q != 0
        kinds["mixed"] += s.p != 0 and s.q != 0
    assert min(kinds.values()) > 50, kinds
    rational = [s for s in values if s.is_rational()]
    irrational = [s for s in values if s.q]
    for n in (1, 2, 3, 5):
        for _ in range(40):
            m = Matrix(n, tuple(rng.choice(rational) for _ in range(n * n)))
            assert mio.dumps_matrix_csv(m) == _ref_csv(m)
            entries = list(m.entries)
            entries[rng.randrange(n * n)] = rng.choice(irrational)
            m = Matrix(n, tuple(entries))
            for dump in (mio.dumps_matrix_csv, _ref_csv):
                with pytest.raises(ValueError, match="^CSV form cannot represent √2 entries$"):
                    dump(m)
