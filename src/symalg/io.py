"""Exact serialization of matrices.

Two on-disk forms, both parsed without ever touching floating point:

* JSON: ``{"n": int, "entries": [str, ...]}`` row-major, each entry written
  as ``p/q`` or ``p/q+r/s*sqrt2`` with q, s > 0 and signs on the
  numerators.
* CSV: one row per line of comma-separated rationals, for √2-free
  matrices only.

Files ending in ``.csv`` are treated as CSV, everything else as JSON.

A JSON entry is read and written as an integer triple (p + q·√2)/d: one
anchored pattern matches the entry once, each part's numerator and
denominator are captured as ints and combined into one triple, and every
printer (JSON, pretty and CSV) reduces p/d and q/d with one gcd each.  A
matrix is read into its integer parts over the entries' least common
denominator and written from its parts (`Matrix.P`, `Matrix.Q`,
`Matrix.D`), with no `Scalar` per entry.  Only CSV cells are parsed
through `Fraction`, as they may be decimals such as ``1.5``.  Matrix
files and parameter files are decoded by one JSON reader (`loads_json`).
A number past Python's 4,300-digit int-string limit is refused in one
line: on reading, as a bad literal or bad JSON; on printing, by `printed`,
which the matrix printers, the classify report and the split weight use.
`render_matrices` renders every text before `write_texts` opens any file,
and `write_texts` moves the files into place only once all are written.
"""

from __future__ import annotations

import errno
import json
import os
import re
from contextlib import suppress
from fractions import Fraction
from math import gcd, lcm

from .errors import ParseError, shown
from .matrix import Matrix
from .scalar import Scalar

# One anchored pattern for all three forms: a/b, then either c/e·√2 with its
# sign (groups 3, 4) or a bare ``*sqrt2`` that makes a/b the √2 part (group 5).
_ENTRY = re.compile(r"^([+-]?\d+)(?:/(\d+))?(?:([+-]\d+)(?:/(\d+))?\*sqrt2|(\*sqrt2))?$")

# A CSV cell with an exponent, underscores dropped: the digits before and
# after the point, and the exponent, which `Fraction` expands as 10**exp.
_EXPONENT = re.compile(r"[+-]?(\d*)\.?(\d*)e([+-]?\d+)", re.IGNORECASE)
_MAX_DIGITS = 4300  # Python's default int-string limit


def json_shown(x) -> str:
    """`x` for a one-line message: a JSON array or object by its type, else its cut repr."""
    kind = {list: "array", dict: "object"}.get(type(x))
    if kind is not None:
        return f"a JSON {kind}"
    try:
        return shown(repr(x))
    except ValueError:  # past Python's int-string limit
        return f"an integer of {x.bit_length()} bits"


def _literal(x) -> str:
    # The text of a JSON entry that is no string; an array or object is no
    # scalar literal.
    if isinstance(x, (list, dict)):
        raise ParseError(f"cannot parse scalar literal: got {json_shown(x)}")
    return str(x)


def _ratio(num: str, den: str | None) -> tuple[int, int]:
    # The captured numerator and denominator of one part, as ints.
    try:
        a = int(num)
        b = 1 if den is None else int(den)
    except ValueError as exc:  # past Python's int-string limit
        text = num if den is None else f"{num}/{den}"
        raise ParseError(f"cannot parse scalar literal {shown(repr(text))}") from exc
    if b == 0:
        raise ParseError(f"zero denominator in {shown(repr(num + '/' + den))}")
    return a, b


def _parse_triple(text: str) -> tuple[int, int, int]:
    # Each part is read as an integer numerator and denominator, and a/b +
    # c/e·√2 as the one triple (a·e + c·b·√2)/(b·e), not reduced.
    m = _ENTRY.match(text.replace(" ", ""))
    if m is None:
        raise ParseError(f"cannot parse scalar literal {shown(repr(text))}")
    num, den, sqrt_num, sqrt_den, sqrt_only = m.groups()
    a, b = _ratio(num, den)
    if sqrt_num is not None:
        c, e = _ratio(sqrt_num, sqrt_den)
        return a * e, c * b, b * e
    if sqrt_only is not None:
        return 0, a, b
    return a, 0, b


def scalar_from_string(text: str) -> Scalar:
    """Parse ``p/q``, ``p/q+r/s*sqrt2`` or ``r/s*sqrt2`` exactly."""
    return Scalar._make(*_parse_triple(text))


def _from_triples(n: int, triples: list) -> Matrix:
    # The matrix of row-major (p, q, d) triples, d > 0, from its integer
    # parts over the least common denominator.
    D = lcm(*{d for _, _, d in triples})
    P = [p * (D // d) for p, _, d in triples]
    Q = [q * (D // d) for _, q, d in triples]
    return Matrix.from_parts(n, P, Q, D)


def printed(what: str, text, *args) -> str:
    """text(*args), refused in one line if it passes Python's int-string limit.

    `what` names the thing printed, as in ``a weight``.
    """
    try:
        return text(*args)
    except ValueError as exc:  # past Python's int-string limit
        raise ValueError(f"cannot print {what} of more than {_MAX_DIGITS} digits") from exc


def _cells(m: Matrix, text) -> list[str]:
    # text(p, q, d) of every entry (p + q·√2)/d of M, row-major.
    Q = m.Q or (0,) * len(m.P)
    return printed("an entry", lambda: [text(p, q, m.D) for p, q in zip(m.P, Q)])


def scalar_to_string(s: Scalar) -> str:
    """Canonical file form with explicit positive denominators."""
    return _string_text(s.p, s.q, s.d)


def _string_text(p: int, q: int, d: int) -> str:
    # (p + q·√2)/d for d > 0 as p/d and q/d in lowest terms.
    g = gcd(p, d)
    rational = f"{p // g}/{d // g}"
    if q == 0:
        return rational
    g = gcd(q, d)
    sign = "+" if q > 0 else "-"
    return f"{rational}{sign}{abs(q) // g}/{d // g}*sqrt2"


def _ratio_text(num: int, den: int) -> str:
    # num/den in lowest terms for den > 0, without "/1": str(Fraction(num, den)).
    g = gcd(num, den)
    return str(num // g) if den == g else f"{num // g}/{den // g}"


def scalar_pretty(s: Scalar) -> str:
    """Human form: ``p/q`` when the √2 part vanishes, else ``p/q + r/s√2``."""
    return _pretty_text(s.p, s.q, s.d)


def _pretty_text(p: int, q: int, d: int) -> str:
    if q == 0:
        return _ratio_text(p, d)
    sign = "+" if q > 0 else "-"
    return f"{_ratio_text(p, d)} {sign} {_ratio_text(abs(q), d)}√2"


def dumps_matrix_pretty(m: Matrix) -> str:
    """Rows of human-form entries, right-aligned in columns of one width."""
    cells = _cells(m, _pretty_text)
    width = max(map(len, cells))
    n = m.n
    return "\n".join(
        "  ".join(c.rjust(width) for c in cells[i : i + n]) for i in range(0, n * n, n)
    )


def matrix_to_json_obj(m: Matrix) -> dict:
    return {"n": m.n, "entries": _cells(m, _string_text)}


def matrix_from_json_obj(obj) -> Matrix:
    if not isinstance(obj, dict) or "n" not in obj or "entries" not in obj:
        raise ParseError('matrix JSON must be an object with "n" and "entries"')
    n = obj["n"]
    entries = obj["entries"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ParseError(f'"n" must be a positive integer, got {json_shown(n)}')
    if not isinstance(entries, list) or len(entries) != n * n:
        raise ParseError(f'"entries" must list exactly {json_shown(n * n)} strings')
    return _from_triples(
        n, [_parse_triple(x if isinstance(x, str) else _literal(x)) for x in entries]
    )


def dumps_matrix(m: Matrix) -> str:
    return json.dumps(matrix_to_json_obj(m), indent=None)


def loads_json(text: str):
    """The JSON value of `text`; every way the decoder fails is a ParseError."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    except ValueError as exc:  # an integer past Python's int-string limit
        raise ParseError(f"invalid JSON: an integer of more than {_MAX_DIGITS} digits") from exc
    except RecursionError as exc:  # the decoder recurses once per level of nesting
        raise ParseError("JSON nested too deeply to read") from exc


def loads_matrix(text: str) -> Matrix:
    return matrix_from_json_obj(loads_json(text))


def dumps_matrix_csv(m: Matrix) -> str:
    if m.Q is not None:
        raise ValueError("CSV form cannot represent √2 entries")
    n = m.n
    cells = _cells(m, lambda p, _, d: _ratio_text(p, d))
    return "".join(",".join(cells[i : i + n]) + "\n" for i in range(0, n * n, n))


def _csv_rational(cell: str) -> Fraction:
    # Fraction(cell), refused before it expands 10**exp when the numerator
    # or denominator would need more than _MAX_DIGITS digits: d digits
    # scaled by 10**k need at most d + |k|.
    m = _EXPONENT.fullmatch(cell.replace("_", ""))
    if m and len(m[1] + m[2]) + abs(int(m[3]) - len(m[2])) > _MAX_DIGITS:
        raise ValueError(cell)
    return Fraction(cell)


def loads_matrix_csv(text: str) -> Matrix:
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        cells = []
        for cell in line.split(","):
            cell = cell.strip()
            try:
                x = _csv_rational(cell)
                cells.append((x.numerator, 0, x.denominator))
            except (ValueError, ZeroDivisionError) as exc:
                raise ParseError(f"line {lineno}: bad rational {shown(repr(cell))}") from exc
        rows.append(cells)
    if not rows:
        raise ParseError("empty CSV matrix")
    n = len(rows)
    for row in rows:
        if len(row) != n:
            raise ParseError(f"CSV matrix must be square, got a row of length {len(row)}")
    return _from_triples(n, [x for row in rows for x in row])


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def read_json(path: str):
    """The JSON value in the file at `path`, read as `loads_json` reads text."""
    return loads_json(_read_text(path))


def read_matrix(path: str) -> Matrix:
    text = _read_text(path)
    if str(path).endswith(".csv"):
        return loads_matrix_csv(text)
    return loads_matrix(text)


def write_matrix(m: Matrix, path: str) -> None:
    """Write M as CSV to a ``.csv`` path, else as JSON.

    The text is rendered before the file is opened, so a matrix that its
    form cannot hold (√2 entries in CSV) leaves no file written.
    """
    write_texts(render_matrices([(m, path)]))


def render_matrices(outputs) -> list[tuple[str, str]]:
    """The (text, path) of each (matrix, path): CSV for a ``.csv`` path, else JSON."""
    return [
        (dumps_matrix_csv(m) if str(path).endswith(".csv") else dumps_matrix(m) + "\n", path)
        for m, path in outputs
    ]


def write_texts(texts) -> None:
    """Write each (text, path) of `texts`, all files or none.

    Each text for a file is written to a temporary file next to the file a
    path names (through any symlink), and the temporary files replace their
    files only once all are written, so a path that cannot be written
    leaves no file written.  A path that names a device or a pipe, such as
    /dev/stdout, is written in place, last.
    """
    staged, in_place = [], []
    try:
        for i, (text, path) in enumerate(texts):
            if os.path.isdir(path):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
            if os.path.exists(path) and not os.path.isfile(path):
                in_place.append((text, path))
                continue
            target = os.path.realpath(path)
            tmp = f"{target}.{os.getpid()}-{i}.tmp"
            with open(tmp, "x", encoding="utf-8") as fh:
                staged.append((tmp, target, path))
                fh.write(text)
        for tmp, target, path in staged:
            os.replace(tmp, target)
        for text, path in in_place:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
    except OSError as exc:
        for tmp, _, _ in staged:
            with suppress(OSError):
                os.remove(tmp)
        raise ParseError(f"cannot write {path}: {exc.strerror or exc}") from exc
