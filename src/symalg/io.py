"""Exact serialization of matrices.

Two on-disk forms, both parsed without ever touching floating point:

* JSON: ``{"n": int, "entries": [str, ...]}`` row-major, each entry written
  as ``p/q`` or ``p/q+r/s*sqrt2`` with q, s > 0 and signs on the
  numerators.
* CSV: one row per line of comma-separated rationals, for √2-free
  matrices only.

Files ending in ``.csv`` are treated as CSV, everything else as JSON.

A JSON entry is read and written on the `Scalar`'s integer triple: each
part's numerator and denominator are captured as ints and combined into
one triple, and every printer (JSON, pretty and CSV) reduces p/d and q/d
with one gcd each.  Only CSV cells are parsed through `Fraction`, as they
may be decimals such as ``1.5``.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from math import gcd

from .errors import ParseError
from .matrix import Matrix
from .scalar import Scalar

_RATIONAL = r"([+-]?\d+)(?:/(\d+))?"
_PLAIN = re.compile(rf"^{_RATIONAL}$")
_FULL = re.compile(rf"^{_RATIONAL}([+-]\d+)(?:/(\d+))?\*sqrt2$")
_SQRT_ONLY = re.compile(rf"^{_RATIONAL}\*sqrt2$")


def _ratio(num: str, den: str | None) -> tuple[int, int]:
    # The captured numerator and denominator of one part, as ints.
    a = int(num)
    if den is None:
        return a, 1
    b = int(den)
    if b == 0:
        raise ParseError(f"zero denominator in {num + '/' + den!r}")
    return a, b


def scalar_from_string(text: str) -> Scalar:
    """Parse ``p/q``, ``p/q+r/s*sqrt2`` or ``r/s*sqrt2`` exactly.

    Each part is read as an integer numerator and denominator, and a/b +
    c/e·√2 is built as the one triple (a·e + c·b·√2)/(b·e).
    """
    s = text.replace(" ", "")
    m = _PLAIN.match(s)
    if m:
        a, b = _ratio(*m.groups())
        return Scalar._make(a, 0, b)
    m = _FULL.match(s)
    if m:
        a, b = _ratio(m.group(1), m.group(2))
        c, e = _ratio(m.group(3), m.group(4))
        return Scalar._make(a * e, c * b, b * e)
    m = _SQRT_ONLY.match(s)
    if m:
        c, e = _ratio(*m.groups())
        return Scalar._make(0, c, e)
    raise ParseError(f"cannot parse scalar literal {text!r}")


def scalar_to_string(s: Scalar) -> str:
    """Canonical file form with explicit positive denominators.

    Formatted from the triple (p, q, d): p/d and q/d in lowest terms.
    """
    p, q, d = s.p, s.q, s.d
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
    p, q, d = s.p, s.q, s.d
    if q == 0:
        return _ratio_text(p, d)
    sign = "+" if q > 0 else "-"
    return f"{_ratio_text(p, d)} {sign} {_ratio_text(abs(q), d)}√2"


def matrix_to_json_obj(m: Matrix) -> dict:
    return {"n": m.n, "entries": [scalar_to_string(x) for x in m.entries]}


def matrix_from_json_obj(obj) -> Matrix:
    if not isinstance(obj, dict) or "n" not in obj or "entries" not in obj:
        raise ParseError('matrix JSON must be an object with "n" and "entries"')
    n = obj["n"]
    entries = obj["entries"]
    if not isinstance(n, int) or n < 1:
        raise ParseError(f'"n" must be a positive integer, got {n!r}')
    if not isinstance(entries, list) or len(entries) != n * n:
        raise ParseError(f'"entries" must list exactly {n * n} strings')
    return Matrix(n, tuple(scalar_from_string(str(x)) for x in entries))


def dumps_matrix(m: Matrix) -> str:
    return json.dumps(matrix_to_json_obj(m), indent=None)


def loads_matrix(text: str) -> Matrix:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    return matrix_from_json_obj(obj)


def dumps_matrix_csv(m: Matrix) -> str:
    if any(x.q for x in m.entries):
        raise ValueError("CSV form cannot represent √2 entries")
    n = m.n
    cells = [_ratio_text(x.p, x.d) for x in m.entries]
    return "".join(",".join(cells[i : i + n]) + "\n" for i in range(0, n * n, n))


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
                cells.append(Scalar(Fraction(cell)))
            except (ValueError, ZeroDivisionError) as exc:
                raise ParseError(f"line {lineno}: bad rational {cell!r}") from exc
        rows.append(cells)
    if not rows:
        raise ParseError("empty CSV matrix")
    n = len(rows)
    for row in rows:
        if len(row) != n:
            raise ParseError(f"CSV matrix must be square, got a row of length {len(row)}")
    return Matrix(n, tuple(x for row in rows for x in row))


def read_matrix(path: str) -> Matrix:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    if str(path).endswith(".csv"):
        return loads_matrix_csv(text)
    return loads_matrix(text)


def write_matrix(m: Matrix, path: str) -> None:
    text = dumps_matrix_csv(m) if str(path).endswith(".csv") else dumps_matrix(m) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
