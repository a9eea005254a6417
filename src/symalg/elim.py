"""Exact Gaussian elimination, over Q(√2) and over the integers.

Two kernels for two input types:

* `Echelon` (and `echelon_of`, `rank_of_rows`, `nullspace_of_rows`) takes
  rows over Q(√2): sparse dicts {column: Scalar} that hold the nonzero
  entries only, or dense sequences of Scalars whose nonzeros it reads.
  Integer and Fraction entries are accepted too and turn into Scalars on
  the way.  Pivot rows are normalized to a leading 1.
* `integer_nullspace` takes rows with integer coefficients, as sparse
  dicts {column: int}, and never leaves `int` arithmetic: its pivot rows
  are kept primitive (content 1, positive lead) instead of normalized.

Both pick the leftmost nonzero entry as the pivot — with exact arithmetic
there is nothing to gain from magnitude pivoting — and keep the pivot rows
fully reduced against each other, so reducing a new row is one pass over
its nonzeros in pivot columns, in any order.  A row space has one reduced
row echelon form, so on integer rows both give the same pivots and the
same nullspace basis.
"""

from __future__ import annotations

from math import gcd, lcm

from .scalar import ONE, ZERO, Scalar, as_scalar


def _eliminate(row: dict, piv: dict, lead: int) -> None:
    # row ← row − row[lead]·piv in place, for a pivot row with piv[lead] = 1:
    # the lead entry cancels exactly, and entries that cancel are dropped.
    f = row.pop(lead)
    for j, x in piv.items():
        if j != lead:
            v = row.get(j, ZERO) - f * x
            if v:
                row[j] = v
            else:
                del row[j]


class Echelon:
    """Incrementally built reduced row echelon form.

    Feed rows with `add`; `rows` holds the pivot rows as sparse
    {column: Scalar} dicts and `pivots` maps pivot column → index into
    `rows`.  Rows already inserted stay fully reduced against each other,
    so `reduce` returns the canonical residual of a vector modulo the row
    span.
    """

    def __init__(self):
        self.rows: list[dict[int, Scalar]] = []
        self.pivots: dict[int, int] = {}

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, row) -> dict[int, Scalar]:
        """Residual of `row` after elimination against all pivot rows."""
        items = row.items() if isinstance(row, dict) else enumerate(row)
        row = {j: x for j, x in items if x}
        # A pivot row is zero in every other pivot column, so eliminating
        # one column leaves the others' coefficients as they were.
        for col in [c for c in row if c in self.pivots]:
            _eliminate(row, self.rows[self.pivots[col]], col)
        return row

    def add(self, row) -> bool:
        """Insert a row; returns True if it enlarged the span."""
        row = self.reduce(row)
        if not row:
            return False
        lead = min(row)
        inv = as_scalar(row[lead]).inverse()
        row = {j: x * inv for j, x in row.items()}
        # Back-substitute into existing rows to keep the form fully reduced.
        for other in self.rows:
            if lead in other:
                _eliminate(other, row, lead)
        self.rows.append(row)
        self.pivots[lead] = len(self.rows) - 1
        return True

    def contains(self, row) -> bool:
        return not self.reduce(row)


def echelon_of(rows: list) -> Echelon:
    """Echelon form of dense or sparse rows."""
    ech = Echelon()
    for row in rows:
        ech.add(row)
    return ech


def rank_of_rows(rows: list) -> int:
    return echelon_of(rows).rank


def nullspace_of_rows(rows: list, width: int) -> list[list[Scalar]]:
    """Basis of {x : R·x = 0} for the stacked constraint rows R.

    Standard free-variable construction from the RREF: one dense basis
    vector per non-pivot column, with pivot coordinates read off the
    reduced rows.
    """
    ech = echelon_of(rows)
    basis = {free: [ZERO] * width for free in range(width) if free not in ech.pivots}
    for free, vec in basis.items():
        vec[free] = ONE
    for col, idx in ech.pivots.items():
        for free, x in ech.rows[idx].items():
            if free != col:
                basis[free][col] = -x
    return list(basis.values())


def _combine(row: dict, piv: dict, lead: int) -> dict:
    # L·row − f·piv, for f = row[lead] and L = piv[lead], with the factor
    # gcd(L, f) divided out.  Entries that cancel are dropped, the lead
    # entry among them.
    L, f = piv[lead], row[lead]
    g = gcd(L, f)
    a, f = L // g, f // g
    if a != 1:
        row = {j: a * x for j, x in row.items()}
    get = row.get
    for j, x in piv.items():
        v = get(j, 0) - f * x
        if v:
            row[j] = v
        else:
            del row[j]
    return row


def _primitive(row: dict, lead: int) -> dict:
    # The row divided by its content, signed so that row[lead] > 0.
    g = gcd(*row.values())
    if row[lead] < 0:
        g = -g
    return row if g == 1 else {j: x // g for j, x in row.items()}


def _integer_rref(rows: list) -> dict[int, dict[int, int]]:
    """Reduced row echelon form of integer rows, fraction-free.

    Returns {pivot column: pivot row}.  Each pivot row is a sparse
    {column: int} dict whose leftmost entry is its pivot column; it is
    primitive with a positive lead and zero in every other pivot column,
    so it is its RREF row times its denominators' least common multiple.
    """
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        row = {j: x for j, x in row.items() if x}
        # A pivot row is zero in every other pivot column, so eliminating
        # one column only rescales the others' coefficients.
        for col in [c for c in row if c in pivots]:
            row = _combine(row, pivots[col], col)
        if not row:
            continue
        lead = min(row)
        row = _primitive(row, lead)
        # Back-substitute into the earlier rows to keep the form reduced.
        # Their leads scale by row[lead] > 0, so they stay positive.
        for col, other in pivots.items():
            if lead in other:
                pivots[col] = _primitive(_combine(other, row, lead), col)
        pivots[lead] = row
    return pivots


def integer_nullspace(rows: list, width: int) -> list[tuple[int, list[tuple[int, int]]]]:
    """Basis of {x : R·x = 0} for integer rows R, in integer form.

    The same basis as `nullspace_of_rows`, one vector per non-pivot column
    in increasing order, each as (den, [(index, num)]): entry `index` is
    num/den, over one common denominator in lowest terms, with the nonzero
    entries only, by increasing index.
    """
    pivots = _integer_rref(rows)
    # For each free column, the pivot rows that reach it.
    reach: dict[int, list] = {free: [] for free in range(width) if free not in pivots}
    for col, row in pivots.items():
        lead = row[col]
        for free, x in row.items():
            if free != col:
                reach[free].append((col, x, lead))
    basis = []
    for free, terms in reach.items():
        # x[free] = 1, x[col] = −x/lead.
        den = lcm(*(lead // gcd(x, lead) for _, x, lead in terms))
        entries = [(col, -x * den // lead) for col, x, lead in terms]
        entries.append((free, den))
        entries.sort()
        basis.append((den, entries))
    return basis
