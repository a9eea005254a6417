"""Exact Gaussian elimination over Q(√2).

Rows are sparse: dicts {column: Scalar} that hold the nonzero entries only.
Every function here also accepts a dense sequence of Scalars and reads its
nonzeros.  Pivoting picks the leftmost nonzero entry — with exact arithmetic
there is nothing to gain from magnitude pivoting.  Pivot rows are normalized
to a leading 1 and kept fully reduced against each other, so reducing a new
row is one pass over its nonzeros in pivot columns, in any order.
"""

from __future__ import annotations

from .scalar import ONE, ZERO, Scalar


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
        inv = row[lead].inverse()
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
