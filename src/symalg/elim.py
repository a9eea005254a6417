"""Exact Gaussian elimination: one fraction-free integer kernel.

`integer_rref` row-reduces sparse integer rows and never leaves `int`
arithmetic; `nullspace_of_rref` (the oracle's nullspace basis) and
`rank_of_parts` (rank over Q(√2)) read its result.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from math import gcd, lcm


def rank_of_parts(rows: list) -> int:
    """Rank over Q(√2) of rows (P + Q·√2)/D given as integer parts (P, Q).

    Q is None for a rational row.  Q(√2) has degree 2 over Q, so
    p + q·√2 ↦ (p, q) identifies Q(√2)^w with Q^{2w}.  The Q(√2)-span of a
    row r is the Q-span of r and √2·r, and √2·(p + q·√2) = 2q + p·√2, so
    the Q(√2)-rank of the rows is half the Q-rank of the integer rows
    (P | Q) and (2Q | P); a row's D does not change its span.  Rank does
    not change under the field extension Q ⊂ Q(√2), so when every row is
    rational the rows P are reduced as they are.
    """
    if all(Q is None for _, Q in rows):
        return len(integer_rref([dict(enumerate(P)) for P, _ in rows]))
    embedded = []
    for P, Q in rows:
        w = len(P)
        p = {j: x for j, x in enumerate(P) if x}
        q = {j: x for j, x in enumerate(Q or ()) if x}
        embedded.append(p | {w + j: v for j, v in q.items()})
        embedded.append({j: 2 * v for j, v in q.items()} | {w + j: v for j, v in p.items()})
    return len(integer_rref(embedded)) // 2


def _combine(row: dict, piv: dict, lead: int) -> dict:
    # L·row − f·piv, for f = row[lead] and L = piv[lead], with the factor
    # gcd(L, f) divided out.  Entries that cancel are dropped, the lead
    # entry among them.  `row` itself is updated when L/g is 1.
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


def integer_rref(rows: list, start: dict | None = None) -> dict[int, dict[int, int]]:
    """Reduced row echelon form of integer rows, fraction-free.

    Returns {pivot column: pivot row}.  Each pivot row is a sparse
    {column: int} dict whose leftmost entry is its pivot column; it is
    primitive with a positive lead and zero in every other pivot column,
    so it is its RREF row times its denominators' least common multiple.
    The form is unique, whatever the order of `rows`.

    The pivot is the leftmost nonzero entry: with exact arithmetic there is
    nothing to gain from magnitude pivoting.  As the pivot rows are fully
    reduced against each other, reducing a new row is one pass over its
    nonzeros in pivot columns, in any order.  The rows are taken rightmost
    lead first, so that a new pivot's lead is seldom in an earlier pivot
    row and seldom needs back-substituting into it; that order changes the
    work, never the result.

    `start`, if given, must itself be an `integer_rref` result; the rows
    are added to its row space, and the result is the RREF of its pivot
    rows and `rows` stacked.  It is copied, rows and all, and left as it was.
    """
    pivots = {col: dict(row) for col, row in (start or {}).items()}
    leads = sorted(pivots)
    for row in sorted(filter(None, rows), key=min, reverse=True):
        row = {j: x for j, x in row.items() if x}
        # A pivot row is zero in every other pivot column, so eliminating
        # one column only rescales the others' coefficients.
        for col in [c for c in row if c in pivots]:
            row = _combine(row, pivots[col], col)
        if not row:
            continue
        lead = min(row)
        row = _primitive(row, lead)
        # Back-substitute into the earlier rows that lead left of `lead` (only
        # they can hold it); their leads scale by row[lead] > 0, so stay positive.
        for col in leads[:bisect_left(leads, lead)]:
            if lead in pivots[col]:
                pivots[col] = _primitive(_combine(pivots[col], row, lead), col)
        pivots[lead] = row
        insort(leads, lead)
    return pivots


def nullspace_of_rref(
    pivots: dict[int, dict[int, int]], width: int
) -> list[tuple[int, list[tuple[int, int]]]]:
    """Basis of {x : R·x = 0}, read off the pivot rows `integer_rref(R)`.

    The free-variable basis, one vector per non-pivot column in increasing
    order, each as (den, [(index, num)]): entry `index` is num/den, over one
    common denominator in lowest terms, with the nonzero entries only, by
    increasing index.
    """
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
