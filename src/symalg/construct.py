"""Constructors for members of every symmetry space.

Each function assembles the block-representation of a member from free (or
mildly constrained) parameters and conjugates back with the involution X_n.
Parameters are validated eagerly — the ν-parity sign conventions are easy
to get wrong at call sites — and the failed constraint is named in the
error.  Where a parameter must itself belong to a lower-dimensional
symmetry space (Y ∈ S_ν and the like), membership is checked via the
predicates.

One table (`_FORMS`) gives, for each kind and parity, the maker and its
ordered (name, parameter space) list; `constructor_basis`, `random_member`
and `member_from_params` are all derived from it.  Member parameters
recurse to size ν, grounding at n = 1 where the spaces are a free scalar
(semimagic, alternating-pairs, balanced, reverse) or null (vertex-cross,
array-sum, associated).

Random parameter draws use small rationals (numerators in [−9, 9]) so that
failing cases stay readable; exactness makes the magnitude irrelevant.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .blockform import conjugate_x, nu_sign
from .decompose import split_ba
from .errors import DimensionError, PreconditionError
from .matrix import (
    Matrix,
    Vector,
    all_ones,
    alternating,
    exchange,
    ones,
    zero_vector,
    zeros,
)
from .predicates import in_space
from .scalar import ONE, SQRT2, ZERO, Scalar, as_scalar

# -- parameter coercion ------------------------------------------------------


def _mat_param(p, nu: int | None, name: str) -> Matrix:
    # nu = None accepts any size: the parameter fixes the size itself.
    if p is None:
        return zeros(nu)
    if not isinstance(p, Matrix):
        try:
            p = Matrix.from_rows(p)
        except (DimensionError, TypeError) as exc:
            raise PreconditionError(f"{name}: {exc}") from exc
    if nu is not None and p.n != nu:
        raise PreconditionError(f"{name} must be {nu}×{nu}, got {p.n}×{p.n}")
    return p


def _vec_param(p, nu: int, name: str) -> Vector:
    if p is None:
        return zero_vector(nu)
    if not isinstance(p, Vector):
        try:
            p = Vector(p)
        except TypeError as exc:
            raise PreconditionError(f"{name}: {exc}") from exc
    if p.n != nu:
        raise PreconditionError(f"{name} must have length {nu}, got {p.n}")
    return p


def _scalar_param(p, default=ZERO) -> Scalar:
    try:
        return default if p is None else as_scalar(p)
    except TypeError as exc:
        raise PreconditionError(str(exc)) from exc


def _grid_param(p, rows: int, cols: int, name: str) -> list:
    if p is None:
        return [[ZERO] * cols for _ in range(rows)]
    try:
        grid = [[as_scalar(x) for x in row] for row in p]
    except TypeError as exc:
        raise PreconditionError(f"{name}: {exc}") from exc
    if len(grid) != rows or any(len(r) != cols for r in grid):
        raise PreconditionError(f"{name} must be {rows}×{cols}")
    return grid


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise PreconditionError(what)


def _reject(params: dict, parity: str, n: int) -> None:
    given = [k for k, v in params.items() if v is not None]
    if given:
        raise PreconditionError(
            f"parameters {given} do not apply to the {parity} form at n={n}"
        )


# -- block assembly ----------------------------------------------------------


def _assemble_even(tl: Matrix, tr: Matrix, bl: Matrix, br: Matrix) -> Matrix:
    nu = tl.n
    n = 2 * nu
    rows = []
    for i in range(nu):
        rows.append(list(tl.entries[i * nu : (i + 1) * nu]) + list(tr.entries[i * nu : (i + 1) * nu]))
    for i in range(nu):
        rows.append(list(bl.entries[i * nu : (i + 1) * nu]) + list(br.entries[i * nu : (i + 1) * nu]))
    return Matrix(n, tuple(x for row in rows for x in row))


def _assemble_odd(
    tl: Matrix,
    v_col: Vector,
    tr: Matrix,
    y_row: Vector,
    alpha: Scalar,
    z_row: Vector,
    bl: Matrix,
    x_col: Vector,
    br: Matrix,
) -> Matrix:
    nu = tl.n
    n = 2 * nu + 1
    rows = []
    for i in range(nu):
        rows.append(
            list(tl.entries[i * nu : (i + 1) * nu])
            + [v_col[i]]
            + list(tr.entries[i * nu : (i + 1) * nu])
        )
    rows.append(list(y_row.entries) + [alpha] + list(z_row.entries))
    for i in range(nu):
        rows.append(
            list(bl.entries[i * nu : (i + 1) * nu])
            + [x_col[i]]
            + list(br.entries[i * nu : (i + 1) * nu])
        )
    return Matrix(n, tuple(x for row in rows for x in row))


# -- type A and B ------------------------------------------------------------


def make_associated(phi, psi, n: int) -> Matrix:
    """Member of the weight-0 associated space from two free blocks.

    Block form [[O, Ψ], [Φ, O]]; for odd n the zero blocks have sizes
    (ν+1)² and ν², so Φ is ν×(ν+1) and Ψ is (ν+1)×ν.
    """
    nu, odd = divmod(n, 2)
    if not odd:
        block = _assemble_even(
            zeros(nu), _mat_param(psi, nu, "psi"), _mat_param(phi, nu, "phi"), zeros(nu)
        )
        return conjugate_x(block)
    if n == 1:
        return zeros(1)
    phi_g = _grid_param(phi, nu, nu + 1, "phi")
    psi_g = _grid_param(psi, nu + 1, nu, "psi")
    rows = [[ZERO] * n for _ in range(n)]
    for i in range(nu + 1):
        for j in range(nu):
            rows[i][nu + 1 + j] = psi_g[i][j]
    for i in range(nu):
        for j in range(nu + 1):
            rows[nu + 1 + i][j] = phi_g[i][j]
    return conjugate_x(Matrix(n, tuple(x for row in rows for x in row)))


def make_balanced(upsilon, omega, n: int) -> Matrix:
    """Balanced (half-turn symmetric) member from two free diagonal blocks."""
    nu, odd = divmod(n, 2)
    if not odd:
        block = _assemble_even(
            _mat_param(upsilon, nu, "upsilon"), zeros(nu), zeros(nu),
            _mat_param(omega, nu, "omega"),
        )
        return conjugate_x(block)
    ups = _grid_param(upsilon, nu + 1, nu + 1, "upsilon")
    rows = [[ZERO] * n for _ in range(n)]
    for i in range(nu + 1):
        for j in range(nu + 1):
            rows[i][j] = ups[i][j]
    if nu:
        om = _mat_param(omega, nu, "omega")
        for i in range(nu):
            for j in range(nu):
                rows[nu + 1 + i][nu + 1 + j] = om[i, j]
    return conjugate_x(Matrix(n, tuple(x for row in rows for x in row)))


# -- type S ------------------------------------------------------------------


def make_semimagic(n: int, Y=None, V=None, W=None, Z=None, w=None) -> Matrix:
    """Semimagic member.

    Even n: Y ∈ S_ν (recursive), V and W with zero row sums, Z free; the
    weight is inherited from Y (half of Y's weight).  Odd n: V, W, Y, Z
    free and w is the weight directly.
    """
    nu, odd = divmod(n, 2)
    if not odd:
        if w is not None:
            raise PreconditionError("the even form has no weight parameter; set it via Y")
        Y = _mat_param(Y, nu, "Y")
        V = _mat_param(V, nu, "V")
        W = _mat_param(W, nu, "W")
        Z = _mat_param(Z, nu, "Z")
        _require(in_space(Y, "S"), "Y must be semimagic (Y ∈ S_ν)")
        _require(V.apply(ones(nu)).is_zero(), "V must have zero row sums")
        _require(W.apply(ones(nu)).is_zero(), "W must have zero row sums")
        return conjugate_x(_assemble_even(Y, V.transpose(), W, Z))
    w = _scalar_param(w)
    if n == 1:
        return Matrix(1, (w,))
    Y = _mat_param(Y, nu, "Y")
    V = _mat_param(V, nu, "V")
    W = _mat_param(W, nu, "W")
    Z = _mat_param(Z, nu, "Z")
    one = ones(nu)
    rt2 = SQRT2
    y1 = Y.apply(one)
    yt1 = Y.transpose().apply(one)
    tl = Y + all_ones(nu).scale(2 * w)
    v_col = (one.scale(w) - y1).scale(rt2)
    y_row = (one.scale(w) - yt1).scale(rt2)
    alpha = w + 2 * one.dot(y1)
    z_row = V.apply(one).scale(-rt2)
    x_col = W.apply(one).scale(-rt2)
    block = _assemble_odd(tl, v_col, V.transpose(), y_row, alpha, z_row, W, x_col, Z)
    return conjugate_x(block)


# -- type V ------------------------------------------------------------------


def make_vertex_cross(n: int, Y=None, a=None, b=None, v=None, x=None, y=None, z=None) -> Matrix:
    """Vertex-cross member (property V with total sum 0).

    Even n: Y ∈ V_ν plus free vectors a, b.  Odd n: free vectors
    v, x, y, z; the central column/row and corner block are forced.
    """
    nu, odd = divmod(n, 2)
    if nu == 0:
        raise PreconditionError("the vertex-cross space is null at n = 1")
    if not odd:
        _reject({"v": v, "x": x, "y": y, "z": z}, "even", n)
        Y = _mat_param(Y, nu, "Y")
        a = _vec_param(a, nu, "a")
        b = _vec_param(b, nu, "b")
        _require(in_space(Y, "V"), "Y must be a vertex-cross member (Y ∈ V_ν)")
        one = ones(nu)
        return conjugate_x(_assemble_even(Y, one.outer(a), b.outer(one), zeros(nu)))
    _reject({"Y": Y, "a": a, "b": b}, "odd", n)
    v = _vec_param(v, nu, "v")
    x = _vec_param(x, nu, "x")
    y = _vec_param(y, nu, "y")
    z = _vec_param(z, nu, "z")
    one = ones(nu)
    rt2 = SQRT2
    c = 2 * nu - 1
    total = one.dot(v) + one.dot(y)
    tl = (v.outer(one) + one.outer(y)).scale(rt2) - all_ones(nu).scale(
        rt2 * 2 * total / c
    )
    alpha = rt2 * total / c
    block = _assemble_odd(
        tl, v, one.outer(z).scale(rt2), y, alpha, z, x.outer(one).scale(rt2), x, zeros(nu)
    )
    return conjugate_x(block)


# -- type N ------------------------------------------------------------------


def make_alternating_pairs(n: int, Y=None, V=None, W=None, Z=None, lam=None) -> Matrix:
    """Member of the alternating-pair-sum space (type N).

    Even n: Y free, V and W with zero alternating column sums, Z ∈ N_ν
    (recursive).  Odd n: all four blocks free plus the eigenvalue λ of the
    alternating vector; upper/lower signs follow the parity of ν.
    """
    nu, odd = divmod(n, 2)
    if not odd:
        if lam is not None:
            raise PreconditionError("λ applies only to the odd form")
        Y = _mat_param(Y, nu, "Y")
        V = _mat_param(V, nu, "V")
        W = _mat_param(W, nu, "W")
        Z = _mat_param(Z, nu, "Z")
        sig = alternating(nu)
        _require(V.transpose().apply(sig).is_zero(), "V must have zero alternating column sums")
        _require(W.transpose().apply(sig).is_zero(), "W must have zero alternating column sums")
        _require(in_space(Z, "N"), "Z must be an alternating-pairs member (Z ∈ N_ν)")
        return conjugate_x(_assemble_even(Y, V.transpose(), W, Z))
    lam = _scalar_param(lam)
    if n == 1:
        return Matrix(1, (lam,))
    Y = _mat_param(Y, nu, "Y")
    V = _mat_param(V, nu, "V")
    W = _mat_param(W, nu, "W")
    Z = _mat_param(Z, nu, "Z")
    sig = alternating(nu)
    s = nu_sign(nu)
    rt2s = SQRT2 * s
    tl = Y + sig.outer(sig).scale(2 * lam)
    v_col = (sig.scale(lam) - Y.apply(sig)).scale(rt2s)
    y_row = (sig.scale(lam) - Y.transpose().apply(sig)).scale(rt2s)
    alpha = lam + 2 * sig.dot(Y.apply(sig))
    z_row = V.apply(sig).scale(-rt2s)
    x_col = W.apply(sig).scale(-rt2s)
    block = _assemble_odd(tl, v_col, V.transpose(), y_row, alpha, z_row, W, x_col, Z)
    return conjugate_x(block)


# -- type M ------------------------------------------------------------------


def make_array_sum(n: int, a=None, b=None, Z=None, v=None, x=None, y=None, z=None) -> Matrix:
    """Member of the weight-0 array-sum space (type M).

    Even n: free vectors a, b and Z ∈ M_ν (recursive).  Odd n: free
    vectors v, x, y, z — such members satisfy the algebraic definition but
    not the entrywise 2×2 sums, which only the null matrix has at odd n.
    """
    nu, odd = divmod(n, 2)
    if not odd:
        _reject({"v": v, "x": x, "y": y, "z": z}, "even", n)
        a = _vec_param(a, nu, "a")
        b = _vec_param(b, nu, "b")
        Z = _mat_param(Z, nu, "Z")
        _require(in_space(Z, "M"), "Z must be an array-sum member (Z ∈ M_ν)")
        sig = alternating(nu)
        return conjugate_x(_assemble_even(zeros(nu), a.outer(sig), sig.outer(b), Z))
    _reject({"a": a, "b": b, "Z": Z}, "odd", n)
    if n == 1:
        return zeros(1)
    v = _vec_param(v, nu, "v")
    x = _vec_param(x, nu, "x")
    y = _vec_param(y, nu, "y")
    z = _vec_param(z, nu, "z")
    sig = alternating(nu)
    s = nu_sign(nu)
    rt2s = SQRT2 * s
    c = 2 * nu - 1
    total = sig.dot(v) + sig.dot(y)
    tl = (v.outer(sig) + sig.outer(y)).scale(rt2s) - sig.outer(sig).scale(
        rt2s * 2 * total / c
    )
    alpha = rt2s * total / c
    block = _assemble_odd(
        tl, v, sig.outer(z).scale(rt2s), y, alpha, z, x.outer(sig).scale(rt2s), x, zeros(nu)
    )
    return conjugate_x(block)


# -- type R ------------------------------------------------------------------


def make_reverse(n: int, gamma=None, x=None, z=None, Z=None) -> Matrix:
    """Row/column-reverse member from γ, two free vectors and a free block."""
    nu, odd = divmod(n, 2)
    gamma = _scalar_param(gamma)
    if n == 1:
        return Matrix(1, (gamma / SQRT2,))
    x = _vec_param(x, nu, "x")
    z = _vec_param(z, nu, "z")
    Z = _mat_param(Z, nu, "Z")
    one = ones(nu)
    if not odd:
        block = _assemble_even(
            all_ones(nu).scale(gamma), one.outer(z), x.outer(one), Z
        )
        return conjugate_x(block)
    rt2 = SQRT2
    block = _assemble_odd(
        all_ones(nu).scale(rt2 * gamma),
        one.scale(gamma),
        one.outer(z).scale(rt2),
        one.scale(gamma),
        gamma / rt2,
        z,
        x.outer(one).scale(rt2),
        x,
        Z,
    )
    return conjugate_x(block)


# -- types P and Q (plain block structure, no conjugation) -------------------


def make_pandiagonal(A, B) -> Matrix:
    """Weight-0 strong-pandiagonal matrix [[A, B], [−B, −A]]."""
    A = _mat_param(A, None, "A")
    B = _mat_param(B, A.n, "B")
    return _assemble_even(A, B, -B, -A)


def make_quartered(A, B) -> Matrix:
    """Quartered matrix [[A, B], [B, A]]."""
    A = _mat_param(A, None, "A")
    B = _mat_param(B, A.n, "B")
    return _assemble_even(A, B, B, A)


# -- most perfect squares ----------------------------------------------------


def _check_mirror_parity(u: Vector, nu: int, name: str) -> None:
    s = nu_sign(nu)
    if exchange(nu).apply(u) != u.scale(-s):
        want = "J·%s = −%s" % (name, name) if s == 1 else "J·%s = %s" % (name, name)
        raise PreconditionError(f"{name} must satisfy {want} for ν = {nu}")


def make_most_perfect_block(a, b, Z, n: int) -> Matrix:
    """Weightless most perfect square from its block representation.

    Needs a, b ⟂ 1_ν with the mirror parity J·a = ∓a (upper sign for even
    ν) and Z in the intersection of the associated and array-sum spaces.
    """
    nu, odd = divmod(n, 2)
    if odd:
        raise DimensionError("most perfect squares need even dimension")
    a = _vec_param(a, nu, "a")
    b = _vec_param(b, nu, "b")
    Z = _mat_param(Z, nu, "Z")
    one = ones(nu)
    _require(a.dot(one).is_zero(), "a must be orthogonal to the all-ones vector")
    _require(b.dot(one).is_zero(), "b must be orthogonal to the all-ones vector")
    _check_mirror_parity(a, nu, "a")
    _check_mirror_parity(b, nu, "b")
    _require(in_space(Z, "A"), "Z must be associated with weight 0 (Z ∈ A_ν)")
    _require(in_space(Z, "M"), "Z must be an array-sum member (Z ∈ M_ν)")
    sig = alternating(nu)
    return conjugate_x(_assemble_even(zeros(nu), a.outer(sig), sig.outer(b), Z))


def make_most_perfect(gamma, delta, n: int) -> Matrix:
    """Weightless most perfect square γ·Σᵀ + Σ·δᵀ from its two vectors.

    For even ν the halves satisfy γ = (g, −g), δ = (d, −d) with free g, d;
    for odd ν they repeat, γ = (g, g), with g, d orthogonal to 1_ν.
    """
    nu, odd = divmod(n, 2)
    if odd:
        raise DimensionError("most perfect squares need even dimension")
    gamma = _vec_param(gamma, n, "gamma")
    delta = _vec_param(delta, n, "delta")
    s = nu_sign(nu)
    for name, u in (("gamma", gamma), ("delta", delta)):
        for i in range(nu):
            if u[nu + i] != -s * u[i]:
                pat = "(g, −g)" if s == 1 else "(g, g)"
                raise PreconditionError(f"{name} must have the form {pat} for ν = {nu}")
        if s == -1:
            head = Vector(u.entries[:nu])
            if not head.dot(ones(nu)).is_zero():
                raise PreconditionError(
                    f"{name}'s half must be orthogonal to the all-ones vector for odd ν"
                )
    sig = alternating(n)
    return gamma.outer(sig) + sig.outer(delta)


def extract_most_perfect_vectors(m: Matrix) -> tuple[Vector, Vector]:
    """Recover (γ, δ) from a weightless most perfect square: γ = M·Σ/n."""
    n = m.n
    sig = alternating(n)
    inv_n = Scalar(Fraction(1, n))
    return m.apply(sig).scale(inv_n), m.transpose().apply(sig).scale(inv_n)


# -- the quartered-semimagic complement of the most perfect squares ----------


def make_quartered_semimagic(Y, Z, V, W, n: int) -> Matrix:
    """Member of the quartered ∩ semimagic ∩ alternating-pairs space.

    Y must be balanced semimagic, Z balanced with the alternating-pairs
    property, and V, W weight-0 associated with zero row sums and zero
    alternating column sums.
    """
    nu, odd = divmod(n, 2)
    if odd:
        raise DimensionError("the quartered-semimagic space needs even dimension")
    Y = _mat_param(Y, nu, "Y")
    Z = _mat_param(Z, nu, "Z")
    V = _mat_param(V, nu, "V")
    W = _mat_param(W, nu, "W")
    _require(in_space(Y, "B") and in_space(Y, "S"), "Y must be balanced semimagic")
    _require(
        in_space(Z, "B") and in_space(Z, "N"),
        "Z must be balanced with the alternating-pairs property",
    )
    one = ones(nu)
    sig = alternating(nu)
    for name, U in (("V", V), ("W", W)):
        _require(in_space(U, "A"), f"{name} must be associated with weight 0")
        _require(U.apply(one).is_zero(), f"{name} must have zero row sums")
        _require(
            U.transpose().apply(sig).is_zero(),
            f"{name} must have zero alternating column sums",
        )
    return conjugate_x(_assemble_even(Y, V.transpose(), W, Z))


# -- reversible squares ------------------------------------------------------


def make_reversible(a, b, n: int, w=None) -> Matrix:
    """Reversible square from two free vectors; w ≠ 0 adds the weight part.

    With w = 0 the result lies in the weightless reversible space (reverse
    plus vertex-cross); a general reversible square is that plus w·E_n, and
    in either case the rank never exceeds 2.
    """
    nu, odd = divmod(n, 2)
    w = _scalar_param(w)
    if n == 1:
        return Matrix(1, (w,))
    a = _vec_param(a, nu, "a")
    b = _vec_param(b, nu, "b")
    one = ones(nu)
    if not odd:
        block = _assemble_even(
            all_ones(nu).scale(2 * w), one.outer(a), b.outer(one), zeros(nu)
        )
        return conjugate_x(block)
    rt2 = SQRT2
    block = _assemble_odd(
        all_ones(nu).scale(2 * w),
        one.scale(rt2 * w),
        one.outer(a).scale(rt2),
        one.scale(rt2 * w),
        w,
        a,
        b.outer(one).scale(rt2),
        b,
        zeros(nu),
    )
    return conjugate_x(block)


# -- parameter spaces ----------------------------------------------------------
#
# Every constructor is linear in its parameters, so each parameter space is
# given by a spanning set.  The constructor maps spanning elements onto a
# spanning set of the symmetry space (`constructor_basis`) and a random
# combination of them onto a random member (`random_member`).


def _rand_scalar(rng: random.Random) -> Scalar:
    return Scalar(Fraction(rng.randint(-9, 9), rng.choice((1, 2))))


class _Entries:
    """A parameter stored as `size(ν)` entries with a sparse spanning set.

    `span(ν)` lists each spanning element as [(entry index, ±1), ...] and
    `pack(ν, entries)` turns an entry list into the value the maker takes.
    A parameter without entries (ν = 0, at n = 1) is passed as None.
    """

    def __init__(self, size, span, pack):
        self.size = size
        self._span = span
        self._pack = pack

    def _combine(self, nu: int, terms: list):
        # Σ c·element over (c, element) terms, touching only listed entries.
        entries = [ZERO] * self.size(nu)
        for c, element in terms:
            for idx, sign in element:
                entries[idx] = entries[idx] + c if sign == 1 else entries[idx] - c
        return self._pack(nu, entries) if entries else None

    def zero(self, nu: int):
        return self._combine(nu, [])

    def spanning(self, nu: int) -> list:
        return [self._combine(nu, [(ONE, element)]) for element in self._span(nu)]

    def draw(self, nu: int, rng: random.Random, weight=None):
        # A weight aimed at this parameter fixes it: it is the weight slot.
        if weight is not None:
            return weight
        return self._combine(nu, [(_rand_scalar(rng), element) for element in self._span(nu)])


def _free(size, pack) -> _Entries:
    return _Entries(size, lambda nu: [[(k, 1)] for k in range(size(nu))], pack)


def _as_matrix(nu: int, entries: list) -> Matrix:
    return Matrix(nu, tuple(entries))


def _grid(extra_rows: int, extra_cols: int) -> _Entries:
    def pack(nu: int, entries: list) -> list:
        cols = nu + extra_cols
        return [entries[r * cols : (r + 1) * cols] for r in range(nu + extra_rows)]

    return _free(lambda nu: (nu + extra_rows) * (nu + extra_cols), pack)


def _mps_span(nu: int) -> list:
    # (g, −s·g) with g free for even ν and g ⟂ 1_ν for odd ν.
    s = nu_sign(nu)
    if s == 1:
        halves = [[(i, 1)] for i in range(nu)]
    else:
        halves = [[(i, 1), (nu - 1, -1)] for i in range(nu - 1)]
    return [h + [(nu + i, -s * sign) for i, sign in h] for h in halves]


_SCALAR = _free(lambda nu: 1, lambda nu, entries: entries[0])
_VECTOR = _free(lambda nu: nu, lambda nu, entries: Vector(entries))
_MATRIX = _free(lambda nu: nu * nu, _as_matrix)
_ZERO_ROW_SUMS = _Entries(
    lambda nu: nu * nu,
    lambda nu: [
        [(i * nu + j, 1), (i * nu + nu - 1, -1)] for i in range(nu) for j in range(nu - 1)
    ],
    _as_matrix,
)
_ZERO_ALT_COL_SUMS = _Entries(
    lambda nu: nu * nu,
    lambda nu: [
        [(i * nu + j, 1), ((nu - 1) * nu + j, (-1) ** (i + nu))]
        for j in range(nu)
        for i in range(nu - 1)
    ],
    _as_matrix,
)
_MPS_VECTOR = _Entries(lambda nu: 2 * nu, _mps_span, lambda nu, entries: Vector(entries))


class _Member:
    """A parameter that is a member of `kind` at size ν, mapped by `project`."""

    def __init__(self, kind: str, project=None):
        self.kind = kind
        self.project = project or (lambda m: m)

    def zero(self, nu: int) -> Matrix:
        return zeros(nu)

    def spanning(self, nu: int) -> list:
        return [self.project(m) for m in constructor_basis(self.kind, nu)]

    def draw(self, nu: int, rng: random.Random, weight=None) -> Matrix:
        # The ν-size block carries twice the weight of the whole matrix.
        sub_w = None if weight is None else 2 * weight
        return self.project(random_member(self.kind, nu, rng, weight=sub_w))


def _balanced_part(m: Matrix) -> Matrix:
    return split_ba(m).even_part


def _strip_sums(m: Matrix) -> Matrix:
    # Kill row sums (right projector) then alternating column sums (left
    # projector); both commute with the half-turn so type A is preserved.
    nu = m.n
    one = ones(nu)
    sig = alternating(nu)
    inv = Scalar(Fraction(1, nu))
    rs = m.apply(one)
    m1 = m - rs.scale(inv).outer(one)
    acs = m1.transpose().apply(sig)
    return m1 - sig.scale(inv).outer(acs)


class _Form:
    """A maker with its ordered (name, parameter space) list.

    `weight` names the parameter or keyword that a given weight goes to;
    `sized` is False for makers whose size follows from their blocks.
    """

    def __init__(self, maker, params: tuple, weight: str | None = None, sized: bool = True):
        self.maker = maker
        self.params = params
        self.weight = weight
        self.sized = sized

    @property
    def names(self) -> tuple:
        names = tuple(name for name, _ in self.params)
        if self.weight is None or self.weight in names:
            return names
        return names + (self.weight,)

    def zeros(self, nu: int) -> dict:
        return {name: space.zero(nu) for name, space in self.params}

    def build(self, n: int, args: dict) -> Matrix:
        return self.maker(**args, n=n) if self.sized else self.maker(**args)


_REVERSE = _Form(make_reverse, (("gamma", _SCALAR), ("x", _VECTOR), ("z", _VECTOR), ("Z", _MATRIX)))
_REVERSIBLE = _Form(make_reversible, (("a", _VECTOR), ("b", _VECTOR)), weight="w")

# kind -> (form at even n, form at odd n); None where that parity has none.
_FORMS = {
    "a": (
        _Form(make_associated, (("phi", _MATRIX), ("psi", _MATRIX))),
        _Form(make_associated, (("phi", _grid(0, 1)), ("psi", _grid(1, 0)))),
    ),
    "b": (
        _Form(make_balanced, (("upsilon", _MATRIX), ("omega", _MATRIX))),
        _Form(make_balanced, (("upsilon", _grid(1, 1)), ("omega", _MATRIX))),
    ),
    "s": (
        _Form(
            make_semimagic,
            (("Y", _Member("s")), ("V", _ZERO_ROW_SUMS), ("W", _ZERO_ROW_SUMS), ("Z", _MATRIX)),
            weight="Y",
        ),
        _Form(
            make_semimagic,
            (("Y", _MATRIX), ("V", _MATRIX), ("W", _MATRIX), ("Z", _MATRIX), ("w", _SCALAR)),
            weight="w",
        ),
    ),
    "v": (
        _Form(make_vertex_cross, (("Y", _Member("v")), ("a", _VECTOR), ("b", _VECTOR))),
        _Form(make_vertex_cross, (("v", _VECTOR), ("x", _VECTOR), ("y", _VECTOR), ("z", _VECTOR))),
    ),
    "n": (
        _Form(
            make_alternating_pairs,
            (
                ("Y", _MATRIX),
                ("V", _ZERO_ALT_COL_SUMS),
                ("W", _ZERO_ALT_COL_SUMS),
                ("Z", _Member("n")),
            ),
        ),
        _Form(
            make_alternating_pairs,
            (("Y", _MATRIX), ("V", _MATRIX), ("W", _MATRIX), ("Z", _MATRIX), ("lam", _SCALAR)),
        ),
    ),
    "m": (
        _Form(make_array_sum, (("a", _VECTOR), ("b", _VECTOR), ("Z", _Member("m")))),
        _Form(make_array_sum, (("v", _VECTOR), ("x", _VECTOR), ("y", _VECTOR), ("z", _VECTOR))),
    ),
    "r": (_REVERSE, _REVERSE),
    "p": (_Form(make_pandiagonal, (("A", _MATRIX), ("B", _MATRIX)), sized=False), None),
    "q": (_Form(make_quartered, (("A", _MATRIX), ("B", _MATRIX)), sized=False), None),
    "mps": (_Form(make_most_perfect, (("gamma", _MPS_VECTOR), ("delta", _MPS_VECTOR))), None),
    "nqs": (
        _Form(
            make_quartered_semimagic,
            (
                ("Y", _Member("s", _balanced_part)),
                ("Z", _Member("n", _balanced_part)),
                ("V", _Member("a", _strip_sums)),
                ("W", _Member("a", _strip_sums)),
            ),
        ),
        None,
    ),
    "rv": (_REVERSIBLE, _REVERSIBLE),
}

CONSTRUCTIBLE = tuple(_FORMS)


def _form(kind: str, n: int) -> _Form:
    forms = _FORMS.get(kind.lower())
    if forms is None:
        raise ValueError(f"no constructor for kind {kind!r}")
    if n < 1:
        raise DimensionError(f"dimension must be positive, got {n}")
    form = forms[n % 2]
    if form is None:
        raise DimensionError(f"type {kind.lower()} needs even dimension")
    return form


def constructor_basis(kind: str, n: int) -> list[Matrix]:
    """Constructor outputs over a spanning set of the parameter space.

    Each output is the maker applied to one spanning element of one
    parameter, every other parameter zero; as the makers are linear, the
    outputs span the symmetry space whenever the representation formula is
    complete, which `verify.dimension_probe` checks against the oracle.
    """
    form = _form(kind, n)
    nu = n // 2
    zero = form.zeros(nu)
    return [
        form.build(n, {**zero, name: value})
        for name, space in form.params
        for value in space.spanning(nu)
    ]


def random_parameters(kind: str, n: int, rng: random.Random, weight=None) -> dict:
    """Random named parameters of a constructible space at size n.

    Each parameter is a random rational combination of its spanning set;
    `weight` (semimagic and reversible types only) fixes the weight.
    """
    form = _form(kind, n)
    w = None if weight is None else as_scalar(weight)
    if w is not None and form.weight is None:
        raise ValueError(f"type {kind.lower()} takes no weight")
    nu = n // 2
    args = {
        name: space.draw(nu, rng, w if name == form.weight else None)
        for name, space in form.params
    }
    if w is not None and form.weight not in args:
        args[form.weight] = w
    return args


def random_member(kind: str, n: int, rng: random.Random, weight=None) -> Matrix:
    """Random member of a constructible space: its maker on random parameters."""
    args = random_parameters(kind, n, rng, weight)
    if all(value is None for value in args.values()):
        return zeros(n)  # no parameter has an entry: the space is null here
    return _form(kind, n).build(n, args)


def member_from_params(kind: str, n: int, params: dict) -> Matrix:
    """Member of a constructible space from named parameters.

    The names are those of the maker for the parity of n; a missing name is
    the zero parameter and an unknown one raises ValueError.
    """
    form = _form(kind, n)
    unknown = sorted(set(params) - set(form.names))
    if unknown:
        raise ValueError(
            f"unknown parameter {', '.join(map(repr, unknown))} for type "
            f"{kind.lower()} at n={n}; expected {', '.join(form.names)}"
        )
    return form.build(n, {**form.zeros(n // 2), **params})
