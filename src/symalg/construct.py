"""Constructors for members of every symmetry space.

Each function assembles the block-representation of a member from free (or
mildly constrained) parameters and conjugates back with the involution X_n.
It passes its blocks to `_write` by the names of the `BlockForm` views
(a block left out is zero), and `_write` lays each where `blockform.layout`
puts it; P and Q lay out their plain quadrants the same way, without
conjugating.  A kind exists at n where its space does
(`predicates.check_dimension`).

Parameters are validated eagerly — the ν-parity sign conventions are easy
to get wrong at call sites — and the failed constraint is named in the
error.  Where a parameter must itself belong to a lower-dimensional
symmetry space (Y ∈ S_ν and the like), membership is checked via the
predicates.

One table (`_FORMS`) gives, for each kind and parity, the maker and its
ordered (name, parameter space) list; `constructor_basis`, `random_member`
and `member_from_params` are all derived from it; `member_from_params`
also reads the mps block form a, b, Z (`_NAMED_FORMS`).
`constructor_basis` is cached per (kind, n) and returns one shared tuple,
so the span checks, the member parameters that recurse to size ν and the
MPS certificates build each basis once.  Each maker is called with n, and
a parameter left out is None, which every maker reads as zero.
Member parameters recurse to size ν, grounding at n = 1 where the spaces
are a free scalar (semimagic, alternating-pairs, balanced, reverse) or
null (vertex-cross, array-sum, associated).

Entry parameters are summed in `int` and the packs take ints.  Random
draws use small rationals (numerators in [−9, 9] over 1 or 2) so that
failing cases stay readable; exactness makes the magnitude irrelevant.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from math import lcm

from .blockform import conjugate_x, layout, nu_sign
from .decompose import split
from .errors import DimensionError, PreconditionError, shown
from .matrix import (
    Matrix,
    Vector,
    all_ones,
    alternating,
    exchange,
    ones,
    zeros,
)
from .predicates import check_dimension, in_space
from .scalar import SQRT2, ZERO, Scalar, as_scalar, integer_parts

# -- parameter coercion ------------------------------------------------------


def _mat_param(p, nu: int | None, name: str) -> Matrix:
    # nu = None accepts any size: the parameter fixes the size itself.
    shape = f"{name} must be a " + ("square matrix" if nu is None else f"{nu}×{nu} matrix")
    if p is None:
        if nu is None:
            raise PreconditionError(f"{shape}; without n it fixes ν")
        return zeros(nu)
    if not isinstance(p, Matrix):
        try:
            p = Matrix.from_rows(p)
        except (DimensionError, TypeError) as exc:
            raise PreconditionError(f"{shape} (a list of rows)") from exc
    if nu is not None and p.n != nu:
        raise PreconditionError(f"{shape}, got {p.n}×{p.n}")
    return p


def _vec_param(p, nu: int, name: str) -> Vector:
    if p is None:
        return Vector.from_parts(nu, (0,) * nu, None, 1)  # also at ν = 0, where it is empty
    shape = f"{name} must be a vector of length {nu}"
    if not isinstance(p, Vector):
        try:
            p = Vector(p)
        except TypeError as exc:
            raise PreconditionError(f"{shape} (a list of scalars)") from exc
    if p.n != nu:
        raise PreconditionError(f"{shape}, got length {p.n}")
    return p


def _blocks(nu: int, **blocks) -> list[Matrix]:
    # The ν×ν blocks of a form, in the order given, each read by _mat_param.
    return [_mat_param(p, nu, name) for name, p in blocks.items()]


def _scalar_param(p, name: str) -> Scalar:
    try:
        return ZERO if p is None else as_scalar(p)
    except TypeError as exc:
        raise PreconditionError(f"{name} must be a scalar") from exc


def _grid_param(p, rows: int, cols: int, name: str) -> list:
    if p is None:
        return [[ZERO] * cols for _ in range(rows)]
    shape = f"{name} must be a {rows}×{cols} matrix (a list of rows)"
    try:
        grid = [[as_scalar(x) for x in row] for row in p]
    except TypeError as exc:
        raise PreconditionError(shape) from exc
    if len(grid) != rows or any(len(r) != cols for r in grid):
        raise PreconditionError(shape)
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


def _parts(x) -> tuple:
    # (P, Q, D) of a Matrix, a Vector, a Scalar or a grid (list of rows) of
    # scalars, row-major, with Q None when rational.
    if isinstance(x, (Matrix, Vector)):
        return x.P, x.Q, x.D
    if isinstance(x, Scalar):
        return [x.p], [x.q] if x.q else None, x.d
    return integer_parts([e for row in x for e in row])


def _write(n: int, **blocks) -> Matrix:
    """The n×n matrix with each named block where `layout(n)` puts it.

    The names are those of the `BlockForm` views (y_block, vt_block, …,
    alpha), and each block is anything `_parts` reads, with as many columns
    as its place.  A block left out is zero, and so is one whose place has
    no columns (the square blocks at n = 1).  The blocks are brought to
    their least common denominator and written into the result's parts.
    """
    at = layout(n)
    parts = [(*at[name], _parts(x)) for name, x in blocks.items() if at[name][1]]
    D = lcm(*(d for *_, (_, _, d) in parts))
    P, Q = [0] * (n * n), [0] * (n * n)
    for rows, cols, (bp, bq, bd) in parts:
        f, w = D // bd, len(cols)
        for out, part in ((P, bp), (Q, bq)):
            if part is None:
                continue
            if f != 1:
                part = [f * x for x in part]
            for k in range(0, len(part), w):
                start = (rows.start + k // w) * n + cols.start
                out[start : start + w] = part[k : k + w]
    return Matrix.from_parts(n, P, Q, D)


# -- type A and B ------------------------------------------------------------


def make_associated(phi, psi, n: int) -> Matrix:
    """Member of the weight-0 associated space from two free blocks.

    Block form [[O, Ψ], [Φ, O]]; for odd n the zero blocks have sizes
    (ν+1)² and ν², so Φ is ν×(ν+1) and Ψ is (ν+1)×ν.
    """
    nu, odd = divmod(n, 2)
    if not odd:
        psi, phi = _blocks(nu, psi=psi, phi=phi)
        return conjugate_x(_write(n, vt_block=psi, w_block=phi))
    phi = _grid_param(phi, nu, nu + 1, "phi")
    psi = _grid_param(psi, nu + 1, nu, "psi")
    # J's grading splits C as (ν+1, ν): Ψ is Vᵀ over zᵀ, Φ is W beside x.
    w, x = [r[:nu] for r in phi], [r[nu:] for r in phi]
    return conjugate_x(_write(n, vt_block=psi[:nu], z_row=psi[nu:], w_block=w, x_col=x))


def make_balanced(upsilon, omega, n: int) -> Matrix:
    """Balanced (half-turn symmetric) member from two free diagonal blocks."""
    nu, odd = divmod(n, 2)
    if not odd:
        upsilon, omega = _blocks(nu, upsilon=upsilon, omega=omega)
        return conjugate_x(_write(n, y_block=upsilon, z_block=omega))
    *top, (*y, alpha) = _grid_param(upsilon, nu + 1, nu + 1, "upsilon")
    if nu:
        omega = _mat_param(omega, nu, "omega")
    else:
        _reject({"omega": omega}, "ν = 0", n)
    # J's grading splits C as (ν+1, ν): Υ is [[Y, v], [yᵀ, α]] and Ω is Z.
    Y, v = [r[:nu] for r in top], [r[nu:] for r in top]
    return conjugate_x(_write(n, y_block=Y, v_col=v, y_row=[y], alpha=alpha, z_block=omega))


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
        Y, V, W, Z = _blocks(nu, Y=Y, V=V, W=W, Z=Z)
        _require(in_space(Y, "S"), "Y must be semimagic (Y ∈ S_ν)")
        _require(V.apply(ones(nu)).is_zero(), "V must have zero row sums")
        _require(W.apply(ones(nu)).is_zero(), "W must have zero row sums")
        return conjugate_x(_write(n, y_block=Y, vt_block=V.transpose(), w_block=W, z_block=Z))
    w = _scalar_param(w, "w")
    if n == 1:
        _reject({"Y": Y, "V": V, "W": W, "Z": Z}, "ν = 0", n)
        return Matrix(1, (w,))
    return _odd_free_blocks(nu, False, Y, V, W, Z, w)


def _odd_axis(nu: int, alt: bool) -> tuple[Vector, Scalar]:
    """Axis and scale (u, r) of an odd form: (1_ν, √2), or (Σ_ν, nu_sign(ν)·√2) if `alt`."""
    if alt:
        return alternating(nu), SQRT2 * nu_sign(nu)
    return ones(nu), SQRT2


def _odd_free_blocks(nu: int, alt: bool, Y, V, W, Z, lam: Scalar) -> Matrix:
    # The odd forms of S (λ = w) and N (alt): free blocks Y, V, W, Z and
    # the scalar λ on the axis of `_odd_axis`.
    Y, V, W, Z = _blocks(nu, Y=Y, V=V, W=W, Z=Z)
    u, r = _odd_axis(nu, alt)
    yu = Y.apply(u)
    block = _write(
        2 * nu + 1,
        y_block=Y + u.outer(u).scale(2 * lam),
        vt_block=V.transpose(),
        w_block=W,
        z_block=Z,
        v_col=(u.scale(lam) - yu).scale(r),
        x_col=W.apply(u).scale(-r),
        y_row=(u.scale(lam) - Y.transpose().apply(u)).scale(r),
        z_row=V.apply(u).scale(-r),
        alpha=lam + 2 * u.dot(yu),
    )
    return conjugate_x(block)


# -- type V ------------------------------------------------------------------


def make_vertex_cross(n: int, Y=None, a=None, b=None, v=None, x=None, y=None, z=None) -> Matrix:
    """Vertex-cross member (property V with total sum 0).

    Even n: Y ∈ V_ν plus free vectors a, b.  Odd n: free vectors
    v, x, y, z; the central column/row and corner block are forced.
    """
    nu, odd = divmod(n, 2)
    if not odd:
        _reject({"v": v, "x": x, "y": y, "z": z}, "even", n)
        Y = _mat_param(Y, nu, "Y")
        a = _vec_param(a, nu, "a")
        b = _vec_param(b, nu, "b")
        _require(in_space(Y, "V"), "Y must be a vertex-cross member (Y ∈ V_ν)")
        one = ones(nu)
        return conjugate_x(_write(n, y_block=Y, vt_block=one.outer(a), w_block=b.outer(one)))
    _reject({"Y": Y, "a": a, "b": b}, "odd", n)
    return _odd_free_vectors(nu, False, v, x, y, z)


def _odd_free_vectors(nu: int, alt: bool, v, x, y, z) -> Matrix:
    # The odd forms of V and M (alt): free vectors v, x, y, z on the axis
    # of `_odd_axis`; the centre and the top-left block are forced.  At
    # n = 1 (ν = 0) the vectors are empty and the space is null.
    v = _vec_param(v, nu, "v")
    x = _vec_param(x, nu, "x")
    y = _vec_param(y, nu, "y")
    z = _vec_param(z, nu, "z")
    if nu == 0:
        return zeros(1)
    u, r = _odd_axis(nu, alt)
    c = 2 * nu - 1
    total = u.dot(v) + u.dot(y)
    block = _write(
        2 * nu + 1,
        y_block=(v.outer(u) + u.outer(y)).scale(r) - u.outer(u).scale(r * 2 * total / c),
        vt_block=u.outer(z).scale(r),
        w_block=x.outer(u).scale(r),
        v_col=v,
        x_col=x,
        y_row=y,
        z_row=z,
        alpha=r * total / c,
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
        Y, V, W, Z = _blocks(nu, Y=Y, V=V, W=W, Z=Z)
        sig = alternating(nu)
        _require(V.transpose().apply(sig).is_zero(), "V must have zero alternating column sums")
        _require(W.transpose().apply(sig).is_zero(), "W must have zero alternating column sums")
        _require(in_space(Z, "N"), "Z must be an alternating-pairs member (Z ∈ N_ν)")
        return conjugate_x(_write(n, y_block=Y, vt_block=V.transpose(), w_block=W, z_block=Z))
    lam = _scalar_param(lam, "lam")
    if n == 1:
        _reject({"Y": Y, "V": V, "W": W, "Z": Z}, "ν = 0", n)
        return Matrix(1, (lam,))
    return _odd_free_blocks(nu, True, Y, V, W, Z, lam)


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
        return conjugate_x(_write(n, vt_block=a.outer(sig), w_block=sig.outer(b), z_block=Z))
    _reject({"a": a, "b": b, "Z": Z}, "odd", n)
    return _odd_free_vectors(nu, True, v, x, y, z)


# -- type R ------------------------------------------------------------------


def make_reverse(n: int, gamma=None, x=None, z=None, Z=None) -> Matrix:
    """Row/column-reverse member from γ, two free vectors and a free block."""
    nu, odd = divmod(n, 2)
    gamma = _scalar_param(gamma, "gamma")
    x = _vec_param(x, nu, "x")
    z = _vec_param(z, nu, "z")
    if n == 1:
        # ν = 0: x and z are empty and there is no Z block.
        _reject({"Z": Z}, "ν = 0", n)
        return Matrix(1, (gamma / SQRT2,))
    one = ones(nu)
    # The odd form scales the square blocks by √2 and adds the centre.
    r = SQRT2 if odd else 1
    blocks = {
        "y_block": all_ones(nu).scale(r * gamma),
        "vt_block": one.outer(z).scale(r),
        "w_block": x.outer(one).scale(r),
        "z_block": _mat_param(Z, nu, "Z"),
    }
    if odd:
        g = one.scale(gamma)
        blocks.update(v_col=g, x_col=x, y_row=g, z_row=z, alpha=gamma / SQRT2)
    return conjugate_x(_write(n, **blocks))


# -- types P and Q (plain block structure, no conjugation) -------------------


def _halves(A, B, n: int | None, tag: str) -> tuple[Matrix, Matrix]:
    # A and B are ν×ν for ν = n/2; without n, A's size is ν.
    if n is not None:
        check_dimension(tag, n)
    A = _mat_param(A, None if n is None else n // 2, "A")
    return A, _mat_param(B, A.n, "B")


def make_pandiagonal(A, B, n: int | None = None) -> Matrix:
    """Weight-0 strong-pandiagonal matrix [[A, B], [−B, −A]]."""
    A, B = _halves(A, B, n, "P")
    return _write(2 * A.n, y_block=A, vt_block=B, w_block=-B, z_block=-A)


def make_quartered(A, B, n: int | None = None) -> Matrix:
    """Quartered matrix [[A, B], [B, A]]."""
    A, B = _halves(A, B, n, "Q")
    return _write(2 * A.n, y_block=A, vt_block=B, w_block=B, z_block=A)


# -- most perfect squares ----------------------------------------------------


def _check_mirror_parity(u: Vector, nu: int, name: str) -> None:
    s = nu_sign(nu)
    if exchange(nu).apply(u) != u.scale(-s):
        want = "J·%s = −%s" % (name, name) if s == 1 else "J·%s = %s" % (name, name)
        raise PreconditionError(f"{name} must satisfy {want} for ν = {nu}")


def make_most_perfect_block(a, b, Z, n: int) -> Matrix:
    """Weightless most perfect square from its block representation.

    Needs a, b ⟂ 1_ν with the mirror parity J·a = ∓a (upper sign for even
    ν) and Z in the intersection of the associated and array-sum spaces;
    with those it is the array-sum member on the same a, b and Z.
    """
    check_dimension("MPS", n)
    nu = n // 2
    a = _vec_param(a, nu, "a")
    b = _vec_param(b, nu, "b")
    Z = _mat_param(Z, nu, "Z")
    one = ones(nu)
    _require(a.dot(one).is_zero(), "a must be orthogonal to the all-ones vector")
    _require(b.dot(one).is_zero(), "b must be orthogonal to the all-ones vector")
    _check_mirror_parity(a, nu, "a")
    _check_mirror_parity(b, nu, "b")
    _require(in_space(Z, "A"), "Z must be associated with weight 0 (Z ∈ A_ν)")
    return make_array_sum(n, a, b, Z)


def make_most_perfect(gamma, delta, n: int) -> Matrix:
    """Weightless most perfect square γ·Σᵀ + Σ·δᵀ from its two vectors.

    For even ν the halves satisfy γ = (g, −g), δ = (d, −d) with free g, d;
    for odd ν they repeat, γ = (g, g), with g, d orthogonal to 1_ν.
    """
    check_dimension("MPS", n)
    nu = n // 2
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
    check_dimension("NQS", n)
    nu = n // 2
    Y, Z, V, W = _blocks(nu, Y=Y, Z=Z, V=V, W=W)
    _require(in_space(Y, "BS"), "Y must be balanced semimagic")
    _require(in_space(Z, "BN"), "Z must be balanced with the alternating-pairs property")
    one = ones(nu)
    sig = alternating(nu)
    for name, U in (("V", V), ("W", W)):
        _require(in_space(U, "A"), f"{name} must be associated with weight 0")
        _require(U.apply(one).is_zero(), f"{name} must have zero row sums")
        _require(
            U.transpose().apply(sig).is_zero(),
            f"{name} must have zero alternating column sums",
        )
    return conjugate_x(_write(n, y_block=Y, vt_block=V.transpose(), w_block=W, z_block=Z))


# -- reversible squares ------------------------------------------------------


def make_reversible(a, b, n: int, w=None) -> Matrix:
    """Reversible square from two free vectors; w ≠ 0 adds the weight part.

    With w = 0 the result lies in the weightless reversible space (reverse
    plus vertex-cross); a general reversible square is that plus w·E_n, and
    in either case the rank never exceeds 2.  It is the reverse member with
    Z = 0, x = b, z = a and γ = 2w at even n or √2·w at odd n.
    """
    nu, odd = divmod(n, 2)
    w = _scalar_param(w, "w")
    a = _vec_param(a, nu, "a")
    b = _vec_param(b, nu, "b")
    return make_reverse(n, w * (SQRT2 if odd else 2), x=b, z=a)


# -- parameter spaces ----------------------------------------------------------
#
# Every constructor is linear in its parameters, so each parameter space is
# given by a spanning set.  The constructor maps spanning elements onto a
# spanning set of the symmetry space (`constructor_basis`) and a random
# combination of them onto a random member (`random_member`), which is the
# same combination of the spanning set's images.


class _Entries:
    """A parameter stored as `size(ν)` entries with a sparse spanning set.

    `span(ν)` lists each spanning element as [(entry index, ±1), ...] and
    `pack(ν, P, D)` turns the entries P[k]/D (ints P, D) into the value the
    maker takes.  A parameter without entries (ν = 0, at n = 1) is passed
    as None.
    """

    def __init__(self, size, span, pack):
        self.size = size
        self._span = span
        self._pack = pack

    def _combine(self, nu: int, terms: list, D: int = 1):
        # Σ (c/D)·element over (c, element) terms, touching only listed entries.
        P = [0] * self.size(nu)
        for c, element in terms:
            for idx, sign in element:
                P[idx] += sign * c
        return self._pack(nu, P, D) if P else None

    def spanning(self, nu: int) -> list:
        return [self._combine(nu, [(1, element)]) for element in self._span(nu)]

    def draw(self, nu: int, rng: random.Random, weight=None):
        # A weight aimed at this parameter fixes it: it is the weight slot.
        # Otherwise one coefficient a/b per spanning element, a in −9..9 and
        # b in {1, 2}, drawn in order (randint, then choice).
        if weight is not None:
            return weight
        span = self._span(nu)
        pairs = [(rng.randint(-9, 9), rng.choice((1, 2))) for _ in span]
        D = lcm(*(b for _, b in pairs))
        return self._combine(nu, [(a * (D // b), e) for (a, b), e in zip(pairs, span)], D)


def _free(size, pack) -> _Entries:
    return _Entries(size, lambda nu: [[(k, 1)] for k in range(size(nu))], pack)


def _as_vector(nu: int, P: list, D: int) -> Vector:
    return Vector.from_parts(len(P), P, None, D)


def _as_matrix(nu: int, P: list, D: int) -> Matrix:
    return Matrix.from_parts(nu, P, None, D)


def _grid(extra_rows: int, extra_cols: int) -> _Entries:
    def pack(nu: int, P: list, D: int) -> list:
        cols = nu + extra_cols
        entries = [Scalar._make(p, 0, D) for p in P]
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


_SCALAR = _free(lambda nu: 1, lambda nu, P, D: Scalar._make(P[0], 0, D))
_VECTOR = _free(lambda nu: nu, _as_vector)
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
_MPS_VECTOR = _Entries(lambda nu: 2 * nu, _mps_span, _as_vector)


class _Member:
    """A parameter that is a member of `kind` at size ν, mapped by `project`."""

    def __init__(self, kind: str, project=None):
        self.kind = kind
        self.project = project or (lambda m: m)

    def spanning(self, nu: int) -> list:
        return [self.project(m) for m in constructor_basis(self.kind, nu)]

    def draw(self, nu: int, rng: random.Random, weight=None) -> Matrix:
        # The ν-size block carries twice the weight of the whole matrix.
        sub_w = None if weight is None else 2 * weight
        return self.project(random_member(self.kind, nu, rng, weight=sub_w))


def _balanced_part(m: Matrix) -> Matrix:
    return split(m, "BA").even_part


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
    `names` are the parameters' names, then `weight` if it is not one.
    """

    def __init__(self, maker, params: tuple, weight: str | None = None):
        self.maker = maker
        self.params = params
        self.weight = weight
        self.names = tuple(name for name, _ in params)
        if weight is not None and weight not in self.names:
            self.names += (weight,)

    def build(self, n: int, args: dict) -> Matrix:
        # An absent parameter is None, which every maker reads as zero.
        return self.maker(**{**dict.fromkeys(self.names), **args}, n=n)


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
    "p": (_Form(make_pandiagonal, (("A", _MATRIX), ("B", _MATRIX))), None),
    "q": (_Form(make_quartered, (("A", _MATRIX), ("B", _MATRIX))), None),
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

# kind -> a second even-n form, chosen when any of its names is given.  Its
# spaces are not spanned: the kind's `_FORMS` entry spans the space alone.
_NAMED_FORMS = {
    "mps": _Form(make_most_perfect_block, (("a", None), ("b", None), ("Z", None))),
}

CONSTRUCTIBLE = tuple(_FORMS)


def _form(kind: str, n: int) -> _Form:
    forms = _FORMS.get(kind.lower())
    if forms is None:
        raise ValueError(f"no constructor for kind {shown(repr(kind))}")
    check_dimension(kind.upper(), n)
    return forms[n % 2]


@lru_cache(maxsize=None)
def constructor_basis(kind: str, n: int) -> tuple[Matrix, ...]:
    """Constructor outputs over a spanning set of the parameter space.

    Each output is the maker applied to one spanning element of one
    parameter, every other parameter zero; as the makers are linear, the
    outputs span the symmetry space whenever the representation formula is
    complete, which `verify.dimension_probe` checks against the oracle.
    Built once per (kind, n); every caller shares the one tuple.
    """
    form = _form(kind, n)
    return tuple(
        form.build(n, {name: value})
        for name, space in form.params
        for value in space.spanning(n // 2)
    )


def random_member(kind: str, n: int, rng: random.Random, weight=None) -> Matrix:
    """Random member of a constructible space: its maker on random parameters.

    Each parameter is a random rational combination of its spanning set;
    `weight` (semimagic and reversible types only) fixes the weight.
    """
    form = _form(kind, n)
    w = None if weight is None else as_scalar(weight)
    if w is not None and form.weight is None:
        raise ValueError(f"type {kind.lower()} takes no weight")
    args = {
        name: space.draw(n // 2, rng, w if name == form.weight else None)
        for name, space in form.params
    }
    if w is not None and form.weight not in args:
        args[form.weight] = w
    return form.build(n, args)


def member_from_params(kind: str, n: int, params: dict) -> Matrix:
    """Member of a constructible space from named parameters.

    The names are those of the maker for the parity of n, or of the kind's
    named form (the mps block form a, b, Z) when any of its names is given;
    a missing name is the zero parameter and an unknown one, or a mix of
    the two forms' names, raises ValueError.
    """
    form = _form(kind, n)
    named = _NAMED_FORMS.get(kind.lower())
    if named is not None and not params.keys().isdisjoint(named.names):
        form = named
    unknown = sorted(set(params) - set(form.names))
    if unknown:
        raise ValueError(
            f"unknown parameter {shown(', '.join(map(repr, unknown)))} for type "
            f"{kind.lower()} at n={n}; expected {', '.join(form.names)}"
        )
    return form.build(n, params)
