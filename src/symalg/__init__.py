"""Exact arithmetic for matrix symmetry spaces over Q(√2).

Nine entrywise symmetries of square matrices (semimagic, associated,
balanced, reverse, vertex-cross, array-sum, alternating-pairs, pandiagonal,
quartered) generate vector spaces that pair up into graded algebras under
the block transform M ↦ X·M·X.  This package provides the exact field and
matrix arithmetic, dual-route membership predicates, the block transform,
the four direct-sum splits, representation-formula constructors for every
space, and a verification layer that mechanically checks the dimension
formulas, product laws, rank bounds and identities.
"""

from .blockform import BlockForm, conjugate_x, from_block, nu_sign, to_block
from .construct import (
    constructor_basis,
    extract_most_perfect_vectors,
    make_alternating_pairs,
    make_array_sum,
    make_associated,
    make_balanced,
    make_most_perfect,
    make_most_perfect_block,
    make_pandiagonal,
    make_quartered,
    make_quartered_semimagic,
    make_reverse,
    make_reversible,
    make_semimagic,
    make_vertex_cross,
    random_member,
)
from .decompose import GradedPair, split
from .errors import (
    DimensionError,
    ParseError,
    PreconditionError,
    PredicatePathMismatch,
    SymalgError,
    VerificationError,
)
from .matrix import (
    Matrix,
    Vector,
    all_ones,
    alternating,
    block_involution,
    exchange,
    identity,
    ones,
    rank,
    zeros,
)
from .predicates import (
    PropertyVerdict,
    SymmetryReport,
    check_algebraic,
    check_entrywise,
    classify,
    in_space,
)
from .scalar import Scalar, as_scalar
from .verify import (
    Certificate,
    ConstraintSystem,
    build_constraints,
    dimension_probe,
    dual_path_agreement,
    grading_certificate,
    mps_certificates,
    oracle_predicate_agreement,
    rank_bound_check,
    reversible_implies_associated,
    run_suite,
    rv_equals_av,
)

__version__ = "0.1.0"
