"""Exception hierarchy shared across the package, and `shown` for the input messages echo."""


class SymalgError(Exception):
    """Base class for all package-specific errors."""


class ParseError(SymalgError):
    """Malformed matrix file or scalar literal."""


class DimensionError(SymalgError):
    """Operands with incompatible or nonpositive dimensions."""


class PreconditionError(SymalgError):
    """A constructor parameter violates its stated constraint."""


class PredicatePathMismatch(SymalgError):
    """Entrywise and algebraic predicate routes disagree.

    This signals an implementation bug, never a property of the input.
    """


class VerificationError(SymalgError):
    """A mechanically checked identity failed."""


def shown(text: str) -> str:
    """`text` as a one-line message echoes it: cut after 40 characters, the cut marked."""
    return text if len(text) <= 40 else f"{text[:40]}… ({len(text)} characters)"
