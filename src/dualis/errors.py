"""Exception types shared across the toolkit, and how messages quote input."""

QUOTE_LIMIT = 60  # characters of an offending value that a message echoes


def quoted(value) -> str:
    """repr(value) for an error message, cut to QUOTE_LIMIT characters and
    marked with "...", so hostile input cannot make a message long."""
    text = repr(value)
    return text if len(text) <= QUOTE_LIMIT else text[:QUOTE_LIMIT] + "..."


class DualisError(Exception):
    """Base class for all toolkit errors."""


class DimensionMismatch(DualisError, ValueError):
    """Operands have incompatible shapes or ambient dimensions."""


class ValidationError(DualisError, ValueError):
    """Structure constants violate the defining axioms of the object."""


class IncompatibleStructure(ValidationError):
    """Algebra and coalgebra halves of a bialgebra fail compatibility."""


class UnsupportedCharacteristic(DualisError):
    """Field characteristic too small for the requested computation."""


class NotTwoSided(DualisError, ValueError):
    """A one-sided ideal was supplied where a two-sided one is required."""


class InsufficientTruncation(DualisError):
    """Graded data is not known to a high enough degree for the bound."""


class InsufficientData(DualisError):
    """A stored sequence is too short for the requested rank bound."""


class NotAcyclic(DualisError, ValueError):
    """The quiver contains an oriented cycle."""


class InsufficientClosureRadius(DualisError):
    """Products of functionals need structure constants beyond the radius."""


class NotLeftCoreflexive(DualisError):
    """The evaluation map is not bijective, so transport is unavailable."""


class DecompositionFailed(DualisError):
    """Injective decomposition could not be certified; signals a bug."""


class UnsupportedCorner(DecompositionFailed):
    """A corner neither split nor certified primitive: only corners of dim 1
    or commutative fields certify, so a noncommutative division corner (the
    quaternions over Q) lands here.  A known limit, not a bug."""


class SpecParseError(DualisError, ValueError):
    """A specification document is malformed.

    Carries line/column when the underlying JSON decoder provides them.
    """

    def __init__(self, message, line=None, col=None):
        if line is not None:
            message = f"{message} (line {line}, column {col})"
        super().__init__(message)
        self.line = line
        self.col = col


class UnknownCheck(DualisError, ValueError):
    """A check name in a specification document is not registered."""


class UnresolvedReference(DualisError, ValueError):
    """A check references an object name missing from the document."""


class OperationCancelled(DualisError):
    """A cooperative cancellation token fired during a bounded search."""
