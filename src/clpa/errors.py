"""Exception types shared across the package."""


class ClpaError(Exception):
    """Base class for all package-specific errors."""


class FieldMismatch(ClpaError):
    """Arithmetic attempted between scalars of different fields."""


class DivisionByZero(ClpaError, ZeroDivisionError):
    """Exact division by the zero scalar."""


class PeriodMismatch(ClpaError):
    """Arithmetic attempted between Laurent polynomials of different periods."""


class NotASubgraph(ClpaError):
    """The candidate subgraph is not contained in the ambient graph."""


class NonFiniteEnumeration(ClpaError):
    """Path enumeration would produce infinitely many paths."""


class ContextMismatch(ClpaError):
    """Algebra elements from different contexts were combined."""


class IncompleteMap(ClpaError):
    """A generator map is missing the image of some vertex or edge."""


class AlgebraMismatch(ClpaError):
    """Matrix operation attempted across incompatible graded matrix algebras."""


class OracleScaleExceeded(ClpaError):
    """Brute-force isomorphism oracle called beyond its supported size."""


class NotNoExitObject(ClpaError):
    """Classification requested for an object that is not a no-exit object."""


class ClassificationBug(ClpaError):
    """Internal verification of a classification artifact failed.

    This always signals an implementation error, never a valid input state.
    """


class NotAnExit(ClpaError):
    """A witness construction required a cycle with an exit, but none exists."""


class NoCycle(ClpaError):
    """A witness construction required a cycle, but none qualifies."""


class GraphFormatError(ClpaError, ValueError):
    """Graph/signature input failed validation (bad ids, unknown vertices, ...);
    ``index`` places a fault in an edge sequence (see ``Graph.make_path``)."""

    def __init__(self, message: str, index=None):
        super().__init__(message)
        self.index = index


class ParseError(ClpaError, ValueError):
    """Element expression failed to parse; carries the offending position."""

    def __init__(self, message: str, position: int = -1):
        super().__init__(message if position < 0 else f"{message} (at position {position})")
        self.position = position
