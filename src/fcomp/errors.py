"""Exception hierarchy shared by every stage of the pipeline."""


class FcompError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(FcompError):
    """Surface-syntax or s-expression input could not be parsed."""

    def __init__(self, message, line=None, col=None):
        if line is not None:
            message = f"{line}:{col}: {message}"
        super().__init__(message)
        self.line = line
        self.col = col


class TypeCheckError(FcompError):
    """Base class for typechecking failures."""


class UnboundVariable(TypeCheckError):
    def __init__(self, name):
        super().__init__(f"unbound variable: {name}")
        self.name = name


class TypeMismatch(TypeCheckError):
    """The term, a ``term.Term``, is named by its ``brief``: its repr if it is
    small, else its head and node count."""

    def __init__(self, term, expected, actual):
        super().__init__(
            f"type mismatch at {term.brief()}: expected {expected}, got {actual}")
        self.term = term
        self.expected = expected
        self.actual = actual


class UnresolvedTypeVariable(TypeCheckError):
    """Inference could not ground the result type."""


class NonEmptyClosureContext(TypeCheckError):
    """The code part of a closure has free term variables."""

    def __init__(self, names):
        super().__init__(f"closure code is not closed, free: {sorted(names)}")
        self.names = names


class RigidEscape(TypeCheckError):
    """A skolem type introduced by open escapes into the result type."""


class EvalError(FcompError):
    """Base class for runtime errors in the target machines."""


class OutOfBounds(EvalError):
    """A heap access fell outside the allocated region."""


class TransformError(FcompError):
    """Base class for failures in the compilation passes."""


class UntrackedVariable(TransformError):
    """Closure conversion met a variable neither bound nor in the candidate list."""

    def __init__(self, name):
        super().__init__(f"untracked variable: {name}")
        self.name = name


class HoistEscape(TransformError):
    """A bound variable occurs free in a function extracted from its scope."""


class UnsupportedShape(TransformError):
    """A term does not fit the restricted shape a pass expects."""


class MissingMapping(TransformError):
    """A variable mapping lookup failed during closure conversion."""

    def __init__(self, name):
        super().__init__(f"no mapping for variable: {name}")
        self.name = name


class ArrowTypeUnsupported(FcompError):
    """The first-order relation checkers reject arrow types."""
