"""Exception types shared across the package."""


class FuncbinError(Exception):
    """Base class for all funcbin errors."""


class InvalidGridError(FuncbinError):
    """Frame grid has non-positive dimensions, a spacing that is not finite and positive, or a non-finite origin."""


class LengthMismatchError(FuncbinError):
    """Parallel arrays disagree in length."""


class NonFiniteThetaError(FuncbinError, ValueError):
    """Motion parameters passed to a warp contain NaN or infinity."""


class ShapeMismatchError(FuncbinError):
    """An adjoint or frame does not match the grid shape."""


class NegativeBinValueError(FuncbinError):
    """Log-likelihood scoring requires nonnegative bin values."""


class ParseError(FuncbinError):
    """An event file line could not be parsed."""

    def __init__(self, path, lineno, message):
        super().__init__(f"{path}:{lineno}: {message}")
        self.path = path
        self.lineno = lineno
