"""Exception types shared across the checker modules."""


class ImocheckError(Exception):
    """Base class for all errors raised by this package."""


class PreconditionFailedError(ImocheckError, ValueError):
    """A function was called on inputs outside its stated precondition."""


class TheoremViolationError(ImocheckError, AssertionError):
    """A machine-checked theorem failed on valid input.

    This never fires on correct code and valid inputs; it signals a bug or
    an invalid input that slipped past validation.  Its one raiser is
    n1.classify, on a square inside a residue-2 run.
    """


class TilingParseError(ImocheckError, ValueError):
    """A tiling file line failed to parse.  Carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no
