"""Exceptions shared across the engine."""


class CharpError(Exception):
    """Base class for all engine errors."""


class NotPrimeError(CharpError):
    def __init__(self, p, why="is not prime"):
        super().__init__(f"{p} {why}")
        self.p = p


class ParseError(CharpError):
    """Syntax error in a polynomial expression or job file."""

    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class UnknownVariableError(CharpError):
    def __init__(self, name, position=None):
        msg = f"unknown variable '{name}'"
        if position is not None:
            msg = f"{msg} (at position {position})"
        super().__init__(msg)
        self.name = name
        self.position = position


class ExponentOverflowError(CharpError):
    """An exponent left the 32-bit range; the job would silently wrap otherwise."""


class ResourceBudgetError(CharpError):
    """A Groebner basis, pair queue, or monomial count exceeded its budget."""

    def __init__(self, what, used, limit):
        super().__init__(f"resource budget exceeded: {what} used {used} > limit {limit}")
        self.what = what
        self.used = used
        self.limit = limit


class NotAPowerOfPError(CharpError):
    def __init__(self, q, p):
        super().__init__(f"{q} is not a power of the characteristic {p}")


class UnitIdealError(CharpError):
    pass


class ZeroIdealError(CharpError):
    pass
