"""Exception types shared across the package."""


class ThetaTwistError(Exception):
    """Base class for every error this package raises deliberately."""


class ModulusMismatch(ThetaTwistError):
    """Operands carry different moduli.

    Always a programming error: a single run fixes one prime, so mixed
    moduli are never recoverable.
    """


class UnsupportedWeight(ThetaTwistError):
    """Weight outside the supported one-dimensional cusp-space list."""


class InsufficientPrecision(ThetaTwistError):
    """A coefficient beyond the recorded precision was requested.

    Truncated series never zero-extend silently; doing so is the classic
    source of false equality verdicts.
    """


class WeightIncongruent(ThetaTwistError):
    """Two forms compared mod ell have weights incongruent mod ell-1."""


class CoefficientMismatch(ThetaTwistError):
    """Two forms compared mod ell differ at coefficient index n."""

    def __init__(self, index, lhs, rhs):
        super().__init__(f"coefficient mismatch at index n={index}: {lhs} != {rhs}")
        self.index = index
        self.lhs = lhs
        self.rhs = rhs


class NotFound(ThetaTwistError):
    """No (i, k') pair passed the twist criteria."""


class ParseError(ThetaTwistError):
    """Polynomial expression could not be parsed."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position

