"""Exception hierarchy shared across the package."""


class QAskeyError(Exception):
    """Base class for all package-specific errors."""


class VanishingDenominator(QAskeyError):
    """A denominator vanished: a Pochhammer factor inside a terminating
    series, or a weight or norm denominator; `index` witnesses where."""

    def __init__(self, index, detail=""):
        self.index = index
        msg = f"vanishing denominator at index {index}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class NonPositiveWeight(QAskeyError):
    """An orthogonality weight came out <= 0; `index` is the lattice point."""

    def __init__(self, index, value):
        self.index = index
        self.value = value
        super().__init__(f"weight at x={index} is {value} (must be positive)")


class ZeroArgument(QAskeyError):
    """Laurent polynomial evaluated at z = 0."""


class InadmissiblePoint(QAskeyError):
    """An evaluation point does not satisfy the exactness preconditions."""


class ParameterError(QAskeyError):
    """Family parameters violate an admissibility invariant."""


class NonConvergence(QAskeyError):
    """An iterative numeric procedure failed to converge."""


class NonFinite(QAskeyError):
    """A floating-point evaluation produced NaN or infinity."""
