"""Exception types shared across the package."""


class DomainError(ValueError):
    """Input outside the mathematical domain of an operation."""


class UnsupportedOrderError(DomainError):
    """Polynomial or quadrature order outside the supported ones."""


class UnboundModeError(DomainError):
    """Couplings with 4AB - C^2 <= 0 do not define bound normal modes."""


class UnsupportedRegimeError(DomainError):
    """Operation only defined in the alpha = +/-45 degree regime."""

