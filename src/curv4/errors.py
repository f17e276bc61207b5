"""Exception types shared across the package."""


class Curv4Error(Exception):
    """Base class for all errors raised by this package."""


class InvalidOperatorError(Curv4Error):
    """Input matrix is not a valid algebraic curvature operator."""


class NotEinsteinError(Curv4Error):
    """Operation requires an Einstein operator (vanishing traceless Ricci)."""


class InvalidBergerError(Curv4Error):
    """Normal-form data violates one of its defining constraints."""


class DomainError(Curv4Error):
    """Parameter lies outside the domain of a closed-form bound."""


class UnknownModelError(Curv4Error):
    """Requested model space is not in the catalogue."""


class ExactnessError(Curv4Error):
    """An exact-arithmetic operation cannot be carried out exactly."""
