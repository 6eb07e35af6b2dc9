"""Exception types shared across the package."""


class CommdynError(Exception):
    """Base class for all commdyn errors."""


class DomainError(CommdynError):
    """Value outside the invertible range of a saturation function."""


class NeutralState(CommdynError):
    """Equilibrium is (numerically) the origin and carries no structure."""

