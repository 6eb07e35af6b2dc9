"""Exception types shared across the package."""


class DomainError(ValueError):
    """Value outside the invertible range of a saturation function."""


class NeutralState(ValueError):
    """Equilibrium is (numerically) the origin and carries no structure."""
