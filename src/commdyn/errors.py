"""Exception types shared across the package."""


class CommdynError(Exception):
    """Base class for all commdyn errors."""


class DomainError(CommdynError):
    """Value outside the invertible range of a saturation function."""


class SingularJacobian(CommdynError):
    """Newton linear solve failed; typically means a near-bifurcation point."""


class NeutralState(CommdynError):
    """Equilibrium is (numerically) the origin and carries no structure."""

