"""Exception hierarchy shared across the package."""


class StableToriError(Exception):
    """Base class for all package errors."""


class ConfigError(StableToriError):
    """Command-line configuration that cannot be read or is not accepted."""


class ResourceGuard(StableToriError):
    """Requested run exceeds a resource cap."""


class InvalidLatticeError(StableToriError):
    """Lattice parameter outside the upper half-plane."""


class InvalidCoverError(StableToriError):
    """Cover specification with non-positive determinant."""


class DomainError(StableToriError):
    """Input outside the mathematical domain of an operation."""


class PoleError(DomainError):
    """Evaluation point too close to a lattice point."""


class ResolutionError(StableToriError):
    """Grid too coarse to resolve the requested feature."""


class ShapeError(StableToriError):
    """Incompatible grids or lattices."""


class WrongFormError(StableToriError):
    """Operation applied to a form or ambient of the wrong kind."""


class ConvergenceError(StableToriError):
    """Iterative solver did not converge; carries the best estimate."""

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best
