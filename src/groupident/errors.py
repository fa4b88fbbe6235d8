"""Exception types shared across the package."""


class GroupIdentError(Exception):
    """Base class for all errors raised by this package."""


class CapacityError(GroupIdentError):
    """An enumeration or table would exceed the configured size bound."""


class DomainError(GroupIdentError):
    """Operands belong to different groups, lattices, or arities."""


class InvalidEndomorphismError(GroupIdentError):
    """An integer matrix does not define an endomorphism of the group."""


class WindowMarginError(GroupIdentError):
    """A lattice window is too small for the requested difference scheme."""


class VanishingFactorError(GroupIdentError):
    """A table that must be divided by contains a zero value."""


class GenerationError(GroupIdentError):
    """A randomized generator exhausted its rejection budget."""


class ConstructionError(GroupIdentError):
    """A counterexample construction is impossible for the given inputs."""


class PreconditionError(GroupIdentError):
    """A condition required by a verification procedure does not hold."""
