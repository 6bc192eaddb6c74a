"""Exception types shared across the package."""


class EntconcError(Exception):
    """Base class for all package errors."""


class DimensionError(EntconcError):
    """Matrix or subsystem dimensions are inconsistent."""


class InvariantViolation(EntconcError):
    """A numeric contract (trace, Hermiticity, positivity) is broken."""


class NotHermitianError(InvariantViolation):
    pass


class NotPSDError(InvariantViolation):
    pass


class DegenerateCouplingError(EntconcError):
    """Raised where a formula degenerates, e.g. the cascade filter at A_N = 0."""


class ZeroProbabilityError(EntconcError):
    """Post-selection or measurement outcome has zero measure."""


class ConfigError(EntconcError):
    """Malformed CLI/experiment configuration."""
