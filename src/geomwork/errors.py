"""Exception types shared across the package, and the unknown-key check that
raises `ConfigError` for every configuration object."""


class GeomworkError(Exception):
    """Base class for all package-specific failures."""


class InvalidParametersError(GeomworkError, ValueError):
    """Model or closed-form parameters outside their admissible domain."""


class SteadyStateError(GeomworkError):
    """Base class for steady-state solver failures."""


class DegenerateSteadyStateError(SteadyStateError):
    """The Liouvillian null space is more than one-dimensional: the generator
    is zero, or its block below the trace row is exactly singular."""


class NoSteadyStateError(SteadyStateError):
    """No steady state can be resolved numerically: the generator block below
    the trace row is too ill-conditioned (condition number above 1e8)."""


class StepTooLargeError(GeomworkError):
    """Time integration blew up: a stored state is not finite."""


class IntegrationFailureError(GeomworkError):
    """Time evolution left the physical state space."""


class ConfigError(GeomworkError, ValueError):
    """Invalid experiment configuration."""


def check_keys(obj: dict, allowed, where: str) -> None:
    """Raise ConfigError naming every key of ``obj`` outside ``allowed``."""
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise ConfigError(f"{where}: unknown keys {unknown}; allowed keys are {sorted(allowed)}")
