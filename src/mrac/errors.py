"""Exception types shared across the toolkit."""


class ToolkitError(Exception):
    """Base class for all toolkit errors."""


class ModelError(ToolkitError):
    """Ill-formed system matrices: dimension, rank, or stability violations."""


class GainError(ToolkitError):
    """Adaptation gains outside their admissible range."""


class ProjectionError(ToolkitError):
    """Projection configuration or initial estimate violates its preconditions."""


class SingularGainError(ToolkitError):
    """Controller-parameter recovery would divide by a sub-threshold estimate."""


class NumericsError(ToolkitError):
    """Non-finite value encountered."""


class ConfigError(ToolkitError):
    """Scenario configuration failed to parse or validate.

    ``errors`` holds every validation failure found, not just the first.
    """

    def __init__(self, errors):
        if isinstance(errors, str):
            errors = [errors]
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))
