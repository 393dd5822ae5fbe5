"""Exception types shared across the package: each is a `StefanlabError`
and keeps `ValueError` (bad input) or `RuntimeError` (a failed solve) beside
it, so one class catches every failure the package raises on purpose."""


class StefanlabError(Exception):
    """Base of every exception the package raises on purpose."""


class GridError(StefanlabError, ValueError):
    """Array shapes or node counts do not match the declared grid."""


class FieldRoleError(StefanlabError, ValueError):
    """A space-time field carries the wrong role for the operation."""


class EndpointConditionError(StefanlabError, ValueError):
    """A field violates a required zero value at r = 0 or r = R(t)."""


class OutOfDomainError(StefanlabError, ValueError):
    """A query point lies outside the ball or the time horizon."""


class DegenerateWeightError(StefanlabError, ValueError):
    """Carleman weights requested at t <= 0 or t >= T where they blow up."""


class RadiusBoundsError(StefanlabError, ValueError):
    """A boundary path leaves the admissible band [R_star, E]."""


class RadiusBreachError(StefanlabError, RuntimeError):
    """An updated boundary exits [R_star, E]; carries the offending values."""

    def __init__(self, message, r_min=None, r_max=None, first_index=None):
        super().__init__(message)
        self.r_min = r_min
        self.r_max = r_max
        self.first_index = first_index


class InstabilityError(StefanlabError, RuntimeError):
    """A solve produced non-finite values; suggests a refined grid."""

    def __init__(self, message, suggested_nodes=None, suggested_steps=None):
        super().__init__(message)
        self.suggested_nodes = suggested_nodes
        self.suggested_steps = suggested_steps


class ConvergenceError(StefanlabError, RuntimeError):
    """An iterative solve hit its cap; carries the residual history."""

    def __init__(self, message, history=None):
        super().__init__(message)
        self.history = list(history) if history is not None else []


class ConfigError(StefanlabError, ValueError):
    """An experiment configuration failed validation; names the field."""

    def __init__(self, field, message):
        super().__init__(f"{field}: {message}")
        self.field = field
