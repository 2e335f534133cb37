"""Shared exception types."""


class CapacityError(ValueError):
    """Input exceeds a hard size limit (statevector width, enumeration guard)."""


class CircuitParseError(ValueError):
    """Malformed circuit text. Carries the 1-based offending line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class RoutingError(ValueError):
    """Circuit cannot be (or was not) routed for the target coupling map."""


class PlanError(ValueError):
    """A flavor or a split breaks its constraints against the graph."""


class MetricError(ValueError):
    """Approximation ratio is undefined or out of range for the given inputs."""

