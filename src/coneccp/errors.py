"""Exception types shared across the package."""


class ConeCcpError(Exception):
    """Base class for all library errors."""


class InvalidElement(ConeCcpError):
    """Cone element data is malformed (non-finite, wrong shape, asymmetric)."""


class InvalidPenalty(ConeCcpError):
    """Penalty scale must be strictly positive and finite."""


class BoundTooSmall(ConeCcpError):
    """Regularization weight below the certified curvature threshold."""


class InfeasibleStart(ConeCcpError):
    """The convex-concave procedure requires a feasible initial point."""


class SubproblemInfeasible(ConeCcpError):
    """Internal consistency failure: a subproblem that must be feasible is not."""


class InvariantViolation(ConeCcpError):
    """A property the theory guarantees failed at runtime."""


class OracleCheckError(ConeCcpError):
    """An oracle failed its construction-time self checks."""


class SchemaError(ConeCcpError):
    """A problem file does not match the documented schema."""
