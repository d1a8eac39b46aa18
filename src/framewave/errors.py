"""Exception types shared across the package."""


class FramewaveError(Exception):
    """Base class for all package-specific errors."""


class PoleDegenerate(FramewaveError):
    """Frame-dependent operation requested at the spatial origin (r = 0)."""


class KinkPoint(FramewaveError):
    """Weight derivative requested exactly at the q = 0 kink."""


class TimeZero(FramewaveError):
    """Boost-based representation requested at t = 0."""


class HistoryMissing(FramewaveError):
    """Stored time history does not cover the requested interval or depth."""


class CFLViolation(FramewaveError):
    """Requested time step exceeds the stability limit."""


class NonFiniteResult(FramewaveError):
    """A monitored field or slice energy is inf or NaN."""


class NotProportional(FramewaveError):
    """A Lie derivative of the inverse flat metric failed the proportionality check."""


class WorkerLost(FramewaveError):
    """A worker process ended without sending its results."""


class SchemaError(FramewaveError):
    """Configuration file violates the published schema."""


class ConstraintError(FramewaveError):
    """Configuration value violates a numeric constraint."""


class ExponentOverflow(FramewaveError):
    """An exact scalar's monomial exponent left the range its key can hold."""
