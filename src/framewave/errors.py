"""Exception types shared across the package."""


class FramewaveError(Exception):
    """Base class for all package-specific errors."""


class PoleDegenerate(FramewaveError):
    """Frame-dependent operation requested at the spatial origin (r = 0)."""


class RankMismatch(FramewaveError):
    """Tensor rank does not match the number of contraction vectors."""


class GhostInvalid(FramewaveError):
    """Grid derivative requested while ghost layers are stale."""


class EmptyRegion(FramewaveError):
    """Integration region contains no grid nodes."""


class EmptyCone(FramewaveError):
    """Cone does not intersect the grid for the requested time range."""


class KinkPoint(FramewaveError):
    """Weight derivative requested exactly at the q = 0 kink."""


class TimeZero(FramewaveError):
    """Boost-based representation requested at t = 0."""


class DomainMismatch(FramewaveError):
    """Fields passed to a pointwise operation live on different domains."""


class HistoryMissing(FramewaveError):
    """Stored time history does not cover the requested interval or depth."""


class CFLViolation(FramewaveError):
    """Requested time step exceeds the stability limit."""


class NonFiniteResult(FramewaveError):
    """A monitored field or slice energy is inf or NaN."""


class FrameMismatch(FramewaveError):
    """Frame component incompatible with the requested frame set."""


class NotProportional(FramewaveError):
    """A Lie derivative of the inverse flat metric failed the proportionality check."""


class SchemaError(FramewaveError):
    """Configuration file violates the published schema."""


class ConstraintError(FramewaveError):
    """Configuration value violates a numeric constraint."""
