"""Exception types shared across the package."""


class TubeharmError(Exception):
    """Base class for all package errors."""


class BadShape(TubeharmError):
    """Input array has the wrong shape or dtype."""


class NotUnit(TubeharmError):
    """A cone generator is not a unit vector within tolerance."""


class DegenerateSubset(TubeharmError):
    """Some n-subset of cone generators is numerically singular."""


class LengthMismatch(TubeharmError):
    """A multi-parameter vector has the wrong number of entries."""


class UnsupportedDimension(TubeharmError):
    """Operation only implemented for small ambient dimensions."""


class SingularSubset(TubeharmError):
    """The selected generator subset is singular."""


class ShapeMismatch(TubeharmError):
    """Grid functions live on incompatible grids."""


class NonpositiveT(TubeharmError):
    """A Poisson scale parameter must be strictly positive."""


class EmptySelector(TubeharmError):
    """A gradient/parameter selector must be nonempty."""


class OutOfMemoryBudget(TubeharmError):
    """Requested field exceeds the configured node*grid element budget."""


class SupportEscapesDualCone(TubeharmError):
    """Requested spectral bump support is not inside the dual cone."""


class BoundaryY(TubeharmError):
    """Imaginary part must lie strictly inside the cone."""
