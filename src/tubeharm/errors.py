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


class OutOfMemoryBudget(TubeharmError):
    """A node loop would hold more than its element budget at its peak.

    `needed` is the counted peak in complex elements (a float64 counts
    1/2): the output plus the loop's spectra, decay tables and buffers."""

    def __init__(self, needed: float, budget: int, detail: str):
        self.needed = needed
        super().__init__(
            f"{detail}: peak {needed:.1f} complex elements exceeds budget {budget}"
        )


class NonFiniteValues(TubeharmError):
    """Input samples are NaN or infinite.

    `count` is the number of non-finite samples among `size`."""

    def __init__(self, count: int, size: int):
        self.count = count
        super().__init__(f"{count} of {size} samples are not finite")


class SupportEscapesDualCone(TubeharmError):
    """Requested spectral bump support is not inside the dual cone."""


class QuadratureRevival(TubeharmError):
    """A spectral sum is evaluated past its quadrature's revival radius.

    `product` is the measured reach (box half-width or max |Re z_a|)
    times the largest gap between adjacent node coordinates on an axis."""

    def __init__(self, product: float, limit: float):
        self.product = product
        super().__init__(
            f"reach * node gap = {product:.4g} exceeds {limit}: the spectral "
            f"sum revives as this nears 1; refine the quadrature or shrink the box"
        )


class BoundaryY(TubeharmError):
    """Imaginary part must lie strictly inside the cone."""
