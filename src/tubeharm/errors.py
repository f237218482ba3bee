"""Exception types shared across the package, and the checks of input.

Every entry point checks its input with `require_int`, `require_real`
and `numeric`, in one vocabulary: a bool is never a number, NaN fails
every range check, and a numpy scalar is stored as the int or float the
check returns.  `require_finite` is the one raiser of NonFiniteValues."""

import numbers
import reprlib

import numpy as np


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


def require_finite(values, total):
    """Return `total`, a sum or maximum over `values`; raise
    NonFiniteValues when it is not finite because some sample is not.

    Clean data pays one scalar test: the samples are counted only once
    the reduction has failed."""
    if not np.isfinite(total):
        bad = int(np.count_nonzero(~np.isfinite(values)))
        if bad:
            raise NonFiniteValues(bad, np.size(values))
    return total


def require_int(name, value, low):
    """`value` as an int: an integer, not a bool, at least `low`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        raise BadShape(f"{name} must be an integer >= {low}, got {value!r}")
    return int(value)


def require_real(name, value, low):
    """`value` as a float: a real number, not a bool, finite and above
    `low`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise BadShape(f"{name} must be a real number, got {value!r}")
    if not low < value < np.inf:
        bound = "positive" if low == 0 else f"> {low}"
        raise BadShape(f"{name} must be finite and {bound}, got {value}")
    return float(value)


def numeric(name, value, dtype, shape):
    """`value` as an array of `dtype`, float or complex.  BadShape for a
    ragged sequence and for bool, string, object or (for a float dtype)
    complex values; LengthMismatch unless the shape is `shape`, where a
    leading ... stands for any leading axes and None for any shape."""
    try:
        array = np.asarray(value)
        kind_ok = array.dtype.kind != "b" and np.can_cast(array.dtype, dtype, "same_kind")
    except ValueError:  # a ragged sequence
        kind_ok = False
    if not kind_ok:
        raise BadShape(f"{name} must be an array of {np.dtype(dtype)}, "
                       f"got {reprlib.repr(value)}")
    if not (shape is None or array.shape == shape or shape[:1] == (...,)
            and array.shape[max(array.ndim + 1 - len(shape), 0):] == shape[1:]):
        want = str(shape).replace("Ellipsis", "...")
        raise LengthMismatch(f"{name} must have shape {want}, got {array.shape}")
    return np.asarray(array, dtype=dtype)


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
