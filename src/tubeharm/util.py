"""Deterministic accumulation and the checks on reductions and read files."""

from __future__ import annotations

import numpy as np

from .errors import BadShape, NonFiniteValues


def kahan_sum(values) -> float:
    """Compensated sum of a real array in flat lexicographic order.

    The reduction order is fixed (C-order traversal in 2**16-element
    blocks), so results are bit-stable regardless of worker counts or
    BLAS configuration.
    """
    flat = np.ascontiguousarray(values, dtype=np.float64).ravel()
    total = 0.0
    comp = 0.0
    for start in range(0, flat.size, 65536):
        block = flat[start:start + 65536]
        # pairwise within the block is deterministic for a fixed blocksize
        s = float(np.add.reduce(block))
        y = s - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return total


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


def lookup_keys(data: dict, keys, source) -> list:
    """The values of `keys` in `data`, which was read from `source`;
    BadShape names the first key missing."""
    missing = [key for key in keys if key not in data]
    if missing:
        raise BadShape(f"{source} has no key {missing[0]!r}")
    return [data[key] for key in keys]
