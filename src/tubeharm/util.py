"""Deterministic accumulation."""

from __future__ import annotations

import numpy as np


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
