"""Property tests of the cone layer over random valid cones."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tubeharm import cone as cg
from tubeharm.errors import DegenerateSubset

# derandomized, so tier-1 runs the same examples every time
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@st.composite
def cones(draw):
    """n in {2, 3, 4}, n <= m <= n + 2 unit generators at 0.2 to 1 rad
    from an axis: a pointed cone, whose dual is full-dimensional."""
    n = draw(st.integers(2, 4))
    m = draw(st.integers(n, n + 2))
    unit = st.floats(-1.0, 1.0)
    axis = draw(arrays(float, n, elements=unit))
    perp = draw(arrays(float, (m, n), elements=unit))
    angle = draw(arrays(float, (m, 1), elements=st.floats(0.2, 1.0)))
    assume(np.linalg.norm(axis) > 0.1)
    axis /= np.linalg.norm(axis)
    perp -= np.outer(perp @ axis, axis)
    assume(np.all(np.linalg.norm(perp, axis=1) > 0.1))
    perp /= np.linalg.norm(perp, axis=1, keepdims=True)
    try:
        return cg.validate_cone(np.cos(angle) * axis + np.sin(angle) * perp)
    except DegenerateSubset:
        assume(False)


@PROPERTY
@given(cone=cones(), data=st.data(), lam=st.floats(0.25, 4.0))
def test_cauchy_szego_homogeneous_of_degree_minus_n(cone, data, lam):
    # C(lam z) = lam^-n C(z): z and lam z go through one batched call
    t = data.draw(arrays(float, (8, cone.m), elements=st.floats(0.2, 1.0)))
    x = data.draw(arrays(float, (8, cone.n), elements=st.floats(-1.0, 1.0)))
    z = x + 1j * cg.project(cone, t)
    scaled, plain = cg.cauchy_szego(cone, np.stack([lam * z, z]))
    assert np.max(np.abs(scaled - lam ** (-cone.n) * plain) / np.abs(plain)) <= 1e-10
