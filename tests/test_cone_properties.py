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


@PROPERTY
@given(cone=cones())
def test_dual_rays_satisfy_every_halfspace(cone):
    # an extreme ray of the dual lies in every halfspace e_j . v >= 0 and
    # on the boundary of at least n - 1 of them
    products = cone.dual.rays @ cone.generators.T
    assert np.all(products >= -cg.RAY_TOL)
    assert np.all(np.count_nonzero(np.abs(products) <= 1e-9, axis=1) >= cone.n - 1)


@PROPERTY
@given(cone=cones(), data=st.data())
def test_parallelohedron_inside_zonotope(cone, data):
    # points sum_j lam_j e_j over the n largest radii, |lam_j| up to
    # 1.5 t_j: those in the parallelohedron must lie in R(0, t)
    t = data.draw(arrays(float, cone.m, elements=st.floats(0.05, 5.0)))
    frac = data.draw(arrays(float, (16, cone.n), elements=st.floats(-1.5, 1.5)))
    subset = cg.largest_subset(cone, t)
    xp = (frac * t[list(subset)]) @ cone.generators[list(subset)]
    inside = [cg.parallelohedron_contains(cone, subset, np.zeros(cone.n), t, p) for p in xp]
    assert np.all(cg.rect_contains_many(cone, t, xp)[inside])
