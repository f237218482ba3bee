"""Property tests over random valid cones: the cone layer, the zonotope
volume against Monte Carlo, and the sign-cell identity behind the
Poisson gradient magnitude."""

import itertools
import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import PROPERTY, largest_subset, parallelohedron_contains, qhull_kernel
from tubeharm import cone as cg
from tubeharm import grid as gr
from tubeharm import poisson as po
from tubeharm.errors import DegenerateSubset


@st.composite
def cones(draw, min_n=2, max_n=4, max_extra=2):
    """min_n <= n <= max_n, n <= m <= n + max_extra unit generators at 0.2
    to 1 rad from an axis: a pointed cone, whose dual is
    full-dimensional."""
    n = draw(st.integers(min_n, max_n))
    m = draw(st.integers(n, n + max_extra))
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


def constants_per_subset(cone) -> float:
    """A_const summed one n-subset at a time, with one solve per subset
    for the generators outside it: the reference for compute_constants'
    one batched solve."""
    total = 0.0
    for subset in itertools.combinations(range(cone.m), cone.n):
        others = [mu for mu in range(cone.m) if mu not in subset]
        coeffs = np.linalg.solve(cone.generators[list(subset)].T, cone.generators[others].T)
        total += float(np.sum(np.abs(coeffs)))
    return total


@PROPERTY
@given(cone=cones(max_extra=3), data=st.data(),
       squash=st.sampled_from([1.0, 1e-3, 1e-5, 1e-8]))
def test_one_facet_normal_per_subset(cone, data, squash):
    # the cone squashed toward a random hyperplane by `squash`: if it
    # still validates, it has one facet normal per (n-1)-subset and no
    # two within RAY_TOL up to sign (PolyhedralCone.facet_normals), in
    # C order; and the batched constants match the per-subset loop
    plane = data.draw(arrays(float, cone.n, elements=st.floats(-1.0, 1.0)))
    assume(np.linalg.norm(plane) > 0.1)
    plane /= np.linalg.norm(plane)
    gens = cone.generators - (1.0 - squash) * np.outer(cone.generators @ plane, plane)
    try:
        cone = cg.validate_cone(gens / np.linalg.norm(gens, axis=1, keepdims=True))
    except DegenerateSubset:
        assume(False)
    normals = cone.facet_normals
    assert normals.shape == (math.comb(cone.m, cone.n - 1), cone.n)
    assert normals.flags.c_contiguous
    gaps = np.minimum(np.linalg.norm(normals[:, None] - normals, axis=-1),
                      np.linalg.norm(normals[:, None] + normals, axis=-1))
    np.fill_diagonal(gaps, np.inf)
    assert gaps.min() > cg.RAY_TOL
    want = constants_per_subset(cone)
    assert abs(cg.compute_constants(cone).A_const - want) <= 1e-13 * want


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
@given(cone=cones(min_n=3), data=st.data())
def test_non_simplicial_dual_volume_oracle(cone, data):
    # the pieces of a dual with more than n rays are full-dimensional
    # simplicial cones over its rays, and the kernel they sum is the
    # Qhull volume of the dual's section
    rays = cone.dual.rays
    assume(len(rays) > cone.n)
    simplices, dets = cone.szego_pieces
    assert simplices.shape[1] == cone.n
    assert np.all((0 <= simplices) & (simplices < len(rays)))
    assert np.all(np.abs(np.linalg.det(rays[simplices])) > 0)
    t = data.draw(arrays(float, (8, cone.m), elements=st.floats(0.2, 1.0)))
    for y in cg.project(cone, t):
        want = qhull_kernel(rays, y)
        assert abs(cg.cauchy_szego(cone, 1j * y) - want) <= 1e-12 * want


@PROPERTY
@given(cone=cones(max_n=5, max_extra=3))
def test_every_pulled_simplex_is_a_piece(cone):
    # no piece of the pulling triangulation is flat, so the kernel sums
    # every one, each with its own |det V| > 0
    rays = cone.dual.rays
    simplices, dets = cone.szego_pieces
    assert simplices.tolist() == [list(s) for s in cg._pulled_simplices(rays, cone.generators)]
    assert np.array_equal(dets, np.abs(np.linalg.det(rays[simplices])))
    assert np.all(dets > 0)


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
    subset = largest_subset(cone, t)
    xp = (frac * t[list(subset)]) @ cone.generators[list(subset)]
    inside = [parallelohedron_contains(cone, subset, np.zeros(cone.n), t, p) for p in xp]
    assert np.all(cg.rect_contains_many(cone, t, xp)[inside])


@PROPERTY
@given(cone=cones(max_n=3), data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_zonotope_volume_matches_monte_carlo(cone, data, seed):
    # rejection sampling in the bounding box of R(0, t), rect_contains_many
    # the membership oracle, sigma the estimator's standard deviation at
    # the exact volume.  The bound is 5 sigma: over 60 examples 3 sigma
    # fails by chance with probability 1 - 0.9973^60 = 15%, 5 sigma 3e-5
    t = data.draw(arrays(float, cone.m, elements=st.floats(0.25, 4.0)))
    half = np.abs(cone.generators.T) @ t
    nsamp = 100_000
    pts = np.random.default_rng(seed).uniform(-half, half, size=(nsamp, cone.n))
    box = float(np.prod(2 * half))
    exact = cg.zonotope_volume(cone, t)
    estimate = box * cg.rect_contains_many(cone, t, pts).mean()
    sigma = box * math.sqrt(exact / box * (1 - exact / box) / nsamp)
    assert abs(estimate - exact) <= 5 * sigma


@settings(PROPERTY, max_examples=20)
@given(cone=cones(max_n=3), data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_gradient_magnitude_is_the_sum_over_choices(cone, data, seed):
    # gradient_magnitude_sq_field sums one transform per sign cell; the
    # reference sums |build_field|^2 over all 2^m X/T selectors.  The
    # input is random complex noise, not holomorphic, so every cell is
    # filled.  Besides the cone itself, a random choice of n or more of
    # its generators spans a valid sub-cone, checked the same way
    spec = gr.GridSpec(n=cone.n, sizes=(16,) * cone.n, box_half=4.0)
    rng = np.random.default_rng(seed)
    f = gr.GridFunction(spec, rng.normal(size=spec.sizes) + 1j * rng.normal(size=spec.sizes))
    size = data.draw(st.integers(cone.n, cone.m))
    subset = sorted(data.draw(st.permutations(range(cone.m)))[:size])
    for sub_cone in (cone, cg.validate_cone(cone.generators[subset])):
        lat = po.TLattice(m=sub_cone.m, t_min=0.3, ratio=2.0, levels=2)
        got = po.gradient_magnitude_sq_field(f, sub_cone, lat).values
        want = sum(np.abs(po.build_field(f, sub_cone, lat, selector=dict(enumerate(c))).values) ** 2
                   for c in itertools.product((po.X_CHOICE, po.T_CHOICE), repeat=sub_cone.m))
        assert np.max(np.abs(got - want)) <= 1e-12 * want.max()
