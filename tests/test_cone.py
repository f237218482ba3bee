import dataclasses
import itertools
import re

import numpy as np
import pytest

from conftest import largest_subset, parallelohedron_contains, qhull_kernel
from tubeharm import cone as cg
from tubeharm.errors import (
    BadShape,
    BoundaryY,
    DegenerateSubset,
    LengthMismatch,
    NonFiniteValues,
    NotUnit,
    UnsupportedDimension,
)

SQ2 = np.sqrt(2.0)


def brute_rect_contains(cone, x, t, xp, steps=2001):
    """Scan the hidden parameters on a 1e-3-pitch grid; solve the first
    n coordinates exactly.  Independent of the facet-based membership."""
    b = np.asarray(xp, float) - np.asarray(x, float)
    n, m = cone.n, cone.m
    basis = cone.generators[:n]
    if m == n:
        lam = np.linalg.solve(basis.T, b)
        return bool(np.all(np.abs(lam) <= t[:n] + 1e-9))
    hidden = cone.generators[n:]
    grids = [np.linspace(-t[n + i], t[n + i], steps) for i in range(m - n)]
    for extra in itertools.product(*grids):
        rhs = b - np.asarray(extra) @ hidden
        lam = np.linalg.solve(basis.T, rhs)
        if np.all(np.abs(lam) <= t[:n] + 1e-9):
            return True
    return False


def draw_cone(seed, n, m):
    """m unit generators at 0.2 to 1 rad from a random axis: a pointed
    cone whose dual often has more than n extreme rays."""
    rng = np.random.default_rng(seed)
    axis = rng.standard_normal(n)
    axis /= np.linalg.norm(axis)
    perp = rng.standard_normal((m, n))
    perp -= np.outer(perp @ axis, axis)
    perp /= np.linalg.norm(perp, axis=1, keepdims=True)
    angle = rng.uniform(0.2, 1.0, size=(m, 1))
    return cg.validate_cone(np.cos(angle) * axis + np.sin(angle) * perp), rng


class TestValidate:
    def test_axes_valid(self):
        cone = cg.validate_cone(np.eye(2))
        assert cone.n == 2 and cone.m == 2

    def test_repeated_generator_rejected(self):
        with pytest.raises(DegenerateSubset):
            cg.validate_cone([[1.0, 0.0], [1.0, 0.0]])

    def test_cone_b_all_pairs_independent(self, cone_b):
        # hand check: the three 2x2 determinants are 1, sq2/2, -sq2/2
        dets = [
            np.linalg.det(cone_b.generators[list(s)])
            for s in itertools.combinations(range(3), 2)
        ]
        assert np.allclose(np.abs(dets), [1.0, SQ2 / 2, SQ2 / 2])

    def test_subset_dets_match_per_subset_det(self):
        cone, _ = draw_cone(6, 3, 5)
        want = [abs(np.linalg.det(cone.generators[list(s)]))
                for s in itertools.combinations(range(5), 3)]
        assert [tuple(row) for row in cone.subsets] == list(itertools.combinations(range(5), 3))
        assert np.allclose(cone.subset_dets, want, rtol=1e-14, atol=0.0)
        for array in (cone.subsets, cone.subset_dets):
            with pytest.raises(ValueError):
                array.flat[0] = 0

    def test_degenerate_subset_named(self):
        # (0, 1) and (0, 2) are fine; generators 1 and 2 coincide
        with pytest.raises(DegenerateSubset, match=r"subset \(1, 2\) has \|det\|=0\.000e\+00"):
            cg.validate_cone([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])

    def test_not_unit(self):
        with pytest.raises(NotUnit):
            cg.validate_cone([[2.0, 0.0], [0.0, 1.0]])

    def test_near_unit_renormalized(self):
        cone = cg.validate_cone([[1.0 + 5e-7, 0.0], [0.0, 1.0]])
        assert abs(np.linalg.norm(cone.generators[0]) - 1.0) < 1e-15

    def test_bad_shape(self):
        with pytest.raises(BadShape):
            cg.validate_cone([[1.0, 0.0, 0.0]])  # m < n

    @pytest.mark.parametrize("row, value", [(0, np.nan), (1, np.inf), (2, -np.inf)])
    def test_nonfinite_generator_refused(self, row, value):
        # a NaN row used to pass both the unit and the rank test, leaving
        # generator [nan, nan] and subset_dets [nan]
        gens = [[1.0, 0.0], [0.0, 1.0], [SQ2 / 2, SQ2 / 2]]
        gens[row][0] = value
        message = re.escape(f"generator {row} is not finite: {np.asarray(gens[row])}")
        with pytest.raises(BadShape, match=message):
            cg.validate_cone(gens)

    def test_generators_read_only(self):
        gens = np.eye(2)
        cone = cg.validate_cone(gens)
        with pytest.raises(ValueError):
            cone.generators[0, 0] = 0.5
        with pytest.raises(dataclasses.FrozenInstanceError):
            cone.generators = np.eye(2)
        gens[0, 0] = 0.5  # the caller's array is not the cone's
        assert cone.generators[0, 0] == 1.0

    def test_cached_geometry_read_only(self):
        cone, _ = draw_cone(4, 3, 5)
        cached = [cone.facet_normals, cone.support_matrix, cone.dual.halfspaces,
                  cone.dual.rays, *cone.szego_pieces]
        for array in cached:
            with pytest.raises(ValueError):
                array.flat[0] = 0.0


class TestProject:
    def test_zero(self, cone_b):
        assert np.allclose(cg.project(cone_b, [0.0, 0.0, 0.0]), 0.0)

    def test_axis_identity(self, axis_cone):
        assert np.allclose(cg.project(axis_cone, [0.3, -1.2]), [0.3, -1.2])

    def test_cone_b_example(self, cone_b):
        # (1,0) + (0,1) + sq2*(sq2/2, sq2/2) = (2, 2)
        assert np.allclose(cg.project(cone_b, [1.0, 1.0, SQ2]), [2.0, 2.0])

    def test_length_mismatch(self, cone_b):
        with pytest.raises(LengthMismatch):
            cg.project(cone_b, [1.0, 2.0])

    def test_scalar_refused(self, cone_b):
        # a scalar used to raise a bare IndexError
        with pytest.raises(LengthMismatch, match=re.escape("t must have shape (..., 3), got ()")):
            cg.project(cone_b, 5.0)

    def test_linearity(self, cone_b):
        rng = np.random.default_rng(7)
        for _ in range(50):
            s, t = rng.normal(size=(2, 3))
            a, b = rng.normal(size=2)
            lhs = cg.project(cone_b, a * s + b * t)
            rhs = a * cg.project(cone_b, s) + b * cg.project(cone_b, t)
            assert np.max(np.abs(lhs - rhs)) < 1e-12


class TestConstants:
    def test_axis_cone_trivial(self, axis_cone):
        const = cg.compute_constants(axis_cone)
        assert const.A_const == 0.0
        assert const.gamma_tilde0 == 1.0 and const.gamma0 == 1.0

    def test_cone_b_value(self, cone_b):
        # subsets: {1,2} contributes sq2; {1,3} and {2,3} each 1+sq2
        const = cg.compute_constants(cone_b)
        assert abs(const.A_const - (2.0 + 3.0 * SQ2)) < 1e-10
        assert abs(const.gamma_tilde0 - 1.0 / (3.0 + 3.0 * SQ2)) < 1e-12

    def test_gamma0_is_square(self, cone_b, skew_cone):
        for cone in (cone_b, skew_cone):
            const = cg.compute_constants(cone)
            assert const.gamma0 == const.gamma_tilde0**2


class TestDualRays:
    def test_axis_self_dual(self, axis_cone):
        rays = cg.dual_rays(axis_cone).rays
        assert rays.shape == (2, 2)
        assert np.allclose(sorted(map(tuple, rays)), [(0, 1), (1, 0)])

    def test_cone_b_third_constraint_redundant(self, cone_b):
        rays = cg.dual_rays(cone_b).rays
        assert rays.shape == (2, 2)
        assert np.allclose(sorted(map(tuple, rays)), [(0, 1), (1, 0)])

    def test_skew_cone(self, skew_cone):
        rays = cg.dual_rays(skew_cone).rays
        expect = np.array([[0.0, 1.0], [SQ2 / 2, -SQ2 / 2]])
        got = np.asarray(sorted(map(tuple, rays)))
        assert np.allclose(got, np.asarray(sorted(map(tuple, expect))), atol=1e-12)

    def test_rays_satisfy_constraints(self, cone_b, skew_cone):
        for cone in (cone_b, skew_cone):
            dual = cg.dual_rays(cone)
            assert np.all(dual.rays @ cone.generators.T >= -1e-9)

    def test_dimension_cap(self):
        cone = cg.validate_cone(np.eye(5))
        with pytest.raises(UnsupportedDimension):
            cg.dual_rays(cone)

    def test_octant(self):
        cone = cg.validate_cone(np.eye(3))
        rays = cg.dual_rays(cone).rays
        assert rays.shape == (3, 3)
        # the octant is self-dual: its rays are the unit axes, in some order
        order = np.argmax(np.abs(rays), axis=1)
        assert sorted(order) == [0, 1, 2]
        assert np.allclose(rays, np.eye(3)[order], atol=1e-12)


class TestRectContains:
    def test_center(self, cone_b):
        q = cg.TwistedRectangleQuery(np.array([0.4, -0.3]), np.array([1.0, 0.5, 2.0]))
        assert cg.rect_contains(cone_b, q, [0.4, -0.3])

    def test_axis_box(self, axis_cone):
        q = cg.TwistedRectangleQuery(np.zeros(2), np.ones(2))
        assert cg.rect_contains(axis_cone, q, [0.5, -0.5])
        assert not cg.rect_contains(axis_cone, q, [1.5, 0.0])

    def test_cone_b_against_brute_force(self, cone_b):
        t = np.ones(3)
        rng = np.random.default_rng(19)
        probes = [np.array([1.9, 0.1])]
        probes += list(rng.uniform(-2.5, 2.5, size=(40, 2)))
        q = cg.TwistedRectangleQuery(np.zeros(2), t)
        for xp in probes:
            got = cg.rect_contains(cone_b, q, xp)
            want = brute_rect_contains(cone_b, np.zeros(2), t, xp)
            assert got == want, f"mismatch at {xp}"

    def test_central_symmetry(self, cone_b):
        rng = np.random.default_rng(3)
        x = np.array([0.2, 0.7])
        for _ in range(200):
            t = rng.uniform(0.1, 2.0, size=3)
            xp = x + rng.uniform(-3, 3, size=2)
            q = cg.TwistedRectangleQuery(x, t)
            assert cg.rect_contains(cone_b, q, xp) == cg.rect_contains(
                cone_b, q, 2 * x - xp
            )


    @pytest.mark.parametrize("call", [
        lambda cone, r: cg.rect_contains(cone, cg.TwistedRectangleQuery(np.zeros(2), r),
                                         np.zeros(2)),
        lambda cone, r: cg.rect_contains_many(cone, r, np.zeros((4, 2))),
        lambda cone, r: cg.zonotope_axis_intervals(cone, r, 0, np.zeros((4, 2))),
    ], ids=["scalar", "many", "intervals"])
    def test_radii_length_mismatch(self, cone_b, call):
        with pytest.raises(LengthMismatch,
                           match=r"(radii|query\.t) must have shape \(3,\), got \(2,\)"):
            call(cone_b, np.ones(2))

    @pytest.mark.parametrize("width", [1, 3])
    @pytest.mark.parametrize("call", [
        lambda cone, rows: cg.rect_contains_many(cone, np.ones(3), rows),
        lambda cone, rows: cg.zonotope_axis_intervals(cone, np.ones(3), 0, rows),
    ], ids=["many", "intervals"])
    def test_row_width_mismatch(self, cone_b, call, width):
        # rows of width 3 on the plane used to reach numpy's matmul error
        message = rf"(offsets|transverse) must have shape \(\.\.\., 2\), got \(4, {width}\)"
        with pytest.raises(LengthMismatch, match=message):
            call(cone_b, np.zeros((4, width)))

    @pytest.mark.parametrize("t, beta", [
        ((np.nan, 1.0), 1.0), ((np.inf, 1.0), 1.0), ((0.0, 1.0), 1.0), ((-1.0, 1.0), 1.0),
        ((1.0, 1.0), np.nan), ((1.0, 1.0), np.inf), ((1.0, 1.0), 0.0),
    ])
    def test_bad_query_refused(self, t, beta):
        # NaN used to pass, and the centre then read as outside
        message = (f"beta must be finite and positive, got {beta}" if t == (1.0, 1.0)
                   else f"t must be finite and positive, got {np.asarray(t)}")
        with pytest.raises(BadShape, match=re.escape(message)):
            cg.TwistedRectangleQuery(np.zeros(2), t, beta)

    @pytest.mark.parametrize("beta", ["1", None])
    def test_nonnumeric_beta_refused(self, beta):
        # used to raise a bare TypeError from the comparison
        with pytest.raises(BadShape, match=re.escape(f"beta must be a real number, "
                                                     f"got {beta!r}")):
            cg.TwistedRectangleQuery(np.zeros(2), (1.0, 1.0), beta)

    @pytest.mark.parametrize("radii", [[-1.0, 1.0], [0.0, 1.0], [np.nan, 1.0], [1.0, np.inf]])
    @pytest.mark.parametrize("call", [
        lambda cone, r: cg.zonotope_volume(cone, r),
        lambda cone, r: cg.rect_contains_many(cone, r, np.zeros((4, 2))),
        lambda cone, r: cg.zonotope_axis_intervals(cone, r, 0, np.zeros((4, 2))),
    ], ids=["volume", "many", "intervals"])
    def test_bad_radii_refused(self, axis_cone, call, radii):
        # radii (-1, 1) used to give volume -4 and leave the centre outside
        message = f"radii must be finite and positive, got {np.asarray(radii)}"
        with pytest.raises(BadShape, match=re.escape(message)):
            call(axis_cone, radii)

    @pytest.mark.parametrize("axis", [-1, 2, True])
    def test_interval_axis_refused(self, cone_b, axis):
        # -1 used to wrap round to axis 1, 2 to raise a bare IndexError and
        # True to reach numpy's ValueError
        with pytest.raises(BadShape, match=rf"axis {axis} is not a coordinate index "
                                           rf"in range\(2\)"):
            cg.zonotope_axis_intervals(cone_b, np.ones(3), axis, np.zeros((4, 2)))

    def test_query_read_only(self):
        # beta = nan after construction used to put the centre outside
        x, t = np.zeros(2), np.ones(3)
        q = cg.TwistedRectangleQuery(x, t)
        with pytest.raises(dataclasses.FrozenInstanceError):
            q.beta = np.nan
        for array in (q.x, q.t):
            with pytest.raises(ValueError):
                array[0] = np.nan
        x[0] = t[0] = 5.0  # the caller's arrays are not the query's
        assert q.x[0] == 0.0 and q.t[0] == 1.0

    @pytest.mark.parametrize("x", [0.0, np.zeros(3)])
    def test_query_centre_length_mismatch(self, cone_b, x):
        # a scalar x used to broadcast, and x in R^3 to reach numpy's
        # broadcast error
        q = cg.TwistedRectangleQuery(x, np.ones(3))
        with pytest.raises(LengthMismatch, match=re.escape(
                f"query.x must have shape (2,), got {np.shape(x)}")):
            cg.rect_contains(cone_b, q, np.zeros(2))


class TestParallelohedron:
    def test_axis_matches_rect(self, axis_cone):
        rng = np.random.default_rng(11)
        for _ in range(100):
            t = rng.uniform(0.2, 1.5, size=2)
            xp = rng.uniform(-2, 2, size=2)
            a = parallelohedron_contains(axis_cone, (0, 1), np.zeros(2), t, xp)
            b = cg.rect_contains(
                axis_cone, cg.TwistedRectangleQuery(np.zeros(2), t), xp
            )
            assert a == b

    def test_center(self, cone_b):
        assert parallelohedron_contains(
            cone_b, (0, 1), np.ones(2), np.ones(3), np.ones(2)
        )

    def test_direct_solve_oracle(self, cone_b):
        rng = np.random.default_rng(23)
        r = np.array([1.0, 0.7, 0.4])
        for _ in range(200):
            xp = rng.uniform(-2, 2, size=2)
            lam = np.linalg.solve(cone_b.generators[:2].T, xp)
            want = bool(np.all(np.abs(lam) <= r[:2] + 1e-12))
            got = parallelohedron_contains(cone_b, (0, 1), np.zeros(2), r, xp)
            assert got == want


class TestZonotopeVolume:
    def test_axis_rectangle(self, axis_cone):
        assert np.isclose(cg.zonotope_volume(axis_cone, [2.0, 3.0]), 24.0)

    def test_cone_b_value(self, cone_b):
        assert np.isclose(cg.zonotope_volume(cone_b, np.ones(3)), 4 * (1 + SQ2))

    def test_scaling(self, cone_b):
        rng = np.random.default_rng(5)
        for _ in range(20):
            t = rng.uniform(0.1, 3.0, size=3)
            assert np.isclose(
                cg.zonotope_volume(cone_b, 2 * t),
                4.0 * cg.zonotope_volume(cone_b, t),
            )

    def test_dominates_every_subset_box(self, cone_b):
        rng = np.random.default_rng(6)
        for _ in range(50):
            t = rng.uniform(0.1, 3.0, size=3)
            vol = cg.zonotope_volume(cone_b, t)
            for subset in itertools.combinations(range(3), 2):
                det = abs(np.linalg.det(cone_b.generators[list(subset)]))
                box = 4.0 * det * np.prod(t[list(subset)])
                assert vol >= box - 1e-12

    def test_monte_carlo(self, cone_b):
        # rejection sampling in the bounding box, membership as oracle
        rng = np.random.default_rng(42)
        t = np.array([1.0, 0.6, 1.3])
        half = np.abs(cone_b.generators.T) @ t
        nsamp = 200_000
        pts = rng.uniform(-half, half, size=(nsamp, 2))
        inside = cg.rect_contains_many(cone_b, t, pts)
        box = float(np.prod(2 * half))
        p = inside.mean()
        estimate = box * p
        sigma = box * np.sqrt(p * (1 - p) / nsamp)
        assert abs(estimate - cg.zonotope_volume(cone_b, t)) < 3 * sigma


class TestInclusionChain:
    def test_chain_holds(self, cone_b):
        const = cg.compute_constants(cone_b)
        inv_gamma = 1.0 / const.gamma_tilde0
        rng = np.random.default_rng(99)
        x = np.zeros(2)
        checked = 0
        for _ in range(2000):
            t = np.exp(rng.uniform(np.log(0.05), np.log(5.0), size=3))
            subset = largest_subset(cone_b, t)
            xp = rng.uniform(-1.5, 1.5, size=2) * (np.abs(cone_b.generators.T) @ t)
            in_para = parallelohedron_contains(cone_b, subset, x, t, xp)
            in_rect = cg.rect_contains(
                cone_b, cg.TwistedRectangleQuery(x, t), xp
            )
            in_big = parallelohedron_contains(
                cone_b, subset, x, inv_gamma * t, xp
            )
            if in_para:
                assert in_rect
            if in_rect:
                assert in_big
            checked += 1
        assert checked == 2000


class TestNontangential:
    # (x', t) lies in the aperture-beta region of x iff x' in R(x, beta t)

    def test_center_always_inside(self, cone_b):
        rng = np.random.default_rng(1)
        for _ in range(50):
            t = rng.uniform(0.01, 3, size=3)
            x = rng.normal(size=(8, 2))
            assert cg.rect_contains_many(cone_b, 1.0 * t, x - x).all()

    def test_aperture_monotone(self, cone_b):
        # 1000 (t, x') pairs: 10 radii, 100 points each
        rng = np.random.default_rng(2)
        x = np.zeros(2)
        inside = 0
        for _ in range(10):
            t = rng.uniform(0.1, 1.0, size=3)
            xp = rng.uniform(-4, 4, size=(100, 2))
            narrow = cg.rect_contains_many(cone_b, 1.0 * t, xp - x)
            wide = cg.rect_contains_many(cone_b, 2.0 * t, xp - x)
            assert wide[narrow].all()
            inside += np.count_nonzero(narrow)
        assert inside > 0


class TestLargestSubset:
    def test_ties_lexicographic(self, cone_b):
        assert largest_subset(cone_b, [1.0, 1.0, 1.0]) == (0, 1)
        assert largest_subset(cone_b, [0.5, 1.0, 1.0]) == (1, 2)
        assert largest_subset(cone_b, [2.0, 0.5, 1.0]) == (0, 2)


class TestCauchySzego:
    def test_quadrant_closed_form(self, axis_cone):
        val = cg.cauchy_szego(axis_cone, np.array([1j, 1j]))
        assert abs(val - 1.0 / (4 * np.pi**2)) < 1e-12

    def test_homogeneity(self, cone_b):
        rng = np.random.default_rng(8)
        for _ in range(20):
            x = rng.normal(size=2)
            t = rng.uniform(0.2, 1.0, size=3)
            z = x + 1j * cg.project(cone_b, t)
            lam = rng.uniform(0.5, 3.0)
            lhs = cg.cauchy_szego(cone_b, lam * z)
            rhs = lam ** (-2) * cg.cauchy_szego(cone_b, z)
            assert abs(lhs - rhs) <= 1e-12 * abs(rhs) / 1e-2

    def test_brute_force_quadrature(self, axis_cone):
        from scipy.integrate import simpson

        z = np.array([1j, 2j])
        xi = np.linspace(0.0, 40.0, 2001)
        f1 = np.exp(2j * np.pi * z[0] * xi)
        f2 = np.exp(2j * np.pi * z[1] * xi)
        want = simpson(f1, x=xi) * simpson(f2, x=xi)
        got = cg.cauchy_szego(axis_cone, z)
        assert abs(got - want) / abs(want) < 1e-4

    def test_octant_separable(self):
        cone = cg.validate_cone(np.eye(3))
        z = np.array([0.3 + 1.0j, -0.2 + 0.5j, 0.1 + 2.0j])
        want = np.prod([1.0 / (-2j * np.pi * zj) for zj in z])
        got = cg.cauchy_szego(cone, z)
        assert abs(got - want) < 1e-12 * abs(want) * 1e2

    def test_boundary_rejected(self, axis_cone):
        with pytest.raises(BoundaryY):
            cg.cauchy_szego(axis_cone, np.array([1j, 0.0 + 0j]))

    # numpy warns of the NaN arithmetic the refusal follows
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("z", [[np.nan + 1j, 1j], [[1j, 1j], [1j, np.inf + 1j]]])
    def test_nonfinite_point_refused(self, axis_cone, z):
        # [nan + 1j, 1j] used to give C(z) = nan
        with pytest.raises(NonFiniteValues, match=f"1 of {np.size(z)} samples"):
            cg.cauchy_szego(axis_cone, z)

    def test_cone_b_matches_quadrant(self, axis_cone, cone_b):
        # CONE_B has the same dual cone as the axis cone
        z = np.array([0.4 + 0.9j, -0.1 + 1.4j])
        assert abs(
            cg.cauchy_szego(axis_cone, z) - cg.cauchy_szego(cone_b, z)
        ) < 1e-14


    @pytest.mark.parametrize("n, m, seed", [(3, 5, 5), (4, 5, 1), (4, 6, 3)])
    def test_non_simplicial_dual_volume_oracle(self, n, m, seed):
        # test_cone_properties runs the same oracle on drawn cones
        cone, rng = draw_cone(seed, n, m)
        rays = cg.dual_rays(cone).rays
        assert rays.shape[0] > n
        for t in rng.uniform(0.2, 1.0, size=(8, m)):
            y = cg.project(cone, t)
            want = qhull_kernel(rays, y)
            got = cg.cauchy_szego(cone, 1j * y)
            assert abs(got - want) <= 1e-12 * want


    def test_boundary_message_scalar(self, axis_cone):
        with pytest.raises(BoundaryY, match=r"smallest y \. v over dual rays is -5\.000e-01$"):
            cg.cauchy_szego(axis_cone, np.array([0.3 + 1j, 0.1 - 0.5j]))

    def test_boundary_message_batched(self, axis_cone):
        z = np.full((2, 3, 2), 0.2 + 1j)
        z[1, 0, 1] = 0.4 + 1e-10j
        with pytest.raises(BoundaryY, match=r"is 1\.000e-10 at flat index 3$"):
            cg.cauchy_szego(axis_cone, z)

    def test_batch_length_mismatch(self, cone_b):
        with pytest.raises(LengthMismatch):
            cg.cauchy_szego(cone_b, np.full((4, 3), 1j))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_batched_matches_per_point(self, n):
        cone, rng = draw_cone(10 + n, n, n + 2)
        heights = cg.project(cone, rng.uniform(0.2, 1.0, size=(8, 4, n + 2)))
        z = rng.uniform(-1.0, 1.0, size=(8, 4, n)) + 1j * heights
        got = cg.cauchy_szego(cone, z)
        assert got.shape == (8, 4) and got.dtype == complex
        want = [cg.cauchy_szego(cone, p) for p in z.reshape(-1, n)]
        assert all(type(w) is complex for w in want)
        want = np.array(want)
        assert np.max(np.abs(got.ravel() - want) / np.abs(want)) <= 1e-14

    def test_fan_built_once_per_cone(self, monkeypatch):
        calls = []
        fan = cg._pulled_simplices
        monkeypatch.setattr(cg, "_pulled_simplices", lambda *a: calls.append(1) or fan(*a))
        cone, rng = draw_cone(3, 4, 6)
        z = rng.uniform(-1.0, 1.0, size=(5, 4)) + 1j * cg.project(cone, np.ones(6))
        for _ in range(3):
            cg.cauchy_szego(cone, z)
            cg.cauchy_szego(cone, z[0])
        assert len(calls) == 1 and cone.dual.rays.shape[0] > 4

    # simplicial duals far thinner than RANK_TOL: a regular needle of
    # half-angle 5e-4 (cond V = 3.5e3) and the (n, m) = (4, 4) cone of the
    # benchmark's cone_geometry seed 2, case 15 (cond V = 1.7e4).  The
    # unit rays carry an absolute error near 4e-16, which |det V| turns
    # into a relative error of about cond V * 1e-16
    NEEDLE_RAYS = np.hstack([5e-4 * np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1],
                                              [-1, -1, 1]]) / np.sqrt(3), np.ones((4, 1))])
    BENCH_CONE = [
        [-0.11232973133042706, -0.9529495348484542, -0.2153437766759968, -0.18137329830564142],
        [0.017978819432572957, -0.9102892006029102, -0.21427378557555135, -0.35374719522937315],
        [0.16226025687451406, -0.3590673342649752, 0.40265733999695774, -0.8262017459733644],
        [-0.26001826084808016, -0.29946706297325326, 0.7700404501187352, -0.49974762370685566],
    ]

    @pytest.mark.parametrize("gens, tol", [
        (np.linalg.inv(NEEDLE_RAYS).T, 1e-12),
        (BENCH_CONE, 1e-11),
    ], ids=["needle", "bench_seed2_case15"])
    def test_thin_simplicial_dual_closed_form(self, gens, tol):
        gens = np.asarray(gens)
        cone = cg.validate_cone(gens / np.linalg.norm(gens, axis=1, keepdims=True))
        assert cone.dual.rays.shape == (4, 4)
        assert abs(np.linalg.det(cone.dual.rays)) < cg.RANK_TOL
        rng = np.random.default_rng(21)
        heights = cg.project(cone, rng.uniform(0.2, 1.0, size=(32, 4)))
        z = rng.uniform(-1.0, 1.0, size=(32, 4)) + 1j * heights
        # the dual basis: xi = sum_j s_j w_j with s in the orthant and w_j
        # the rows of G^-T, so C(z) = |det G|^-1 prod_j 1 / (-2 pi i z . w_j)
        g = cone.generators
        dual_basis = np.linalg.inv(g).T
        want = 1.0 / (abs(np.linalg.det(g)) * np.prod(-2j * np.pi * (z @ dual_basis.T), axis=-1))
        got = cg.cauchy_szego(cone, z)
        assert np.max(np.abs(got - want) / np.abs(want)) <= tol
