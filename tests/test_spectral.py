import itertools
import re
import tracemalloc

import numpy as np
import pytest

from tubeharm import cone as cg
from tubeharm import grid as gr
from tubeharm import poisson as po
from tubeharm import spectral as sp
from tubeharm.errors import (BadShape, LengthMismatch, NonFiniteValues, OutOfMemoryBudget,
                             QuadratureRevival, SupportEscapesDualCone)


@pytest.fixture(scope="module")
def dual_b(cone_b):
    return cg.dual_rays(cone_b)


@pytest.fixture(scope="module")
def bump(dual_b):
    return sp.make_bump_psi(dual_b, center=[1.2, 1.2], radius=0.5)


class TestMakeBump:
    def test_deep_inside_valid(self, dual_b):
        stf = sp.make_bump_psi(dual_b, [2.0, 2.0], 0.3)
        assert np.all(stf.nodes @ dual_b.halfspaces.T >= 0)

    def test_boundary_rejected(self, dual_b):
        with pytest.raises(SupportEscapesDualCone):
            sp.make_bump_psi(dual_b, [1.0, 0.05], 0.3)

    @pytest.mark.parametrize("radius", [0.0, -0.3, np.nan, np.inf])
    def test_bad_radius_refused(self, dual_b, radius):
        with pytest.raises(BadShape, match=f"radius must be finite and positive, got {radius}"):
            sp.make_bump_psi(dual_b, [1.2, 1.2], radius)

    @pytest.mark.parametrize("radius", ["0.4", None])
    def test_nonnumeric_radius_refused(self, dual_b, radius):
        # used to raise a bare TypeError from the comparison
        with pytest.raises(BadShape, match=re.escape(f"radius must be a real number, "
                                                     f"got {radius!r}")):
            sp.make_bump_psi(dual_b, [1.2, 1.2], radius)

    @pytest.mark.parametrize("count", [0, -3, 2.5, "24"])
    def test_bad_nodes_per_axis_refused(self, dual_b, count):
        # 0 used to reach numpy's ValueError and 2.5 its TypeError
        with pytest.raises(BadShape, match=f"nodes_per_axis must be an integer >= 1, "
                                           f"got {count!r}"):
            sp.make_bump_psi(dual_b, [1.2, 1.2], 0.5, nodes_per_axis=count)

    def test_center_length_refused(self, dual_b):
        # used to fail in numpy's matmul
        with pytest.raises(LengthMismatch, match=r"centre in R\^2, got shape \(3,\)"):
            sp.make_bump_psi(dual_b, [1.2, 1.2, 1.2], 0.3)

    def test_nonfinite_center_refused(self, dual_b):
        with pytest.raises(SupportEscapesDualCone, match="min halfspace margin nan"):
            sp.make_bump_psi(dual_b, [np.nan, 1.2], 0.3)

    def test_integral_vs_refined_quadrature(self, dual_b, bump):
        # the bump is flat-but-singular at its boundary, so tensor GL
        # converges subexponentially: measured 1.7e-5 at 24 nodes/axis,
        # 2e-10 at 96.  The 1e-8 agreement with a 10x finer rule holds
        # from 96 nodes/axis on.
        ref = sp.make_bump_psi(dual_b, [1.2, 1.2], 0.5, nodes_per_axis=240)
        coarse_err = abs(bump.integral().real - ref.integral().real)
        assert coarse_err / abs(ref.integral().real) < 1e-4
        mid = sp.make_bump_psi(dual_b, [1.2, 1.2], 0.5, nodes_per_axis=96)
        fine = sp.make_bump_psi(dual_b, [1.2, 1.2], 0.5, nodes_per_axis=960)
        rel = abs(mid.integral().real - fine.integral().real) / abs(
            fine.integral().real
        )
        assert rel < 1e-8

    def test_weights_positive(self, bump):
        assert np.all(bump.weights > 0)


class TestEvalF:
    def test_value_at_origin_is_integral(self, bump):
        val = sp.eval_f(bump, np.zeros(2, dtype=complex))
        assert abs(val.imag) < 1e-15
        assert abs(val - bump.integral()) < 1e-15

    # numpy warns of the NaN arithmetic the refusal follows
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("z", [[np.nan, 0.0], [0.0, 1j * np.inf]])
    def test_nonfinite_point_refused(self, bump, z):
        # [nan, 0] used to give F = nan
        with pytest.raises(NonFiniteValues, match="1 of 2 samples"):
            sp.eval_f(bump, z)

    def test_modulus_bound(self, bump, cone_b):
        rng = np.random.default_rng(0)
        for _ in range(50):
            x = rng.uniform(-8, 8, size=2)
            t = rng.uniform(0.0, 2.0, size=3)
            z = x + 1j * cg.project(cone_b, t)
            assert abs(sp.eval_f(bump, z)) <= bump.mass() * (1 + 1e-12)

    def test_cauchy_riemann_residual(self, dual_b, cone_b):
        stf = sp.make_bump_psi(dual_b, [0.7, 0.7], 0.3)
        x = np.array([0.4, -0.2])
        y = cg.project(cone_b, [0.3, 0.3, 0.3])
        step = 1e-4
        for mu in range(3):
            e = cone_b.generators[mu]

            def f(s, t):
                return sp.eval_f(stf, x + s * e + 1j * (y + t * e))

            ds = (f(step, 0.0) - f(-step, 0.0)) / (2 * step)
            dt = (f(0.0, step) - f(0.0, -step)) / (2 * step)
            resid = abs(ds + 1j * dt)
            assert resid < 1e-6 * abs(f(0.0, 0.0))

    def test_far_field_decay(self, dual_b):
        # smooth spectrum: |F| <~ C / |x|^(2n); fit C at |x| = 5 along
        # fixed directions, then check the envelope further out
        stf = sp.make_bump_psi(dual_b, [0.9, 0.9], 0.4, nodes_per_axis=48)
        for direction in (np.array([1.0, 0.0]), np.array([0.6, 0.8])):
            vals = {
                r: abs(sp.eval_f(stf, (r * direction).astype(complex)))
                for r in (5.0, 10.0, 20.0)
            }
            c_fit = vals[5.0] * 5.0**4
            for r in (10.0, 20.0):
                assert vals[r] * r**4 <= 3.0 * c_fit


class TestBoundaryGrid:
    def test_matches_pointwise_eval(self, bump):
        spec = gr.GridSpec(n=2, sizes=(32, 32), box_half=8.0)
        fb = sp.boundary_grid(bump, spec)
        xs = spec.axis_coords(0)
        for i in (0, 7, 20):
            for j in (3, 16, 31):
                z = np.array([xs[i], xs[j]], dtype=complex)
                assert abs(fb.values[i, j] - sp.eval_f(bump, z)) < 1e-14 * bump.mass()

    def test_slice_y_length_refused(self, bump):
        # a y of the wrong length used to reach numpy's matmul error
        spec = gr.GridSpec(n=2, sizes=(16, 16), box_half=4.0)
        with pytest.raises(LengthMismatch, match=r"expected y in R\^2, got shape \(3,\)"):
            sp.slice_grid(bump, spec, y=[0.5, 0.5, 0.5])

    @pytest.mark.parametrize("y", [[np.nan, 0.5], [0.5, np.inf]])
    def test_slice_nonfinite_y_refused(self, bump, y):
        # a NaN y used to give 256 NaN samples on a 16^2 grid
        spec = gr.GridSpec(n=2, sizes=(16, 16), box_half=4.0)
        with pytest.raises(NonFiniteValues, match="1 of 2 samples"):
            sp.slice_grid(bump, spec, y=y)

    def test_l1_stable_under_box_doubling(self, dual_b):
        # The L1 norm of F^b converges as the box grows.  Not from box 8:
        # the fixture's psi keeps 2.1% of that mass outside [-8, 8]^2 (the
        # continuum L1 at h = 0.125, from the radial J_0 profile, is
        # 0.6007 / 0.6136 / 0.6155 / 0.6156 on boxes 8 / 16 / 32 / 64), so
        # boxes 32 and 64 at h = 0.25 are compared.  The 24-node bump
        # revives near |x| = 15.6 and is refused there (see
        # test_past_revival_radius_rejected), so the same psi is taken at
        # 168 nodes per axis: box 64 * node gap = 0.597.  Measured
        # relative gap 1.76e-4.
        stf = sp.make_bump_psi(dual_b, [1.2, 1.2], 0.5, nodes_per_axis=168)
        spec1 = gr.GridSpec(n=2, sizes=(256, 256), box_half=32.0)
        spec2 = gr.GridSpec(n=2, sizes=(512, 512), box_half=64.0)
        n1 = gr.lp_norm(sp.boundary_grid(stf, spec1), 1)
        n2 = gr.lp_norm(sp.boundary_grid(stf, spec2), 1)
        assert abs(n1 - n2) / n2 < 1e-3

    def test_scattered_spectrum_with_repeated_node(self):
        # no tensor structure: 200 nodes with 200 distinct coordinates per
        # axis, and two of them at one point, whose terms must both count.
        # Measured 1.1e-15 of the mass
        rng = np.random.default_rng(3)
        nodes = rng.uniform(0.5, 1.5, size=(200, 2))
        nodes[-1] = nodes[0]
        stf = sp.SpectralTestFunction(
            nodes=nodes, weights=rng.uniform(0.5, 1.0, 200),
            psi_vals=rng.normal(size=200) + 1j * rng.normal(size=200))
        spec = gr.GridSpec(n=2, sizes=(32, 32), box_half=8.0)
        fb = sp.boundary_grid(stf, spec)
        xs = spec.axis_coords(0)
        for i, j in ((0, 0), (7, 31), (16, 3), (25, 20)):
            z = np.array([xs[i], xs[j]], dtype=complex)
            assert abs(fb.values[i, j] - sp.eval_f(stf, z)) < 1e-14 * stf.mass()

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_contract_matches_direct_sum(self, n):
        # every grid point against sum_k c_k exp(2 pi i x . xi_k), with two
        # of the 40 scattered nodes at one point
        rng = np.random.default_rng(20 + n)
        nodes = rng.uniform(0.5, 1.5, size=(40, n))
        nodes[-1] = nodes[0]
        coeffs = rng.normal(size=40) + 1j * rng.normal(size=40)
        spec = gr.GridSpec(n=n, sizes=(16,) * n, box_half=2.0)
        out = np.empty(spec.sizes, dtype=np.complex128)
        got = sp._contract(sp._phases(spec, nodes), coeffs, out)
        points = np.stack(np.meshgrid(*map(spec.axis_coords, range(n)), indexing="ij"), -1)
        direct = np.exp(2j * np.pi * points @ nodes.T) @ coeffs
        assert got is out
        assert np.max(np.abs(got - direct)) < 1e-14 * np.abs(coeffs).sum()

    def test_oversized_core_refused(self, monkeypatch):
        # 600 scattered nodes in 3-d span a 600^3 = 2.2e8 core, past the
        # 2^27 budget: refused before the core is allocated
        def allocate(*args):
            raise AssertionError("the core was allocated")

        monkeypatch.setattr(sp, "_contract", allocate)
        rng = np.random.default_rng(4)
        stf = sp.SpectralTestFunction(nodes=rng.uniform(1.0, 2.0, size=(600, 3)),
                                      weights=np.ones(600), psi_vals=np.ones(600))
        spec = gr.GridSpec(n=3, sizes=(16, 16, 16), box_half=4.0)
        with pytest.raises(OutOfMemoryBudget, match="600 x 600 x 600 core") as caught:
            sp.boundary_grid(stf, spec)
        assert caught.value.needed == 600**3

    def test_core_reads_the_poisson_budget(self, bump, monkeypatch):
        # the default bump's 24 x 24 core; the budget is read at call time
        spec = gr.GridSpec(n=2, sizes=(32, 32), box_half=8.0)
        monkeypatch.setattr(po, "DEFAULT_BUDGET", 575)
        with pytest.raises(OutOfMemoryBudget, match="24 x 24 core") as caught:
            sp.boundary_grid(bump, spec)
        assert caught.value.needed == 576
        monkeypatch.setattr(po, "DEFAULT_BUDGET", 576)
        sp.boundary_grid(bump, spec)

    def test_peak_memory_within_four_outputs(self, dual_b):
        # the 168-per-axis bump (K = 14208) on 512^2: the contraction holds
        # one 168 x 512 phase matrix per axis and a 168 x 512 intermediate
        # beside the 4 MiB output; measured peak 8.3 MiB (summing over all
        # K nodes held two K x 512 phase matrices, 337 MiB)
        stf = sp.make_bump_psi(dual_b, [1.2, 1.2], 0.5, nodes_per_axis=168)
        spec = gr.GridSpec(n=2, sizes=(512, 512), box_half=64.0)
        tracemalloc.start()
        try:
            fb = sp.boundary_grid(stf, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * fb.values.nbytes

    @pytest.mark.parametrize("call", [
        lambda stf, cone, spec: sp.boundary_grid(stf, spec),
        lambda stf, cone, spec: sp.lift_field(
            stf, cone, po.TLattice(m=3, t_min=0.5, levels=1), spec),
        lambda stf, cone, spec: sp.eval_f(stf, np.array([spec.box_half, 0.0])),
    ], ids=["boundary", "lift", "eval"])
    def test_past_revival_radius_rejected(self, bump, cone_b, call):
        # the box-16 grid is past the 24-node bump's revival radius 15.6:
        # box * node gap = 16 * 0.0641 = 1.025, where the sum's error is
        # 0.7 of its mass and the L1 norm reads 2.07 instead of 0.614
        spec = gr.GridSpec(n=2, sizes=(256, 256), box_half=16.0)
        with pytest.raises(QuadratureRevival, match=r"1\.025") as caught:
            call(bump, cone_b, spec)
        assert caught.value.product == pytest.approx(1.025, abs=1e-3)

    def test_spectral_mass_concentrated(self, bump):
        spec = gr.GridSpec(n=2, sizes=(128, 128), box_half=8.0)
        fhat = gr.fourier_forward(sp.boundary_grid(bump, spec))
        w1, w2 = spec.freqs()
        lo, hi = 1.2 - 0.75 - 0.1, 1.2 + 0.75 + 0.1
        inside = ((w1 >= lo) & (w1 <= hi)) & ((w2 >= lo) & (w2 <= hi))
        power = np.abs(fhat.values) ** 2
        assert power[inside].sum() / power.sum() > 0.999


class TestPoissonSzego:
    def test_reproduces_f_from_boundary_values(self, cone_b, dual_b):
        # F(x + iy) = integral of P_y(x - u) F^b(u) du for F in H^2, with
        # the Poisson-Szego kernel P_y(x) = |C(x + iy)|^2 / C(2iy) (Stein &
        # Weiss 1971, ch. III); a Riemann sum over the grid needs no
        # lattice-aligned spectrum.  Measured 1.7e-7 of the mass at 128^2
        # and 1.6e-7 at 256^2: the box, which cuts the kernel's tails,
        # sets the error
        stf = sp.make_bump_psi(dual_b, [1.0, 0.8], 0.4)
        spec = gr.GridSpec(n=2, sizes=(128, 128), box_half=8.0)
        fb = sp.boundary_grid(stf, spec)
        u = np.stack(np.meshgrid(*spec.coords(), indexing="ij"), axis=-1)
        ys = cg.project(cone_b, [[0.2, 0.2, 0.2], [0.5, 0.3, 0.4]])
        xs = np.array([[0.0, 0.0], [0.6, -0.4], [-1.1, 0.9]])
        z = (xs[None, :, None, None, :] - u) + 1j * ys[:, None, None, None, :]
        kernel = np.abs(cg.cauchy_szego(cone_b, z)) ** 2
        kernel /= cg.cauchy_szego(cone_b, 2j * ys).real[:, None, None, None]
        got = np.sum(kernel * fb.values, axis=(-2, -1)) * spec.h**2
        want = np.array([[sp.eval_f(stf, x + 1j * y) for x in xs] for y in ys])
        assert np.max(np.abs(got - want)) <= 1e-5 * stf.mass()


class TestLiftField:
    def test_matches_eval_pointwise(self, bump, cone_b):
        spec = gr.GridSpec(n=2, sizes=(32, 32), box_half=8.0)
        lat = po.TLattice(m=3, t_min=0.5, levels=2)
        fld = sp.lift_field(bump, cone_b, lat, spec)
        xs = spec.axis_coords(0)
        for row, t in enumerate(lat.nodes()):
            y = cg.project(cone_b, t)
            for i, j in ((0, 5), (16, 16)):
                z = np.array([xs[i], xs[j]]) + 1j * y
                assert abs(fld.values[row][i, j] - sp.eval_f(bump, z)) < 1e-14 * bump.mass()

    def test_three_dimensional_bump_matches_eval(self):
        # the identity cone is its own dual; 12 nodes per axis keep
        # box 4 * node gap = 0.50 inside the revival limit.  Small t keeps
        # |F| at the centre above a quarter of the mass, so decay alone
        # cannot meet the bound.  Measured 8.5e-16 of the mass
        cone = cg.validate_cone(np.eye(3))
        stf = sp.make_bump_psi(cone.dual, [1.0, 1.0, 1.0], 0.5, nodes_per_axis=12)
        spec = gr.GridSpec(n=3, sizes=(16, 16, 16), box_half=4.0)
        lat = po.TLattice(m=3, t_min=0.05, levels=2)
        heights = [np.zeros(3)] + [cg.project(cone, t) for t in lat.nodes()]
        fields = [sp.boundary_grid(stf, spec).values, *sp.lift_field(stf, cone, lat, spec).values]
        xs = spec.axis_coords(0)
        for y, values in zip(heights, fields):
            for i, j, k in ((0, 0, 0), (3, 15, 8), (8, 8, 8), (12, 1, 14)):
                z = np.array([xs[i], xs[j], xs[k]]) + 1j * y
                assert abs(values[i, j, k] - sp.eval_f(stf, z)) < 1e-14 * stf.mass()

    def test_reproducing_formula(self, cone_b):
        # flagship identity at reduced scale: the lift must equal the
        # iterated Poisson transform of the boundary value.  The FFT path
        # is exact only for spectra on the grid's reciprocal lattice
        # k/(2L); a Gauss-Legendre bump lies off it, so its truncated F^b
        # is not periodic on the box and leaks, and dividing by max|lift|,
        # exponentially small in t, makes the leak grow with t (worst
        # node 16, first node 5.7e-2; 16.3 at 48 and 96 nodes per axis,
        # 8.6 on 128^2).  So the bump profile is sampled on the lattice
        # k/16 inside B((0.8, 0.8), 0.35) with weights (2L)^-2 (K = 98):
        # F^b is then the exact periodisation (Poisson summation).
        # Measured worst residual 6.9e-12; box 8 * node gap 1/16 = 0.5.
        spec = gr.GridSpec(n=2, sizes=(64, 64), box_half=8.0)
        center, radius = np.array([0.8, 0.8]), 0.35
        mesh = np.meshgrid(spec.freq_axis(0), spec.freq_axis(1), indexing="ij")
        xi = np.column_stack([m.ravel() for m in mesh])
        rho2 = np.sum((xi - center) ** 2, axis=1) / radius**2
        inside = rho2 < 1.0
        stf = sp.SpectralTestFunction(
            nodes=xi[inside],
            weights=np.full(np.count_nonzero(inside), (2 * spec.box_half) ** -2),
            psi_vals=np.exp(-1.0 / (1.0 - rho2[inside])),
        )
        lat = po.TLattice(m=3, t_min=2 * spec.h, levels=3)
        lifted = sp.lift_field(stf, cone_b, lat, spec)
        pois = po.build_field(sp.boundary_grid(stf, spec), cone_b, lat)
        for row, idx in enumerate(lat.indices()):
            num = np.max(np.abs(lifted.values[row] - pois.values[row]))
            den = np.max(np.abs(lifted.values[row]))
            assert num / den < 1e-3, f"node {idx}: {num / den:.2e}"

    def test_gradient_magnitude_matches_components(self, bump, cone_b):
        spec = gr.GridSpec(n=2, sizes=(32, 32), box_half=8.0)
        lat = po.TLattice(m=3, t_min=0.5, levels=2)
        fld = sp.gradient_magnitude_sq_lift(bump, cone_b, lat, spec)
        acc = np.zeros(fld.values.shape)
        for choices in itertools.product("XT", repeat=3):
            sel = {mu: c for mu, c in enumerate(choices)}
            comp = sp.lift_field(bump, cone_b, lat, spec, selector=sel)
            acc += np.abs(comp.values) ** 2
        assert np.max(np.abs(fld.values - acc)) < 1e-14 * acc.max()

    def test_gradient_magnitude_on_dual_cone_boundary(self, axis_cone, monkeypatch):
        # nodes on the 9 x 9 lattice of [0, 1]^2: e_mu . xi = 0 on both
        # edges, so all four sign cells are nonempty.  Measured 0 on this draw
        rng = np.random.default_rng(5)
        axis = np.arange(9) / 8
        nodes = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
        stf = sp.SpectralTestFunction(nodes=nodes, weights=np.full(81, 1 / 81),
                                      psi_vals=rng.normal(size=81) + 1j * rng.normal(size=81))
        spec = gr.GridSpec(n=2, sizes=(16, 16), box_half=4.0)
        lat = po.TLattice(m=2, t_min=0.3, levels=2)
        fld = sp.gradient_magnitude_sq_lift(stf, axis_cone, lat, spec)
        acc = np.zeros(fld.values.shape)
        for choices in itertools.product("XT", repeat=2):
            sel = {mu: c for mu, c in enumerate(choices)}
            acc += np.abs(sp.lift_field(stf, axis_cone, lat, spec, selector=sel).values) ** 2
        assert np.max(np.abs(fld.values - acc)) < 1e-14 * acc.max()
        monkeypatch.setattr(po, "DEFAULT_BUDGET", 1)
        with pytest.raises(OutOfMemoryBudget, match=", 4 spectra:"):
            sp.gradient_magnitude_sq_lift(stf, axis_cone, lat, spec)

    @pytest.mark.parametrize("call, output", [
        (sp.lift_field, (8 + 1) * 256),
        (sp.gradient_magnitude_sq_lift, (8 + 3) * 256 / 2),
    ], ids=["lift", "gradient"])
    def test_budget(self, bump, cone_b, monkeypatch, call, output):
        # the output share plus, per spectral node (K = 312), the spectrum,
        # one weighted spectrum (one sign cell), the spectrum buffer, and
        # dots, 3 x 2 decay tables and the decay buffer at half weight
        spec = gr.GridSpec(n=2, sizes=(16, 16), box_half=8.0)
        lat = po.TLattice(m=3, t_min=0.5, levels=2)
        needed = output + len(bump.weights) * (1 + 2 + (3 * 3 + 1) / 2)
        monkeypatch.setattr(po, "DEFAULT_BUDGET", int(needed) - 1)
        with pytest.raises(OutOfMemoryBudget, match="8 nodes x 312 frequencies") as err:
            call(bump, cone_b, lat, spec)
        assert err.value.needed == needed
        monkeypatch.setattr(po, "DEFAULT_BUDGET", int(needed))
        call(bump, cone_b, lat, spec)

    @pytest.mark.parametrize("call, output", [
        (sp.lift_field, 4097 * 4096**2),
        (sp.gradient_magnitude_sq_lift, 4099 * 4096**2 / 2),
    ], ids=["lift", "gradient"])
    def test_budget_checked_before_the_output(self, bump, cone_b, call, output):
        # 4096 nodes on 4096^2 points: the output alone is 0.5 or 1 TiB, whose
        # allocation used to fail with numpy's MemoryError before the check
        spec = gr.GridSpec(n=2, sizes=(4096, 4096), box_half=8.0)
        lat = po.TLattice(m=3, t_min=0.5, levels=16)
        with pytest.raises(OutOfMemoryBudget) as err:
            call(bump, cone_b, lat, spec)
        assert err.value.needed == output + len(bump.weights) * (1 + 2 + (3 * 17 + 1) / 2)

    def test_spectrum_unchanged(self, bump, cone_b):
        # the node loop multiplies into w psi, a fresh product, never psi
        before = bump.psi_vals.copy(), bump.weights.copy()
        spec = gr.GridSpec(n=2, sizes=(16, 16), box_half=8.0)
        lat = po.TLattice(m=3, t_min=0.5, levels=2)
        sp.lift_field(bump, cone_b, lat, spec, selector={1: po.T_CHOICE})
        sp.gradient_magnitude_sq_lift(bump, cone_b, lat, spec)
        sp.hardy_norm(bump, cone_b, 1, lat, spec)
        assert np.array_equal(bump.psi_vals, before[0])
        assert np.array_equal(bump.weights, before[1])

    @pytest.mark.parametrize("call", [
        sp.lift_field,
        sp.gradient_magnitude_sq_lift,
        lambda stf, cone, lat, spec: sp.hardy_norm(stf, cone, 1, lat, spec),
    ], ids=["lift", "gradient", "hardy"])
    def test_node_outside_dual_cone_rejected(self, cone_b, call):
        # e_1 . xi = -0.2 at the first node: the lift would grow with t
        stf = sp.SpectralTestFunction(nodes=[[1.0, -0.2], [1.0, 1.0]],
                                      weights=[1.0, 1.0], psi_vals=[1.0, 1.0])
        spec = gr.GridSpec(n=2, sizes=(16, 16), box_half=8.0)
        lat = po.TLattice(m=3, t_min=0.5, levels=1)
        with pytest.raises(SupportEscapesDualCone, match="-2.000e-01"):
            call(stf, cone_b, lat, spec)

    def test_cone_dimension_mismatch(self):
        # a 3-d spectrum and grid under a planar cone used to reach numpy's
        # matmul error
        stf = sp.SpectralTestFunction(nodes=[[1.0, 1.0, 1.0]], weights=[1.0], psi_vals=[1.0])
        spec = gr.GridSpec(n=3, sizes=(16, 16, 16), box_half=4.0)
        lat = po.TLattice(m=2, t_min=0.5, levels=1)
        with pytest.raises(LengthMismatch, match="grid, cone and spectrum dimensions differ"):
            sp.lift_field(stf, cg.validate_cone(np.eye(2)), lat, spec)

    @pytest.mark.parametrize("key", [-1, 3])
    def test_selector_key_refused(self, bump, cone_b, key):
        # m = 3: -1 must not wrap round to generator 2
        spec = gr.GridSpec(n=2, sizes=(16, 16), box_half=8.0)
        lat = po.TLattice(m=3, t_min=0.5, levels=1)
        with pytest.raises(BadShape, match=rf"selector key {key} is not a generator "
                                           rf"index in range\(3\)"):
            sp.lift_field(bump, cone_b, lat, spec, selector={key: po.X_CHOICE})

    def test_hidden_parameter_consistency(self, bump, cone_b):
        spec = gr.GridSpec(n=2, sizes=(32, 32), box_half=8.0)
        s = 0.2
        t1 = np.array([0.5, 0.7, 0.4])
        t2 = t1 + np.array([np.sqrt(2) / 2 * s, np.sqrt(2) / 2 * s, -s])
        assert np.allclose(cg.project(cone_b, t1), cg.project(cone_b, t2), atol=1e-15)
        vals = []
        for t in (t1, t2):
            y = cg.project(cone_b, t)
            vals.append(sp.slice_grid(bump, spec, y=y).values)
        assert np.max(np.abs(vals[0] - vals[1])) < 1e-14 * bump.mass()


class TestHardyNorm:
    def test_slice_norm_decreases_into_cone(self, bump, cone_b):
        spec = gr.GridSpec(n=2, sizes=(64, 64), box_half=8.0)
        norms = []
        for s in (0.25, 0.5, 1.0, 2.0):
            y = cg.project(cone_b, [s, s, s])
            norms.append(gr.lp_norm(sp.slice_grid(bump, spec, y=y), 1))
        assert all(a > b for a, b in zip(norms, norms[1:]))

    def test_sup_attained_at_smallest_probe(self, bump, cone_b):
        spec = gr.GridSpec(n=2, sizes=(64, 64), box_half=8.0)
        probe = po.TLattice(m=3, t_min=0.25, ratio=2.0, levels=3)
        _, t_best = sp.hardy_norm(bump, cone_b, 1, probe, spec)
        assert np.allclose(t_best, [0.25, 0.25, 0.25])
        fine = po.TLattice(m=3, t_min=0.25, ratio=2.0**0.25, levels=9)
        _, t_fine = sp.hardy_norm(bump, cone_b, 1, fine, spec)
        assert np.allclose(t_fine, [0.25, 0.25, 0.25])

    def test_p2_plancherel_oracle(self, dual_b, bump, cone_b):
        spec = gr.GridSpec(n=2, sizes=(128, 128), box_half=8.0)
        t = np.array([0.4, 0.3, 0.5])
        y = cg.project(cone_b, t)
        grid_norm = gr.lp_norm(sp.slice_grid(bump, spec, y=y), 2)
        fine = sp.make_bump_psi(dual_b, [1.2, 1.2], 0.5, nodes_per_axis=96)
        plancherel = np.sqrt(np.sum(
            fine.weights * np.abs(fine.psi_vals) ** 2
            * np.exp(-4 * np.pi * (fine.nodes @ y))
        ))
        assert abs(grid_norm - plancherel) / plancherel < 1e-3


class TestIO:
    # the entry checks every SpectralTestFunction passes at construction;
    # "psi" holds the (re, im) pairs of the psi values
    @pytest.mark.parametrize("key, entry, value, per_node, what", [
        ("weights", (3,), np.nan, 1, "quadrature weights are not finite and positive"),
        ("weights", (3,), -1.0, 1, "quadrature weights are not finite and positive"),
        ("nodes", (5, 1), np.inf, 2, "node coordinates are not finite"),
        ("psi", (7, 0), np.nan, 1, "psi values are not finite"),
    ])
    def test_nonfinite_entry_refused(self, bump, key, entry, value, per_node, what):
        # a NaN weight used to be accepted, with mass() = nan
        data = {"nodes": bump.nodes.copy(), "weights": bump.weights.copy(),
                "psi": np.column_stack([bump.psi_vals.real, bump.psi_vals.imag])}
        data[key][entry] = value
        size = per_node * len(bump.weights)
        with pytest.raises(BadShape, match=f"1 of {size} {what}"):
            sp.SpectralTestFunction(nodes=data["nodes"], weights=data["weights"],
                                    psi_vals=data["psi"] @ [1.0, 1j])
