import itertools
import json
import os
import re

import numpy as np
import pytest

from conftest import sum_rule, sum_rule_factors
from tubeharm import cone as cg
from tubeharm import grid as gr
from tubeharm import poisson as po
from tubeharm import spectral as sp
from tubeharm.errors import BadShape, LengthMismatch, NonFiniteValues, OutOfMemoryBudget


@pytest.fixture
def spec():
    return gr.GridSpec(n=2, sizes=(128, 128), box_half=8.0)


@pytest.fixture
def gaussian(spec):
    x1, x2 = spec.coords()
    return gr.GridFunction(spec, np.exp(-(x1**2 + x2**2)))


class TestLattice:
    def test_axis_values_geometric(self):
        lat = po.TLattice(m=2, t_min=0.25, ratio=2.0, levels=4)
        assert np.allclose(lat.axis_values, [0.25, 0.5, 1.0, 2.0])

    @staticmethod
    def _covering(m, ratio):
        """Lattice from t = 1e-4 to just past t = 13."""
        levels = int(np.ceil(np.log(13e4) / np.log(ratio))) + 1
        return po.TLattice(m=m, t_min=1e-4, ratio=ratio, levels=levels)

    @staticmethod
    def _integrand(a, t):
        # against t dt, (2 pi a)^2 e^{-4 pi a t} integrates to 1/4 over
        # t > 0 for every a > 0: |grad u|^2 of one exponential
        return (2 * np.pi * a) ** 2 * np.exp(-4 * np.pi * a * t)

    def test_weights_integrate_t_dt(self):
        # the cell rule 0.5 (hi^2 - lo^2) overshot this by 2.0 % at
        # r = sqrt 2 and by 8.2 % at r = 2
        for ratio, tol in ((np.sqrt(2.0), 1e-5), (2.0, 2e-4)):
            lat = self._covering(1, ratio)
            for a in np.linspace(0.1, 2.9, 29):
                total = lat.axis_weights @ self._integrand(a, lat.axis_values)
                assert abs(total - 0.25) < tol

    def test_node_weights_are_axis_products(self):
        # the m = 2 product of two such integrals is (1/4)^2
        lat = self._covering(2, 2.0)
        t = lat.nodes()
        for a0, a1 in ((0.3, 1.7), (2.5, 0.1)):
            values = self._integrand(a0, t[:, 0]) * self._integrand(a1, t[:, 1])
            assert abs(lat.weights() @ values - 0.0625) < 1e-5

    def test_node_order_lexicographic(self):
        lat = po.TLattice(m=2, t_min=1.0, ratio=2.0, levels=2)
        assert list(lat.indices()) == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_node_cap(self):
        with pytest.raises(BadShape):
            po.TLattice(m=4, t_min=1.0, levels=9)  # 9^4 > 4096

    @pytest.mark.parametrize("t_min, ratio", [
        (0.0, 2.0), (-0.5, 2.0), (np.nan, 2.0), (np.inf, 2.0),
        (0.5, 1.0), (0.5, np.nan), (0.5, np.inf),
    ])
    def test_bad_scales_refused(self, t_min, ratio):
        with pytest.raises(BadShape, match=f"t_min must be finite and positive, got {t_min}"
                           if ratio == 2.0 else f"ratio must be finite and > 1, got {ratio}"):
            po.TLattice(m=2, t_min=t_min, ratio=ratio, levels=3)

    @pytest.mark.parametrize("name, value", [("m", 3.0), ("levels", 2.0), ("m", 0),
                                             ("levels", 0)])
    def test_bad_dimensions_refused(self, name, value):
        # m = 3.0 used to give node_count 8.0, levels = 2.0 a bare TypeError
        with pytest.raises(BadShape, match=f"{name} must be an integer >= 1, got {value}"):
            po.TLattice(t_min=0.5, **({"m": 3, "levels": 2} | {name: value}))

    def test_numpy_scalars_stored_as_python_numbers(self):
        lat = po.TLattice(m=np.int64(3), t_min=np.float32(0.5), levels=np.int64(2),
                          ratio=np.float64(2.0))
        assert [type(v) for v in (lat.m, lat.t_min, lat.levels, lat.ratio)] == [
            int, float, int, float]

    def test_int64_node_count_capped(self):
        # np.int64(4) ** np.int64(32) wrapped to 0 and passed the cap
        with pytest.raises(BadShape, match=r"4\^32 nodes exceed the cap 4096"):
            po.TLattice(m=np.int64(32), t_min=0.5, levels=np.int64(4))

    def test_default_anchored_at_2h(self, spec):
        lat = po.default_lattice(spec, m=3, levels=4)
        assert lat.t_min == 2 * spec.h


class TestDirectional:
    # one generator: the 1-d cone on a line

    def test_approximate_identity(self, line_cone, poisson_at):
        spec = gr.GridSpec(n=1, sizes=(128,), box_half=8.0)
        (x,) = spec.coords()
        f = gr.GridFunction(spec, np.cos(2 * np.pi * x / 16.0))
        out = poisson_at(f, line_cone, spec.h / 100)
        assert np.max(np.abs(out.values - f.values)) < 1e-3

    def test_semigroup(self, line_cone, poisson_at):
        spec = gr.GridSpec(n=1, sizes=(128,), box_half=8.0)
        (x,) = spec.coords()
        f = gr.GridFunction(spec, np.exp(-(x**2)))
        s, t = 0.3, 0.45
        twice = poisson_at(poisson_at(f, line_cone, s), line_cone, t)
        once = poisson_at(f, line_cone, s + t)
        assert np.max(np.abs(twice.values - once.values)) < 1e-12

    def test_axis_trapezoid_oracle(self, line_cone, poisson_at):
        spec = gr.GridSpec(n=1, sizes=(256,), box_half=32.0)
        (x,) = spec.coords()
        f = gr.GridFunction(spec, np.exp(-(x**2)))
        t = 0.5
        out = poisson_at(f, line_cone, t)
        s = np.linspace(-30, 30, 60001)
        kernel = t / (np.pi * (t**2 + s**2))
        xs = spec.axis_coords(0)
        for i in range(96, 161, 16):
            direct = np.trapezoid(np.exp(-((xs[i] - s) ** 2)) * kernel, s)
            assert abs(out.values[i].real - direct) < 1e-3

    def test_real_preserved(self, cone_b, gaussian, poisson_at):
        # every generator of cone_b, the diagonal one among them
        out = poisson_at(gaussian, cone_b, 0.7)
        assert np.max(np.abs(out.values.imag)) < 1e-13


class TestIterated:
    def test_small_t_identity(self, spec, cone_b, poisson_at):
        x1, _ = spec.coords()
        f = gr.GridFunction(spec, np.cos(2 * np.pi * x1 / 16.0) * np.ones(spec.sizes))
        out = poisson_at(f, cone_b, spec.h / 300)
        assert np.max(np.abs(out.values - f.values)) < 1e-3

    def test_mass_preserved_nonnegative(self, cone_b, gaussian, poisson_at):
        before = gr.lp_norm(gaussian, 1)
        after = gr.lp_norm(poisson_at(gaussian, cone_b, 0.4), 1)
        assert abs(after - before) / before < 1e-3

    def test_multiplier_bound(self, spec, cone_b):
        lat = po.default_lattice(spec, m=3, levels=4)
        dots = [sum(g * x for g, x in zip(gen, spec.freqs())) for gen in cone_b.generators]
        for t in lat.nodes():
            mult = po.poisson_decay(dots, t)
            assert np.all(mult > 0) and np.all(mult <= 1.0)
            k0 = spec.sizes[0] // 2
            assert mult[k0, k0] == 1.0

    def test_length_mismatch(self, cone_b, gaussian):
        with pytest.raises(LengthMismatch):
            po.build_field(gaussian, cone_b, po.TLattice(m=2, t_min=0.1, levels=1))

    @pytest.mark.parametrize("n", [1, 3])
    @pytest.mark.parametrize("build", [po.build_field, po.gradient_magnitude_sq_field],
                             ids=["field", "magnitude"])
    def test_grid_dimension_mismatch(self, cone_b, build, n):
        # the mesh used to be zipped with the generators and cut short: a
        # 1-d grid gave a (nodes, 16) field and a 3-d one (nodes, 16, 16, 16)
        spec = gr.GridSpec(n=n, sizes=(16,) * n, box_half=4.0)
        f = gr.GridFunction(spec, np.ones(spec.sizes))
        with pytest.raises(LengthMismatch, match=f"grid dimension {n} != cone dimension 2"):
            build(f, cone_b, po.TLattice(m=3, t_min=0.5, levels=2))


class TestMixedGradient:
    def test_x_choice_is_axis_derivative(self, axis_cone, gaussian, centred):
        # the rows of a 2-level lattice include t = (0.4, 0.6); the axis
        # derivative is the centred symbol 2 pi i xi_1 at t = 0
        lat = po.TLattice(m=2, t_min=0.4, ratio=1.5, levels=2)
        smoothed = po.build_field(gaussian, axis_cone, lat)
        via_sel = po.build_field(gaussian, axis_cone, lat, selector={0: po.X_CHOICE})
        for row in range(lat.node_count):
            direct = centred(smoothed.node_function(row), axis_cone, [0.0, 0.0],
                             {0: po.X_CHOICE})
            assert np.max(np.abs(via_sel.values[row] - direct)) < 1e-12

    def test_t_choice_vs_finite_difference(self, cone_b, gaussian):
        # on the 3-level lattice t_mu in {t / r, t, t r}, the rows that
        # move t_2 alone are a central difference, second order in r - 1
        t, mu = 0.5, 2
        errs = []
        for dt in (t / 100, t / 200):
            r = 1 + dt / t
            lat = po.TLattice(m=3, t_min=t / r, ratio=r, levels=3)
            rows = {idx: row for row, idx in enumerate(lat.indices())}
            plain = po.build_field(gaussian, cone_b, lat).values
            exact = po.build_field(gaussian, cone_b, lat, selector={mu: po.T_CHOICE})
            fd = (plain[rows[1, 1, 2]] - plain[rows[1, 1, 0]]) / (t * r - t / r)
            errs.append(np.max(np.abs(fd - exact.values[rows[1, 1, 1]])))
        order = np.log2(errs[0] / errs[1])
        assert order > 1.8

    def test_harmonicity(self, cone_b, gaussian, poisson_at):
        # two X and two T passes along one generator at t/2 each, with
        # every generator convolving; their sum must vanish to rounding
        t = 0.5
        for mu in range(3):
            xx, tt = (poisson_at(poisson_at(gaussian, cone_b, t / 2, {mu: c}),
                                 cone_b, t / 2, {mu: c})
                      for c in (po.X_CHOICE, po.T_CHOICE))
            resid = np.max(np.abs(xx.values + tt.values))
            assert resid < 1e-6 * np.max(np.abs(gaussian.values))


class TestBuildField:
    def test_single_node(self, cone_b, gaussian, centred):
        lat = po.TLattice(m=3, t_min=0.5, levels=1)
        fld = po.build_field(gaussian, cone_b, lat)
        ref = centred(gaussian, cone_b, [0.5] * 3)
        assert np.max(np.abs(fld.values[0] - ref)) < 1e-12

    def test_nodes_match_fresh_calls(self, cone_b, gaussian, centred):
        lat = po.TLattice(m=3, t_min=0.4, ratio=2.0, levels=2)
        fld = po.build_field(gaussian, cone_b, lat)
        for row, t in enumerate(lat.nodes()):
            ref = centred(gaussian, cone_b, t)
            assert np.max(np.abs(fld.values[row] - ref)) < 1e-12

    def test_monotone_sup_for_nonnegative(self, spec, cone_b, gaussian):
        lat = po.TLattice(m=3, t_min=0.3, ratio=2.0, levels=3)
        fld = po.build_field(gaussian, cone_b, lat)
        sups = {idx: np.max(np.abs(fld.values[row]))
                for row, idx in enumerate(lat.indices())}
        for idx in lat.indices():
            for mu in range(3):
                if idx[mu] + 1 < lat.levels:
                    nxt = list(idx)
                    nxt[mu] += 1
                    assert sups[tuple(nxt)] <= sups[idx] * (1 + 1e-12)

    def test_budget(self, spec, cone_b, gaussian, monkeypatch):
        monkeypatch.setattr(po, "DEFAULT_BUDGET", 100)
        lat = po.TLattice(m=3, t_min=0.4, levels=2)
        with pytest.raises(OutOfMemoryBudget):
            po.build_field(gaussian, cone_b, lat)

    def test_budget_counts_loop_peak(self, cone_b, monkeypatch):
        # the 8 float64 nodes fit in 4 * 1024 elements, the gradient
        # loop's spectra, one per nonempty sign cell (6 of the 8 for
        # cone_b), need 6 * 1024 more
        spec = gr.GridSpec(n=2, sizes=(32, 32), box_half=8.0)
        f = gr.GridFunction(spec, np.ones(spec.sizes))
        lat = po.TLattice(m=3, t_min=0.5, levels=2)
        monkeypatch.setattr(po, "DEFAULT_BUDGET", 8 * 1024)
        with pytest.raises(OutOfMemoryBudget, match="exceeds budget 8192") as err:
            po.gradient_magnitude_sq_field(f, cone_b, lat)
        # output and square buffer 4.5, f-hat, 6 cell spectra and spectrum
        # buffer 8, dots, tables and decay buffer (3 + 6 + 1) / 2
        assert err.value.needed == (4.5 + 8 + 5) * 1024
        assert f"peak {err.value.needed:.1f}" in str(err.value)
        monkeypatch.setattr(po, "DEFAULT_BUDGET", int(err.value.needed))
        po.gradient_magnitude_sq_field(f, cone_b, lat)
        monkeypatch.setattr(po, "DEFAULT_BUDGET", lat.node_count * spec.npoints)
        with pytest.raises(OutOfMemoryBudget):
            po.build_field(f, cone_b, lat)

    @pytest.mark.parametrize("call, output, spectra", [
        (po.build_field, 4096, 1),
        (po.gradient_magnitude_sq_field, 4097 / 2, 6),
    ], ids=["field", "gradient"])
    def test_budget_checked_before_the_output(self, cone_b, call, output, spectra):
        # 4096 nodes on 1024^2 points: the output alone is 32 or 64 GiB, whose
        # allocation used to fail with numpy's MemoryError before the check
        spec = gr.GridSpec(n=2, sizes=(1024, 1024), box_half=8.0)
        f = gr.GridFunction(spec, np.ones(spec.sizes))
        lat = po.TLattice(m=3, t_min=0.5, levels=16)
        with pytest.raises(OutOfMemoryBudget) as err:
            call(f, cone_b, lat)
        # per point the spectrum, the weighted spectra, the buffer, and
        # dots, 3 x 16 decay tables and the decay buffer at half weight
        assert err.value.needed == spec.npoints * (output + spectra + 2 + (3 * 17 + 1) / 2)

    def test_input_unchanged(self, cone_b, gaussian):
        # the node loop multiplies into the spectrum it is given: a fresh
        # transform, never the samples
        before = gaussian.values.copy()
        lat = po.TLattice(m=3, t_min=0.5, levels=2)
        po.build_field(gaussian, cone_b, lat, selector={0: po.X_CHOICE})
        po.gradient_magnitude_sq_field(gaussian, cone_b, lat)
        assert np.array_equal(gaussian.values, before)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_input_rejected(self, cone_b, bad):
        spec = gr.GridSpec(n=2, sizes=(32, 32), box_half=8.0)
        vals = np.ones(spec.sizes)
        vals[4, 7] = bad
        f = gr.GridFunction(spec, vals)
        lat = po.TLattice(m=3, t_min=0.5, levels=2)
        with pytest.raises(NonFiniteValues, match="1 of 1024 samples"):
            po.build_field(f, cone_b, lat)
        with pytest.raises(NonFiniteValues, match="1 of 1024 samples"):
            po.gradient_magnitude_sq_field(f, cone_b, lat)

    def test_selector_nodes_match_centred_definition(self, cone_b, centred):
        # an off-centre, non-symmetric input and an odd X factor, against
        # fourier_inverse(M * fourier_forward(f)); h = 3/8 is not a power
        # of two, so the h^n factors the node loop drops show too
        spec = gr.GridSpec(n=2, sizes=(32, 32), box_half=6.0)
        x1, x2 = spec.coords()
        f = gr.GridFunction(spec, np.exp(-((x1 - 1.0) ** 2 + 2 * (x2 + 0.5) ** 2)) * (1 + x1))
        lat = po.TLattice(m=3, t_min=0.5, ratio=2.0, levels=2)
        selector = {0: po.X_CHOICE, 2: po.T_CHOICE}
        fld = po.build_field(f, cone_b, lat, selector=selector)
        for row, t in enumerate(lat.nodes()):
            want = centred(f, cone_b, t, selector)
            assert np.max(np.abs(fld.values[row] - want)) < 1e-13 * np.max(np.abs(want))

    def test_gradient_magnitude_field_matches_components(self, cone_b):
        spec = gr.GridSpec(n=2, sizes=(32, 32), box_half=8.0)
        x1, x2 = spec.coords()
        f = gr.GridFunction(spec, np.exp(-(x1**2 + x2**2)))
        # cone_b and the cone spanned by its generators 0 and 2
        for sub_cone in (cone_b, cg.validate_cone(cone_b.generators[[0, 2]])):
            lat = po.TLattice(m=sub_cone.m, t_min=0.5, levels=2)
            fld = po.gradient_magnitude_sq_field(f, sub_cone, lat)
            acc = np.zeros(fld.values.shape)
            for choices in itertools.product("XT", repeat=sub_cone.m):
                sel = {mu: c for mu, c in enumerate(choices)}
                acc += np.abs(po.build_field(f, sub_cone, lat, selector=sel).values) ** 2
            for row in range(lat.node_count):
                assert np.max(np.abs(fld.values[row] - acc[row])) < 1e-10 * acc[row].max()


class TestSignCells:
    # gradient_magnitude_sq_field transforms once per nonempty cell of
    # sign patterns (sgn e_mu . xi)_mu on the grid, at most
    # 2 sum_{k<n} C(m-1, k) of the 2^m; the budget's refusal names the
    # count

    @pytest.fixture
    def refusal(self, monkeypatch):
        monkeypatch.setattr(po, "DEFAULT_BUDGET", 1)

        def message(cone, size):
            spec = gr.GridSpec(n=cone.n, sizes=(size,) * cone.n, box_half=8.0)
            f = gr.GridFunction(spec, np.ones(spec.sizes))
            lat = po.TLattice(m=cone.m, t_min=0.5, levels=1)
            with pytest.raises(OutOfMemoryBudget) as err:
                po.gradient_magnitude_sq_field(f, cone, lat)
            return str(err.value)
        return message

    def test_cone_b_six_of_eight(self, cone_b, refusal):
        # xi_1 > 0, xi_2 > 0 and xi_1 + xi_2 < 0 cannot hold together, nor
        # can the opposite pattern
        assert ", 6 spectra:" in refusal(cone_b, 32)

    def test_planar_four_generators_eight_of_sixteen(self, refusal):
        # in the plane each generator's line through 0 adds two cells: 2m
        angles = np.array([0.3, 0.7, 1.1, 1.4])
        cone = cg.validate_cone(np.column_stack([np.cos(angles), np.sin(angles)]))
        assert ", 8 spectra:" in refusal(cone, 32)

    def test_three_dimensional_fourteen_of_sixteen(self, refusal):
        gens = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 1.0, 1.0]])
        cone = cg.validate_cone(gens / np.linalg.norm(gens, axis=1, keepdims=True))
        assert ", 14 spectra:" in refusal(cone, 16)


class TestGeneratorIndices:
    # cone_b has m = 3: -1 must not wrap round to generator 2, and 3 must
    # not reach a bare IndexError; a dict cannot repeat a key

    @pytest.mark.parametrize("key", [-1, 3, True])
    def test_selector_key_refused(self, cone_b, gaussian, key):
        lat = po.TLattice(m=3, t_min=0.5, levels=1)
        with pytest.raises(BadShape, match=rf"selector key {key} is not a generator "
                                           rf"index in range\(3\)"):
            po.build_field(gaussian, cone_b, lat, selector={key: po.X_CHOICE})

    @pytest.mark.parametrize("selector", [[], 0, [(0, po.X_CHOICE)], "X", True])
    def test_selector_not_a_dict_refused(self, cone_b, gaussian, selector):
        # [] and 0 used to read as no selector, the others to reach a bare
        # AttributeError
        lat = po.TLattice(m=3, t_min=0.5, levels=1)
        with pytest.raises(BadShape, match=re.escape(f"got {selector!r}")):
            po.build_field(gaussian, cone_b, lat, selector=selector)


class TestDecayBound:
    def test_fitted_constant_bounded(self, spec, cone_b, gaussian):
        lat = po.TLattice(m=3, t_min=0.25, ratio=2.0, levels=3)
        fld = po.build_field(gaussian, cone_b, lat)
        l1 = gr.lp_norm(gaussian, 1)
        cs = []
        for row, t in enumerate(lat.nodes()):
            vol = cg.zonotope_volume(cone_b, t)
            cs.append(np.max(np.abs(fld.values[row])) * vol / l1)
        assert max(cs) < 10.0


def weighted_field_sum(f, cone, lattice) -> float:
    """The sum over nodes of w h^n sum_x G, G from gradient_magnitude_sq_field."""
    values = po.gradient_magnitude_sq_field(f, cone, lattice).values
    sums = values.reshape(len(values), -1).sum(axis=1)
    return f.spec.h**f.spec.n * float(lattice.weights() @ sums)


def complex_noise(spec, seed):
    rng = np.random.default_rng(seed)
    return gr.GridFunction(spec, rng.normal(size=spec.sizes) + 1j * rng.normal(size=spec.sizes))


class TestSumRule:
    SQUARE_CONE = np.array([[1.0, 0.0, 1.0], [-1.0, 0.0, 1.0], [0.0, 1.0, 1.0],
                            [0.0, -1.0, 1.0]]) / np.sqrt(2.0)

    @pytest.mark.parametrize("case", ["cone_b-bump", "cone_b-noise", "skew-bump",
                                      "square-noise"])
    def test_field_matches_the_sum_rule(self, request, case):
        # conftest.sum_rule takes one FFT and no node loop; measured 0.56,
        # 0, 0 and 1.19 ulp
        if case.startswith("cone_b"):
            cone, spec = request.getfixturevalue("cone_b"), gr.GridSpec(2, (128, 128), 8.0)
            lattice = po.TLattice(m=3, t_min=2 * spec.h, levels=4)
            f = (complex_noise(spec, 1) if case.endswith("noise") else
                 sp.boundary_grid(sp.make_bump_psi(cone.dual, [0.8, 0.9], 0.4), spec))
        elif case == "skew-bump":
            cone, spec = request.getfixturevalue("skew_cone"), gr.GridSpec(2, (64, 64), 8.0)
            lattice = po.TLattice(m=2, t_min=0.1, levels=8)
            f = sp.boundary_grid(sp.make_bump_psi(cone.dual, [1.0, 0.2], 0.3), spec)
        else:
            cone, spec = cg.validate_cone(self.SQUARE_CONE), gr.GridSpec(3, (32,) * 3, 4.0)
            lattice = po.TLattice(m=4, t_min=0.25, levels=2, ratio=2.0)
            f = complex_noise(spec, 2)
        want = sum_rule(f, cone, lattice)
        assert abs(weighted_field_sum(f, cone, lattice) - want) <= 256 * np.finfo(float).eps * want

    def test_continuous_gap_shrinks_with_the_lattice_range(self, cone_b):
        # f's spectrum is a bump on the reciprocal lattice inside the dual
        # cone, where every a_mu > 0: as the lattice covers more of t, the
        # weighted sum tends to 2^-m (h^n / N) sum |fftn f|^2, and its
        # relative gap is a mean of prod_mu 4 Q_mu - 1 over the spectrum
        spec = gr.GridSpec(n=2, sizes=(32, 32), box_half=4.0)
        xi = np.meshgrid(*[np.fft.ifftshift(x) for x in spec.freqs()], indexing="ij")
        rho2 = ((xi[0] - 0.8) ** 2 + (xi[1] - 0.9) ** 2) / 0.4**2
        support = rho2 < 1.0
        psi = np.zeros(spec.sizes)
        psi[support] = np.exp(-1.0 / (1.0 - rho2[support]))
        f = gr.GridFunction(spec, np.fft.ifftn(psi))
        limit = 2.0**-cone_b.m * spec.h**2 / spec.npoints * np.sum(psi**2)
        gaps = []
        for t_min, levels in [(0.1, 4), (0.05, 6), (0.02, 10)]:
            lattice = po.TLattice(m=3, t_min=t_min, levels=levels, ratio=2.0)
            rule = np.prod([4 * q for q in sum_rule_factors(spec, cone_b, lattice)], axis=0)
            error = rule[support] - 1.0
            gaps.append(weighted_field_sum(f, cone_b, lattice) / limit - 1.0)
            assert error.min() - 1e-12 <= gaps[-1] <= error.max() + 1e-12
        # measured -0.50, -0.19 and -0.038
        assert abs(gaps[2]) < abs(gaps[1]) < abs(gaps[0])


class TestFieldIO:
    def test_round_trip(self, tmp_path, cone_b):
        spec = gr.GridSpec(n=2, sizes=(32, 32), box_half=8.0)
        x1, x2 = spec.coords()
        f = gr.GridFunction(spec, np.exp(-(x1**2 + x2**2)))
        lat = po.TLattice(m=3, t_min=0.5, levels=2)
        fld = po.build_field(f, cone_b, lat, selector={0: po.X_CHOICE})
        po.write_field(tmp_path / "field", fld)
        back = po.read_field(tmp_path / "field")
        assert back.lattice == fld.lattice
        assert back.spec == fld.spec
        assert back.selector == fld.selector
        assert np.array_equal(back.values, fld.values)
        assert (tmp_path / "field").is_file()

    @pytest.mark.parametrize("build, dtype", [
        (lambda f, stf, c, lat: po.build_field(f, c, lat), np.complex128),
        (lambda f, stf, c, lat: po.build_field(f, c, lat, selector={0: po.X_CHOICE,
                                                                    2: po.T_CHOICE}),
         np.complex128),
        (lambda f, stf, c, lat: sp.lift_field(stf, c, lat, f.spec), np.complex128),
        (lambda f, stf, c, lat: po.gradient_magnitude_sq_field(f, c, lat), np.float64),
        (lambda f, stf, c, lat: sp.gradient_magnitude_sq_lift(stf, c, lat, f.spec), np.float64),
    ], ids=["build", "build-selector", "lift", "magnitude", "magnitude-lift"])
    def test_round_trip_keeps_the_dtype(self, tmp_path, cone_b, build, dtype):
        # a float64 magnitude field used to be stored as <c16, 16 bytes a
        # value, and read back as complex128
        spec = gr.GridSpec(n=2, sizes=(16, 16), box_half=4.0)
        stf = sp.make_bump_psi(cone_b.dual, [1.0, 1.0], 0.4, nodes_per_axis=8)
        fld = build(sp.boundary_grid(stf, spec), stf, cone_b,
                    po.TLattice(m=3, t_min=0.5, levels=2))
        path = tmp_path / "field"
        po.write_field(path, fld)
        back = po.read_field(path)
        assert fld.values.dtype == back.values.dtype == dtype
        assert np.array_equal(back.values, fld.values)
        assert (back.lattice, back.spec, back.selector) == (fld.lattice, fld.spec, fld.selector)
        raw = path.read_bytes()
        start = 8 + int.from_bytes(raw[4:8], "little")
        assert len(raw) == start + np.dtype(dtype).itemsize * fld.values.size

    @pytest.mark.parametrize("lattice, sizes", [
        ({"m": np.int64(3), "t_min": 0.5}, (16, 16)),
        ({"m": 3, "t_min": np.float32(0.5)}, (16, 16)),
        ({"m": 3, "t_min": 0.5}, (np.int64(16),) * 2),
    ], ids=["int64-m", "float32-t_min", "int64-sizes"])
    def test_numpy_scalars_written(self, tmp_path, cone_b, lattice, sizes):
        # each used to be accepted, and json.dump then raised a bare
        # TypeError in write_field
        spec = gr.GridSpec(n=2, sizes=sizes, box_half=4.0)
        fld = po.build_field(gr.GridFunction(spec, np.ones(spec.sizes)), cone_b,
                             po.TLattice(levels=2, **lattice))
        po.write_field(tmp_path / "field", fld)
        back = po.read_field(tmp_path / "field")
        assert (back.lattice, back.spec) == (fld.lattice, fld.spec)
        assert np.array_equal(back.values, fld.values)

    def test_numpy_integer_selector_key(self, tmp_path, cone_b):
        # json.dump used to refuse the np.int64 key after every node file
        # was written
        spec = gr.GridSpec(n=2, sizes=(32, 32), box_half=8.0)
        f = gr.GridFunction(spec, np.ones(spec.sizes))
        lat = po.TLattice(m=3, t_min=0.5, levels=2)
        po.write_field(tmp_path / "field",
                       po.build_field(f, cone_b, lat, selector={np.int64(0): po.X_CHOICE}))
        assert po.read_field(tmp_path / "field").selector == {0: po.X_CHOICE}

    def test_manifest_serialised_before_any_file(self, tmp_path):
        spec = gr.GridSpec(n=2, sizes=(16, 16), box_half=4.0)
        lat = po.TLattice(m=3, t_min=0.5, levels=1)
        fld = po.OperatorField(lattice=lat, spec=spec, values=np.zeros((1, 16, 16)),
                               selector=None)
        # set past __post_init__, which would store the key as an int
        fld.selector = {np.int64(0): po.X_CHOICE}
        with pytest.raises(TypeError, match="keys must be"):
            po.write_field(tmp_path / "field", fld)
        assert not (tmp_path / "field").exists()

    def _written(self, tmp_path, cone_b, levels=2, name="field"):
        spec = gr.GridSpec(n=2, sizes=(32, 32), box_half=8.0)
        x1, x2 = spec.coords()
        f = gr.GridFunction(spec, np.exp(-(x1**2 + x2**2)))
        lat = po.TLattice(m=3, t_min=0.5, levels=levels)
        po.write_field(tmp_path / name, po.build_field(f, cone_b, lat))
        return tmp_path / name

    _DROP = object()

    @classmethod
    def _rewrite_header(cls, path, key, change):
        """Rewrite the manifest of the field file at `path` and keep its
        payload: the entry at the dotted `key` ("" for the whole manifest)
        becomes `change` of its value, or is deleted where that is _DROP."""
        raw = path.read_bytes()
        start = 8 + int.from_bytes(raw[4:8], "little")
        root = {"": json.loads(raw[8:start])}
        where, last = root, ""
        for name in filter(None, key.split(".")):
            where, last = where[last], name
        value = change(where[last])
        if value is cls._DROP:
            del where[last]
        else:
            where[last] = value
        manifest = json.dumps(root[""]).encode()
        path.write_bytes(raw[:4] + len(manifest).to_bytes(4, "little") + manifest + raw[start:])

    def test_one_regular_file(self, tmp_path, cone_b):
        path = self._written(tmp_path, cone_b)
        assert list(tmp_path.iterdir()) == [path]
        assert path.is_file() and not path.is_symlink()

    def test_rewrite_with_a_smaller_lattice(self, tmp_path, cone_b):
        path = self._written(tmp_path, cone_b, levels=3)
        (tmp_path / "notes.txt").write_text("kept")
        small = self._written(tmp_path, cone_b, name="small")
        fld = po.read_field(small)
        po.write_field(path, fld)
        assert path.read_bytes() == small.read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["field", "notes.txt", "small"]
        assert np.array_equal(po.read_field(path).values, fld.values)

    def test_open_reader_keeps_the_old_field(self, tmp_path, cone_b):
        # the file is replaced, not truncated under the reader
        path = self._written(tmp_path, cone_b, levels=3)
        old = path.read_bytes()
        fld = po.read_field(self._written(tmp_path, cone_b, name="small"))
        with open(path, "rb") as fh:
            po.write_field(path, fld)
            assert fh.read() == old
        assert np.array_equal(po.read_field(path).values, fld.values)

    @pytest.mark.parametrize("key", ["selector", "grid.box_half", "dtype"])
    def test_missing_key_rejected(self, tmp_path, cone_b, key):
        # a manifest without "selector" used to raise a bare KeyError
        path = self._written(tmp_path, cone_b)
        self._rewrite_header(path, key, lambda _: self._DROP)
        with pytest.raises(BadShape, match=rf"manifest{' grid' if '.' in key else ''} "
                                           rf"has no key '{key.rpartition('.')[2]}'"):
            po.read_field(path)

    @pytest.mark.parametrize("selector, message", [
        ({"0": "Q", "2": "X"}, "unknown gradient choice 'Q'"),
        ({"0": "X", "7": "X"}, r"selector key 7 is not a generator index in range\(3\)"),
        ({"-1": "T"}, r"selector key '-1' is not a generator index in range\(3\)"),
    ])
    def test_bad_selector_refused(self, tmp_path, cone_b, selector, message):
        # {"0": "Q", "7": "X"} used to read back as {0: 'Q', 7: 'X'}, a
        # selector build_field refuses
        path = self._written(tmp_path, cone_b)
        self._rewrite_header(path, "selector", lambda _: selector)
        with pytest.raises(BadShape, match=message):
            po.read_field(path)

    @pytest.mark.parametrize("key, message", [
        ("m", "m must be an integer >= 1, got 3.0"),
        ("levels", "levels must be an integer >= 1, got 2.0"),
        ("grid.n", "n must be an integer >= 1, got 2.0"),
    ])
    def test_float_dimension_refused(self, tmp_path, cone_b, key, message):
        # "m": 3.0 used to reach a bare TypeError, "n": 2.0 to be accepted
        path = self._written(tmp_path, cone_b)
        self._rewrite_header(path, key, float)
        with pytest.raises(BadShape, match=message):
            po.read_field(path)

    @pytest.mark.parametrize("key, value, message", [
        ("t_min", "0.5", "t_min must be a real number, got '0.5'"),
        ("ratio", None, "ratio must be a real number, got None"),
        ("grid.sizes", 16, "sizes must be a sequence, got 16"),
        ("grid.box_half", "8", "box_half must be a real number, got '8'"),
        ("grid", [2, 32], r"grid must be a JSON object, got \[2, 32\]"),
        ("selector", ["X"], r"selector must be a JSON object or null, got \['X'\]"),
        ("dtype", "<f4", r"dtype must be one of \['<c16', '<f8'\], got '<f4'"),
        ("dtype", "|O", r"dtype must be one of \['<c16', '<f8'\], got '\|O'"),
    ])
    def test_wrong_type_refused(self, tmp_path, cone_b, key, value, message):
        # each of these used to reach a bare TypeError, and a selector
        # list an AttributeError
        path = self._written(tmp_path, cone_b)
        self._rewrite_header(path, key, lambda _: value)
        with pytest.raises(BadShape, match=message):
            po.read_field(path)

    @pytest.mark.parametrize("manifest", [3, "m t_min ratio levels selector grid nodes"])
    def test_manifest_not_an_object_refused(self, tmp_path, cone_b, manifest):
        # these used to reach a bare TypeError in the key lookup
        path = self._written(tmp_path, cone_b)
        self._rewrite_header(path, "", lambda _: manifest)
        with pytest.raises(BadShape, match=rf"manifest must be a JSON object, "
                                           rf"got {re.escape(repr(manifest))}"):
            po.read_field(path)

    def test_float_sizes_refused(self, tmp_path, cone_b):
        # [32.0, 32.0] used to reach a bare TypeError in GridSpec
        path = self._written(tmp_path, cone_b)
        self._rewrite_header(path, "grid.sizes", lambda _: [32.0, 32.0])
        with pytest.raises(BadShape, match="sizes must be integer powers of two"):
            po.read_field(path)

    @pytest.mark.parametrize("first", [b"[", b"\xff"])
    def test_manifest_not_json_refused(self, tmp_path, cone_b, first):
        path = self._written(tmp_path, cone_b)
        raw = path.read_bytes()
        path.write_bytes(raw[:8] + first + raw[9:])
        with pytest.raises(BadShape, match="manifest is not JSON"):
            po.read_field(path)

    @pytest.mark.parametrize("name", ["manifest.json"])
    def test_missing_file_refused(self, tmp_path, cone_b, name):
        # used to raise FileNotFoundError; the field is written under the
        # parameter's name
        path = self._written(tmp_path, cone_b, name=name)
        path.unlink()
        with pytest.raises(BadShape, match=re.escape(f"{path} is missing")):
            po.read_field(path)

    def test_directory_refused(self, tmp_path, cone_b):
        # a directory, such as a field in the layout of one file per node,
        # used to raise a bare IsADirectoryError
        fld = po.read_field(self._written(tmp_path, cone_b))
        with pytest.raises(BadShape, match=re.escape(f"{tmp_path} is a directory, not a file")):
            po.read_field(tmp_path)
        with pytest.raises(BadShape, match=re.escape(f"{tmp_path} is a directory, not a file")):
            po.write_field(tmp_path, fld)

    @pytest.mark.parametrize("path", [None, ["field"], 2.0, True])
    def test_not_a_path_refused(self, tmp_path, cone_b, path):
        # None, a list and a float used to raise bare TypeErrors, and True
        # was opened as fd 1 and closed it
        fld = po.read_field(self._written(tmp_path, cone_b))
        with pytest.raises(BadShape, match="path must be a str, bytes or os.PathLike"):
            po.read_field(path)
        with pytest.raises(BadShape, match="path must be a str, bytes or os.PathLike"):
            po.write_field(path, fld)

    def test_descriptor_refused_and_left_open(self, tmp_path, cone_b):
        # a pipe's read end used to raise a bare OSError, closed
        fld = po.read_field(self._written(tmp_path, cone_b))
        read_end, write_end = os.pipe()
        try:
            with pytest.raises(BadShape, match="path must be a str, bytes or os.PathLike"):
                po.read_field(read_end)
            with pytest.raises(BadShape, match="path must be a str, bytes or os.PathLike"):
                po.write_field(write_end, fld)
            os.fstat(read_end)
            os.fstat(write_end)
        finally:
            os.close(read_end)
            os.close(write_end)

    @pytest.mark.parametrize("selector, message", [
        ({7: "Q"}, r"selector key 7 is not a generator index in range\(3\)"),
        ({0: "Q"}, "unknown gradient choice 'Q'"),
    ])
    def test_field_selector_checked(self, selector, message):
        # {7: "Q"} used to be accepted, and written to a file that
        # read_field refused
        spec = gr.GridSpec(n=2, sizes=(16, 16), box_half=4.0)
        with pytest.raises(BadShape, match=message):
            po.OperatorField(lattice=po.TLattice(m=3, t_min=0.5, levels=1), spec=spec,
                             values=np.zeros((1, 16, 16)), selector=selector)

    @pytest.mark.parametrize("selector, stored", [
        ({np.int64(0): po.X_CHOICE}, {0: po.X_CHOICE}),
        ({}, None),
    ])
    def test_field_selector_stored(self, tmp_path, selector, stored):
        # {np.int64(0): "X"} used to make write_field raise json's bare
        # TypeError
        spec = gr.GridSpec(n=2, sizes=(16, 16), box_half=4.0)
        fld = po.OperatorField(lattice=po.TLattice(m=3, t_min=0.5, levels=1), spec=spec,
                               values=np.zeros((1, 16, 16)), selector=selector)
        assert fld.selector == stored and all(type(k) is int for k in fld.selector or {})
        po.write_field(tmp_path / "field", fld)
        assert po.read_field(tmp_path / "field").selector == stored

    @pytest.mark.parametrize("values, dtype", [
        (np.zeros((1, 16, 16), dtype=int).tolist(), np.float64),
        (np.zeros((1, 16, 16), dtype=np.float32), np.float64),
        (np.zeros((1, 16, 16), dtype=np.complex64), np.complex128),
    ], ids=["int-list", "float32", "complex64"])
    def test_field_values_stored(self, values, dtype):
        # a nested list used to raise a bare AttributeError
        fld = po.OperatorField(lattice=po.TLattice(m=3, t_min=0.5, levels=1),
                               spec=gr.GridSpec(n=2, sizes=(16, 16), box_half=4.0),
                               values=values, selector=None)
        assert fld.values.dtype == dtype and fld.values.shape == (1, 16, 16)

    def test_object_values_refused(self):
        # an object array of the right shape used to be accepted and written
        with pytest.raises(BadShape, match="values must be an array of complex128"):
            po.OperatorField(lattice=po.TLattice(m=3, t_min=0.5, levels=1),
                             spec=gr.GridSpec(n=2, sizes=(16, 16), box_half=4.0),
                             values=np.zeros((1, 16, 16), dtype=object), selector=None)

    def test_every_proper_prefix_refused(self, tmp_path, cone_b):
        # an interrupted write leaves a prefix of the file: cuts in the
        # magic and the length read as a short header
        spec = gr.GridSpec(n=2, sizes=(16, 16), box_half=4.0)
        fld = po.build_field(gr.GridFunction(spec, np.ones(spec.sizes)), cone_b,
                             po.TLattice(m=3, t_min=0.5, levels=1))
        path = tmp_path / "field"
        po.write_field(path, fld)
        raw = path.read_bytes()
        start = 8 + int.from_bytes(raw[4:8], "little")
        assert len(raw) == start + 16 * spec.npoints
        for cut in range(len(raw)):
            path.write_bytes(raw[:cut])
            what = "header" if cut < 8 else "manifest" if cut < start else "payload"
            with pytest.raises(BadShape, match=f"truncated {what}: expected"):
                po.read_field(path)

    def test_trailing_bytes_refused(self, tmp_path, cone_b):
        path = self._written(tmp_path, cone_b)
        path.write_bytes(path.read_bytes() + bytes(7))
        with pytest.raises(BadShape, match="7 trailing bytes after the payload"):
            po.read_field(path)

    def test_wrong_magic_refused(self, tmp_path, cone_b):
        path = self._written(tmp_path, cone_b)
        path.write_bytes(b"TGF2" + path.read_bytes()[4:])
        with pytest.raises(BadShape, match="is not a TFLD file: magic b'TGF2'"):
            po.read_field(path)

    def test_manifest_past_the_file_refused(self, tmp_path, cone_b):
        # the length is checked against the file before the read
        path = self._written(tmp_path, cone_b)
        raw = path.read_bytes()
        path.write_bytes(raw[:4] + (2**32 - 1).to_bytes(4, "little") + raw[8:])
        message = f"truncated manifest: expected {2**32 - 1} bytes, got {len(raw) - 8}$"
        with pytest.raises(BadShape, match=message):
            po.read_field(path)

    @pytest.mark.parametrize("sizes", [[2**31, 2**31], [2**16, 2**16]])
    def test_payload_past_the_file_refused(self, tmp_path, cone_b, sizes):
        # refused before the allocation, which would raise MemoryError
        path = self._written(tmp_path, cone_b)
        self._rewrite_header(path, "grid.sizes", lambda _: sizes)
        expected, got = 16 * 8 * sizes[0] * sizes[1], 16 * 8 * 32 * 32
        with pytest.raises(BadShape, match=f"truncated payload: expected {expected} bytes, "
                                           f"got {got}$"):
            po.read_field(path)
