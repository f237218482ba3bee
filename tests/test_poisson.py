import itertools
import json
import re

import numpy as np
import pytest

from tubeharm import cone as cg
from tubeharm import grid as gr
from tubeharm import poisson as po
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
        assert (tmp_path / "field" / "t_01_00_01.tgf").exists()

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
                               selector={np.int64(0): po.X_CHOICE})
        with pytest.raises(TypeError, match="keys must be"):
            po.write_field(tmp_path / "field", fld)
        assert not (tmp_path / "field").exists()

    def _written(self, tmp_path, cone_b, levels=2):
        spec = gr.GridSpec(n=2, sizes=(32, 32), box_half=8.0)
        x1, x2 = spec.coords()
        f = gr.GridFunction(spec, np.exp(-(x1**2 + x2**2)))
        lat = po.TLattice(m=3, t_min=0.5, levels=levels)
        po.write_field(tmp_path / "field", po.build_field(f, cone_b, lat))
        return tmp_path / "field"

    @staticmethod
    def _entry(manifest: dict, key: str):
        """The dict holding the dotted `key` of `manifest`, and its last name."""
        *parents, last = key.split(".")
        for name in parents:
            manifest = manifest[name]
        return manifest, last

    def test_rewrite_with_a_smaller_lattice(self, tmp_path, cone_b):
        # the 19 node files the 8-node lattice does not write used to stay
        path = self._written(tmp_path, cone_b, levels=3)
        (path / "notes.txt").write_text("kept")
        fld = po.read_field(self._written(tmp_path / "small", cone_b))
        po.write_field(path, fld)
        names = {po.field_node_name(idx) for idx in fld.lattice.indices()}
        assert {p.name for p in path.iterdir()} == names | {"manifest.json", "notes.txt"}
        assert np.array_equal(po.read_field(path).values, fld.values)

    def test_nodes_list_of_older_manifests_ignored(self, tmp_path, cone_b):
        path = self._written(tmp_path, cone_b)
        fld = po.read_field(path)
        manifest = json.loads((path / "manifest.json").read_text())
        manifest["nodes"] = [po.field_node_name(idx) for idx in fld.lattice.indices()]
        (path / "manifest.json").write_text(json.dumps(manifest))
        assert np.array_equal(po.read_field(path).values, fld.values)

    @pytest.mark.parametrize("key", ["selector", "grid.box_half"])
    def test_missing_key_rejected(self, tmp_path, cone_b, key):
        # a manifest without "selector" used to raise a bare KeyError
        path = self._written(tmp_path, cone_b)
        manifest = json.loads((path / "manifest.json").read_text())
        where, last = self._entry(manifest, key)
        del where[last]
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(BadShape, match=rf"manifest.json{' grid' if '.' in key else ''} "
                                           rf"has no key '{last}'"):
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
        manifest = json.loads((path / "manifest.json").read_text())
        manifest["selector"] = selector
        (path / "manifest.json").write_text(json.dumps(manifest))
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
        manifest = json.loads((path / "manifest.json").read_text())
        where, last = self._entry(manifest, key)
        where[last] = float(where[last])
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(BadShape, match=message):
            po.read_field(path)

    @pytest.mark.parametrize("key, value, message", [
        ("t_min", "0.5", "t_min must be a real number, got '0.5'"),
        ("ratio", None, "ratio must be a real number, got None"),
        ("grid.sizes", 16, "sizes must be a sequence, got 16"),
        ("grid.box_half", "8", "box_half must be a real number, got '8'"),
        ("grid", [2, 32], r"grid must be a JSON object, got \[2, 32\]"),
        ("selector", ["X"], r"selector must be a JSON object or null, got \['X'\]"),
    ])
    def test_wrong_type_refused(self, tmp_path, cone_b, key, value, message):
        # each of these used to reach a bare TypeError, and a selector
        # list an AttributeError
        path = self._written(tmp_path, cone_b)
        manifest = json.loads((path / "manifest.json").read_text())
        where, last = self._entry(manifest, key)
        where[last] = value
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(BadShape, match=message):
            po.read_field(path)

    @pytest.mark.parametrize("manifest", [3, "m t_min ratio levels selector grid nodes"])
    def test_manifest_not_an_object_refused(self, tmp_path, cone_b, manifest):
        # these used to reach a bare TypeError in the key lookup
        path = self._written(tmp_path, cone_b)
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(BadShape, match=rf"manifest.json must be a JSON object, "
                                           rf"got {re.escape(repr(manifest))}"):
            po.read_field(path)

    def test_float_sizes_refused(self, tmp_path, cone_b):
        # [32.0, 32.0] used to reach a bare TypeError in GridSpec
        path = self._written(tmp_path, cone_b)
        manifest = json.loads((path / "manifest.json").read_text())
        manifest["grid"]["sizes"] = [32.0, 32.0]
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(BadShape, match="sizes must be integer powers of two"):
            po.read_field(path)

    @pytest.mark.parametrize("name", ["manifest.json", "t_01_00_01.tgf"])
    def test_missing_file_refused(self, tmp_path, cone_b, name):
        # both used to raise FileNotFoundError
        path = self._written(tmp_path, cone_b)
        (path / name).unlink()
        with pytest.raises(BadShape, match=re.escape(f"{path / name} is missing")):
            po.read_field(path)

    def test_interrupted_rewrite_leaves_no_manifest(self, tmp_path, cone_b, monkeypatch):
        # the old manifest used to stay over a mix of old and new nodes
        path = self._written(tmp_path, cone_b)
        fld = po.read_field(path)
        written = []

        def write_tgf(node_path, f):
            if len(written) == 3:
                raise OSError("interrupted")
            written.append(node_path)

        monkeypatch.setattr(gr, "write_tgf", write_tgf)
        with pytest.raises(OSError, match="interrupted"):
            po.write_field(path, fld)
        assert not (path / "manifest.json").exists()
        with pytest.raises(BadShape, match="manifest.json is missing"):
            po.read_field(path)

    def test_node_grid_mismatch_rejected(self, tmp_path, cone_b):
        path = self._written(tmp_path, cone_b)
        other = gr.GridSpec(n=2, sizes=(32, 32), box_half=4.0)
        gr.write_tgf(path / "t_00_01_00.tgf", gr.GridFunction(other, np.zeros((32, 32))))
        with pytest.raises(BadShape, match=r"t_00_01_00.tgf: expected the manifest grid "
                                           r".*box_half=8.0.*, found .*box_half=4.0"):
            po.read_field(path)
