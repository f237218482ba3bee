import itertools
import json

import numpy as np
import pytest

from tubeharm import cone as cg
from tubeharm import grid as gr
from tubeharm import poisson as po
from tubeharm.errors import (
    BadShape,
    EmptySelector,
    LengthMismatch,
    NonFiniteValues,
    NonpositiveT,
    OutOfMemoryBudget,
    ShapeMismatch,
)


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

    def test_weights_match_cells(self):
        lat = po.TLattice(m=1, t_min=0.5, ratio=2.0, levels=3)
        v = lat.axis_values
        edges = [v[0] / np.sqrt(2), np.sqrt(v[0] * v[1]),
                 np.sqrt(v[1] * v[2]), v[2] * np.sqrt(2)]
        for i, w in enumerate(lat.axis_weights):
            assert np.isclose(w, 0.5 * (edges[i + 1] ** 2 - edges[i] ** 2))
        assert np.all(lat.axis_weights > 0)

    def test_node_order_lexicographic(self):
        lat = po.TLattice(m=2, t_min=1.0, ratio=2.0, levels=2)
        assert list(lat.indices()) == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_node_cap(self):
        with pytest.raises(BadShape):
            po.TLattice(m=4, t_min=1.0, levels=9)  # 9^4 > 4096

    def test_default_anchored_at_2h(self, spec):
        lat = po.default_lattice(spec, m=3, levels=4)
        assert lat.t_min == 2 * spec.h


class TestDirectional:
    def test_approximate_identity(self, spec, cone_b):
        x1, _ = spec.coords()
        f = gr.GridFunction(spec, np.cos(2 * np.pi * x1 / 16.0) * np.ones(spec.sizes))
        out = po.directional_poisson(f, cone_b, 0, spec.h / 100)
        assert np.max(np.abs(out.values - f.values)) < 1e-3

    def test_semigroup(self, spec, cone_b, gaussian):
        s, t = 0.3, 0.45
        twice = po.directional_poisson(
            po.directional_poisson(gaussian, cone_b, 2, s), cone_b, 2, t
        )
        once = po.directional_poisson(gaussian, cone_b, 2, s + t)
        assert np.max(np.abs(twice.values - once.values)) < 1e-12

    def test_axis_trapezoid_oracle(self, axis_cone):
        spec = gr.GridSpec(n=2, sizes=(256, 256), box_half=32.0)
        x1, x2 = spec.coords()
        f = gr.GridFunction(spec, np.exp(-(x1**2 + x2**2)))
        t = 0.5
        out = po.directional_poisson(f, axis_cone, 0, t)
        s = np.linspace(-30, 30, 60001)
        kernel = t / (np.pi * (t**2 + s**2))
        xs = spec.axis_coords(0)
        j = spec.sizes[1] // 2  # row through the center
        for i in range(96, 161, 16):
            direct = np.trapezoid(
                np.exp(-((xs[i] - s) ** 2 + xs[j] ** 2)) * kernel, s
            )
            assert abs(out.values[i, j].real - direct) < 1e-3

    def test_real_preserved(self, spec, cone_b, gaussian):
        out = po.directional_poisson(gaussian, cone_b, 2, 0.7)
        assert np.max(np.abs(out.values.imag)) < 1e-13

    def test_nonpositive_t(self, spec, cone_b, gaussian):
        with pytest.raises(NonpositiveT):
            po.directional_poisson(gaussian, cone_b, 0, 0.0)


class TestIterated:
    def test_small_t_identity(self, spec, cone_b):
        x1, _ = spec.coords()
        f = gr.GridFunction(spec, np.cos(2 * np.pi * x1 / 16.0) * np.ones(spec.sizes))
        out = po.iterated_poisson(f, cone_b, [spec.h / 300] * 3)
        assert np.max(np.abs(out.values - f.values)) < 1e-3

    def test_order_permutation(self, spec, cone_b, gaussian):
        t = [0.3, 0.5, 0.8]
        orders = [(0, 1, 2), (2, 0, 1)]
        results = []
        for order in orders:
            g = gaussian
            for mu in order:
                g = po.directional_poisson(g, cone_b, mu, t[mu])
            results.append(g.values)
        assert np.max(np.abs(results[0] - results[1])) < 1e-12

    def test_single_pass_equals_composition(self, spec, cone_b, gaussian):
        t = [0.3, 0.5, 0.8]
        one = po.iterated_poisson(gaussian, cone_b, t)
        g = gaussian
        for mu in range(3):
            g = po.directional_poisson(g, cone_b, mu, t[mu])
        assert np.max(np.abs(one.values - g.values)) < 1e-12

    def test_mass_preserved_nonnegative(self, spec, cone_b, gaussian):
        before = gr.lp_norm(gaussian, 1)
        after = gr.lp_norm(po.iterated_poisson(gaussian, cone_b, [0.4, 0.4, 0.4]), 1)
        assert abs(after - before) / before < 1e-3

    def test_multiplier_bound(self, spec, cone_b):
        lat = po.default_lattice(spec, m=3, levels=4)
        for idx in lat.indices():
            mult = po.poisson_multiplier(spec, cone_b, lat.node(idx))
            assert np.all(mult.real > 0) and np.all(mult.real <= 1.0)
            k0 = spec.sizes[0] // 2
            assert mult[k0, k0] == 1.0

    def test_length_mismatch(self, spec, cone_b, gaussian):
        with pytest.raises(LengthMismatch):
            po.iterated_poisson(gaussian, cone_b, [0.1, 0.2])


class TestMixedGradient:
    def test_x_choice_is_axis_derivative(self, spec, axis_cone, gaussian):
        t = [0.4, 0.6]
        smoothed = po.iterated_poisson(gaussian, axis_cone, t)
        via_sel = po.mixed_gradient(gaussian, axis_cone, t, {0: po.X_CHOICE})
        direct = gr.directional_fd(smoothed, [1.0, 0.0], order=1)
        assert np.max(np.abs(via_sel.values - direct.values)) < 1e-12

    def test_t_choice_vs_finite_difference(self, spec, cone_b, gaussian):
        t = np.array([0.4, 0.5, 0.6])
        mu = 2
        exact = po.mixed_gradient(gaussian, cone_b, t, {mu: po.T_CHOICE})
        errs = []
        for dt in (t[mu] / 100, t[mu] / 200):
            up, dn = t.copy(), t.copy()
            up[mu] += dt
            dn[mu] -= dt
            fd = (
                po.iterated_poisson(gaussian, cone_b, up).values
                - po.iterated_poisson(gaussian, cone_b, dn).values
            ) / (2 * dt)
            errs.append(np.max(np.abs(fd - exact.values)))
        order = np.log2(errs[0] / errs[1])
        assert order > 1.8

    def test_harmonicity(self, spec, cone_b, gaussian):
        # second X and second T passes computed separately; their sum
        # must vanish to rounding
        for mu in range(3):
            t_mu = 0.5
            u = po.directional_poisson(gaussian, cone_b, mu, t_mu)
            xx = gr.directional_fd(u, cone_b.generators[mu], order=2)
            dots = po._axis_dots(spec, cone_b)[mu]
            tt = gr.apply_multiplier(
                u, (2 * np.pi * np.abs(dots)) ** 2 * np.ones(spec.sizes) + 0j
            )
            resid = np.max(np.abs(xx.values + tt.values))
            assert resid < 1e-6 * np.max(np.abs(gaussian.values))

    def test_empty_selector(self, spec, cone_b, gaussian):
        with pytest.raises(EmptySelector):
            po.mixed_gradient(gaussian, cone_b, [0.3, 0.3, 0.3], {})


class TestBuildField:
    def test_single_node(self, spec, cone_b, gaussian):
        lat = po.TLattice(m=3, t_min=0.5, levels=1)
        fld = po.build_field(gaussian, cone_b, lat)
        ref = po.iterated_poisson(gaussian, cone_b, [0.5] * 3)
        assert np.max(np.abs(fld.values[0] - ref.values)) < 1e-12

    def test_nodes_match_fresh_calls(self, spec, cone_b, gaussian):
        lat = po.TLattice(m=3, t_min=0.4, ratio=2.0, levels=2)
        fld = po.build_field(gaussian, cone_b, lat)
        for row, idx in enumerate(lat.indices()):
            ref = po.iterated_poisson(gaussian, cone_b, lat.node(idx))
            assert np.max(np.abs(fld.values[row] - ref.values)) < 1e-12

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

    def test_budget(self, spec, cone_b, gaussian):
        lat = po.TLattice(m=3, t_min=0.4, levels=2)
        with pytest.raises(OutOfMemoryBudget):
            po.build_field(gaussian, cone_b, lat, budget=100)

    def test_budget_counts_loop_peak(self, cone_b):
        # the 8 float64 nodes fit in 4 * 1024 elements, the 8 weighted
        # spectra of the gradient loop need 8 * 1024 more
        spec = gr.GridSpec(n=2, sizes=(32, 32), box_half=8.0)
        f = gr.GridFunction(spec, np.ones(spec.sizes))
        lat = po.TLattice(m=3, t_min=0.5, levels=2)
        with pytest.raises(OutOfMemoryBudget, match="exceeds budget 8192") as err:
            po.gradient_magnitude_sq_field(f, cone_b, lat, budget=8 * 1024)
        # output and square buffer 4.5, f-hat, spectra and spectrum
        # buffer 10, dots, tables and decay buffer (3 + 6 + 1) / 2
        assert err.value.needed == (4.5 + 10 + 5) * 1024
        assert f"peak {err.value.needed:.1f}" in str(err.value)
        po.gradient_magnitude_sq_field(f, cone_b, lat, budget=int(err.value.needed))
        with pytest.raises(OutOfMemoryBudget):
            po.build_field(f, cone_b, lat, budget=lat.node_count * spec.npoints)

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

    def test_frequency_input_rejected(self, cone_b, gaussian):
        lat = po.TLattice(m=3, t_min=0.5, levels=1)
        with pytest.raises(ShapeMismatch):
            po.build_field(gr.fourier_forward(gaussian), cone_b, lat)

    def test_selector_nodes_match_centred_definition(self, cone_b):
        # an off-centre, non-symmetric input and an odd X factor, against
        # fourier_inverse(M * fourier_forward(f)); h = 3/8 is not a power
        # of two, so the h^n factors the node loop drops show too
        spec = gr.GridSpec(n=2, sizes=(32, 32), box_half=6.0)
        x1, x2 = spec.coords()
        f = gr.GridFunction(spec, np.exp(-((x1 - 1.0) ** 2 + 2 * (x2 + 0.5) ** 2)) * (1 + x1))
        lat = po.TLattice(m=3, t_min=0.5, ratio=2.0, levels=2)
        selector = {0: po.X_CHOICE, 2: po.T_CHOICE}
        fld = po.build_field(f, cone_b, lat, selector=selector)
        factor = po.gradient_factor(po._axis_dots(spec, cone_b), selector)
        for row, idx in enumerate(lat.indices()):
            fhat = gr.fourier_forward(f)
            fhat.values *= po.poisson_multiplier(spec, cone_b, lat.node(idx)) * factor
            want = gr.fourier_inverse(fhat).values
            assert np.max(np.abs(fld.values[row] - want)) < 1e-13 * np.max(np.abs(want))

    def test_gradient_magnitude_field_matches_components(self, cone_b):
        spec = gr.GridSpec(n=2, sizes=(32, 32), box_half=8.0)
        x1, x2 = spec.coords()
        f = gr.GridFunction(spec, np.exp(-(x1**2 + x2**2)))
        # with a subset, the reference is the full field of the cone
        # spanned by the selected generators
        for subset in (None, (0, 2)):
            mus = range(cone_b.m) if subset is None else subset
            sub_cone = cg.validate_cone(cone_b.generators[list(mus)])
            lat = po.TLattice(m=sub_cone.m, t_min=0.5, levels=2)
            fld = po.gradient_magnitude_sq_field(f, cone_b, lat, subset=subset)
            for row, idx in enumerate(lat.indices()):
                t = lat.node(idx)
                acc = np.zeros(spec.sizes)
                for choices in itertools.product("XT", repeat=sub_cone.m):
                    sel = {mu: c for mu, c in enumerate(choices)}
                    comp = po.mixed_gradient(f, sub_cone, t, sel)
                    acc += np.abs(comp.values) ** 2
                assert np.max(np.abs(fld.values[row].real - acc)) < 1e-10 * acc.max()


class TestDecayBound:
    def test_fitted_constant_bounded(self, spec, cone_b, gaussian):
        lat = po.TLattice(m=3, t_min=0.25, ratio=2.0, levels=3)
        fld = po.build_field(gaussian, cone_b, lat)
        l1 = gr.lp_norm(gaussian, 1)
        cs = []
        for row, idx in enumerate(lat.indices()):
            vol = cg.zonotope_volume(cone_b, lat.node(idx))
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

    def _written(self, tmp_path, cone_b):
        spec = gr.GridSpec(n=2, sizes=(32, 32), box_half=8.0)
        x1, x2 = spec.coords()
        f = gr.GridFunction(spec, np.exp(-(x1**2 + x2**2)))
        lat = po.TLattice(m=3, t_min=0.5, levels=2)
        po.write_field(tmp_path / "field", po.build_field(f, cone_b, lat))
        return tmp_path / "field"

    def test_truncated_manifest_rejected(self, tmp_path, cone_b):
        path = self._written(tmp_path, cone_b)
        manifest = json.loads((path / "manifest.json").read_text())
        manifest["nodes"] = manifest["nodes"][:-1]
        (path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(BadShape, match=r"lists 7 nodes, the lattice has 8; "
                                           r"row 7: expected 't_01_01_01.tgf', found None"):
            po.read_field(path)

    def test_node_grid_mismatch_rejected(self, tmp_path, cone_b):
        path = self._written(tmp_path, cone_b)
        other = gr.GridSpec(n=2, sizes=(32, 32), box_half=4.0)
        gr.write_tgf(path / "t_00_01_00.tgf", gr.GridFunction(other, np.zeros((32, 32))))
        with pytest.raises(BadShape, match=r"t_00_01_00.tgf: expected the manifest grid "
                                           r".*box_half=8.0.*, found .*box_half=4.0"):
            po.read_field(path)
