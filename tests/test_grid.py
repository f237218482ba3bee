import numpy as np
import pytest

from tubeharm import grid as gr
from tubeharm.errors import BadShape, NonFiniteValues, ShapeMismatch


@pytest.fixture
def spec2d():
    return gr.GridSpec(n=2, sizes=(64, 64), box_half=8.0)


@pytest.fixture
def spec1d():
    return gr.GridSpec(n=1, sizes=(256,), box_half=16.0)


def random_grid(spec, seed=0):
    rng = np.random.default_rng(seed)
    vals = rng.normal(size=spec.sizes) + 1j * rng.normal(size=spec.sizes)
    return gr.GridFunction(spec, vals)


class TestSpec:
    def test_spacing(self, spec2d):
        assert spec2d.h == 0.25

    def test_rejects_non_power_of_two(self):
        with pytest.raises(BadShape):
            gr.GridSpec(n=1, sizes=(100,), box_half=1.0)

    def test_rejects_anisotropic(self):
        with pytest.raises(BadShape):
            gr.GridSpec(n=2, sizes=(64, 128), box_half=8.0)

    def test_coords_cover_box(self, spec2d):
        x = spec2d.axis_coords(0)
        assert x[0] == -8.0 and np.isclose(x[-1], 8.0 - spec2d.h)

    def test_freqs(self, spec2d):
        xi = spec2d.freq_axis(0)
        assert np.isclose(xi[0], -2.0) and np.isclose(xi[-1], 2.0 - 1 / 16)


class TestFourier:
    def test_constant_to_delta(self, spec2d):
        f = gr.GridFunction(spec2d, np.ones(spec2d.sizes))
        fhat = gr.fourier_forward(f)
        k0 = spec2d.sizes[0] // 2
        mass = (2 * spec2d.box_half) ** 2
        assert np.isclose(fhat.values[k0, k0], mass)
        rest = fhat.values.copy()
        rest[k0, k0] = 0.0
        assert np.max(np.abs(rest)) < 1e-10 * mass

    def test_round_trip(self, spec2d):
        f = random_grid(spec2d, 1)
        back = gr.fourier_inverse(gr.fourier_forward(f))
        assert np.max(np.abs(back.values - f.values)) < 1e-12

    def test_self_dual_gaussian(self):
        spec = gr.GridSpec(n=2, sizes=(128,) * 2, box_half=8.0)
        x1, x2 = spec.coords()
        f = gr.GridFunction(spec, np.exp(-np.pi * (x1**2 + x2**2)))
        fhat = gr.fourier_forward(f)
        w1, w2 = spec.freqs()
        want = np.exp(-np.pi * (w1**2 + w2**2))
        assert np.max(np.abs(fhat.values - want)) < 1e-8

    def test_parseval(self, spec2d):
        f = random_grid(spec2d, 2)
        fhat = gr.fourier_forward(f)
        space = gr.lp_norm(f, 2) ** 2
        freq = np.sum(np.abs(fhat.values) ** 2) / (2 * spec2d.box_half) ** 2
        assert abs(space - freq) < 1e-10 * space

    def test_domain_tags_enforced(self, spec2d):
        f = random_grid(spec2d)
        with pytest.raises(ShapeMismatch):
            gr.fourier_inverse(f)
        with pytest.raises(ShapeMismatch):
            gr.fourier_forward(gr.fourier_forward(f))


class TestMultiplier:
    def test_identity(self, spec2d):
        f = random_grid(spec2d, 3)
        out = gr.apply_multiplier(f, np.ones(1))
        assert np.max(np.abs(out.values - f.values)) < 1e-12

    def test_commutes(self, spec2d):
        f = random_grid(spec2d, 4)
        x1, x2 = spec2d.freqs()
        m1 = np.exp(-(x1**2 + 0 * x2))
        m2 = 1.0 / (1.0 + x1**2 + x2**2)
        a = gr.apply_multiplier(gr.apply_multiplier(f, m1), m2)
        b = gr.apply_multiplier(gr.apply_multiplier(f, m2), m1)
        assert np.max(np.abs(a.values - b.values)) < 1e-12

    def test_product_equals_composition(self, spec2d):
        f = random_grid(spec2d, 5)
        x1, x2 = spec2d.freqs()
        m1 = np.exp(-np.abs(x1) - 0 * x2)
        m2 = np.cos(x2) + 0 * x1
        ab = gr.apply_multiplier(f, m1 * m2)
        chain = gr.apply_multiplier(gr.apply_multiplier(f, m2), m1)
        assert np.max(np.abs(ab.values - chain.values)) < 1e-12

    @pytest.mark.parametrize("n", [1, 2])
    def test_matches_centred_definition(self, n):
        # an odd, non-symmetric multiplier: an even one such as the
        # Poisson decay would hide a frequency-ordering error; h = 3/8
        # is not a power of two, so the dropped h^n factors show too
        spec = gr.GridSpec(n=n, sizes=(32,) * n, box_half=6.0)
        f = random_grid(spec, 8)
        xi = spec.freqs()
        mult = 2j * np.pi * sum(c * x for c, x in zip((1.0, 0.3), xi)) + xi[0] ** 2
        want = gr.fourier_forward(f)
        want.values *= mult
        want = gr.fourier_inverse(want).values
        got = gr.apply_multiplier(f, mult).values
        assert np.max(np.abs(got - want)) < 1e-13 * np.max(np.abs(want))

    def test_frequency_input_rejected(self, spec2d):
        with pytest.raises(ShapeMismatch):
            gr.apply_multiplier(gr.fourier_forward(random_grid(spec2d)), np.ones(1))

    def test_axis_poisson_vs_trapezoid(self):
        # 1-d sanity: multiplier e^{-2 pi t |xi|} vs direct spatial
        # convolution with the truncated kernel.  The box must be wide:
        # wraparound from the quadratic kernel tails scales like t/L^2.
        spec = gr.GridSpec(n=1, sizes=(2048,), box_half=64.0)
        (x,) = spec.coords()
        f = gr.GridFunction(spec, np.exp(-(x**2)))
        t = 0.5
        (xi,) = spec.freqs()
        out = gr.apply_multiplier(f, np.exp(-2 * np.pi * t * np.abs(xi)))
        s = np.linspace(-200, 200, 400001)
        kernel = t / (np.pi * (t**2 + s**2))
        xs = spec.axis_coords(0)
        interior = (np.abs(xs) < 4.0).nonzero()[0]
        for idx in interior[:: len(interior) // 16]:
            direct = np.trapezoid(np.exp(-((xs[idx] - s) ** 2)) * kernel, s)
            assert abs(out.values[idx].real - direct) < 1e-4


class TestNorms:
    def test_constant_l1(self, spec2d):
        f = gr.GridFunction(spec2d, np.full(spec2d.sizes, 2.5))
        want = 2.5 * (2 * spec2d.box_half) ** 2
        assert abs(gr.lp_norm(f, 1) - want) < 1e-10 * want

    def test_sup(self, spec2d):
        f = random_grid(spec2d, 6)
        assert gr.lp_norm(f, np.inf) == np.max(np.abs(f.values))

    @pytest.mark.parametrize("p", [1, 2, np.inf])
    def test_nonfinite_rejected(self, spec2d, p):
        f = random_grid(spec2d, 7)
        f.values[3, 5] = np.nan
        f.values[10, 0] = np.inf
        f.values[11, 1] = complex(0.0, -np.inf)
        with pytest.raises(NonFiniteValues, match="3 of 4096 samples") as err:
            gr.lp_norm(f, p)
        assert err.value.count == 3


class TestDirectionalDerivative:
    def test_axis_sine(self):
        spec = gr.GridSpec(n=2, sizes=(128,) * 2, box_half=8.0)
        L = spec.box_half
        x1, _ = spec.coords()
        f = gr.GridFunction(spec, np.sin(2 * np.pi * x1 / L) * np.ones(spec.sizes))
        d = gr.directional_fd(f, [1.0, 0.0], order=1)
        want = (2 * np.pi / L) * np.cos(2 * np.pi * x1 / L) * np.ones(spec.sizes)
        assert np.max(np.abs(d.values - want)) < 1e-8

    def test_matches_axis_multiplier(self, spec2d):
        f = random_grid(spec2d, 7)
        d = gr.directional_fd(f, [0.0, 1.0], order=1)
        x1, x2 = spec2d.freqs()
        ref = gr.apply_multiplier(f, 2j * np.pi * x2 + 0 * x1)
        assert np.array_equal(d.values, ref.values)

    def test_second_order_vs_stencil(self):
        spec = gr.GridSpec(n=2, sizes=(128,) * 2, box_half=8.0)
        x1, x2 = spec.coords()
        bump = np.exp(-(x1**2 + x2**2))
        f = gr.GridFunction(spec, bump)
        v = np.array([np.sqrt(0.5), np.sqrt(0.5)])
        spectral = gr.directional_fd(f, v, order=2)
        stencil = gr.directional_fd_stencil(f, v, order=2)
        err = np.max(np.abs(spectral.values - stencil.values))
        # stencil is O(h^2); h = 0.125
        assert err < 0.5 * spec.h**2 * np.max(np.abs(spectral.values)) * 10

    def test_stencil_order_of_accuracy(self):
        errs = []
        for size in (64, 128):
            spec = gr.GridSpec(n=1, sizes=(size,), box_half=8.0)
            (x,) = spec.coords()
            f = gr.GridFunction(spec, np.exp(-(x**2)))
            spectral = gr.directional_fd(f, [1.0], order=1)
            stencil = gr.directional_fd_stencil(f, [1.0], order=1)
            errs.append(np.max(np.abs(spectral.values - stencil.values)))
        rate = np.log2(errs[0] / errs[1])
        assert rate > 1.8


class TestIO:
    def test_tgf_round_trip(self, tmp_path, spec2d):
        f = random_grid(spec2d, 8)
        path = tmp_path / "f.tgf"
        gr.write_tgf(path, f)
        back = gr.read_tgf(path)
        assert back.spec == f.spec
        assert back.domain_tag == f.domain_tag
        assert np.array_equal(back.values, f.values)
        assert back.values.flags.writeable

    def test_tgf_header_layout(self, tmp_path, spec1d):
        f = gr.GridFunction(spec1d, np.zeros(spec1d.sizes))
        path = tmp_path / "g.tgf"
        gr.write_tgf(path, f)
        raw = path.read_bytes()
        assert raw[:4] == b"TGF1"
        assert int.from_bytes(raw[4:8], "little") == 1
        assert int.from_bytes(raw[8:12], "little") == 256

    def test_payload_is_interleaved_f64_pairs(self, tmp_path, spec1d):
        f = random_grid(spec1d, 10)
        path = tmp_path / "f.tgf"
        gr.write_tgf(path, f)
        pairs = np.empty(2 * spec1d.sizes[0], dtype="<f8")
        pairs[0::2], pairs[1::2] = f.values.real, f.values.imag
        assert path.read_bytes()[-pairs.nbytes:] == pairs.tobytes()

    def test_wrong_magic_rejected(self, tmp_path, spec1d):
        path = tmp_path / "f.tgf"
        gr.write_tgf(path, random_grid(spec1d, 13))
        path.write_bytes(b"TGFH" + path.read_bytes()[4:])
        with pytest.raises(BadShape, match="not a TGF1 file: magic b'TGFH'"):
            gr.read_tgf(path)

    def test_truncated_payload(self, tmp_path, spec1d):
        path = tmp_path / "f.tgf"
        gr.write_tgf(path, random_grid(spec1d, 11))
        path.write_bytes(path.read_bytes()[:-5])
        expected = 16 * spec1d.sizes[0]
        message = f"expected {expected} bytes, got {expected - 5}"
        with pytest.raises(BadShape, match=message):
            gr.read_tgf(path)

    def test_unknown_domain_tag(self, tmp_path, spec1d):
        path = tmp_path / "f.tgf"
        gr.write_tgf(path, random_grid(spec1d, 12))
        raw = bytearray(path.read_bytes())
        raw[4 + 4 + 4 + 8] = 7  # magic, n, one size, one box_half, then the tag
        path.write_bytes(bytes(raw))
        with pytest.raises(BadShape, match="unknown domain tag code 7"):
            gr.read_tgf(path)
