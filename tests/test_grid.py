import math
import struct

import numpy as np
import pytest

from tubeharm import grid as gr
from tubeharm.errors import BadShape, NonFiniteValues


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

    def test_rejects_float_dimension(self):
        # 2.0 used to pass and fail later in write_tgf's struct format
        with pytest.raises(BadShape, match="n must be an integer >= 1, got 2.0"):
            gr.GridSpec(n=2.0, sizes=(16, 16), box_half=1.0)

    def test_rejects_float_sizes(self):
        # 16.0 used to reach a bare TypeError from the power-of-two test
        with pytest.raises(BadShape, match=r"integer powers of two, at least 16, "
                                           r"got \(16\.0, 16\.0\)"):
            gr.GridSpec(n=2, sizes=(16.0, 16.0), box_half=1.0)

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("box_half", [0.0, -1.0, np.nan, np.inf])
    def test_rejects_bad_box(self, n, box_half):
        with pytest.raises(BadShape, match=f"box_half must be finite and positive, got {box_half}"):
            gr.GridSpec(n=n, sizes=(16,) * n, box_half=box_half)

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


class TestMultiplier:
    def test_axis_poisson_vs_trapezoid(self, line_cone, poisson_at):
        # 1-d sanity: the symbol e^{-2 pi t |xi|}, applied by the Poisson
        # node loop, vs direct spatial convolution with the truncated
        # kernel.  The box must be wide: wraparound from the quadratic
        # kernel tails scales like t/L^2.
        spec = gr.GridSpec(n=1, sizes=(2048,), box_half=64.0)
        (x,) = spec.coords()
        f = gr.GridFunction(spec, np.exp(-(x**2)))
        t = 0.5
        out = poisson_at(f, line_cone, t)
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

    @staticmethod
    def _wide_range(sizes, seed):
        """Samples whose moduli span about ten decades, on a grid of
        `sizes` with h = 1."""
        rng = np.random.default_rng(seed)
        size = math.prod(sizes)
        vals = rng.lognormal(sigma=4.0, size=size) * np.exp(2j * np.pi * rng.random(size))
        spec = gr.GridSpec(n=len(sizes), sizes=sizes, box_half=sizes[0] / 2)
        return gr.GridFunction(spec, vals.reshape(sizes))

    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("sizes, other", [((64, 64), (16, 16, 16)),
                                              ((512, 512), (64, 64, 64))])
    def test_bit_stable_under_reshaping(self, sizes, other, p):
        # the sum runs over the samples in C order, so the same samples on
        # a grid of another shape with the same cell h^n = 1 give the same
        # bits
        f = self._wide_range(sizes, 8)
        g = self._wide_range(other, 8)
        assert np.array_equal(f.values.ravel(), g.values.ravel())
        assert gr.lp_norm(f, p) == gr.lp_norm(g, p)

    @pytest.mark.parametrize("sizes", [(64, 64), (512, 512)])
    @pytest.mark.parametrize("p", [1, 2])
    def test_matches_fsum(self, sizes, p):
        # numpy's pairwise sum adds leaves of 128 terms in 8 running sums,
        # so the relative error of a sum of N positive terms is at most
        # (16 + log2 N) eps; a running sum misses this at 512^2 and p = 2
        # (about 900 eps on these samples)
        f = self._wide_range(sizes, 9)
        want = math.fsum(np.abs(f.values).ravel() ** p) ** (1.0 / p)
        bound = (16 + math.log2(f.spec.npoints)) * np.finfo(float).eps
        assert abs(gr.lp_norm(f, p) - want) <= bound * want


def directional_fd_stencil(f: gr.GridFunction, v, order: int = 1) -> np.ndarray:
    """Finite-difference oracle for derivatives along v: central
    differences combined along axis projections, second order in h."""
    v = np.asarray(v, dtype=float)
    h = f.spec.h

    def central(vals, a):
        return (np.roll(vals, -1, axis=a) - np.roll(vals, 1, axis=a)) / (2 * h)

    vals = f.values
    if order == 1:
        return sum(v[a] * central(vals, a) for a in range(f.spec.n))
    out = np.zeros_like(vals)
    for a in range(f.spec.n):
        for b in range(f.spec.n):
            if a == b:
                second = (np.roll(vals, -1, axis=a) - 2 * vals
                          + np.roll(vals, 1, axis=a)) / h**2
            else:
                second = central(central(vals, a), b)
            out += v[a] * v[b] * second
    return out


class TestDirectionalDerivative:
    # the spectral derivative is the X choice of the Poisson node loop at
    # t = h/100, where the field is f to 1e-3

    def test_second_order_vs_stencil(self, cone_b, poisson_at):
        # two X passes along the diagonal generator e_2 at t/2 each
        spec = gr.GridSpec(n=2, sizes=(128,) * 2, box_half=8.0)
        x1, x2 = spec.coords()
        f = gr.GridFunction(spec, np.exp(-(x1**2 + x2**2)))
        t, sel = spec.h / 100, {2: "X"}
        spectral = poisson_at(poisson_at(f, cone_b, t / 2, sel), cone_b, t / 2, sel).values
        stencil = directional_fd_stencil(poisson_at(f, cone_b, t), cone_b.generators[2], order=2)
        err = np.max(np.abs(spectral - stencil))
        # stencil is O(h^2); h = 0.125
        assert err < 0.5 * spec.h**2 * np.max(np.abs(spectral)) * 10

    def test_stencil_order_of_accuracy(self, line_cone, poisson_at):
        errs = []
        for size in (64, 128):
            spec = gr.GridSpec(n=1, sizes=(size,), box_half=8.0)
            (x,) = spec.coords()
            f = gr.GridFunction(spec, np.exp(-(x**2)))
            t = spec.h / 100
            spectral = poisson_at(f, line_cone, t, {0: "X"}).values
            stencil = directional_fd_stencil(poisson_at(f, line_cone, t), [1.0], order=1)
            errs.append(np.max(np.abs(spectral - stencil)))
        rate = np.log2(errs[0] / errs[1])
        assert rate > 1.8


class TestIO:
    def test_tgf_round_trip(self, tmp_path, spec2d):
        f = random_grid(spec2d, 8)
        path = tmp_path / "f.tgf"
        gr.write_tgf(path, f)
        back = gr.read_tgf(path)
        assert back.spec == f.spec
        assert np.array_equal(back.values, f.values)
        assert back.values.flags.writeable

    def test_tgf_header_layout(self, tmp_path, spec1d):
        f = gr.GridFunction(spec1d, np.zeros(spec1d.sizes))
        path = tmp_path / "g.tgf"
        gr.write_tgf(path, f)
        raw = path.read_bytes()
        assert raw[:4] == b"TGF2"
        assert int.from_bytes(raw[4:8], "little") == 1
        assert int.from_bytes(raw[8:12], "little") == 256
        assert np.frombuffer(raw[12:20], dtype="<f8")[0] == spec1d.box_half
        assert len(raw) == 20 + 16 * 256

    def test_tgf_box_half_stored_once(self, tmp_path):
        # TGF1 wrote one box_half per axis and read back only the first
        spec = gr.GridSpec(n=2, sizes=(16, 16), box_half=4.0)
        path = tmp_path / "f.tgf"
        gr.write_tgf(path, gr.GridFunction(spec, np.zeros(spec.sizes)))
        raw = path.read_bytes()
        assert np.frombuffer(raw[16:24], dtype="<f8")[0] == 4.0
        assert len(raw) == 24 + 16 * spec.npoints

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
        with pytest.raises(BadShape, match="not a TGF2 file: magic b'TGFH'"):
            gr.read_tgf(path)

    def test_truncated_payload(self, tmp_path, spec1d):
        path = tmp_path / "f.tgf"
        gr.write_tgf(path, random_grid(spec1d, 11))
        path.write_bytes(path.read_bytes()[:-5])
        expected = 16 * spec1d.sizes[0]
        message = f"expected {expected} bytes, got {expected - 5}"
        with pytest.raises(BadShape, match=message):
            gr.read_tgf(path)

    @pytest.mark.parametrize("sizes", [(2**31, 2**31), (2**16, 2**16), (2**31,) * 3])
    def test_payload_past_the_file_refused(self, tmp_path, sizes):
        # a header is refused before its payload is read: (2^31, 2^31) used
        # to raise OverflowError, (2^16, 2^16) MemoryError, and (2^31,) * 3
        # wrapped to an empty payload in int64
        path = tmp_path / "f.tgf"
        header = struct.pack(f"<I{len(sizes)}Id", len(sizes), *sizes, 8.0)
        path.write_bytes(b"TGF2" + header + bytes(48))
        message = f"truncated payload: expected {16 * math.prod(sizes)} bytes, got 48$"
        with pytest.raises(BadShape, match=message):
            gr.read_tgf(path)

    def test_trailing_bytes_rejected(self, tmp_path, spec1d):
        # 7 appended bytes used to read back without error
        path = tmp_path / "f.tgf"
        gr.write_tgf(path, random_grid(spec1d, 12))
        path.write_bytes(path.read_bytes() + bytes(7))
        with pytest.raises(BadShape, match="7 trailing bytes after the payload"):
            gr.read_tgf(path)

    def test_open_reader_keeps_the_old_file(self, tmp_path, spec1d):
        # a rewrite used to truncate the file under a reader that had it
        # open, which then read the new payload
        path = tmp_path / "f.tgf"
        gr.write_tgf(path, random_grid(spec1d, 14))
        old = path.read_bytes()
        new = random_grid(spec1d, 15)
        with open(path, "rb") as fh:
            gr.write_tgf(path, new)
            assert fh.read() == old
        assert np.array_equal(gr.read_tgf(path).values, new.values)

    def test_rewrite_with_a_smaller_grid(self, tmp_path, spec1d, spec2d):
        path = tmp_path / "f.tgf"
        gr.write_tgf(path, random_grid(spec2d, 16))
        small = random_grid(spec1d, 17)
        gr.write_tgf(path, small)
        gr.write_tgf(tmp_path / "fresh.tgf", small)
        assert path.read_bytes() == (tmp_path / "fresh.tgf").read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["f.tgf", "fresh.tgf"]
