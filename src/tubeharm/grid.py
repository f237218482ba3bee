"""Uniform periodic grids on [-L, L)^n and their Fourier calculus.

Samples live at x_j = -L + j*h with h = 2L/size; frequencies on the
reciprocal lattice k/(2L) for k in [-size/2, size/2).  The forward
transform approximates the continuous integral with the e^{-2 pi i x.xi}
convention (Riemann sum, factor h^n); the inverse carries (1/(2L))^n per
axis, so the round trip is the identity.

A Fourier symbol M is applied on the grid with neither centring shift
nor h^n factor.  The centred transforms are S fftn(S f) h^n and
S ifftn(S g) / h^n, S the roll by size/2 on every axis.  Sizes are even,
so S is its own inverse and fftn(S f) = (-1)^k fftn(f),
ifftn((-1)^k g) = S ifftn(g) for the frequency index k; hence, exactly in
real arithmetic,

    fourier_inverse(M * fourier_forward(f)) = ifftn(fftn(f) * S M),

with S M = `np.fft.ifftshift(M)`, the symbol in FFT order.

One type, `GridFunction`, holds grid samples and, from `fourier_forward`
only, values on the reciprocal lattice; a TGF2 file stores one.  Files
are written by `_replace_file`, which replaces an existing file instead
of truncating it: ext4's auto_da_alloc (on by default) starts writeback
of a file truncated and rewritten when it is closed, so rewriting a file
in place sends every rewrite to the device, while the pages of an
unlinked file that were never written back are dropped.
"""

from __future__ import annotations

import contextlib
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import BadShape, numeric, require_finite, require_int, require_real


@dataclass(frozen=True)
class GridSpec:
    n: int
    sizes: tuple
    box_half: float

    def __post_init__(self):
        n = require_int("n", self.n, 1)
        if not isinstance(self.sizes, (tuple, list)):
            raise BadShape(f"sizes must be a sequence, got {self.sizes!r}")
        sizes = tuple(self.sizes)
        if len(sizes) != n or not all(isinstance(s, (int, np.integer)) and s >= 16
                                      and s & (s - 1) == 0 for s in sizes):
            raise BadShape(f"sizes must be integer powers of two, at least 16, "
                           f"got {sizes} for n = {n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "sizes", tuple(map(int, sizes)))  # also from a JSON list
        object.__setattr__(self, "box_half", require_real("box_half", self.box_half, 0))
        # isotropic grid: every axis shares one spacing
        spacings = {2.0 * self.box_half / s for s in self.sizes}
        if len(spacings) != 1:
            raise BadShape("all axes must share one spacing h")

    @property
    def h(self) -> float:
        return 2.0 * self.box_half / self.sizes[0]

    def axis_coords(self, axis: int) -> np.ndarray:
        return -self.box_half + self.h * np.arange(self.sizes[axis])

    def coords(self) -> list:
        """Per-axis spatial coordinates (open meshgrid)."""
        axes = [self.axis_coords(a) for a in range(self.n)]
        return list(np.meshgrid(*axes, indexing="ij", sparse=True))

    def freq_axis(self, axis: int) -> np.ndarray:
        size = self.sizes[axis]
        return np.arange(-size // 2, size // 2) / (2.0 * self.box_half)

    def freqs(self) -> list:
        axes = [self.freq_axis(a) for a in range(self.n)]
        return list(np.meshgrid(*axes, indexing="ij", sparse=True))

    @property
    def npoints(self) -> int:
        return int(math.prod(self.sizes))


@dataclass
class GridFunction:
    spec: GridSpec
    values: np.ndarray  # complex, shape == spec.sizes

    def __post_init__(self):
        self.values = numeric("values", self.values, np.complex128, self.spec.sizes)


def fourier_forward(f: GridFunction) -> GridFunction:
    """Centred transform; the values returned lie on `f.spec.freqs()`."""
    vals = np.fft.fftshift(np.fft.fftn(np.fft.ifftshift(f.values)))
    vals *= f.spec.h ** f.spec.n
    return GridFunction(f.spec, vals)


def fourier_inverse(fhat: GridFunction) -> GridFunction:
    """Inverse of `fourier_forward`: values on `spec.freqs()` to samples."""
    vals = np.fft.fftshift(np.fft.ifftn(np.fft.ifftshift(fhat.values)))
    vals /= fhat.spec.h ** fhat.spec.n
    return GridFunction(fhat.spec, vals)


def lp_norm(f: GridFunction, p) -> float:
    """Discretized L^p norm: (h^n sum |f|^p)^(1/p); p = inf gives sup|f|.

    The sum is numpy's pairwise sum of |f|^p in C order, so it depends on
    the samples alone, not on the grid's shape, and its error is
    O(eps log N) of the sum (Higham, SIAM J. Sci. Comput. 14, 1993)."""
    mag = np.abs(f.values)
    if p == np.inf:
        return float(require_finite(f.values, mag.max()))
    if require_real("p", p, 0) not in (1, 2):
        raise BadShape(f"p must be 1, 2 or inf, got {p!r}")
    cell = f.spec.h ** f.spec.n
    total = np.add.reduce((mag**p).ravel())
    return float(require_finite(f.values, total) * cell) ** (1.0 / p)


# ---------------------------------------------------------------------------
# TGF2 binary container

_MAGIC = b"TGF2"
_PAYLOAD = "<c16"  # little-endian (re, im) f64 pairs


def _check_read(size: int, got: int, what: str) -> None:
    """Refuse `what` when only `got` of its `size` bytes are there."""
    if size > got:
        raise BadShape(f"truncated {what}: expected {size} bytes, got {got}")


def _read_exact(fh, end: int, size: int, what: str) -> bytes:
    """`size` bytes of `fh`, refused before the read when the file, `end`
    bytes long, has fewer left: a header may claim a payload of any size."""
    _check_read(size, end - fh.tell(), what)
    return fh.read(size)


def _replace_file(path, *buffers) -> None:
    """Write `buffers` (bytes or C-contiguous arrays, each as its own
    memory) to a new file at `path`.

    An existing file is unlinked first, not truncated (module docstring);
    a reader that has it open keeps the old, complete contents, and a
    symlink at `path` is replaced, not followed."""
    # os.unlink, not pathlib: a Path per rewrite raised by 1.4 MiB the
    # peak RSS of a process that rewrote 27 files 800 times each
    with contextlib.suppress(FileNotFoundError):
        os.unlink(path)
    with open(path, "wb") as fh:
        for buf in buffers:
            fh.write(buf)


def write_tgf(path, f: GridFunction) -> None:
    """Scalar grid container: magic, u32 n, n u32 sizes, one f64
    box_half, then the values row-major as little-endian (re, im) f64
    pairs.  A file at `path` is replaced, not rewritten in place."""
    spec = f.spec
    header = _MAGIC + struct.pack(f"<I{spec.n}Id", spec.n, *spec.sizes, spec.box_half)
    _replace_file(path, header, np.ascontiguousarray(f.values, dtype=_PAYLOAD))


def read_tgf(path) -> GridFunction:
    """Read a `write_tgf` file; bytes past the payload are refused."""
    with open(path, "rb") as fh:
        end = os.fstat(fh.fileno()).st_size
        found = fh.read(4)
        if found != _MAGIC:
            raise BadShape(f"not a {_MAGIC.decode()} file: magic {found!r}")
        (n,) = struct.unpack("<I", _read_exact(fh, end, 4, "header"))
        fmt = f"<{n}Id"
        *sizes, box_half = struct.unpack(fmt, _read_exact(fh, end, struct.calcsize(fmt),
                                                          "header"))
        spec = GridSpec(n=n, sizes=sizes, box_half=box_half)
        size, left = 16 * spec.npoints, end - fh.tell()
        _check_read(size, left, "payload")
        if left > size:
            raise BadShape(f"{left - size} trailing bytes after the payload")
        values = np.empty(spec.sizes, dtype=_PAYLOAD)
        _check_read(size, fh.readinto(values), "payload")
        return GridFunction(spec, values)
