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
only, values on the reciprocal lattice.  Grid functions (`write_tgf`)
and fields (`poisson.write_field`) share one file container, which only
`_replace_file` and `_read_file` know: a 4-byte magic, the u32
little-endian length of a JSON manifest, the manifest, and the values in
C order as (re, im) f64 pairs, `<c16`, or for real values as `<f8`, the
manifest's "dtype"; values read back in that dtype.  An interrupted
write leaves no file or a prefix of one, which `_read_file` refuses as a
truncated header, manifest or payload.  `_replace_file` replaces an
existing file instead of truncating it: ext4's auto_da_alloc (on by
default) starts writeback of a file truncated and rewritten when it is
closed, so rewriting a file in place sends every rewrite to the device,
while the pages of an unlinked file that were never written back are
dropped.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
from dataclasses import asdict, dataclass, fields

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
    if isinstance(p, (float, np.floating)) and p == np.inf:  # an array p goes to require_real
        return float(require_finite(f.values, mag.max()))
    if require_real("p", p, 0) not in (1, 2):
        raise BadShape(f"p must be 1, 2 or inf, got {p!r}")
    cell = f.spec.h ** f.spec.n
    total = np.add.reduce((mag**p).ravel())
    return float(require_finite(f.values, total) * cell) ** (1.0 / p)


# ---------------------------------------------------------------------------
# Binary files: the one container (module docstring)

_MAGIC = b"TGF3"
_LAYOUTS = {False: "<c16", True: "<f8"}  # by np.isrealobj(values)


def _check_read(size: int, got: int, what: str) -> None:
    """Refuse `what` when only `got` of its `size` bytes are there."""
    if size > got:
        raise BadShape(f"truncated {what}: expected {size} bytes, got {got}")


def _file_path(path, reading: bool):
    """`path`, if it may name the file to read (`reading`) or to write;
    else BadShape.  Only a str, bytes or os.PathLike is a path: open()
    takes an int, or a bool, for a descriptor and closes it.  A directory
    is refused, and so is a missing file to read or a missing directory
    to write into; a write replaces a symlink to a directory, as any
    symlink (`_replace_file`)."""
    if not isinstance(path, (str, bytes, os.PathLike)):
        raise BadShape(f"path must be a str, bytes or os.PathLike, got {path!r}")
    if os.path.isdir(path) and (reading or not os.path.islink(path)):
        raise BadShape(f"{path} is a directory, not a file")
    where = path if reading else os.path.dirname(os.path.abspath(path))
    if not os.path.exists(where):
        raise BadShape(f"{where} is missing")
    return path


def _lookup(data, keys, source) -> list:
    """The values of `keys` in the JSON object `data` read from `source`;
    BadShape names a `data` that is not an object, or its first key missing."""
    if not isinstance(data, dict):
        raise BadShape(f"{source} must be a JSON object, got {data!r}")
    missing = [key for key in keys if key not in data]
    if missing:
        raise BadShape(f"{source} has no key {missing[0]!r}")
    return [data[key] for key in keys]


def _load(cls, data, source):
    """A `cls`, GridSpec or poisson.TLattice, from one key of `data` per
    dataclass field (`_lookup`)."""
    return cls(*_lookup(data, [field.name for field in fields(cls)], source))


def _replace_file(path, magic: bytes, manifest: dict, values: np.ndarray) -> None:
    """Replace the file `path` by a container of `magic`, `manifest` and
    `values` (module docstring), serialising the manifest first.  A
    reader that has the old file open keeps its complete contents, and a
    symlink at `path` is replaced, not followed."""
    layout = _LAYOUTS[np.isrealobj(values)]
    header = json.dumps({**manifest, "dtype": layout}, indent=2).encode()
    _file_path(path, reading=False)
    # os.unlink, not pathlib: a Path per rewrite raised by 1.4 MiB the
    # peak RSS of a process that rewrote 27 files 800 times each
    with contextlib.suppress(FileNotFoundError):
        os.unlink(path)
    with open(path, "wb") as fh:
        fh.write(magic + len(header).to_bytes(4, "little") + header)
        fh.write(np.ascontiguousarray(values, layout))


@contextlib.contextmanager
def _read_file(path, magic: bytes):
    """Open the `_replace_file` file at `path`; yield its manifest, a
    JSON object, and `payload(shape)`, which reads the rest as values of
    `shape` and the recorded dtype.  Each size is checked against the
    file before the read or the allocation."""
    with open(_file_path(path, reading=True), "rb") as fh:
        end = os.fstat(fh.fileno()).st_size
        header = fh.read(8)
        _check_read(8, len(header), "header")
        if header[:4] != magic:
            raise BadShape(f"{path} is not a {magic.decode()} file: magic {header[:4]!r}")
        length, source = int.from_bytes(header[4:], "little"), f"{path} manifest"
        _check_read(length, end - 8, "manifest")  # a header may claim any length
        try:  # JSON keys are strings: a selector's decimal keys are read as int
            manifest = json.loads(fh.read(length), object_pairs_hook=lambda pairs: {
                int(k) if k.isdecimal() else k: v for k, v in pairs})
        except ValueError as exc:  # not UTF-8 or not JSON
            raise BadShape(f"{source} is not JSON: {exc}") from None
        (layout,) = _lookup(manifest, ["dtype"], source)
        if layout not in _LAYOUTS.values():
            raise BadShape(f"{source} dtype must be one of {[*_LAYOUTS.values()]}, "
                           f"got {layout!r}")

        def payload(shape) -> np.ndarray:
            size, left = np.dtype(layout).itemsize * math.prod(shape), end - fh.tell()
            _check_read(size, left, "payload")
            if left > size:
                raise BadShape(f"{left - size} trailing bytes after the payload")
            values = np.empty(shape, dtype=layout)
            _check_read(size, fh.readinto(values), "payload")
            return values
        yield manifest, payload


def write_tgf(path, f: GridFunction) -> None:
    """Replace the file `path` by one grid function: the container with
    magic TGF3 and the manifest {"grid": f.spec}."""
    _replace_file(path, _MAGIC, {"grid": asdict(f.spec)}, f.values)


def read_tgf(path) -> GridFunction:
    """Read a `write_tgf` file; what `_read_file` refuses raises BadShape."""
    with _read_file(path, _MAGIC) as (manifest, payload):
        spec = _load(GridSpec, *_lookup(manifest, ["grid"], f"{path} manifest"),
                     f"{path} manifest grid")
        return GridFunction(spec, payload(spec.sizes))
