"""Iterated Poisson fields over a t-lattice: one node loop, two sources
and two reducers.

The 1-d Poisson kernel along generator e_mu acts spectrally: its Fourier
symbol is exp(-2 pi t_mu |e_mu . xi|), which is exact on the reciprocal
lattice, whereas the kernel itself has no grid-aligned support on
non-axis lines.  The iterated Poisson integral over t in (R_+)^m
multiplies the m symbols.  Mixed space/scale gradients are extra
factors: 2 pi i (e_mu . xi) for the spatial choice and -2 pi |e_mu . xi|
for the d/dt choice.

The node loop `_node_spectra` alone evaluates these symbols, on a
source's frequencies, and yields each lattice node's components in
space, through the source's step back: `_grid_spectra` gives the FFT
mesh and an in-place inverse FFT, `spectral._lift_spectra` a test
function's spectrum and a direct sum.  Two reducers consume either
source node by node: `_materialize` stacks the components into a complex
field, `_magnitude_sq` sums their squares.  The loop refuses a peak past
DEFAULT_BUDGET complex elements.  For one scale t, with every t_mu = t,
pass the one-node lattice `TLattice(m, t_min=t, levels=1)`.

Sign cells: where e_mu . xi != 0 the T factor is the X factor times
i sgn(e_mu . xi), and where it is 0 both vanish.  With v_sigma the all-X
component cut to the cell {sgn(e_mu . xi) = sigma_mu for every mu}, each
component is sum_sigma c_sigma v_sigma with unimodular c_sigma that are
orthogonal over the 2^m choices, so exactly
    sum over choices |component|^2 = 2^m sum_sigma |v_sigma|^2.
At most 2 sum_{k<n} C(m-1, k) cells are nonempty on the grid (6 of 8
for the axes and the diagonal of the plane).
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
from dataclasses import dataclass

import numpy as np

from . import grid as gr
from .cone import PolyhedralCone
from .errors import (BadShape, LengthMismatch, OutOfMemoryBudget, require_finite, require_int,
                     require_real)

DEFAULT_RATIO = float(np.sqrt(2.0))
MAX_NODES = 4096
DEFAULT_BUDGET = 2**27  # complex elements at a node loop's peak

X_CHOICE = "X"
T_CHOICE = "T"


@dataclass(frozen=True)
class TLattice:
    """Finite geometric lattice in (R_+)^m with t-dt quadrature weights.

    Axis values are t_min * ratio^k, k = 0..levels-1.  The weights are the
    trapezoid rule in s = ln t, t dt = t^2 ds: t_k^2 ln(ratio) per axis,
    exponentially accurate for integrands smooth and decaying at both ends
    (Trefethen & Weideman, SIAM Rev. 2014).
    """

    m: int
    t_min: float
    levels: int
    ratio: float = DEFAULT_RATIO

    def __post_init__(self):
        for name, check, low in (("m", require_int, 1), ("levels", require_int, 1),
                                 ("t_min", require_real, 0), ("ratio", require_real, 1)):
            # stored as checked: an int64 levels**m can wrap below the cap
            object.__setattr__(self, name, check(name, getattr(self, name), low))
        if self.levels**self.m > MAX_NODES:
            raise BadShape(f"{self.levels}^{self.m} nodes exceed the cap {MAX_NODES}")

    @property
    def axis_values(self) -> np.ndarray:
        return self.t_min * self.ratio ** np.arange(self.levels)

    @property
    def axis_weights(self) -> np.ndarray:
        return self.axis_values**2 * np.log(self.ratio)

    @property
    def node_count(self) -> int:
        return self.levels**self.m

    def indices(self):
        """Lexicographic multi-indices over levels (deterministic order)."""
        return itertools.product(range(self.levels), repeat=self.m)

    def nodes(self) -> np.ndarray:
        return np.array(list(itertools.product(self.axis_values, repeat=self.m)))

    def weights(self) -> np.ndarray:
        return np.prod(list(itertools.product(self.axis_weights, repeat=self.m)), axis=1)


def default_lattice(spec: gr.GridSpec, m: int, levels: int) -> TLattice:
    """Lattice anchored at t_min = 2h: the kernel must be resolved by at
    least two samples per width."""
    return TLattice(m=m, t_min=2.0 * spec.h, levels=levels)


def poisson_decay(dots, t) -> np.ndarray:
    """Poisson symbol prod_mu exp(-2 pi t_mu |e_mu . xi|).

    `dots[mu]` holds e_mu . xi over any set of frequencies xi: the
    reciprocal lattice (`_grid_spectra`) or the nodes of a spectrum inside
    the dual cone, where |e_mu . xi| = e_mu . xi."""
    return np.exp(-2.0 * np.pi * sum(t_mu * np.abs(d) for t_mu, d in zip(t, dots)))


def _check_selector(selector: dict, m: int) -> None:
    """BadShape unless `selector` is a dict from ints in range(m) to X or T."""
    if not isinstance(selector, dict):
        raise BadShape(f"selector must be a JSON object or null, got {selector!r}")
    for key, choice in selector.items():
        if isinstance(key, bool) or not isinstance(key, (int, np.integer)) or not 0 <= key < m:
            raise BadShape(f"selector key {key!r} is not a generator index in range({m})")
        if choice not in (X_CHOICE, T_CHOICE):
            raise BadShape(f"unknown gradient choice {choice!r}")


def gradient_factor(dots, selector: dict):
    """Mixed-gradient symbol: 2 pi i (e_mu . xi) for an X choice and
    -2 pi |e_mu . xi| for a T choice, multiplied over the selected mu
    (1 for an empty selector)."""
    _check_selector(selector, len(dots))
    out = 1.0
    for mu, choice in sorted(selector.items()):
        out = out * (2j * np.pi * dots[mu] if choice == X_CHOICE
                     else -2.0 * np.pi * np.abs(dots[mu]))
    return out


@dataclass
class OperatorField:
    """u(x, t) (or a derivative of it) materialized over a t-lattice.

    Values are stored node-major in the lattice's lexicographic order;
    all nodes share one grid."""

    lattice: TLattice
    spec: gr.GridSpec
    values: np.ndarray  # (node_count, *sizes)
    selector: dict | None

    def __post_init__(self):
        expect = (self.lattice.node_count, *self.spec.sizes)
        if self.values.shape != expect:
            raise BadShape(f"field shape {self.values.shape} != {expect}")

    def node_function(self, row: int) -> gr.GridFunction:
        return gr.GridFunction(self.spec, self.values[row])


def _check_budget(frequencies: int, lattice: TLattice, spectra: int, output: float) -> None:
    """Raise OutOfMemoryBudget unless the node loop's peak fits DEFAULT_BUDGET.

    Counted in complex elements, a float64 as 1/2: the caller's `output`,
    and per frequency of the loop's input the spectrum, the `spectra`
    weighted spectra, the spectrum buffer, the per-generator dots, the
    m * levels decay tables and the decay buffer."""
    floats = lattice.m * (lattice.levels + 1) + 1
    needed = output + frequencies * (spectra + 2 + floats / 2)
    if needed > DEFAULT_BUDGET:
        raise OutOfMemoryBudget(needed, DEFAULT_BUDGET, f"{lattice.node_count} nodes x "
                                f"{frequencies} frequencies, {spectra} spectra")


def _node_spectra(dots, coeffs: np.ndarray, lattice: TLattice, selector, output: float,
                  to_space):
    """Check the lattice against the generators and the budget (`output`
    is the caller's share), then return an iterator over the lattice
    nodes in row order that yields each node's components in space
    lazily: `to_space` of `coeffs` times the decay over all m generators
    and `selector`'s factor, or for `selector` None the all-X factor cut
    by sign cell.

    `dots[mu]` holds e_mu . xi and `coeffs` the spectrum, of one shape,
    over any set of frequencies xi.  The factor is multiplied into
    `coeffs`, so pass a fresh array.  Per node a product of m decay
    tables; all spectra share one buffer, which `to_space` may overwrite,
    so consume each component before the next."""
    if lattice.m != len(dots):
        raise LengthMismatch("lattice parameter count != generator count")
    masks = [None]
    if selector is None:
        # bit mu: e_mu . xi > 0.  np.unique would import numpy.ma
        code = sum((d > 0).astype(np.intp) << mu for mu, d in enumerate(dots))
        masks = [code == c for c in np.flatnonzero(np.bincount(code.ravel()))]
        selector = dict.fromkeys(range(len(dots)), X_CHOICE)
    _check_budget(coeffs.size, lattice, len(masks), output)
    product = np.multiply(coeffs, gradient_factor(dots, selector), out=coeffs)
    weighted = [product if mask is None else product * mask for mask in masks]
    tables = [[poisson_decay([d], [v]) for v in lattice.axis_values] for d in dots]

    def nodes():
        decay = np.empty(coeffs.shape)
        spectrum = np.empty(coeffs.shape, dtype=np.complex128)
        for idx in lattice.indices():
            decay[...] = tables[0][idx[0]]
            for table, k in zip(tables[1:], idx[1:]):
                decay *= table[k]
            yield (to_space(np.multiply(w, decay, out=spectrum)) for w in weighted)
    return nodes()


def _grid_spectra(f: gr.GridFunction, cone: PolyhedralCone, lattice: TLattice,
                  selector, output: float):
    """The node loop on f's transform: spectra are unscaled and in FFT
    order, so `np.fft.ifftn` of one, taken in place, is the component in
    space (the shift identity of the `grid` module docstring).  The grid
    must have the cone's dimension, else LengthMismatch."""
    if f.spec.n != cone.n:
        raise LengthMismatch(f"grid dimension {f.spec.n} != cone dimension {cone.n}")
    require_finite(f.values, f.values.sum())
    # e_mu . xi in FFT order, from the open mesh of shifted 1-d axes
    freqs = [np.fft.ifftshift(x) for x in f.spec.freqs()]
    dots = [sum(g_k * x for g_k, x in zip(g, freqs)) for g in cone.generators]
    return _node_spectra(dots, np.fft.fftn(f.values), lattice, selector, output,
                         lambda s: np.fft.ifftn(s, out=s))


def _materialize(lattice: TLattice, spec: gr.GridSpec, selector, source, *args):
    """Stack the one component per node of `source(*args, selector,
    output)` into a complex `OperatorField` that keeps `selector`."""
    nodes = source(*args, {} if selector is None else selector, lattice.node_count * spec.npoints)
    out = np.empty((lattice.node_count, *spec.sizes), dtype=np.complex128)
    for row, (component,) in enumerate(nodes):
        out[row] = component
    # int keys: a numpy-integer key would not serialise in `write_field`
    return OperatorField(lattice=lattice, spec=spec, values=out,
                         selector={int(k): v for k, v in selector.items()} if selector
                         else None)


def _magnitude_sq(lattice: TLattice, spec: gr.GridSpec, source, *args):
    """2^m times the sum of re^2 + im^2 over the sign-cell components per
    node of `source(*args, None, output)`, through one float64 buffer: a
    float64 `OperatorField` (module docstring)."""
    nodes = source(*args, None, (lattice.node_count + 1) * spec.npoints / 2)
    out = np.zeros((lattice.node_count, *spec.sizes))
    square = np.empty(spec.sizes)
    for row, components in enumerate(nodes):
        for component in components:
            out[row] += np.square(component.real, out=square)
            out[row] += np.square(component.imag, out=square)
    out *= 2.0**lattice.m
    return OperatorField(lattice=lattice, spec=spec, values=out, selector=None)


def build_field(f: gr.GridFunction, cone: PolyhedralCone, lattice: TLattice,
                selector: dict | None = None) -> OperatorField:
    """Materialize the (optionally differentiated) Poisson field at
    every lattice node.  One forward transform; one inverse per node.

    `selector` maps generator indices in range(cone.m) to X_CHOICE or
    T_CHOICE; the field is then that mixed derivative."""
    return _materialize(lattice, f.spec, selector, _grid_spectra, f, cone, lattice)


def gradient_magnitude_sq_field(f: gr.GridFunction, cone: PolyhedralCone,
                                lattice: TLattice) -> OperatorField:
    """Sum over all 2^m mixed-gradient components of |component|^2.

    This is the scalar integrand of the area and g functions.  The field
    is real (float64), one transform per nonempty sign cell and node
    (module docstring)."""
    return _magnitude_sq(lattice, f.spec, _grid_spectra, f, cone, lattice)


# ---------------------------------------------------------------------------
# Field persistence: a `manifest.json` holding the lattice, the grid and the
# selector, and one TGF2 file per node, named by `field_node_name` from the
# node's multi-index.  The node names follow from the lattice, so the
# manifest does not list them; a `nodes` key written by older versions is
# ignored.

def field_node_name(idx) -> str:
    return "t_" + "_".join(f"{k:02d}" for k in idx) + ".tgf"


def write_field(dirpath, fld: OperatorField) -> None:
    """One TGF2 file per node and a `manifest.json`; node files of an
    earlier field in `dirpath` that this lattice does not write are
    removed, and no other file.

    The manifest is serialised before any file is touched, the old one
    removed before the first node file and the new one written last: an
    interrupted write leaves no manifest, never an old one over new
    nodes."""
    names = [field_node_name(idx) for idx in fld.lattice.indices()]
    manifest = json.dumps({
        "m": fld.lattice.m,
        "t_min": fld.lattice.t_min,
        "ratio": fld.lattice.ratio,
        "levels": fld.lattice.levels,
        "selector": fld.selector,
        "grid": {
            "n": fld.spec.n,
            "sizes": list(fld.spec.sizes),
            "box_half": fld.spec.box_half,
        },
    }, indent=2)
    try:
        # one read of an existing directory names the stale node files
        found = os.listdir(dirpath)
    except FileNotFoundError:
        os.makedirs(dirpath, exist_ok=True)
        found = []
    path = os.path.join(dirpath, "manifest.json")
    with contextlib.suppress(FileNotFoundError):
        os.unlink(path)
    for name in set(found).difference(names):
        if name.startswith("t_") and name.endswith(".tgf"):
            os.unlink(os.path.join(dirpath, name))
    for row, name in enumerate(names):
        gr.write_tgf(os.path.join(dirpath, name), fld.node_function(row))
    gr._replace_file(path, manifest.encode())


def _lookup_keys(data: dict, keys, source) -> list:
    """The values of `keys` in `data`, which was read from `source`;
    BadShape unless `data` is a JSON object, and names the first key
    missing."""
    if not isinstance(data, dict):
        raise BadShape(f"{source} must be a JSON object, got {data!r}")
    missing = [key for key in keys if key not in data]
    if missing:
        raise BadShape(f"{source} has no key {missing[0]!r}")
    return [data[key] for key in keys]


def read_field(dirpath) -> OperatorField:
    path = os.path.join(dirpath, "manifest.json")
    try:
        with open(path) as fh:
            # JSON keys are strings: the selector's decimal keys are read as int
            manifest = json.load(fh, object_pairs_hook=lambda pairs: {
                int(k) if k.isdecimal() else k: v for k, v in pairs})
    except FileNotFoundError:
        raise BadShape(f"{path} is missing: no field, or an interrupted write") from None
    m, t_min, ratio, levels, selector, grid = _lookup_keys(
        manifest, ("m", "t_min", "ratio", "levels", "selector", "grid"), path)
    lattice = TLattice(m=m, t_min=t_min, ratio=ratio, levels=levels)
    n, sizes, box_half = _lookup_keys(grid, ("n", "sizes", "box_half"), f"{path} grid")
    spec = gr.GridSpec(n=n, sizes=sizes, box_half=box_half)
    values = np.empty((lattice.node_count, *spec.sizes), dtype=np.complex128)
    for row, name in enumerate(map(field_node_name, lattice.indices())):
        node_path = os.path.join(dirpath, name)
        try:
            node = gr.read_tgf(node_path)
        except FileNotFoundError:
            raise BadShape(f"{node_path} is missing: the lattice has it") from None
        if node.spec != spec:
            raise BadShape(f"{name}: expected the manifest grid {spec}, found {node.spec}")
        values[row] = node.values
    if selector is not None:
        _check_selector(selector, m)
    return OperatorField(lattice=lattice, spec=spec, values=values,
                         selector=selector)
