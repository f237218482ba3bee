"""Holomorphic test functions from dual-cone spectra.

A quadrature-discretized smooth bump psi supported inside the dual cone
defines F(z) = sum_k w_k psi_k exp(2 pi i z . xi_k), a genuine
holomorphic function on the tube domain: every term is an exponential
with frequency in the dual cone, so the continuous reproducing identity
holds exactly for F.  Its nodes are the second source of `poisson`'s node
loop, with `_contract` as the step to space: the lifts are the FFT path's
two reducers over that source, and `hardy_norm` takes the L^p norm of
each node's component.  Two conditions bound what F is good for:

- F is a finite sum of exponentials, so it stands for the integral of
  psi only inside its revival radius: with Delta the largest gap between
  adjacent node coordinates on an axis, F revives near |x_a| = 1/Delta.
  Every evaluation is refused with `QuadratureRevival` once the reach
  (the box half-width, or max |Re z_a|) times Delta passes
  REVIVAL_LIMIT.
- The FFT path (`poisson.build_field` on `boundary_grid`) reproduces the
  lift exactly only for spectra on the reciprocal lattice k/(2L) of the
  grid; any other spectrum is not periodic on the box and leaks.  That
  leakage is not detected here.

Grid sums are sum-factorized (Orszag 1980): with U_a the distinct node
coordinates on axis a, the coefficients are scattered onto a core of
prod_a U_a entries and contracted one axis at a time, which costs
U_0 U_1 size_0 + U_1 size_0 size_1 complex multiply-adds in 2-d instead of
K size_0 size_1.  Each axis is one GEMM, in axis order, on the core seen
as (done, U_a, rest): done is the product of the sizes of the axes
already contracted, rest that of the U of the axes still to go.  For
a < n - 1 the transposed phase matrix multiplies each (U_a, rest) slab;
the last GEMM multiplies the (done, U_{n-1}) core by the last phase
matrix, straight into the caller's grid buffer.  A tensor spectrum such
as `make_bump_psi`'s has a core no larger than its tensor grid (576
entries for the K = 312 nodes of the default 2-d bump); a core past
`poisson.DEFAULT_BUDGET` (a scattered spectrum reaches K^n) is refused
with `OutOfMemoryBudget`.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import grid as gr
from . import poisson as po
from .cone import DualCone, PolyhedralCone
from .errors import (BadShape, LengthMismatch, OutOfMemoryBudget, QuadratureRevival,
                     SupportEscapesDualCone, require_finite)
from .poisson import OperatorField, TLattice

DEFAULT_NODES_PER_AXIS = 24
# largest admitted reach * node gap.  For the 24-node bump at radius 0.5
# the sum's error along x_1, relative to its mass, is 4e-7, 2e-6, 2e-4,
# 1.1e-2 and 0.71 at reach * gap = 0.5, 0.6, 0.7, 0.8 and 1.0, while |F|
# itself is 6e-4 to 6e-5 of the mass there
REVIVAL_LIMIT = 0.6


@dataclass
class SpectralTestFunction:
    nodes: np.ndarray     # (K, n) quadrature points inside the dual cone
    weights: np.ndarray   # (K,) positive
    psi_vals: np.ndarray  # (K,) complex

    def __post_init__(self):
        self.nodes = np.atleast_2d(np.asarray(self.nodes, dtype=float))
        self.weights = np.asarray(self.weights, dtype=float)
        self.psi_vals = np.asarray(self.psi_vals, dtype=np.complex128)
        if not (len(self.weights) == len(self.psi_vals) == self.nodes.shape[0]):
            raise BadShape("nodes, weights and psi values must align")
        # written so that NaN fails them
        for name, need, ok in (
            ("node coordinates", "finite", np.isfinite(self.nodes)),
            ("quadrature weights", "finite and positive",
             (0 < self.weights) & (self.weights < np.inf)),
            ("psi values", "finite", np.isfinite(self.psi_vals)),
        ):
            if not ok.all():
                raise BadShape(f"{ok.size - np.count_nonzero(ok)} of {ok.size} {name} "
                               f"are not {need}")

    @property
    def n(self) -> int:
        return self.nodes.shape[1]

    def mass(self) -> float:
        """Upper bound sum w_k |psi_k| for |F| everywhere on the tube."""
        return float(np.sum(self.weights * np.abs(self.psi_vals)))

    def integral(self) -> complex:
        """Quadrature value of the integral of psi (= F at z = 0)."""
        return complex(np.sum(self.weights * self.psi_vals))


def make_bump_psi(dual: DualCone, center, radius: float,
                  nodes_per_axis: int = DEFAULT_NODES_PER_AXIS) -> SpectralTestFunction:
    """Tensor Gauss-Legendre discretization of a smooth bump.

    psi(xi) = exp(-1 / (1 - |xi - center|^2 / radius^2)) on
    the ball, zero outside.  The ball must sit inside the dual cone,
    checked against every halfspace with margin radius.  Nodes where psi
    vanishes are dropped so that all stored nodes lie in the cone.

    F revives near |x_a| = 1 / Delta, with Delta = radius * (largest gap
    of the Gauss-Legendre nodes on [-1, 1]); that gap is 0.128 at 24 nodes
    per axis and shrinks like 1 / nodes_per_axis.  For radius 0.5 at the
    default 24 nodes the revival radius is 15.6, and grids are admitted up
    to box_half = REVIVAL_LIMIT * 15.6 = 9.4.
    """
    center = np.asarray(center, dtype=float)
    n = dual.halfspaces.shape[1]
    if center.shape != (n,):
        raise LengthMismatch(f"expected a centre in R^{n}, got shape {center.shape}")
    if not isinstance(radius, numbers.Real):
        raise BadShape(f"radius must be a real number, got {radius!r}")
    if not (0 < radius < np.inf):  # NaN fails this too
        raise BadShape(f"radius must be finite and positive, got {radius}")
    if not isinstance(nodes_per_axis, (int, np.integer)) or nodes_per_axis < 1:
        raise BadShape(f"nodes_per_axis must be an integer >= 1, got {nodes_per_axis!r}")
    margins = dual.halfspaces @ center
    if not np.all(margins >= radius - 1e-12):
        raise SupportEscapesDualCone(
            f"ball B(center, {radius}) leaves the dual cone "
            f"(min halfspace margin {margins.min():.6f})"
        )
    x_gl, w_gl = np.polynomial.legendre.leggauss(nodes_per_axis)
    axis_nodes = [center[a] + radius * x_gl for a in range(n)]
    mesh = np.meshgrid(*axis_nodes, indexing="ij")
    nodes = np.column_stack([m.ravel() for m in mesh])
    wmesh = np.meshgrid(*([radius * w_gl] * n), indexing="ij")
    weights = np.prod([m.ravel() for m in wmesh], axis=0)
    rho2 = np.sum((nodes - center) ** 2, axis=1) / radius**2
    psi = np.zeros(nodes.shape[0])
    inside = rho2 < 1.0
    psi[inside] = np.exp(-1.0 / (1.0 - rho2[inside]))
    keep = psi != 0.0
    return SpectralTestFunction(
        nodes=nodes[keep], weights=weights[keep], psi_vals=psi[keep],
    )


def eval_f(stf: SpectralTestFunction, z) -> complex:
    """F(z) = sum_k w_k psi_k exp(2 pi i z . xi_k), Im z in the closed cone.

    A sum that is not finite because z is not raises NonFiniteValues."""
    z = np.asarray(z, dtype=complex)
    if z.shape != (stf.n,):
        raise LengthMismatch(f"expected a point in C^{stf.n}")
    _check_revival(stf.nodes, float(np.max(np.abs(z.real))))
    phases = np.exp(2j * np.pi * (stf.nodes @ z))
    return complex(require_finite(z, np.sum(stf.weights * stf.psi_vals * phases)))


def _check_revival(nodes: np.ndarray, reach: float) -> None:
    """Refuse evaluating the sum over `nodes` at |x_a| up to `reach` once
    reach times the largest gap between adjacent node coordinates on an
    axis passes REVIVAL_LIMIT."""
    gap = float(np.diff(np.sort(nodes, axis=0), axis=0).max(initial=0.0))
    if reach * gap > REVIVAL_LIMIT:
        raise QuadratureRevival(reach * gap, REVIVAL_LIMIT)


def _phases(spec: gr.GridSpec, nodes: np.ndarray) -> tuple:
    """Contraction plan for the sum over `nodes` on the grid.

    On each axis a the nodes take U_a distinct coordinates; the plan holds
    one (U_a, size_a) phase matrix exp(2 pi i xi_a x_a) per axis, built over
    those coordinates, and each node's flat index into the C-order core of
    prod_a U_a entries (np.add.at on a tuple of per-axis indices ran 7
    times slower once the process had run a GEMM).  The grid must lie
    inside the nodes' revival radius, and the core that `_contract` fills
    must fit `poisson.DEFAULT_BUDGET`."""
    _check_revival(nodes, spec.box_half)
    coords, index = zip(*(np.unique(nodes[:, a], return_inverse=True)
                          for a in range(spec.n)))
    core = math.prod(len(c) for c in coords)
    if core > po.DEFAULT_BUDGET:
        raise OutOfMemoryBudget(
            core, po.DEFAULT_BUDGET,
            f"{len(nodes)} spectral nodes on a {' x '.join(str(len(c)) for c in coords)} core",
        )
    mats = [np.exp(2j * np.pi * np.outer(c, spec.axis_coords(a)))
            for a, c in enumerate(coords)]
    return mats, np.ravel_multi_index(index, tuple(len(c) for c in coords))


def _contract(plan: tuple, coeffs: np.ndarray, out: np.ndarray) -> np.ndarray:
    """sum_k coeffs_k exp(2 pi i x . xi_k) over the whole grid, written
    into `out`, a C-contiguous complex grid array, and returned.

    The coefficients are scattered onto the (U_0, ..., U_{n-1}) core of
    the plan, nodes sharing all coordinates adding up, and the core is
    contracted with one phase matrix per axis (module docstring)."""
    mats, index = plan
    acc = np.zeros(math.prod(len(q) for q in mats), dtype=np.complex128)
    np.add.at(acc, index, coeffs)
    done = 1
    for q in mats[:-1]:
        acc = np.matmul(q.T, acc.reshape(done, len(q), -1))
        done *= q.shape[1]
    np.matmul(acc.reshape(done, -1), mats[-1], out=out.reshape(done, -1))
    return out


def slice_grid(stf: SpectralTestFunction, spec: gr.GridSpec, y) -> gr.GridFunction:
    """Sample F(x + i y) on the grid; y = None gives the boundary value.

    y must have n entries, else LengthMismatch, all finite, else
    NonFiniteValues."""
    if spec.n != stf.n:
        raise LengthMismatch("grid and spectrum dimensions differ")
    coeffs = stf.weights * stf.psi_vals
    if y is not None:
        y = np.asarray(y, dtype=float)
        if y.shape != (stf.n,):
            raise LengthMismatch(f"expected y in R^{stf.n}, got shape {y.shape}")
        require_finite(y, y.sum())
        coeffs = coeffs * np.exp(-2.0 * np.pi * (stf.nodes @ y))
    return gr.GridFunction(spec, _contract(_phases(spec, stf.nodes), coeffs,
                                           np.empty(spec.sizes, dtype=np.complex128)))


def boundary_grid(stf: SpectralTestFunction, spec: gr.GridSpec) -> gr.GridFunction:
    """Exact boundary value F^b = F(. + i0) on the grid."""
    return slice_grid(stf, spec, y=None)


def _lift_spectra(stf: SpectralTestFunction, cone: PolyhedralCone,
                  lattice: TLattice, spec: gr.GridSpec, selector, output: float):
    """`poisson._node_spectra` over the nodes of `stf`, which must lie in
    the dual cone, where |e_mu . xi| = e_mu . xi, with `_contract` on the
    grid as the step to space: a component is that derivative of F at
    x + i project(t).  The budget counts one contraction besides
    `output`: the grid buffer each component is contracted into."""
    if not spec.n == cone.n == stf.n:
        raise LengthMismatch("grid, cone and spectrum dimensions differ")
    dots = cone.generators @ stf.nodes.T  # (m, K): e_mu . xi_k
    if np.any(dots < 0):
        raise SupportEscapesDualCone(f"spectral nodes leave the dual cone "
                                     f"(min e . xi = {dots.min():.3e})")
    # the plan and the grid buffer, which every component shares, are
    # bound late, so that the node loop's budget is checked first
    nodes = po._node_spectra(dots, stf.weights * stf.psi_vals, lattice, selector,
                             output + spec.npoints, lambda s: _contract(plan, s, buf))
    plan = _phases(spec, stf.nodes)
    buf = np.empty(spec.sizes, dtype=np.complex128)
    return nodes


def lift_field(stf: SpectralTestFunction, cone: PolyhedralCone,
               lattice: TLattice, spec: gr.GridSpec,
               selector: dict | None = None) -> OperatorField:
    """Evaluate F(x + i project(t)) (or a mixed derivative of it) at
    every grid point and lattice node by direct spectral summation."""
    return po._materialize(lattice, spec, selector, _lift_spectra, stf, cone, lattice, spec)


def gradient_magnitude_sq_lift(stf: SpectralTestFunction, cone: PolyhedralCone,
                               lattice: TLattice, spec: gr.GridSpec) -> OperatorField:
    """Spectral-exact |grad_1 ... grad_m F|^2 summed over all 2^m
    component choices, per lattice node (a float64 field): one contraction
    per nonempty sign cell and node (`poisson` module docstring)."""
    return po._magnitude_sq(lattice, spec, _lift_spectra, stf, cone, lattice, spec)


def hardy_norm(stf: SpectralTestFunction, cone: PolyhedralCone, p: int,
               probe_lattice: TLattice, spec: gr.GridSpec):
    """Grid estimate of the H^p norm: maximize the horizontal slice norm
    over y = project(t) for t in the probe lattice.

    Returns (norm, t_at_max)."""
    if p not in (1, 2):
        raise BadShape("p must be 1 or 2")
    # the float64 moduli of one node's component
    nodes = _lift_spectra(stf, cone, probe_lattice, spec, {}, spec.npoints / 2)
    norms = [gr.lp_norm(gr.GridFunction(spec, component), p) for (component,) in nodes]
    best = int(np.argmax(norms))
    return norms[best], probe_lattice.nodes()[best]
