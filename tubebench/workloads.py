"""The four benchmark workloads and their oracle checks.

Every workload is driven through the public module functions of
`tubeharm`, always looked up as module attributes so that a tracer
installed on the modules sees every call.  A workload builds its fixture
in the constructor, turns a seeded generator into the inputs of one case
with `draw`, and runs one case with `case`, which returns the case's
residuals by name.  A residual named in `tolerances` gates the case; the
others are reported only.

Residuals of field comparisons (`rel_max`) are divided by
`tube_sup_bound`, the bound sum_k w_k |psi_k| |factor_k| that the
spectral data put on the compared function everywhere on the tube, so
they do not depend on how small the field is at a given node.  The FFT
path treats the boundary value as periodic on the box, and the boundary
value does not vanish at the box edge, so the path is gated against that
jump: `edge_ratio` is rel_max divided by `edge_jump`, and must not exceed
1.  The per-node relative residual of the reproducing identity
(`rel_node_max`), the measure of the tier-1 test, which off-lattice
leakage drives above 1, is reported beside it.
"""

from __future__ import annotations

import os

import numpy as np

from tubeharm import cone as cg
from tubeharm import grid as gr
from tubeharm import poisson as po
from tubeharm import spectral as sp

SQ2 = np.sqrt(2.0)
# the n=2, m=3 workhorse cone of the tier-1 fixtures: axes plus the diagonal
CONE_B = [[1.0, 0.0], [0.0, 1.0], [SQ2 / 2, SQ2 / 2]]
BOX_HALF = 8.0
MIXED_SELECTOR = {0: po.X_CHOICE, 2: po.T_CHOICE}

# the bound of the tier-1 pointwise lift test
POINTWISE_TOL = 1e-14

# public functions timed per layer; util.kahan_sum is reached only
# through grid.lp_norm and counts toward it
LAYER_FUNCTIONS = {
    "cone": ("validate_cone", "compute_constants", "dual_rays", "cauchy_szego",
             "rect_contains", "rect_contains_many", "zonotope_axis_intervals",
             "zonotope_volume"),
    "grid": ("fourier_forward", "fourier_inverse", "lp_norm", "write_tgf", "read_tgf"),
    "poisson": ("build_field", "gradient_magnitude_sq_field", "write_field", "read_field"),
    "spectral": ("make_bump_psi", "slice_grid", "boundary_grid", "lift_field",
                 "gradient_magnitude_sq_lift", "hardy_norm"),
}
LAYER_MODULES = {"cone": cg, "grid": gr, "poisson": po, "spectral": sp}


def _fft_flops(args, kwargs, result):
    npoints = result.spec.npoints
    return {"fft_flops": 5.0 * npoints * np.log2(npoints)}


def _lift_flops(args, kwargs, result):
    # a complex multiply-add per (grid point, spectral node, lattice node)
    return {"lift_flops": 8.0 * args[0].nodes.shape[0] * result.values.size}


# computed work per call, for the rates the traced run reports
WORK_COUNTERS = {
    "grid": {
        "fourier_forward": _fft_flops,
        "fourier_inverse": _fft_flops,
        "write_tgf": lambda args, kwargs, result: {"io_bytes": args[1].values.nbytes},
        "read_tgf": lambda args, kwargs, result: {"io_bytes": result.values.nbytes},
    },
    "spectral": {"lift_field": _lift_flops},
}


def tube_sup_bound(stf, cone, selector=None) -> float:
    """sum_k w_k |psi_k| prod_{mu in selector} 2 pi |e_mu . xi_k|."""
    weight = stf.weights * np.abs(stf.psi_vals)
    for mu in (selector or {}):
        weight = weight * 2.0 * np.pi * np.abs(stf.nodes @ cone.generators[mu])
    return float(np.sum(weight))


def edge_jump(f) -> float:
    """Largest |f| on the faces of the periodic box, relative to sup |f|."""
    mag = np.abs(f.values)
    faces = [np.take(mag, side, axis=a) for a in range(mag.ndim) for side in (0, -1)]
    return float(max(face.max() for face in faces) / mag.max())


def draw_bump(rng):
    """Center and radius of a bump inside the dual of CONE_B (the open
    quadrant), with its spectrum below the Nyquist frequency of every
    grid used here."""
    radius = rng.uniform(0.3, 0.5)
    center = rng.uniform(radius + 0.05, 1.4, size=2)
    return center, radius


def draw_generators(rng, n, m, max_angle):
    """m unit generators within max_angle of a random axis (so the cone is
    pointed), and that axis."""
    axis = rng.standard_normal(n)
    axis /= np.linalg.norm(axis)
    gens = np.empty((m, n))
    for row in range(m):
        perp = rng.standard_normal(n)
        perp -= (perp @ axis) * axis
        perp /= np.linalg.norm(perp)
        angle = rng.uniform(0.2, max_angle)
        gens[row] = np.cos(angle) * axis + np.sin(angle) * perp
    return gens, axis


class PoissonField:
    """FFT path: Poisson fields, a mixed-gradient field and the gradient
    magnitude over a t-lattice, from the boundary value of a bump."""

    name = "poisson_field"
    tolerances = {"check.poisson_field.edge_ratio": 1.0}

    def __init__(self, size=128, levels=3):
        self.cone = cg.validate_cone(CONE_B)
        self.dual = cg.dual_rays(self.cone)
        self.spec = gr.GridSpec(n=2, sizes=(size, size), box_half=BOX_HALF)
        self.lattice = po.default_lattice(self.spec, m=self.cone.m, levels=levels)
        # the spectral oracle runs at the first lattice node, where t is
        # smallest and the field largest, as a one-node lattice; more
        # nodes would make the spectral layer a visible share of the case
        self.check_node = po.TLattice(m=self.cone.m, t_min=self.lattice.t_min,
                                      ratio=self.lattice.ratio, levels=1)

    def draw(self, rng):
        return draw_bump(rng)

    def case(self, inputs) -> dict:
        center, radius = inputs
        stf = sp.make_bump_psi(self.dual, center, radius)
        fb = sp.boundary_grid(stf, self.spec)
        fields = [
            (None, po.build_field(fb, self.cone, self.lattice)),
            (MIXED_SELECTOR, po.build_field(fb, self.cone, self.lattice,
                                            selector=MIXED_SELECTOR)),
        ]
        po.gradient_magnitude_sq_field(fb, self.cone, self.lattice)
        worst = 0.0
        for selector, fld in fields:
            lift = sp.lift_field(stf, self.cone, self.check_node, self.spec,
                                 selector=selector)
            err = np.max(np.abs(fld.values[0] - lift.values[0]))
            worst = max(worst, float(err) / tube_sup_bound(stf, self.cone, selector))
        return {"check.poisson_field.rel_max": worst,
                "check.poisson_field.edge_ratio": worst / edge_jump(fb)}


class SpectralLift:
    """Direct-summation path: the lift, its gradient magnitude and the
    Hardy-norm probe; no FFT."""

    name = "spectral_lift"
    tolerances = {"check.spectral_lift.rel_max": POINTWISE_TOL}
    samples = 8

    def __init__(self, size=128, levels=2):
        self.cone = cg.validate_cone(CONE_B)
        self.dual = cg.dual_rays(self.cone)
        self.spec = gr.GridSpec(n=2, sizes=(size, size), box_half=BOX_HALF)
        self.lattice = po.default_lattice(self.spec, m=self.cone.m, levels=levels)
        self.probe = po.TLattice(m=self.cone.m, t_min=0.25, ratio=2.0, levels=2)
        self.heights = cg.project(self.cone, self.lattice.nodes())
        self.coords = self.spec.axis_coords(0)

    def draw(self, rng):
        center, radius = draw_bump(rng)
        points = np.column_stack([
            rng.integers(0, self.lattice.node_count, self.samples),
            rng.integers(0, self.spec.sizes[0], self.samples),
            rng.integers(0, self.spec.sizes[1], self.samples),
        ])
        return center, radius, points

    def case(self, inputs) -> dict:
        center, radius, points = inputs
        stf = sp.make_bump_psi(self.dual, center, radius)
        lift = sp.lift_field(stf, self.cone, self.lattice, self.spec)
        sp.gradient_magnitude_sq_lift(stf, self.cone, self.lattice, self.spec)
        sp.hardy_norm(stf, self.cone, 1, self.probe, self.spec)
        worst = 0.0
        for row, i, j in points:
            z = np.array([self.coords[i], self.coords[j]]) + 1j * self.heights[row]
            worst = max(worst, abs(lift.values[row, i, j] - sp.eval_f(stf, z)))
        return {"check.spectral_lift.rel_max": worst / stf.mass()}


class Reproduce:
    """The end-to-end path on a freshly drawn cone: geometry, bump,
    boundary grid, Poisson field against the lift, and the field's
    round trip through TGF files."""

    name = "reproduce"
    tolerances = {"check.reproduce.edge_ratio": 1.0,
                  "check.reproduce.tgf_mismatch": 0}

    m = 3

    def __init__(self, scratch_dir, size=64, levels=3):
        self.scratch_dir = scratch_dir
        self.spec = gr.GridSpec(n=2, sizes=(size, size), box_half=BOX_HALF)
        self.lattice = po.default_lattice(self.spec, m=self.m, levels=levels)

    def draw(self, rng):
        gens, axis = draw_generators(rng, 2, self.m, max_angle=0.9)
        # the axis is inside the dual cone with margin min(gens . axis)
        center = rng.uniform(0.8, 1.0) * axis
        radius = min(0.45, rng.uniform(0.6, 0.9) * float(np.min(gens @ center)))
        return gens, center, radius

    def case(self, inputs) -> dict:
        gens, center, radius = inputs
        cone = cg.validate_cone(gens)
        cg.compute_constants(cone)
        dual = cg.dual_rays(cone)
        stf = sp.make_bump_psi(dual, center, radius)
        fb = sp.boundary_grid(stf, self.spec)
        pois = po.build_field(fb, cone, self.lattice)
        lift = sp.lift_field(stf, cone, self.lattice, self.spec)
        po.write_field(self.scratch_dir, pois)
        back = po.read_field(self.scratch_dir)

        nodes = self.lattice.node_count
        diff = np.abs(lift.values - pois.values).reshape(nodes, -1).max(axis=1)
        scale = np.abs(lift.values).reshape(nodes, -1).max(axis=1)
        if back.lattice == pois.lattice and back.spec == pois.spec:
            mismatch = np.count_nonzero(back.values.view(np.uint64)
                                        != pois.values.view(np.uint64))
        else:
            mismatch = pois.values.size
        rel_max = float(diff.max()) / tube_sup_bound(stf, cone)
        return {
            "check.reproduce.rel_max": rel_max,
            "check.reproduce.edge_ratio": rel_max / edge_jump(fb),
            "check.reproduce.rel_node_max": float(np.max(diff / scale)),
            "check.reproduce.tgf_mismatch": int(mismatch),
        }


class ConeGeometry:
    """Cone layer only: one random cone of every shape n in {2,3,4},
    n <= m <= n+2 per case, through constants, dual rays, the
    Cauchy-Szego kernel and twisted-rectangle membership."""

    name = "cone_geometry"
    tolerances = {"check.cone_geometry.mismatch": 0}
    shapes = [(n, m) for n in (2, 3, 4) for m in range(n, n + 3)]

    def __init__(self, szego_points=32, cloud=2000, scalar=256, rows=64, per_row=8):
        self.szego_points = szego_points
        self.cloud = cloud
        self.scalar = scalar
        self.rows = rows
        self.per_row = per_row

    def draw(self, rng):
        cases = []
        for n, m in self.shapes:
            gens, _ = draw_generators(rng, n, m, max_angle=1.0)
            radii = rng.uniform(0.2, 1.0, size=m)
            heights = rng.uniform(0.2, 1.0, size=(self.szego_points, m))
            xs = rng.uniform(-1.0, 1.0, size=(self.szego_points, n))
            extent = radii.sum()
            cloud = rng.uniform(-extent, extent, size=(self.cloud, n))
            transverse = rng.uniform(-extent, extent, size=(self.rows, n))
            transverse[:, 0] = 0.0
            steps = rng.uniform(-extent, extent, size=(self.rows, self.per_row))
            cases.append((gens, radii, heights, xs, cloud, transverse, steps))
        return cases

    def case(self, inputs) -> dict:
        mismatch = 0
        for gens, radii, heights, xs, cloud, transverse, steps in inputs:
            cone = cg.validate_cone(gens)
            cg.compute_constants(cone)
            cg.dual_rays(cone)
            for x, y in zip(xs, cg.project(cone, heights)):
                cg.cauchy_szego(cone, x + 1j * y)
            cg.zonotope_volume(cone, radii)
            inside = cg.rect_contains_many(cone, radii, cloud)
            query = cg.TwistedRectangleQuery(np.zeros(cone.n), radii)
            scalar = [cg.rect_contains(cone, query, p) for p in cloud[:self.scalar]]
            mismatch += int(np.count_nonzero(np.array(scalar) != inside[:self.scalar]))
            lo, hi = cg.zonotope_axis_intervals(cone, radii, 0, transverse)
            points = transverse[:, None, :] + steps[:, :, None] * np.eye(cone.n)[0]
            on_rows = cg.rect_contains_many(cone, radii, points.reshape(-1, cone.n))
            by_interval = (steps >= lo[:, None]) & (steps <= hi[:, None])
            mismatch += int(np.count_nonzero(on_rows != by_interval.ravel()))
        return {"check.cone_geometry.mismatch": mismatch}


WORKLOADS = {
    PoissonField.name: PoissonField,
    SpectralLift.name: SpectralLift,
    Reproduce.name: Reproduce,
    ConeGeometry.name: ConeGeometry,
}

CHECK_NAMES = (
    "check.poisson_field.rel_max",
    "check.poisson_field.edge_ratio",
    "check.spectral_lift.rel_max",
    "check.reproduce.rel_max",
    "check.reproduce.edge_ratio",
    "check.reproduce.rel_node_max",
    "check.reproduce.tgf_mismatch",
    "check.cone_geometry.mismatch",
)


def make_workload(name, scratch_dir, **sizes):
    """Construct a workload; only `reproduce` writes, into scratch_dir."""
    if name == Reproduce.name:
        return Reproduce(os.path.join(scratch_dir, "field"), **sizes)
    return WORKLOADS[name](**sizes)


def case_rng(seed: int, workload: str, index: int) -> np.random.Generator:
    """Inputs of case `index` depend only on the seed, the workload and
    the index (warm-up cases use negative indices)."""
    key = [seed, index + 2**16] + list(workload.encode())
    return np.random.default_rng(np.random.SeedSequence(key))

