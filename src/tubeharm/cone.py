"""Polyhedral cone geometry.

A cone is given by m unit generators in R^n, any n of which are linearly
independent.  This module validates cones, computes the lifting projection
from the m-parameter orthant, the dual cone with its extreme rays, the
combinatorial constants that control twisted-rectangle geometry, and exact
membership/volume routines for twisted rectangles (zonotopes).
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BadShape,
    BoundaryY,
    DegenerateSubset,
    LengthMismatch,
    NotUnit,
    SingularSubset,
    UnsupportedDimension,
)

RANK_TOL = 1e-9
UNIT_TOL = 1e-6
MEMBER_MARGIN = 1e-12
RAY_TOL = 1e-9


@dataclass
class PolyhedralCone:
    """Validated cone: m unit generators (rows) spanning R^n."""

    n: int
    m: int
    generators: np.ndarray  # (m, n), rows unit length

    _facet_normals: np.ndarray | None = field(default=None, repr=False, compare=False)

    def facet_normals(self) -> np.ndarray:
        """Unit normals of all zonotope facet directions.

        One normal per (n-1)-subset of generators (orthogonal to the
        subset).  A point b lies in the zonotope with radii u iff
        |nu . b| <= sum_mu u_mu |nu . e_mu| for every normal nu.
        """
        if self._facet_normals is None:
            self._facet_normals = _facet_normals(self.generators)
        return self._facet_normals


@dataclass
class ConeConstants:
    """Derived combinatorial constants of a cone.

    A_const sums |A^l_{mu j}| over all n-subsets l, all mu outside l and
    all coordinates j, where e_mu = sum_j A^l_{mu j} e_{l_j}.
    """

    A_const: float
    gamma_tilde0: float  # 1 / (1 + A_const)
    gamma0: float        # gamma_tilde0 ** 2
    subset_coeffs: dict  # (l tuple) -> {mu: coeff vector}


@dataclass
class DualCone:
    halfspaces: np.ndarray  # (m, n): constraints xi . e_j >= 0
    rays: np.ndarray        # (k, n): unit extreme rays


@dataclass
class TwistedRectangleQuery:
    """Centered twisted rectangle R(x, beta*t)."""

    x: np.ndarray
    t: np.ndarray
    beta: float = 1.0

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.t = np.asarray(self.t, dtype=float)
        if self.beta <= 0 or np.any(self.t <= 0):
            raise BadShape("radii and aperture must be strictly positive")


def validate_cone(generators) -> PolyhedralCone:
    """Validate generator rows and return the cone.

    Rows within 1e-6 of unit length are renormalized; rows further away
    raise NotUnit.  Every n-subset must have |det| > RANK_TOL.
    """
    gens = np.asarray(generators, dtype=float)
    if gens.ndim != 2:
        raise BadShape(f"generators must be a 2-d array, got ndim={gens.ndim}")
    m, n = gens.shape
    if n < 1 or m < n:
        raise BadShape(f"need m >= n >= 1, got m={m}, n={n}")
    norms = np.linalg.norm(gens, axis=1)
    if np.any(np.abs(norms - 1.0) > UNIT_TOL):
        bad = int(np.argmax(np.abs(norms - 1.0)))
        raise NotUnit(f"generator {bad} has norm {norms[bad]:.9f}")
    gens = gens / norms[:, None]
    for subset in itertools.combinations(range(m), n):
        det = np.linalg.det(gens[list(subset)])
        if abs(det) <= RANK_TOL:
            raise DegenerateSubset(f"subset {subset} has |det|={abs(det):.3e}")
    return PolyhedralCone(n=n, m=m, generators=gens)


def cone_from_json(path) -> PolyhedralCone:
    """Load a cone description file {"n", "m", "generators"}."""
    with open(path) as fh:
        data = json.load(fh)
    gens = np.asarray(data["generators"], dtype=float)
    if gens.shape != (int(data["m"]), int(data["n"])):
        raise BadShape(
            f"generators shape {gens.shape} does not match n={data['n']}, m={data['m']}"
        )
    return validate_cone(gens)


def cone_to_json(cone: PolyhedralCone, path) -> None:
    with open(path, "w") as fh:
        json.dump(
            {"n": cone.n, "m": cone.m, "generators": cone.generators.tolist()},
            fh,
            indent=2,
        )


def project(cone: PolyhedralCone, t) -> np.ndarray:
    """Lifting projection: t in R^m maps to sum_mu t_mu e_mu in R^n."""
    t = np.asarray(t, dtype=float)
    if t.shape[-1] != cone.m:
        raise LengthMismatch(f"expected {cone.m} parameters, got {t.shape[-1]}")
    return t @ cone.generators


def compute_constants(cone: PolyhedralCone) -> ConeConstants:
    """Solve e_mu = sum_j A^l_{mu j} e_{l_j} for every n-subset l and
    every mu outside l, and sum the absolute coefficients."""
    total = 0.0
    coeffs: dict = {}
    for subset in itertools.combinations(range(cone.m), cone.n):
        basis = cone.generators[list(subset)]  # rows e_{l_j}
        per_mu = {}
        for mu in range(cone.m):
            if mu in subset:
                continue
            # solve A (row) with A @ basis = e_mu
            a = np.linalg.solve(basis.T, cone.generators[mu])
            per_mu[mu] = a
            total += float(np.sum(np.abs(a)))
        coeffs[subset] = per_mu
    gamma_tilde0 = 1.0 / (1.0 + total)
    return ConeConstants(
        A_const=total,
        gamma_tilde0=gamma_tilde0,
        gamma0=gamma_tilde0**2,
        subset_coeffs=coeffs,
    )


def _facet_normals(gens: np.ndarray) -> np.ndarray:
    m, n = gens.shape
    if n == 1:
        return np.array([[1.0]])
    normals = []
    for subset in itertools.combinations(range(m), n - 1):
        a = gens[list(subset)]
        # (n-1)-subsets are full rank by non-degeneracy; the 1-d null
        # space is the last right singular vector
        _, _, vt = np.linalg.svd(a)
        normals.append(vt[-1])
    normals = np.asarray(normals)
    # dedupe antipodal / duplicate directions
    keep = []
    for v in normals:
        if not any(
            np.linalg.norm(v - w) < RAY_TOL or np.linalg.norm(v + w) < RAY_TOL
            for w in keep
        ):
            keep.append(v)
    return np.asarray(keep)


def dual_rays(cone: PolyhedralCone) -> DualCone:
    """Enumerate extreme rays of the dual cone {xi : xi . e_j >= 0}.

    An extreme ray is orthogonal to n-1 generators, so the candidates are
    the cached facet normals with both signs; those satisfying every
    constraint are kept, deduplicated and sorted.
    """
    if cone.n > 4:
        raise UnsupportedDimension("ray enumeration supports n <= 4")
    gens = cone.generators
    rays = []
    for v in (s * nu for nu in cone.facet_normals() for s in (1.0, -1.0)):
        if np.all(gens @ v >= -RAY_TOL):
            v = v / np.linalg.norm(v)
            if not any(np.linalg.norm(v - w) < RAY_TOL for w in rays):
                rays.append(v)
    rays.sort(key=lambda r: tuple(np.round(r, 12)))
    return DualCone(halfspaces=gens.copy(), rays=np.asarray(rays))


def zonotope_support(cone: PolyhedralCone, radii) -> np.ndarray:
    """Support values h(nu) = sum_mu u_mu |nu . e_mu| per facet normal."""
    radii = np.asarray(radii, dtype=float)
    if radii.shape != (cone.m,):
        raise LengthMismatch(f"expected {cone.m} radii, got {radii.shape}")
    normals = cone.facet_normals()
    return np.abs(normals @ cone.generators.T) @ radii


def _member_bound(cone: PolyhedralCone, radii) -> np.ndarray:
    """Support values relaxed by the membership margin: the open
    zonotope is tested as a closed one plus MEMBER_MARGIN + 1e-10 h(nu)
    (boundary points are measure zero for every quadrature downstream)."""
    support = zonotope_support(cone, radii)
    return support + (MEMBER_MARGIN + 1e-10 * support)


def rect_contains(cone: PolyhedralCone, query: TwistedRectangleQuery, xp) -> bool:
    """Membership of x' in the twisted rectangle R(x, beta*t).

    Decided by the exact facet test |nu.(x'-x)| <= h(nu), relaxed as in
    _member_bound.
    """
    b = np.asarray(xp, dtype=float) - query.x
    bound = _member_bound(cone, query.beta * query.t)
    return bool(np.all(np.abs(cone.facet_normals() @ b) <= bound))


def rect_contains_many(cone: PolyhedralCone, radii, offsets) -> np.ndarray:
    """Vectorized membership of offset rows in R(0, radii)."""
    offsets = np.asarray(offsets, dtype=float)
    bound = _member_bound(cone, radii)
    return np.all(np.abs(offsets @ cone.facet_normals().T) <= bound, axis=-1)


def zonotope_axis_intervals(cone: PolyhedralCone, radii, axis: int, transverse):
    """Membership intervals along a coordinate axis.

    For each transverse point c (rows, with a zero in the given axis),
    returns (lo, hi) such that c + s*e_axis lies in R(0, radii) exactly
    for s in [lo, hi]; lo > hi marks an empty row.
    """
    transverse = np.asarray(transverse, dtype=float)
    bound = _member_bound(cone, radii)
    lo = np.full(transverse.shape[0], -np.inf)
    hi = np.full(transverse.shape[0], np.inf)
    for nu, b in zip(cone.facet_normals(), bound):
        proj = transverse @ nu
        a = nu[axis]
        if abs(a) < 1e-14:
            bad = np.abs(proj) > b
            lo[bad], hi[bad] = 1.0, 0.0
            continue
        upper = (b - proj) / a
        lower = (-b - proj) / a
        if a < 0:
            upper, lower = lower, upper
        hi = np.minimum(hi, upper)
        lo = np.maximum(lo, lower)
    return lo, hi


def parallelohedron_contains(cone: PolyhedralCone, subset, x, r, xp) -> bool:
    """Membership in the parallelohedron spanned by an n-subset of
    generators: solve the n x n system exactly and compare |lambda| < r."""
    subset = tuple(subset)
    if len(subset) != cone.n:
        raise SingularSubset(f"subset must have {cone.n} indices")
    basis = cone.generators[list(subset)]
    det = np.linalg.det(basis)
    if abs(det) <= RANK_TOL:
        raise SingularSubset(f"subset {subset} is singular")
    r = np.asarray(r, dtype=float)
    b = np.asarray(xp, dtype=float) - np.asarray(x, dtype=float)
    lam = np.linalg.solve(basis.T, b)
    bounds = r[list(subset)]
    return bool(np.all(np.abs(lam) <= bounds + MEMBER_MARGIN + 1e-10 * bounds))


def zonotope_volume(cone: PolyhedralCone, t) -> float:
    """Exact volume of R(0, t): 2^n sum_l prod_{j in l} t_j |det e_l|."""
    t = np.asarray(t, dtype=float)
    if t.shape != (cone.m,):
        raise LengthMismatch(f"expected {cone.m} radii, got {t.shape}")
    total = 0.0
    for subset in itertools.combinations(range(cone.m), cone.n):
        det = abs(np.linalg.det(cone.generators[list(subset)]))
        total += det * float(np.prod(t[list(subset)]))
    return (2.0**cone.n) * total


def nontangential_contains(cone: PolyhedralCone, x, beta: float, xp, t) -> bool:
    """(x', t) lies in the aperture-beta region of x iff x' in R(x, beta*t)."""
    return rect_contains(cone, TwistedRectangleQuery(np.asarray(x), np.asarray(t), beta), xp)


def largest_subset(cone: PolyhedralCone, t) -> tuple:
    """Indices of the n largest radii; ties broken toward the
    lexicographically smallest index set."""
    t = np.asarray(t, dtype=float)
    order = np.lexsort((np.arange(cone.m), -t))
    return tuple(sorted(int(i) for i in order[: cone.n]))


def cauchy_szego(cone: PolyhedralCone, z) -> complex:
    """Closed-form Cauchy-Szego kernel C(z) = integral over the dual cone
    of exp(2 pi i z . xi) d xi, for Im z strictly inside the cone.

    The dual cone is cut into simplicial cones (_fan_simplices); each
    piece with rays v_j contributes |det V| * prod_j 1 / (-2 pi i z . v_j).
    """
    z = np.asarray(z, dtype=complex)
    if z.shape != (cone.n,):
        raise LengthMismatch(f"expected point in C^{cone.n}")
    y = z.imag
    dual = dual_rays(cone)
    if dual.rays.shape[0] < cone.n:
        raise UnsupportedDimension("dual cone is not full-dimensional")
    # strict interiority: positive inner product with every dual ray
    gaps = dual.rays @ y
    if np.any(gaps <= RAY_TOL):
        raise BoundaryY("Im z must lie strictly inside the cone")
    total = 0.0 + 0.0j
    # the sum of the generators lies in the open cone
    for simplex in _fan_simplices(dual.rays, cone.generators.sum(axis=0)):
        v = dual.rays[list(simplex)]
        det = abs(np.linalg.det(v))
        if det <= RANK_TOL:
            # Delaunay may return flat simplices on cocircular points
            continue
        denom = np.prod(-2j * np.pi * (v @ z))
        total += det / denom
    return complex(total)


def _fan_simplices(rays: np.ndarray, axis: np.ndarray):
    """Simplicial cones tiling the cone over `rays`; `axis` must have a
    positive product with every ray.

    A simplicial cone tiles itself.  Otherwise the rays are scaled onto
    the cross-section {xi : xi . axis = 1}, whose points are
    Delaunay-triangulated in an orthonormal basis of that hyperplane (a
    full-dimensional planar dual has two rays, so this needs n >= 3).
    """
    k, n = rays.shape
    if k == n:
        return [tuple(range(k))]
    from scipy.spatial import Delaunay  # 0.5 s to import; only cones with k > n pay

    pts = rays / (rays @ axis)[:, None]
    plane = np.linalg.svd(axis[None, :])[2][1:]  # rows span the complement of axis
    return Delaunay(pts @ plane.T).simplices
