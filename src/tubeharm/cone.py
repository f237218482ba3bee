"""Polyhedral cone geometry.

A cone is given by m unit generators in R^n, any n of which are linearly
independent.  This module validates cones, computes the lifting projection
from the m-parameter orthant, the dual cone with its extreme rays, the
combinatorial constants that control twisted-rectangle geometry, exact
membership/volume routines for twisted rectangles (zonotopes) and the
Cauchy-Szego kernel of the tube over the cone.

The generators of a validated cone are read-only, and what depends on
them alone is derived once, on first use, and kept on the cone as a
read-only cached property: the n-subsets of generators with their |det|,
the zonotope facet normals, one per (n-1)-subset, the support matrix
|nu . e_mu|, the dual cone, and the simplicial cones tiling the dual with
their |det| (the pieces of the Cauchy-Szego kernel).  The functions
below read these tables and derive none of them again.  The tiling is a
pulling triangulation read off which dual rays lie on which facet
xi . e_j = 0 of the dual, so the module needs numpy alone.  Every routine
works in any dimension n; the kernel needs a pointed cone, whose dual is
full-dimensional.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    BadShape,
    BoundaryY,
    DegenerateSubset,
    LengthMismatch,
    NotUnit,
    UnsupportedDimension,
    numeric,
    require_finite,
    require_real,
)

RANK_TOL = 1e-9
UNIT_TOL = 1e-6
MEMBER_MARGIN = 1e-12
RAY_TOL = 1e-9


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@dataclass(frozen=True)
class DualCone:
    halfspaces: np.ndarray  # (m, n): constraints xi . e_j >= 0
    rays: np.ndarray        # (k, n): unit extreme rays


@dataclass(frozen=True)
class PolyhedralCone:
    """Validated cone: m unit generators (rows) spanning R^n.

    Build it with validate_cone, which makes the generators read-only; the
    fields cannot be rebound either, so the cached properties below cannot
    go stale."""

    n: int
    m: int
    generators: np.ndarray  # (m, n), rows unit length

    @cached_property
    def subsets(self) -> np.ndarray:
        """All n-subsets of generator indices, (s, n) rows in
        lexicographic order."""
        return _frozen(np.array(list(itertools.combinations(range(self.m), self.n))))

    @cached_property
    def subset_dets(self) -> np.ndarray:
        """|det| of the generators of each n-subset, in `subsets` order."""
        return _frozen(np.abs(np.linalg.det(self.generators[self.subsets])))

    @cached_property
    def facet_normals(self) -> np.ndarray:
        """Unit normals of the zonotope facets, one per (n-1)-subset of
        generators (orthogonal to the subset), in lexicographic order of
        the subsets.  A point b lies in the zonotope with radii u iff
        |nu . b| <= sum_mu u_mu |nu . e_mu| for every normal nu.

        No two normals are within RAY_TOL of each other up to sign, so none
        is a duplicate.  Were nu_S and +-nu_S' that close for subsets
        S != S', a generator w in S' but not in S would have
        |w . nu_S| = |w . (nu_S -+ nu_S')| < RAY_TOL, and with unit rows
        |det(S + w)| <= |w . nu_S| (Hadamard) would be below RANK_TOL =
        RAY_TOL: an n-subset that validate_cone refuses.
        """
        if self.n == 1:
            return _frozen(np.array([[1.0]]))
        subsets = np.array(list(itertools.combinations(range(self.m), self.n - 1)))
        # (n-1)-subsets are full rank by non-degeneracy; the 1-d null
        # space is the last right singular vector.  The copy keeps the
        # rows C-contiguous: a strided view slows rect_contains' .dot
        return _frozen(np.linalg.svd(self.generators[subsets])[2][:, -1].copy())

    @cached_property
    def support_matrix(self) -> np.ndarray:
        """|nu . e_mu| for facet normal nu (rows) and generator e_mu
        (columns): the zonotope with radii u has support values
        support_matrix @ u."""
        return _frozen(np.abs(self.facet_normals @ self.generators.T))

    @cached_property
    def dual(self) -> DualCone:
        """The dual cone {xi : xi . e_j >= 0} and its extreme rays, in
        any dimension n.

        An extreme ray is orthogonal to n-1 generators, so the candidates
        are the facet normals with both signs (pairwise distinct); those
        satisfying every constraint are kept, normalized and sorted.  The
        rays of a cone that is not pointed span less than R^n.
        """
        normals = np.concatenate([self.facet_normals, -self.facet_normals])
        rays = normals[np.all(normals @ self.generators.T >= -RAY_TOL, axis=1)]
        rays = rays / np.linalg.norm(rays, axis=1, keepdims=True)
        rays = rays[np.lexsort(np.round(rays, 12).T[::-1])]
        return DualCone(halfspaces=self.generators, rays=_frozen(rays))

    @cached_property
    def szego_pieces(self) -> tuple[np.ndarray, np.ndarray]:
        """Simplicial cones tiling the dual, as (s, n) indices into
        dual.rays, and their |det V| (s,).

        The pulling triangulation of _pulled_simplices: a simplicial dual
        is its own piece, rays (0, ..., n-1).  No piece is flat: a pulled
        simplex joins a ray that lies off a facet's plane
        (|v . e_j| > RAY_TOL) to a full-rank piece of that facet.  A dual
        that is not full-dimensional (the cone is not pointed) raises
        UnsupportedDimension.
        """
        rays = self.dual.rays
        if np.linalg.matrix_rank(rays) < self.n:
            raise UnsupportedDimension("dual cone is not full-dimensional: cone not pointed")
        simplices = np.array(_pulled_simplices(rays, self.generators))
        return _frozen(simplices), _frozen(np.abs(np.linalg.det(rays[simplices])))


@dataclass
class ConeConstants:
    """Derived combinatorial constants of a cone.

    A_const sums |A^l_{mu j}| over all n-subsets l, all mu outside l and
    all coordinates j, where e_mu = sum_j A^l_{mu j} e_{l_j}.
    """

    A_const: float
    gamma_tilde0: float  # 1 / (1 + A_const)
    gamma0: float        # gamma_tilde0 ** 2


@dataclass(frozen=True)
class TwistedRectangleQuery:
    """Centered twisted rectangle R(x, beta*t), frozen, with read-only
    copies of x and t: its checks still hold in rect_contains."""

    x: np.ndarray
    t: np.ndarray
    beta: float = 1.0

    def __post_init__(self):
        t = _positive("t", numeric("t", self.t, float, None))
        object.__setattr__(self, "x", _frozen(numeric("x", self.x, float, None).copy()))
        object.__setattr__(self, "t", _frozen(t.copy()))
        object.__setattr__(self, "beta", require_real("beta", self.beta, 0))


def validate_cone(generators) -> PolyhedralCone:
    """Validate generator rows and return the cone.

    Rows that are not finite raise BadShape.  Rows within 1e-6 of unit
    length are renormalized; rows further away raise NotUnit.  Every
    n-subset must have |det| > RANK_TOL.  The returned generators are a
    read-only copy.
    """
    gens = numeric("generators", generators, float, None)
    if gens.ndim != 2:
        raise BadShape(f"generators must be a 2-d array, got ndim={gens.ndim}")
    m, n = gens.shape
    if n < 1 or m < n:
        raise BadShape(f"need m >= n >= 1, got m={m}, n={n}")
    if not np.isfinite(gens).all():
        bad = int(np.argmin(np.isfinite(gens).all(axis=1)))
        raise BadShape(f"generator {bad} is not finite: {gens[bad]}")
    norms = np.linalg.norm(gens, axis=1)
    if np.any(np.abs(norms - 1.0) > UNIT_TOL):
        bad = int(np.argmax(np.abs(norms - 1.0)))
        raise NotUnit(f"generator {bad} has norm {norms[bad]:.9f}")
    cone = PolyhedralCone(n=n, m=m, generators=_frozen(gens / norms[:, None]))
    degenerate = np.flatnonzero(cone.subset_dets <= RANK_TOL)
    if degenerate.size:
        subset = tuple(int(i) for i in cone.subsets[degenerate[0]])
        raise DegenerateSubset(
            f"subset {subset} has |det|={cone.subset_dets[degenerate[0]]:.3e}")
    return cone


def project(cone: PolyhedralCone, t) -> np.ndarray:
    """Lifting projection: t in R^m maps to sum_mu t_mu e_mu in R^n."""
    return numeric("t", t, float, (..., cone.m)) @ cone.generators


def compute_constants(cone: PolyhedralCone) -> ConeConstants:
    """Solve e_mu = sum_j A^l_{mu j} e_{l_j} for every n-subset l and
    every mu outside l, and sum the absolute coefficients."""
    # others[l]: the m - n generators outside subset l, in order.  As the
    # right-hand sides of one batched solve they give the bits of a solve
    # per subset, ill-conditioned bases included
    outside = (cone.subsets[:, :, None] != np.arange(cone.m)).all(axis=1)
    others = np.nonzero(outside)[1].reshape(len(outside), cone.m - cone.n)
    coeffs = np.linalg.solve(cone.generators[cone.subsets].transpose(0, 2, 1),
                             cone.generators[others].transpose(0, 2, 1))  # (s, n, m - n)
    total = float(np.abs(coeffs).sum())
    gamma_tilde0 = 1.0 / (1.0 + total)
    return ConeConstants(A_const=total, gamma_tilde0=gamma_tilde0, gamma0=gamma_tilde0**2)


def dual_rays(cone: PolyhedralCone) -> DualCone:
    """The dual cone of `cone` with its extreme rays (PolyhedralCone.dual,
    derived once per cone)."""
    return cone.dual


def _positive(name: str, values: np.ndarray) -> np.ndarray:
    """`values` if every entry is finite and > 0, else BadShape."""
    if not np.all((0 < values) & (values < np.inf)):
        raise BadShape(f"{name} must be finite and positive, got {values}")
    return values


def _radii(cone: PolyhedralCone, radii) -> np.ndarray:
    """`radii` as floats of shape (m,), all finite and > 0."""
    return _positive("radii", numeric("radii", radii, float, (cone.m,)))


def _member_bound(cone: PolyhedralCone, radii: np.ndarray) -> np.ndarray:
    """Support values h(nu) = sum_mu u_mu |nu . e_mu| per facet normal
    for radii u, relaxed by the membership margin: the open zonotope is
    tested as a closed one plus MEMBER_MARGIN + 1e-10 h(nu) (boundary
    points are measure zero for every quadrature downstream)."""
    return cone.support_matrix.dot(radii) * (1.0 + 1e-10) + MEMBER_MARGIN


def rect_contains(cone: PolyhedralCone, query: TwistedRectangleQuery, xp) -> bool:
    """Membership of x' in the twisted rectangle R(x, beta*t).

    Decided by the exact facet test |nu.(x'-x)| <= h(nu), relaxed as in
    _member_bound.
    """
    # the query has checked x, t and beta: only their lengths are left,
    # and numeric names the one that is off
    if query.t.shape != (cone.m,) or query.x.shape != (cone.n,):
        numeric("query.t", query.t, float, (cone.m,))
        numeric("query.x", query.x, float, (cone.n,))
    b = np.asarray(xp, dtype=float) - query.x
    bound = _member_bound(cone, query.beta * query.t)
    # .dot and count_nonzero cost a third of @ and all() on arrays this small
    inside = np.abs(cone.facet_normals.dot(b)) <= bound
    return np.count_nonzero(inside) == inside.size


def rect_contains_many(cone: PolyhedralCone, radii, offsets) -> np.ndarray:
    """Vectorized membership of offset rows in R(0, radii)."""
    offsets = numeric("offsets", offsets, float, (..., cone.n))
    bound = _member_bound(cone, _radii(cone, radii))
    return np.all(np.abs(offsets @ cone.facet_normals.T) <= bound, axis=-1)


def zonotope_axis_intervals(cone: PolyhedralCone, radii, axis: int, transverse):
    """Membership intervals along a coordinate axis.

    For each transverse point c (rows, with a zero in the given axis),
    returns (lo, hi) such that c + s*e_axis lies in R(0, radii) exactly
    for s in [lo, hi]; lo > hi marks an empty row.  `axis` is in range(n).
    """
    if (isinstance(axis, bool) or not isinstance(axis, (int, np.integer))
            or not 0 <= axis < cone.n):
        raise BadShape(f"axis {axis!r} is not a coordinate index in range({cone.n})")
    transverse = numeric("transverse", transverse, float, (..., cone.n))
    if transverse.ndim != 2:
        raise LengthMismatch(f"transverse must have shape (rows, {cone.n}), "
                             f"got {transverse.shape}")
    bound = _member_bound(cone, _radii(cone, radii))
    proj = transverse @ cone.facet_normals.T  # (rows, facets)
    a = cone.facet_normals[:, axis]
    moving = np.abs(a) >= 1e-14
    # |proj + s a| <= b for s from (-b - sgn(a) proj) / |a| to (b - sgn(a) proj) / |a|
    shift = -np.sign(a[moving]) * proj[:, moving]
    scale = np.abs(a[moving])
    lo = ((shift - bound[moving]) / scale).max(axis=1, initial=-np.inf)
    hi = ((shift + bound[moving]) / scale).min(axis=1, initial=np.inf)
    # a facet parallel to the axis admits a row entirely or not at all
    blocked = (np.abs(proj[:, ~moving]) > bound[~moving]).any(axis=1)
    lo[blocked], hi[blocked] = 1.0, 0.0
    return lo, hi


def zonotope_volume(cone: PolyhedralCone, t) -> float:
    """Exact volume of R(0, t): 2^n sum_l prod_{j in l} t_j |det e_l|."""
    t = _radii(cone, t)
    return (2.0**cone.n) * float(cone.subset_dets @ t[cone.subsets].prod(axis=1))


def cauchy_szego(cone: PolyhedralCone, z) -> complex | np.ndarray:
    """Closed-form Cauchy-Szego kernel C(z) = integral over the dual cone
    of exp(2 pi i z . xi) d xi, for Im z strictly inside the cone.

    z has shape (..., n).  One point (shape (n,)) gives a complex; any
    other shape gives a complex array of shape z.shape[:-1].  Each
    simplicial piece of the dual (PolyhedralCone.szego_pieces) with rays
    v_j contributes |det V| * prod_j 1 / (-2 pi i z . v_j).  Every point
    must have y . v > RAY_TOL for y = Im z and every dual ray v; otherwise
    BoundaryY names the smallest y . v and, for a batch, the flat index
    of its point.  A kernel value that is not finite because z is not
    raises NonFiniteValues.
    """
    z = numeric("z", z, complex, (..., cone.n))
    rays = cone.dual.rays
    simplices, dets = cone.szego_pieces
    # strict interiority: positive inner product with every dual ray
    gaps = (z.imag @ rays.T).min(axis=-1)
    if not (gaps > RAY_TOL).all():
        worst = int(np.argmin(gaps))
        where = f" at flat index {worst}" if z.ndim > 1 else ""
        raise BoundaryY(
            f"Im z must lie strictly inside the cone: smallest y . v over dual "
            f"rays is {gaps.flat[worst]:.3e}{where}"
        )
    # a plain product-sum keeps every point's rounding independent of the
    # batch shape, which a matrix product does not
    phases = -2j * np.pi * (z[..., None, :] * rays).sum(axis=-1)  # (..., k)
    total = (dets / phases[..., simplices].prod(axis=-1)).sum(axis=-1)
    require_finite(z, total.sum())
    return complex(total) if z.ndim == 1 else total


def _pulled_simplices(rays: np.ndarray, halfspaces: np.ndarray) -> list[tuple]:
    """Pulling triangulation of the cone over `rays`, the extreme rays of
    {xi : xi . e_j >= 0 for every row e_j of `halfspaces`}, as tuples of
    ray indices (De Loera, Rambau & Santos, Triangulations, 2010, 4.3).

    A face is a sorted tuple of ray indices; one with as many rays as its
    dimension is its own simplex.  Otherwise its first ray is joined to
    the pieces of each facet that misses it.  The facets of a face are its
    intersections with the planes xi . e_j = 0 whose rays have rank one
    less; a shared facet is split the same way from both sides.
    """
    on_plane = np.abs(rays @ halfspaces.T) <= RAY_TOL  # (k, m) incidence

    def pull(face: tuple, dim: int) -> list[tuple]:
        if len(face) == dim:
            return [face]
        sides = {tuple(r for r in face if plane[r]) for plane in on_plane.T}
        return [(face[0], *piece) for side in sorted(sides)
                if face[0] not in side and len(side) >= dim - 1
                and np.linalg.matrix_rank(rays[list(side)], tol=RANK_TOL) == dim - 1
                for piece in pull(side, dim - 1)]

    return pull(tuple(range(len(rays))), rays.shape[1])
