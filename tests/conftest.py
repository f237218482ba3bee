import math

import numpy as np
import pytest
from hypothesis import settings

from tubeharm import cone as cone_mod
from tubeharm import grid as gr
from tubeharm import poisson as po

SQ2 = np.sqrt(2.0)
# derandomized, so tier-1 runs the same examples every time
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@pytest.fixture(scope="session")
def axis_cone():
    return cone_mod.validate_cone(np.eye(2))


@pytest.fixture(scope="session")
def cone_b():
    """n=2, m=3 workhorse cone: axes plus the diagonal."""
    return cone_mod.validate_cone(
        [[1.0, 0.0], [0.0, 1.0], [SQ2 / 2, SQ2 / 2]]
    )


@pytest.fixture(scope="session")
def skew_cone():
    return cone_mod.validate_cone([[1.0, 0.0], [SQ2 / 2, SQ2 / 2]])


@pytest.fixture(scope="session")
def line_cone():
    """The 1-d cone: one generator, for the Poisson integral on a line."""
    return cone_mod.validate_cone([[1.0]])


@pytest.fixture(scope="session")
def poisson_at():
    """The Poisson field of f at the one scale t_mu = t for every
    generator (or its mixed derivative for `selector`), from the node
    loop on a one-node lattice."""
    def field(f, cone, t, selector=None):
        lattice = po.TLattice(m=cone.m, t_min=t, levels=1)
        return po.build_field(f, cone, lattice, selector=selector).node_function(0)
    return field


@pytest.fixture(scope="session")
def centred():
    """Reference for the node loop: fourier_inverse(M * fourier_forward(f))
    on the centred frequency mesh, with M the Poisson symbol at the scales
    t times the gradient factor of `selector`."""
    def field(f, cone, t, selector=None):
        xi = f.spec.freqs()
        dots = [sum(g * x for g, x in zip(gen, xi)) for gen in cone.generators]
        fhat = gr.fourier_forward(f)
        fhat.values *= po.poisson_decay(dots, t) * po.gradient_factor(dots, selector or {})
        return gr.fourier_inverse(fhat).values
    return field


def largest_subset(cone, t) -> tuple:
    """Indices of the n largest radii; ties broken toward the
    lexicographically smallest index set."""
    order = np.lexsort((np.arange(cone.m), -np.asarray(t, dtype=float)))
    return tuple(sorted(int(i) for i in order[: cone.n]))


def parallelohedron_contains(cone, subset, x, r, xp) -> bool:
    """Inclusion-chain oracle: membership in the parallelohedron spanned
    by the n generators of `subset` with radii r[subset], centred at x.
    Solves the n x n system exactly and compares |lambda| with r, relaxed
    as the zonotope membership is (cone._member_bound)."""
    lam = np.linalg.solve(cone.generators[list(subset)].T,
                          np.asarray(xp, dtype=float) - np.asarray(x, dtype=float))
    bounds = np.asarray(r, dtype=float)[list(subset)]
    return bool(np.all(np.abs(lam) <= bounds + cone_mod.MEMBER_MARGIN + 1e-10 * bounds))


def qhull_kernel(rays, y) -> float:
    """C(i y) without triangulating the dual: the Laplace transform of a
    convex cone, the integral of exp(-2 pi y . xi) over the dual, is
    n! vol{xi in dual : y . xi <= 1} / (2 pi)^n, and Qhull measures that
    polytope from the extreme rays."""
    from scipy.spatial import ConvexHull

    n = rays.shape[1]
    polytope = np.vstack([np.zeros(n), rays / (rays @ y)[:, None]])
    return math.factorial(n) * ConvexHull(polytope).volume / (2 * np.pi) ** n


def sum_rule_factors(spec, cone, lattice) -> list:
    """Q_mu = (2 pi a_mu)^2 sum_k w_k exp(-4 pi a_mu t_k) per generator,
    with a_mu = |e_mu . xi| on the grid's frequencies in FFT order and
    (t_k, w_k) the lattice's axis values and weights.  4 Q_mu is the
    lattice's t dt rule for the integral of 4 (2 pi a)^2 t exp(-4 pi a t),
    which is 1 for every a > 0."""
    freqs = [np.fft.ifftshift(x) for x in spec.freqs()]
    factors = []
    for g in cone.generators:
        a = np.abs(sum(g_k * x for g_k, x in zip(g, freqs)))
        factors.append((2 * np.pi * a) ** 2 * sum(
            w * np.exp(-4 * np.pi * a * t) for t, w in zip(lattice.axis_values,
                                                            lattice.axis_weights)))
    return factors


def sum_rule(f, cone, lattice) -> float:
    """The sum over nodes of w h^n sum_x G for G the gradient magnitude
    field of f, without building it: 2^m (h^n / N) sum_xi |fftn f|^2
    prod_mu Q_mu(xi).  Both gradient factors of generator mu have modulus
    2 pi a_mu, the sign cells are orthogonal over the 2^m choices, and
    Parseval sums each node's squares on the grid (`poisson` module
    docstring); any f and any lattice."""
    spec = f.spec
    weighted = np.abs(np.fft.fftn(f.values)) ** 2
    for q in sum_rule_factors(spec, cone, lattice):
        weighted *= q
    return 2.0**cone.m * spec.h**spec.n / spec.npoints * float(weighted.sum())
