"""Harmonic analysis on tube domains over polyhedral cones.

Modules by concern: cone geometry (`cone`), periodic grids with one
grid-function type, its centred Fourier transforms and the TGF2 container
(`grid`), iterated Poisson fields over a t-lattice and all m generators
(`poisson`), and holomorphic spectral test functions that serve as exact
oracles for them (`spectral`).
"""

__version__ = "0.1.0"

from . import cone, grid, poisson, spectral  # noqa: F401
