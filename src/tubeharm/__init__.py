"""Harmonic analysis on tube domains over polyhedral cones.

Modules by concern: cone geometry (`cone`), periodic grids with their
centred Fourier transforms and the TGF container (`grid`), iterated
Poisson fields over a t-lattice (`poisson`), and holomorphic spectral
test functions that serve as exact oracles for them (`spectral`).
"""

__version__ = "0.1.0"

from . import cone, grid, poisson, spectral  # noqa: F401
