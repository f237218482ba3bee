"""Malformed input to a public entry point raises a TubeharmError.

Each argument slot below is called with each of ten malformed values,
every other argument held valid.  A bare numpy or Python error fails the
probe, and so does a value that is accepted; the pairs in VALID are
input the slot takes, and are left out."""

import numpy as np
import pytest

from tubeharm import cone as cg
from tubeharm import grid as gr
from tubeharm import poisson as po
from tubeharm import spectral as sp
from tubeharm.errors import TubeharmError

SQ2 = np.sqrt(2.0)
CONE = cg.validate_cone([[1.0, 0.0], [0.0, 1.0], [SQ2 / 2, SQ2 / 2]])
SPEC = gr.GridSpec(n=2, sizes=(16, 16), box_half=4.0)
F = gr.GridFunction(SPEC, np.ones(SPEC.sizes))
LATTICE = po.TLattice(m=3, t_min=0.5, levels=1)
# two nodes 0.05 apart: the 16^2 grid lies well inside the revival radius
STF = sp.SpectralTestFunction(nodes=[[1.0, 1.0], [1.05, 1.05]], weights=[1.0, 1.0],
                              psi_vals=[1.0, 1.0])

MALFORMED = {
    "strings": ["a", "b"],
    "none": None,
    "none-in-list": [None, 1.0],
    "ragged": [[1.0, 0.0], [1.0]],
    "bool": True,
    "bools": [True, False],
    "numeric-strings": ["1", "2"],
    "complex": [1.0 + 1.0j, 0.5 + 1.0j],
    "empty-dict": {},
    "float": 5.0,
}


def _query(x=np.zeros(2), t=np.ones(3), beta=1.0):
    return cg.rect_contains(CONE, cg.TwistedRectangleQuery(x, t, beta), np.zeros(2))


def _stf(**entries):
    return sp.SpectralTestFunction(**({"nodes": STF.nodes, "weights": STF.weights,
                                       "psi_vals": STF.psi_vals} | entries))


def _bump(center=(6.0, 6.0), radius=0.5, nodes_per_axis=4):
    return sp.make_bump_psi(CONE.dual, center, radius, nodes_per_axis)


SLOTS = {
    "validate_cone(generators)": cg.validate_cone,
    "project(t)": lambda v: cg.project(CONE, v),
    "TwistedRectangleQuery(x)": lambda v: _query(x=v),
    "TwistedRectangleQuery(t)": lambda v: _query(t=v),
    "TwistedRectangleQuery(beta)": lambda v: _query(beta=v),
    "rect_contains_many(radii)": lambda v: cg.rect_contains_many(CONE, v, np.zeros((4, 2))),
    "rect_contains_many(offsets)": lambda v: cg.rect_contains_many(CONE, np.ones(3), v),
    "zonotope_axis_intervals(axis)":
        lambda v: cg.zonotope_axis_intervals(CONE, np.ones(3), v, np.zeros((4, 2))),
    "zonotope_axis_intervals(transverse)":
        lambda v: cg.zonotope_axis_intervals(CONE, np.ones(3), 0, v),
    "cauchy_szego(z)": lambda v: cg.cauchy_szego(CONE, v),
    "GridSpec(n)": lambda v: gr.GridSpec(n=v, sizes=(16, 16), box_half=4.0),
    "GridSpec(sizes)": lambda v: gr.GridSpec(n=2, sizes=v, box_half=4.0),
    "GridSpec(box_half)": lambda v: gr.GridSpec(n=2, sizes=(16, 16), box_half=v),
    "GridFunction(values)": lambda v: gr.GridFunction(SPEC, v),
    "lp_norm(p)": lambda v: gr.lp_norm(F, v),
    "TLattice(m)": lambda v: po.TLattice(m=v, t_min=0.5, levels=2),
    "TLattice(t_min)": lambda v: po.TLattice(m=3, t_min=v, levels=2),
    "TLattice(levels)": lambda v: po.TLattice(m=3, t_min=0.5, levels=v),
    "TLattice(ratio)": lambda v: po.TLattice(m=3, t_min=0.5, levels=2, ratio=v),
    "build_field(selector)": lambda v: po.build_field(F, CONE, LATTICE, selector=v),
    "SpectralTestFunction(nodes)": lambda v: _stf(nodes=v),
    "SpectralTestFunction(weights)": lambda v: _stf(weights=v),
    "SpectralTestFunction(psi_vals)": lambda v: _stf(psi_vals=v),
    "make_bump_psi(center)": lambda v: _bump(center=v),
    "make_bump_psi(radius)": lambda v: _bump(radius=v),
    "make_bump_psi(nodes_per_axis)": lambda v: _bump(nodes_per_axis=v),
    "eval_f(z)": lambda v: sp.eval_f(STF, v),
    "slice_grid(y)": lambda v: sp.slice_grid(STF, SPEC, v),
    "hardy_norm(p)": lambda v: sp.hardy_norm(STF, CONE, v, LATTICE, SPEC),
}

VALID = {
    ("TwistedRectangleQuery(beta)", "float"),
    ("cauchy_szego(z)", "complex"),
    ("GridSpec(box_half)", "float"),
    ("TLattice(t_min)", "float"),
    ("TLattice(ratio)", "float"),
    ("build_field(selector)", "none"),
    ("build_field(selector)", "empty-dict"),
    ("SpectralTestFunction(psi_vals)", "complex"),
    ("make_bump_psi(radius)", "float"),
    ("eval_f(z)", "complex"),
    ("slice_grid(y)", "none"),
}


@pytest.mark.parametrize("slot, kind", [
    (slot, kind) for slot in SLOTS for kind in MALFORMED if (slot, kind) not in VALID])
def test_malformed_input_refused(slot, kind):
    with pytest.raises(TubeharmError):
        SLOTS[slot](MALFORMED[kind])


@pytest.mark.parametrize("slot, kind", sorted(VALID))
def test_valid_pairs_accepted(slot, kind):
    # the pairs left out of the probe are input the slot takes
    SLOTS[slot](MALFORMED[kind])
