"""Numerical laboratory for sine-Gordon kink dynamics.

Submodules:
    fields      grids, states, norms, Fourier multipliers, I/O
    exact       closed-form solutions
    evolve      time integrators and conserved-quantity diagnostics
    backlund    the Backlund transform, forward and inverse
    tracking    kink-center selection and decay diagnostics
    scattering  wave-packet profile extraction and asymptotic predictors
    experiments reproducible experiment runner
    cli         command-line interface
"""

from .fields import Field, Grid, State, Topology, make_grid, norm

__all__ = ["Field", "Grid", "State", "Topology", "make_grid", "norm"]

__version__ = "0.1.0"
