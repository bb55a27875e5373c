"""Canonical test instances shared by the demos and the test suite."""

from __future__ import annotations

import numpy as np

from .grid import Grid
from .model import ProblemSpec


def uniform_instance(nx: int = 32, nt: int = 32, T: float = 1.0) -> ProblemSpec:
    """Flat instance whose equilibrium is known in closed form.

    With unit data the quadruplet m = 1, w = 0, P = 0, u = T - t, gamma = 1
    satisfies every discrete optimality relation exactly, so solver output
    can be checked against it at machine tolerance.
    """
    grid = Grid(d=1, nx=nx, nt=nt, T=T)
    return ProblemSpec(grid=grid, q=2.0, r=2.0, s=2.0, kappa_phi=1.0, theta=1.0,
                       c=1.0, phi=1.0, A=None, m0=np.ones(grid.space_shape), uT=0.0, k=1)


def bump_instance(nx: int = 64, nt: int = 64, T: float = 1.0, mu: float = 0.3,
                  sigma: float = 0.3, motion_cost: float = 0.01, kappa_phi: float = 1.0) -> ProblemSpec:
    """Asymmetric gaussian-bump instance with a cosine terminal cost.

    The off-center bump breaks the symmetry of the terminal cost, so the
    aggregate flux and the price path are nonzero.  The small Hamiltonian
    coefficient keeps control expensive: the equilibrium stays smooth and
    strictly positive, which both solvers (and the fixed-point loop in
    particular) need to operate.
    """
    grid = Grid(d=1, nx=nx, nt=nt, T=T)
    x = grid.axis_coords()
    dist = np.minimum(np.abs(x - mu), 1.0 - np.abs(x - mu))
    m0 = np.exp(-0.5 * (dist / sigma) ** 2)
    return ProblemSpec(grid=grid, q=2.0, r=2.0, s=2.0, kappa_phi=kappa_phi, theta=1.0,
                       c=motion_cost, phi=1.0, A=None, m0=m0, uT=np.cos(2.0 * np.pi * x), k=1)
