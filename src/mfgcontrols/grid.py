"""Uniform periodic space-time lattice and its discrete calculus.

The domain is the flat torus in d = 1 or 2 dimensions crossed with [0, T].
Space is discretized with Nx nodes per axis (mesh width hx = 1/Nx, periodic
indexing), time with Nt intervals (step ht = T/Nt, Nt + 1 node slices).

The differential operators form an exact adjoint pair: ``grad_values`` is
the forward difference per axis and ``div_values`` the backward
difference, so

    <grad_values(u), w>_Q + <u, div_values(w)>_Q = 0

holds to rounding error, not merely to discretization order.  Discrete
integration by parts, mass conservation and the duality identities used by
the solvers all rest on this.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NotPSD

PSD_TOL = 1e-12


@dataclass(frozen=True)
class Grid:
    """Uniform periodic lattice on the unit torus times [0, T].

    Parameters
    ----------
    d : int
        Spatial dimension, 1 or 2.
    nx : int
        Nodes per spatial axis (>= 4).
    nt : int
        Time intervals (>= 2); fields carry nt + 1 time slices.
    T : float
        Horizon (> 0).
    """

    d: int
    nx: int
    nt: int
    T: float

    def __post_init__(self):
        if self.d not in (1, 2):
            raise ValueError(f"d must be 1 or 2, got {self.d}")
        if self.nx < 4:
            raise ValueError(f"nx must be >= 4, got {self.nx}")
        if self.nt < 2:
            raise ValueError(f"nt must be >= 2, got {self.nt}")
        if not self.T > 0:
            raise ValueError(f"T must be positive, got {self.T}")

    # derived once per grid: the solvers read them on every iteration

    @cached_property
    def hx(self) -> float:
        return 1.0 / self.nx

    @cached_property
    def ht(self) -> float:
        return self.T / self.nt

    @cached_property
    def space_shape(self) -> tuple:
        return (self.nx,) * self.d

    @cached_property
    def n_space(self) -> int:
        return self.nx**self.d

    @cached_property
    def cell_volume(self) -> float:
        return self.hx**self.d

    @cached_property
    def scalar_shape(self) -> tuple:
        return (self.nt + 1, *self.space_shape)

    @cached_property
    def vector_shape(self) -> tuple:
        return (self.nt + 1, self.d, *self.space_shape)

    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.nt + 1)

    def axis_coords(self) -> np.ndarray:
        """Node coordinates along one axis: 0, hx, ..., 1 - hx."""
        return np.arange(self.nx) / self.nx

    def meshgrid(self) -> tuple:
        """Tuple of d coordinate arrays of shape ``space_shape``."""
        axes = [self.axis_coords() for _ in range(self.d)]
        return tuple(np.meshgrid(*axes, indexing="ij"))


# -- stencils; the spatial axes are the trailing d axes ------------------------


def shift(u: np.ndarray, k: int, axis: int) -> np.ndarray:
    """Periodic shift by k nodes along one axis: np.roll(u, k, axis) as two slice copies."""
    n = u.shape[axis]
    k %= n
    out = np.empty_like(u)
    lead = (slice(None),) * (axis % u.ndim)
    out[lead + (slice(k, None),)] = u[lead + (slice(None, n - k),)]
    out[lead + (slice(None, k),)] = u[lead + (slice(n - k, None),)]
    return out


def grad_values(grid: Grid, u: np.ndarray) -> np.ndarray:
    """Forward-difference gradient, periodic wrap; adds a component axis.

    Input has arbitrary leading axes followed by the d spatial axes; the
    output prepends one axis of length d in front of the spatial axes...
    concretely for time-stacked scalars (nt+1, *space) -> (nt+1, d, *space).
    """
    lead = u.ndim - grid.d
    out = np.empty(u.shape[:lead] + (grid.d,) + u.shape[lead:])
    for i in range(grid.d):
        # one temporary per axis, differenced in place and divided straight into the output
        diff = shift(u, -1, lead + i)
        diff -= u
        np.divide(diff, grid.hx, out=out[(slice(None),) * lead + (i,)])
    return out


def div_values(grid: Grid, w: np.ndarray) -> np.ndarray:
    """Backward-difference divergence, the exact negative adjoint of grad.

    Input carries the component axis immediately before the spatial axes,
    e.g. (nt+1, d, *space) -> (nt+1, *space).
    """
    lead = w.ndim - grid.d - 1
    out = np.zeros(w.shape[:lead] + w.shape[lead + 1 :])
    for i in range(grid.d):
        ax = lead + i  # spatial axis i in the output layout
        sl = (slice(None),) * lead + (i,)
        wi = w[sl]
        out += (wi - shift(wi, 1, ax)) / grid.hx
    return out


def check_psd(A: np.ndarray, d: int) -> np.ndarray:
    A = np.asarray(A, dtype=float)
    if A.shape != (d, d):
        raise ValueError(f"A must be {d}x{d}, got {A.shape}")
    if np.max(np.abs(A - A.T)) > PSD_TOL:
        raise NotPSD("A is not symmetric")
    if np.min(np.linalg.eigvalsh(0.5 * (A + A.T))) < -PSD_TOL:
        raise NotPSD("A has a negative eigenvalue")
    return A


def diffusion_values(grid: Grid, A: np.ndarray, u: np.ndarray) -> np.ndarray:
    """A_ij d_ij u with centered second differences (constant A).

    Self-adjoint on the periodic lattice; with constant coefficients the same
    routine serves both the second-order term of the backward equation and
    its formal adjoint in the transport equation.  A raw stencil: A is not
    validated here; callers pass ``ProblemSpec.A_psd``, checked once per spec.
    """
    lead = u.ndim - grid.d
    out = np.zeros_like(u, dtype=float)
    hx2 = grid.hx**2
    for i in range(grid.d):
        ai = lead + i
        if A[i, i] != 0.0:
            out += A[i, i] * (shift(u, -1, ai) - 2.0 * u + shift(u, 1, ai)) / hx2
        for j in range(i + 1, grid.d):
            if A[i, j] != 0.0:
                aj = lead + j
                up, um = shift(u, -1, ai), shift(u, 1, ai)
                cross = (
                    shift(up, -1, aj) - shift(up, 1, aj) - shift(um, -1, aj) + shift(um, 1, aj)
                ) / (4.0 * hx2)
                out += 2.0 * A[i, j] * cross
    return out


def integrate_space_values(grid: Grid, f: np.ndarray) -> np.ndarray:
    """hx^d-weighted sum over the trailing d spatial axes."""
    axes = tuple(range(f.ndim - grid.d, f.ndim))
    return f.sum(axis=axes) * grid.cell_volume


def inner_Q(grid: Grid, a: np.ndarray, b: np.ndarray) -> float:
    """Space-time inner product with uniform ht * hx^d weights.

    The gradient/divergence and diffusion adjoint identities hold exactly
    per time slice, hence in this pairing (or any time quadrature).
    """
    return float(np.sum(a * b) * grid.ht * grid.cell_volume)
