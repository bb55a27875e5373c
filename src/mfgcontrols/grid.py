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


def diffusion_stencil(A: np.ndarray) -> tuple:
    """Lattice split ((e, rho_e), ...) of A = sum rho_e e e^T, zero weights dropped.

    A diagonal A gives its axis terms in axis order.  A 2 x 2 diagonally
    dominant A (a_ii >= |a_12|) puts |a_12| on e_1 + sign(a_12) e_2 and
    a_ii - |a_12| on e_i: every weight is >= 0, so the stencil is monotone
    (Fehrenbach-Mirebeau, JMIV 2014).  Any other A gets +-a_12/2 on e_1 +- e_2,
    the centred cross difference, unless a_12/2 underflows to 0: then the first
    split carries a_12, and a_ii - |a_12| < 0 keeps its negative weight.  A is
    not validated here (``ProblemSpec.stencil`` is).
    """
    if len(A) == 1:
        terms = [((1,), A[0, 0])]
    elif min(A[0, 0], A[1, 1]) >= abs(A[0, 1]) or A[0, 1] / 2 == 0.0:
        b = abs(A[0, 1])
        terms = [((1, 0), A[0, 0] - b), ((0, 1), A[1, 1] - b), ((1, 1 if A[0, 1] > 0 else -1), b)]
    else:
        terms = [((1, 0), A[0, 0]), ((0, 1), A[1, 1]), ((1, 1), A[0, 1] / 2), ((1, -1), -A[0, 1] / 2)]
    return tuple((e, float(rho)) for e, rho in terms if rho != 0.0)


def diffusion_values(grid: Grid, stencil: tuple, u: np.ndarray) -> np.ndarray:
    """sum rho_e (u(x + e hx) - 2 u + u(x - e hx)) / hx^2 over a ``diffusion_stencil``.

    Self-adjoint on the periodic lattice; with constant coefficients the same
    routine serves both the second-order term of the backward equation and
    its formal adjoint in the transport equation.
    """
    lead = u.ndim - grid.d
    out = np.zeros_like(u, dtype=float)
    hx2 = grid.hx**2
    for e, rho in stencil:
        ahead = behind = u  # u(x + e hx) and u(x - e hx), one periodic shift per nonzero component of e
        for ax, k in enumerate(e, lead):
            if k:
                ahead, behind = shift(ahead, -k, ax), shift(behind, k, ax)
        out += rho * (ahead - 2.0 * u + behind) / hx2
    return out


def diffusion_symbol(grid: Grid, stencil: tuple, theta: tuple):
    """sum rho_e (2 sin(e.theta/2)/hx)^2, the Fourier symbol of -diffusion_values at angles theta (one per axis)."""
    return sum(rho * (2.0 * np.sin(sum(ei * th for ei, th in zip(e, theta)) / 2.0) / grid.hx) ** 2
               for e, rho in stencil)


def diffusion_rate(grid: Grid, stencil: tuple) -> float:
    """2 sum |rho_e| / hx^2: the explicit step's stability rate (with every rho_e >= 0, its positivity rate)."""
    return 2.0 * sum(abs(rho) for _, rho in stencil) / grid.hx**2


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
