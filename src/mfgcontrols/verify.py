"""The weak solution, its functionals, and its certification.

The discrete problem minimizes

    B(m, w) = sum_n ht < m_n H*(x, -w_n/m_n) + F(x, m_n) >
            + sum_n ht Phi(int phi w_n) + < u_T, m_Nt >

over the transport constraint

    (m_n - m_{n-1})/ht - A_ij d_ij m_n + div w_n = 0,   m_0 = m0,

with the perspective convention at m = 0.  Functionals and residuals take
interval fields of nt slices: interval n carries its m, w and gamma values
at the right time node n and its dual u, P values at the left node n-1
(``Solution`` keeps the (nt+1)-slot artifact layout).  With the exact
adjoint pair of the grid module this makes the discrete duality

    min B = -min D,   D(u, P, gamma) = -<u(0), m0> + sum ht Phi*(P) + sum ht <F*(gamma)>

an exact finite-dimensional identity, so the duality gap is a genuine
optimality certificate.

A quadruplet (u, P, m, w) together with gamma = f(m) is certified through
eight numbers: the duality gap B + D, the one-sided violation of the
backward inequality, the transport residual, the pointwise price and
feedback residuals, the complementarity scalar, the mass drift and the
density minimum.  All residuals are interval-aligned L1 norms in the same
quadrature in which the discrete duality is exact.  The saddle-point loop
stops on this module's verdict at its gap tolerance.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import InvalidOption
from .grid import Grid, diffusion_values, div_values, grad_values
from .model import ProblemSpec


@dataclass(frozen=True)
class Solution:
    """Fields of one candidate equilibrium on the lattice.

    u, m, gamma: (nt+1, *space); w: (nt+1, d, *space); P: (nt+1, k).
    Slice 0 of w is identically zero (no interval ends at t = 0) and slice
    nt of u equals the terminal cost.  gamma is the congestion multiplier
    f(max(m, 0)); every solver sets it so, and a run directory does not
    store it: io.read_solution derives it from m.
    """

    grid: Grid
    u: np.ndarray = field(repr=False)
    m: np.ndarray = field(repr=False)
    w: np.ndarray = field(repr=False)
    P: np.ndarray = field(repr=False)
    gamma: np.ndarray = field(repr=False)

    def __post_init__(self):
        g = self.grid
        for name, arr, shape in (
            ("u", self.u, g.scalar_shape),
            ("m", self.m, g.scalar_shape),
            ("w", self.w, g.vector_shape),
            ("gamma", self.gamma, g.scalar_shape),
        ):
            arr = np.asarray(arr, dtype=float)
            if arr.shape != shape:
                raise ValueError(f"{name} has shape {arr.shape}, expected {shape}")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} has non-finite entries")
            object.__setattr__(self, name, arr)
        P = np.asarray(self.P, dtype=float)
        if P.ndim != 2 or P.shape[0] != g.nt + 1:
            raise ValueError(f"P has shape {P.shape}, expected ({g.nt + 1}, k)")
        object.__setattr__(self, "P", P)


@dataclass
class ResidualReport:
    duality_gap: float
    hj_violation: float
    fp_residual: float
    price_residual: float
    feedback_residual: float
    complementarity: float
    mass_drift: float
    m_min: float

    def to_dict(self) -> dict:
        return asdict(self)


# -- functionals ---------------------------------------------------------------


def kinetic_energy_values(spec: ProblemSpec, m: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Pointwise perspective cost m H*(x, -w/m); +inf where m = 0 and w != 0."""
    pos = m > 0.0
    vacuum = not pos.all()  # without a vacuum node there is no +inf to place: the PD loop's case
    base = np.where(pos, m, 1.0) if vacuum else m
    kin = spec.ham_conjugate(w) / (base if spec.r_prime == 2.0 else base ** (spec.r_prime - 1.0))  # m ** 1.0 is m
    if vacuum:
        kin[~pos & (kin > 0.0)] = np.inf  # there kin = H*(w), positive iff w != 0
    return kin


def eval_B(m: np.ndarray, w: np.ndarray, Z: np.ndarray, spec: ProblemSpec) -> float:
    """Primal cost of interval fields with Z = aggregate_kernel(w); +inf on m < 0 or convention breach."""
    g = spec.grid
    if m.min() < 0.0:
        return np.inf
    # a perspective breach makes the kinetic sum, and so B, +inf
    total = float(kinetic_energy_values(spec, m, w).sum() + spec.F(m).sum()) * g.ht * g.cell_volume
    if not spec.price_free:
        total += float(spec.Phi(Z).sum()) * g.ht
    return total + float(np.vdot(spec.uT, m[-1])) * g.cell_volume


def eval_D(u: np.ndarray, P: np.ndarray, gamma: np.ndarray, spec: ProblemSpec) -> float:
    """Dual cost of interval fields (u, P at left nodes, gamma at right nodes)."""
    g = spec.grid
    total = -float(np.vdot(u[0], spec.m0)) * g.cell_volume
    total += float(spec.Phi_star(P).sum()) * g.ht
    return total + float(spec.F_star(gamma).sum()) * g.ht * g.cell_volume


def dual_gamma(spec: ProblemSpec, u_int: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """Dual-feasible congestion multiplier from interval u and xi = Du + phi^T P.

    gamma_i = -(u_{i+1} - u_i)/ht - A_ij d_ij u_i + H(x, xi_i) with the
    terminal ghost u_nt = u_T.  Evaluating D here yields a valid lower bound
    on -B at every iterate.
    """
    g = spec.grid
    gam = spec.hamiltonian(xi)
    if spec.stencil:
        gam -= diffusion_values(g, spec.stencil, u_int)
    gam[:-1] += (u_int[:-1] - u_int[1:]) / g.ht
    gam[-1] += (u_int[-1] - spec.uT) / g.ht
    return gam


# -- the transport operator K and its adjoint ----------------------------------


def transport_residual(spec: ProblemSpec, m: np.ndarray, w: np.ndarray, m_start=None) -> np.ndarray:
    """R[i]: residual of interval i+1 from interval variables m, w (nt, ...).

    m_start is the density slice the first interval starts from, m0 by
    default; 0 gives the linear part K, and the verifier passes the slot-0
    density of the solution it checks.  R is affine in (m, w); ``varsolve``
    extrapolates it so.
    """
    g = spec.grid
    R = div_values(g, w)
    R[0] += (m[0] - (spec.m0 if m_start is None else m_start)) / g.ht
    R[1:] += (m[1:] - m[:-1]) / g.ht
    if spec.stencil:
        R -= diffusion_values(g, spec.stencil, m)
    return R


def transport_adjoint_m(spec: ProblemSpec, u: np.ndarray) -> np.ndarray:
    """The m-part of K^T u; its w-part is -grad_values(grid, u)."""
    g = spec.grid
    gm = u / g.ht
    gm[:-1] -= u[1:] / g.ht
    if spec.stencil:
        gm -= diffusion_values(g, spec.stencil, u)
    return gm


def residual_norms(spec: ProblemSpec, R: np.ndarray, Z: np.ndarray, P: np.ndarray):
    """(fp_res, price_res) = (sum ht hx^d |R|, sum ht |P - Psi(Z)|) of R and Z = aggregate_kernel(w)."""
    g = spec.grid
    fp_res = float(np.abs(R).sum()) * g.ht * g.cell_volume
    dP = P - spec.Psi(Z)
    return fp_res, float(np.sqrt((dP * dP).sum(axis=-1)).sum()) * g.ht


def complementarity_value(sol: Solution, spec: ProblemSpec) -> float:
    """Quadrature of m f(m) + m H*(-w/m) + <P, phi w> plus the boundary pairing.

    Zero exactly at a certified equilibrium; +inf where the momentum fails
    to vanish where the density does, as the kinetic cost is there.
    """
    g = spec.grid
    m, w = sol.m[1:], sol.w[1:]
    kin = kinetic_energy_values(spec, m, w)
    body = np.maximum(m, 0.0) * spec.coupling_f(np.maximum(m, 0.0)) + kin
    total = float(np.sum(body) * g.ht * g.cell_volume)
    z = spec.aggregate_kernel(w)
    total += float(np.sum(sol.P[: g.nt] * z) * g.ht)
    total += float(np.sum(spec.uT * sol.m[g.nt]) * g.cell_volume)
    total -= float(np.sum(sol.u[0] * spec.m0) * g.cell_volume)
    return total


def weak_solution_report(sol: Solution, spec: ProblemSpec, tol: float = 1e-3):
    """Compute the full residual report; returns (report, verdict).

    The verdict is true when the gap, the backward-inequality violation,
    the transport, price and feedback residuals and |complementarity| are
    all below tol and the density minimum is above -tol.  A tol that is
    negative or NaN raises InvalidOption: no verdict could hold at it.
    """
    if not tol >= 0.0:
        raise InvalidOption(f"tol must be >= 0, got {tol}")
    g = spec.grid
    spec.stencil  # raises NotPSD
    ht, vol = g.ht, g.cell_volume
    m, w, gamma = sol.m[1:], sol.w[1:], sol.gamma[1:]
    u, P = sol.u[: g.nt], sol.P[: g.nt]
    # R, Z and xi once each, as the saddle-point loop forms them; the first interval starts
    # from the solution's own slot 0, whose mismatch with m0 is counted separately
    R, Z = transport_residual(spec, m, w, sol.m[0]), spec.aggregate_kernel(w)
    xi = grad_values(g, u) + spec.phi_transpose_price(P)

    gap = eval_B(m, w, Z, spec) + eval_D(u, P, gamma, spec)
    f_m = spec.coupling_f(np.maximum(m, 0.0))
    hj_violation = float(np.sum(np.maximum(dual_gamma(spec, u, xi) - f_m, 0.0)) * ht * vol)
    fp_res, price_residual = residual_norms(spec, R, Z, P)
    fp_residual = float(np.sum(np.abs(sol.m[0] - spec.m0)) * vol) + fp_res
    fb = w + np.maximum(m, 0.0)[:, None] * spec.dH(xi)
    feedback_residual = float(np.sum(np.sqrt(np.sum(fb * fb, axis=1))) * ht * vol)

    compl = complementarity_value(sol, spec)
    masses = np.sum(sol.m, axis=tuple(range(1, sol.m.ndim))) * vol
    mass_drift = float(np.max(np.abs(masses - 1.0)))
    m_min = float(np.min(sol.m))

    report = ResidualReport(
        duality_gap=gap,
        hj_violation=hj_violation,
        fp_residual=fp_residual,
        price_residual=price_residual,
        feedback_residual=feedback_residual,
        complementarity=compl,
        mass_drift=mass_drift,
        m_min=m_min,
    )
    checks = [gap, hj_violation, fp_residual, price_residual, feedback_residual, abs(compl)]
    verdict = all(np.isfinite(v) and abs(v) <= tol for v in checks) and m_min >= -tol
    return report, bool(verdict)
