"""Certification of candidate solutions against the equilibrium characterization.

A quadruplet (u, P, m, w) together with gamma = f(m) is certified through
eight numbers: the duality gap B + D, the one-sided violation of the
backward inequality, the transport residual, the pointwise price and
feedback residuals, the complementarity scalar, the mass drift and the
density minimum.  All residuals are interval-aligned L1 norms in the same
quadrature in which the discrete duality is exact.  The saddle-point loop
stops on this module's verdict at its gap tolerance.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import InvalidOption
from .grid import grad_values
from .model import ProblemSpec
from .varsolve import (
    Solution,
    SolverOptions,
    _constraint,
    _residual_norms,
    dual_gamma,
    eval_B,
    eval_D,
    kinetic_energy_values,
    solve_primal_dual,
)


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
    all below tol and the density minimum is above -tol.
    """
    g = spec.grid
    spec.A_psd  # raises NotPSD
    ht, vol = g.ht, g.cell_volume
    # interval fields: m, w, gamma at right nodes, u, P at left nodes
    m, w, gamma = sol.m[1:], sol.w[1:], sol.gamma[1:]
    u, P = sol.u[: g.nt], sol.P[: g.nt]
    # R, Z and xi once each, as the saddle-point loop forms them; the first interval starts
    # from the solution's own slot 0, whose mismatch with m0 is counted separately
    R, Z = _constraint(spec, m, w, sol.m[0]), spec.aggregate_kernel(w)
    xi = grad_values(g, u) + spec.phi_transpose_price(P)

    gap = eval_B(m, w, Z, spec) + eval_D(u, P, gamma, spec)
    f_m = spec.coupling_f(np.maximum(m, 0.0))
    hj_violation = float(np.sum(np.maximum(dual_gamma(spec, u, xi) - f_m, 0.0)) * ht * vol)
    fp_res, price_residual = _residual_norms(spec, R, Z, P)
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


@dataclass
class ProbeResult:
    m_distance: float
    P_distance: float
    u_distance_on_support: float
    gaps: list


def random_feasible_init(spec: ProblemSpec, rng: np.random.Generator) -> Solution:
    """Random positive unit-mass density path with small random momentum and duals."""
    g = spec.grid
    m = np.abs(1.0 + 0.3 * rng.standard_normal(g.scalar_shape)) * spec.m0
    masses = np.sum(m, axis=tuple(range(1, m.ndim)), keepdims=True) * g.cell_volume
    m = m / masses
    m[0] = spec.m0
    w = 0.1 * rng.standard_normal(g.vector_shape)
    w[0] = 0.0
    u = 0.1 * rng.standard_normal(g.scalar_shape)
    u[g.nt] = spec.uT
    P = 0.1 * rng.standard_normal((g.nt + 1, spec.k))
    gamma = spec.coupling_f(m)
    return Solution(grid=g, u=u, m=m, w=w, P=P, gamma=gamma)


def uniqueness_probe(spec: ProblemSpec, opts: SolverOptions | None = None, n_inits: int = 3, seed: int = 0) -> ProbeResult:
    """Solve from n random starts; return max pairwise L1 distances of (m, P).

    The value function is compared only on the region where the density
    stays positive, matching the uniqueness statement.
    """
    if n_inits < 1:
        raise InvalidOption("n_inits must be >= 1")
    g = spec.grid
    rng = np.random.default_rng(seed)
    sols, gaps = [], []
    for _ in range(n_inits):
        sol, log = solve_primal_dual(spec, opts, init=random_feasible_init(spec, rng))
        sols.append(sol)
        gaps.append(log.gap[-1] if log.gap else np.nan)
    ht, vol = g.ht, g.cell_volume
    m_d = P_d = u_d = 0.0
    for i in range(n_inits):
        for j in range(i + 1, n_inits):
            m_d = max(m_d, float(np.sum(np.abs(sols[i].m - sols[j].m)) * ht * vol))
            P_d = max(P_d, float(np.sum(np.abs(sols[i].P - sols[j].P)) * ht))
            support = (sols[i].m > 1e-6) & (sols[j].m > 1e-6)
            u_d = max(u_d, float(np.sum(np.abs((sols[i].u - sols[j].u))[support]) * ht * vol))
    return ProbeResult(m_distance=m_d, P_distance=P_d, u_distance_on_support=u_d, gaps=gaps)
