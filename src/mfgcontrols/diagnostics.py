"""Regularity functionals and shift-quotient scaling experiments.

The space norms measure the Sobolev-type quantities ||m^(q/2-1) Dm|| and
||m^(1/2) D(j1(Du))|| over the space-time cylinder.  The shift sums evaluate
the coercivity left-hand sides at a finite perturbation: exact periodic grid
shifts in space, a smooth time reparametrization t -> t + eps*sin^2(pi t/T)
in time.  Their scaling in the shift parameter (quadratic, by the coercivity
estimates) is the testable content; the multiplicative constants of the
estimates are not effective and are left at one.

Time diagnostics require zero diffusion (A = 0); q < 2 and s' < 2 weights
are restricted to the region where the weight base exceeds 1e-10.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import InvalidOption
from .grid import grad_values, integrate_space_values, shift
from .model import ProblemSpec, power_gradient
from .verify import Solution

_WEIGHT_FLOOR = 1e-10


@dataclass
class RegularityRecord:
    space_norm_m: float
    space_norm_j: float
    time_norm_m: dict = field(default_factory=dict)
    time_norm_P: dict = field(default_factory=dict)
    time_shift_sums: dict = field(default_factory=dict)
    space_shift_sums: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        """The fields in order, with the shift tables keyed by str(shift)."""
        return {k: {str(s): v for s, v in val.items()} if isinstance(val, dict) else val
                for k, val in asdict(self).items()}


def j1(xi, spec: ProblemSpec, axis=-1):
    """|xi|^(r/2-1) xi on the component axis, vanishing at the origin."""
    return power_gradient(xi, 1.0, spec.r / 2.0 + 1.0, axis)


def _integrate_Q_values(grid, values) -> float:
    """Space-time integral: hx^d-weighted sum in space, trapezoidal rule in time."""
    return float(np.trapezoid(integrate_space_values(grid, values), dx=grid.ht))


def space_regularity(sol: Solution, spec: ProblemSpec):
    """(||m^(q/2-1) Dm||_L2, ||m^(1/2) D(j1(Du))||_L2) on {m > 1e-10}."""
    g = spec.grid
    m = sol.m
    mask = m > _WEIGHT_FLOOR
    dm = grad_values(g, m)
    dm2 = np.sum(dm * dm, axis=1)
    m_safe = np.where(mask, m, 1.0)
    integrand_m = np.where(mask, m_safe ** (spec.q - 2.0) * dm2, 0.0)
    norm_m = float(np.sqrt(max(_integrate_Q_values(g, integrand_m), 0.0)))

    j = j1(grad_values(g, sol.u), spec, axis=1)  # (nt+1, d, *space)
    jac2 = np.zeros_like(m)
    for i in range(g.d):
        dji = grad_values(g, j[:, i])
        jac2 += np.sum(dji * dji, axis=1)
    integrand_j = np.where(mask, m_safe, 0.0) * jac2
    norm_j = float(np.sqrt(max(_integrate_Q_values(g, integrand_j), 0.0)))
    return norm_m, norm_j


def time_norms(sol: Solution, spec: ProblemSpec, eps: float):
    """(||d/dt m^(q/2)||_L2, ||d/dt (|P|^(s'/2-1) P)||_L2) on (eps, T - eps)."""
    g = spec.grid
    t = g.times()
    inner = (t[:-1] >= eps) & (t[1:] <= g.T - eps)
    dmq = (np.maximum(sol.m[1:], 0.0) ** (spec.q / 2.0) - np.maximum(sol.m[:-1], 0.0) ** (spec.q / 2.0)) / g.ht
    sq = np.sum(dmq[inner] ** 2, axis=tuple(range(1, dmq.ndim))) * g.cell_volume if inner.any() else np.zeros(0)
    norm_m = float(np.sqrt(np.sum(sq) * g.ht))
    if spec.price_free:
        return norm_m, 0.0
    s_half = spec.s_prime / 2.0 + 1.0
    Pp = power_gradient(sol.P, 1.0, s_half)
    dP = (Pp[1:] - Pp[:-1]) / g.ht
    norm_P = float(np.sqrt(np.sum(dP[inner] ** 2) * g.ht)) if inner.any() else 0.0
    return norm_m, norm_P


def _interp_time(values: np.ndarray, grid, query_t: np.ndarray) -> np.ndarray:
    """Linear interpolation of node-slotted values at query times (per slot axis 0)."""
    pos = np.clip(query_t / grid.ht, 0.0, grid.nt)
    i0 = np.floor(pos).astype(int)
    i1 = np.minimum(i0 + 1, grid.nt)
    frac = (pos - i0).reshape((-1,) + (1,) * (values.ndim - 1))
    return (1.0 - frac) * values[i0] + frac * values[i1]


def _min_weight(a, b, expo):
    base = np.minimum(a, b)
    if expo == 0.0:
        return np.ones_like(base)
    mask = base > _WEIGHT_FLOOR
    safe = np.where(mask, base, 1.0)
    return np.where(mask, safe**expo, 0.0)


def _coercivity_terms(sol: Solution, spec: ProblemSpec, dj, m_shifted) -> float:
    """Feedback and density terms of a shift sum: dj the difference of the shifted j1
    arguments, m_shifted the density compared with sol.m under the min-power weight."""
    g = spec.grid
    term_H = 0.5 * _integrate_Q_values(g, np.maximum(sol.m, 0.0) * np.sum(dj * dj, axis=1))
    wgt = _min_weight(np.maximum(m_shifted, 0.0), np.maximum(sol.m, 0.0), spec.q - 2.0)
    return term_H + 0.5 * _integrate_Q_values(g, wgt * (m_shifted - sol.m) ** 2)


def time_shift_sum(sol: Solution, spec: ProblemSpec, eps: float, eta_fn=None) -> float:
    """Three-term coercivity sum at time shift eps (zero diffusion only).

    Fields are composed with t -> t +/- eps eta(t) by linear interpolation;
    the feedback term differences the shifted j1 arguments, the density and
    price terms difference shifted against unshifted values with min-power
    weights.  eta defaults to sin^2(pi t / T); any smooth bump vanishing at
    both endpoints with |eps eta'| < 1 gives the same scaling exponent.
    """
    g = spec.grid
    if spec.A.any():
        raise InvalidOption("time diagnostics require zero diffusion (A = 0)")
    if not abs(eps) < g.T / 4.0:  # written so that NaN fails it too
        raise InvalidOption(f"|eps| must be below T/4 = {g.T / 4.0}")
    if eps == 0.0:
        return 0.0
    t = g.times()
    eta = np.sin(np.pi * t / g.T) ** 2 if eta_fn is None else np.asarray(eta_fn(t), dtype=float)
    t_plus = t + eps * eta
    t_minus = t - eps * eta

    u_p = _interp_time(sol.u, g, t_plus)
    u_m = _interp_time(sol.u, g, t_minus)
    P_p = _interp_time(sol.P, g, t_plus)
    P_m = _interp_time(sol.P, g, t_minus)
    m_p = _interp_time(sol.m, g, t_plus)

    def j1_arg(u_arr, P_arr):
        return j1(grad_values(g, u_arr) + spec.phi_transpose_price(P_arr), spec, axis=1)

    terms = _coercivity_terms(sol, spec, j1_arg(u_p, P_p) - j1_arg(u_m, P_m), m_p)
    if spec.price_free:
        term_P = 0.0
    else:
        np_p = np.linalg.norm(P_p, axis=-1)
        np_0 = np.linalg.norm(sol.P, axis=-1)
        wgt_P = _min_weight(np_p, np_0, spec.s_prime - 2.0)
        diffs = wgt_P * np.sum((P_p - sol.P) ** 2, axis=-1)
        term_P = 0.5 * float(np.trapezoid(diffs, dx=g.ht))
    return float(terms + term_P)


def space_shift_sum(sol: Solution, spec: ProblemSpec, delta: float) -> float:
    """Two-term coercivity sum at an exact periodic space shift delta.

    delta must be an integer multiple of the mesh width; the shift acts on
    the first spatial axis.
    """
    g = spec.grid
    ratio = delta / g.hx
    nodes = int(round(ratio))
    if abs(ratio - nodes) > 1e-9:
        raise InvalidOption(f"delta = {delta} is not a multiple of hx = {g.hx}")
    if nodes == 0:
        return 0.0
    xi = grad_values(g, sol.u) + spec.phi_transpose_price(sol.P)

    def j1_shifted(s):
        # shift u and phi together: shift the assembled argument along axis 2,
        # the first spatial axis of (nt+1, d, *space)
        return j1(shift(xi, -s, 2), spec, axis=1)

    m_d = shift(sol.m, -nodes, 1)  # axis 1: first spatial axis of (nt+1, *space)
    return float(_coercivity_terms(sol, spec, j1_shifted(nodes) - j1_shifted(-nodes), m_d))


def diagnose(sol: Solution, spec: ProblemSpec, eps_list=(), delta_list=()) -> RegularityRecord:
    """Assemble the full regularity record for a solution."""
    norm_m, norm_j = space_regularity(sol, spec)
    rec = RegularityRecord(space_norm_m=norm_m, space_norm_j=norm_j)
    for eps in eps_list:
        tm, tp = time_norms(sol, spec, eps)
        rec.time_norm_m[eps] = tm
        rec.time_norm_P[eps] = tp
        rec.time_shift_sums[eps] = time_shift_sum(sol, spec, eps)
    for delta in delta_list:
        rec.space_shift_sums[delta] = space_shift_sum(sol, spec, delta)
    return rec
