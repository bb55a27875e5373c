"""Primal functional, dual functional, and the first-order saddle-point solver.

The discrete problem minimizes

    B(m, w) = sum_n ht < m_n H*(x, -w_n/m_n) + F(x, m_n) >
            + sum_n ht Phi(int phi w_n) + < u_T, m_Nt >

over the transport constraint

    (m_n - m_{n-1})/ht - A_ij d_ij m_n + div w_n = 0,   m_0 = m0,

with the perspective convention at m = 0.  Interval n carries its m, w and
gamma values at the right time node n and its dual u, P values at the left
node n-1; with the exact adjoint pair of the grid module this makes the
discrete duality

    min B = -min D,   D(u, P, gamma) = -<u(0), m0> + sum ht Phi*(P) + sum ht <F*(gamma)>

an exact finite-dimensional identity, so the duality gap of the iterates is
a genuine optimality certificate.

The iteration is the standard primal-dual hybrid gradient loop: a plain
shift step on the transport multiplier u, the radial conjugate-potential
prox on the price P, and the exact pointwise prox of kinetic + congestion
on (m, w), with extrapolation m + (m - m_prev).  Step sizes obey
tau * sigma * L^2 <= 1 with L bounded in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidOption, StepSizeViolation
from .grid import Grid, check_psd, div_values, diffusion_values, grad_values
from .model import ProblemSpec
from .prox import prox_kinetic_congestion, prox_Phi_star


@dataclass(frozen=True)
class Solution:
    """Fields of one candidate equilibrium on the lattice.

    u, m, gamma: (nt+1, *space); w: (nt+1, d, *space); P: (nt+1, k).
    Slice 0 of w is identically zero (no interval ends at t = 0) and slice
    nt of u equals the terminal cost.
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
class SolverOptions:
    """Step sizes and termination for the saddle-point loop.

    tau / sigma_step default to the balanced choice 0.99/L from the
    closed-form bound on L; explicit values are checked against
    tau * sigma * L^2 <= 1.
    """

    tau: float | None = None
    sigma_step: float | None = None
    max_iter: int = 20000
    tol_gap: float = 1e-6
    step_ratio: float = 1.0

    def __post_init__(self):
        if not self.tol_gap >= 0.0:
            raise InvalidOption("tol_gap must be >= 0")
        if self.max_iter < 1:
            raise InvalidOption("max_iter must be >= 1")
        if not 0.0 < self.step_ratio < np.inf:
            raise InvalidOption("step_ratio must be positive and finite")
        for name in ("tau", "sigma_step"):
            value = getattr(self, name)
            if value is not None and not value > 0.0:
                raise InvalidOption(f"{name} must be positive")


@dataclass
class ConvergenceLog:
    """Per-iteration history of the saddle-point run."""

    iters: list = field(default_factory=list)
    B: list = field(default_factory=list)
    D: list = field(default_factory=list)
    gap: list = field(default_factory=list)
    fp_res: list = field(default_factory=list)
    price_res: list = field(default_factory=list)
    converged: bool = False
    iterations: int = 0
    m_min: float = np.inf
    operator_norm: float = np.nan

    def append(self, it, B, D, gap, fp_res, price_res):
        self.iters.append(it)
        self.B.append(B)
        self.D.append(D)
        self.gap.append(gap)
        self.fp_res.append(fp_res)
        self.price_res.append(price_res)

    def rows(self):
        for i in range(len(self.iters)):
            yield (self.iters[i], self.B[i], self.D[i], self.gap[i], self.fp_res[i], self.price_res[i])


# -- functionals ---------------------------------------------------------------


def kinetic_energy_values(spec: ProblemSpec, m: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Pointwise perspective cost m H*(x, -w/m); +inf where m = 0 and w != 0."""
    g = spec.grid
    rp = spec.r_prime
    wnorm = np.sqrt(np.sum(w * w, axis=w.ndim - g.d - 1))
    cp = spec.c ** (1.0 - rp)
    m_pos = np.where(m > 0.0, m, 1.0)
    interior = cp * wnorm**rp * m_pos ** (1.0 - rp) / rp
    return np.where(m > 0.0, interior, np.where(wnorm > 0.0, np.inf, 0.0))


def eval_B(m: np.ndarray, w: np.ndarray, spec: ProblemSpec) -> float:
    """Primal cost on full (nt+1)-slotted fields; +inf on m < 0 or convention breach."""
    g = spec.grid
    if np.min(m) < 0.0:
        return np.inf
    kin = kinetic_energy_values(spec, m[1:], w[1:])
    if np.any(np.isinf(kin)):
        return np.inf
    body = kin + spec.F(m[1:])
    total = float(np.sum(body) * g.ht * g.cell_volume)
    if not spec.price_free:
        z = aggregate_flux(w, spec)[1:]
        total += float(np.sum(spec.Phi(z)) * g.ht)
    total += float(np.sum(spec.uT * m[g.nt]) * g.cell_volume)
    return total


def eval_D(u: np.ndarray, P: np.ndarray, gamma: np.ndarray, spec: ProblemSpec) -> float:
    """Dual cost on full (nt+1)-slotted fields (interval slots as documented)."""
    g = spec.grid
    total = -float(np.sum(u[0] * spec.m0) * g.cell_volume)
    total += float(np.sum(spec.Phi_star(P[: g.nt])) * g.ht)
    total += float(np.sum(spec.F_star(gamma[1:])) * g.ht * g.cell_volume)
    return total


def aggregate_flux(w: np.ndarray, spec: ProblemSpec) -> np.ndarray:
    """Aggregated control flux z_n = int phi(x) w_n(x) dx per time node -> (nt+1, k)."""
    return spec.aggregate_kernel(w)


def fp_constraint(m: np.ndarray, w: np.ndarray, spec: ProblemSpec) -> np.ndarray:
    """Transport residual, (nt+1)-slotted: slice 0 is m_0 - m0, slice n the interval residual."""
    out = np.empty(spec.grid.scalar_shape)
    out[0] = m[0] - spec.m0
    out[1:] = _constraint(spec, m[1:], w[1:], m[0])
    return out


# -- internal interval-variable operators --------------------------------------


def _constraint(spec, m, w, m_start=None):
    """R[i]: residual of interval i+1 from interval variables m, w (nt, ...).

    m_start is the density slice the first interval starts from, m0 by
    default; 0 gives the linear part, and fp_constraint passes its own
    slot-0 density.
    """
    g = spec.grid
    R = np.empty_like(m)
    R[0] = (m[0] - (spec.m0 if m_start is None else m_start)) / g.ht
    R[1:] = (m[1:] - m[:-1]) / g.ht
    if np.any(spec.A):
        R -= diffusion_values(g, spec.A, m)
    R += div_values(g, w)
    return R


def _adjoint_m(spec, u):
    g = spec.grid
    gm = u / g.ht
    if np.any(spec.A):
        gm -= diffusion_values(g, spec.A, u)
    gm[:-1] -= u[1:] / g.ht
    return gm


def _adjoint_w(spec, u):
    return -grad_values(spec.grid, u)


def estimate_operator_norm(spec: ProblemSpec, include_price: bool = True) -> float:
    """Closed-form upper bound on the constraint-plus-aggregation operator norm.

    The norm is taken in the weighted inner products (ht hx^d on fields, ht
    on price paths) in which the prox steps are pointwise.  Every stencil
    has constant coefficients, so the spatial DFT diagonalises the
    constraint: for mode theta the divergence has squared symbol
    beta = sum_i (2 sin(theta_i/2)/hx)^2, the diffusion term has symbol
    lam = sum_i A_ii (2 sin(theta_i/2)/hx)^2 + sum_{i<j} 2 A_ij sin theta_i sin theta_j / hx^2
    (>= 0 for PSD A), and the time part is the nt x nt bidiagonal D + lam I,
    D = (I - subdiagonal)/ht.  The squared constraint norm of the mode is
    ||D + lam I||^2 + beta.  A +-1 diagonal similarity makes D + lam I
    entrywise nonnegative, so its norm grows with lam and
    ||D + max(lam) I||^2 + max(beta) bounds every mode.  The aggregation
    rows act per time slice with squared norm lambda_max(hx^d sum_x phi phi^T),
    the k x k Gram matrix of the kernel, and ||[K; G]||^2 <= ||K||^2 + ||G||^2.
    """
    g = spec.grid
    theta = np.meshgrid(*[2.0 * np.pi * np.arange(g.nx) / g.nx] * g.d, indexing="ij")
    a2 = [(2.0 * np.sin(th / 2.0) / g.hx) ** 2 for th in theta]
    beta = sum(a2)
    lam = sum(spec.A[i, i] * a2[i] for i in range(g.d))
    for i in range(g.d):
        for j in range(i + 1, g.d):
            lam = lam + 2.0 * spec.A[i, j] * np.sin(theta[i]) * np.sin(theta[j]) / g.hx**2
    time_part = (1.0 / g.ht + np.max(lam)) * np.eye(g.nt) - np.eye(g.nt, k=-1) / g.ht
    L2 = np.linalg.norm(time_part, 2) ** 2 + np.max(beta)
    if include_price:
        phi = spec.phi.reshape(spec.k, -1)
        L2 += np.linalg.eigvalsh(phi @ phi.T * g.cell_volume)[-1]
    return float(np.sqrt(L2))


def dual_gamma(spec: ProblemSpec, u_int: np.ndarray, p_int: np.ndarray) -> np.ndarray:
    """Dual-feasible congestion multiplier from (u, P) interval variables.

    gamma_i = -(u_{i+1} - u_i)/ht - A_ij d_ij u_i + H(x, Du_i + phi^T P_i)
    with the terminal ghost u_nt = u_T.  Evaluating D here yields a valid
    lower bound on -B at every iterate.
    """
    g = spec.grid
    xi = grad_values(g, u_int) + spec.phi_transpose_price(p_int)
    gam = spec.hamiltonian(xi)
    if np.any(spec.A):
        gam -= diffusion_values(g, spec.A, u_int)
    gam[:-1] += (u_int[:-1] - u_int[1:]) / g.ht
    gam[-1] += (u_int[-1] - spec.uT) / g.ht
    return gam


def _full_fields(spec, m, w):
    g = spec.grid
    m_full = np.concatenate([spec.m0[None], m], axis=0)
    w_full = np.concatenate([np.zeros((1, g.d, *g.space_shape)), w], axis=0)
    return m_full, w_full


def _finalize(spec, m, w, u_cp, p) -> Solution:
    g = spec.grid
    m_full, w_full = _full_fields(spec, m, w)
    u_full = np.concatenate([-u_cp, spec.uT[None]], axis=0)
    z_last = spec.aggregate_kernel(w[-1])
    P_full = np.concatenate([p, spec.Psi(z_last)[None]], axis=0)
    gamma = spec.coupling_f(np.maximum(m_full, 0.0))
    return Solution(grid=g, u=u_full, m=m_full, w=w_full, P=P_full, gamma=gamma)


def default_init(spec: ProblemSpec):
    """Deterministic start: stationary density, zero momentum and duals."""
    g = spec.grid
    m = np.broadcast_to(spec.m0, (g.nt, *g.space_shape)).copy()
    w = np.zeros((g.nt, g.d, *g.space_shape))
    u = np.zeros((g.nt, *g.space_shape))
    p = np.zeros((g.nt, spec.k))
    return m, w, u, p


def solve_primal_dual(spec: ProblemSpec, opts: SolverOptions | None = None, init: Solution | None = None,
                      include_price: bool = True):
    """Run the saddle-point iteration; returns (Solution, ConvergenceLog).

    Terminates when |B + D| <= tol_gap * (1 + |B|) and the transport
    residual is below tol_gap; otherwise stops at max_iter with the last
    iterate and converged = False in the log.  ``include_price=False``
    drops the aggregation rows from the operator entirely (classical
    congestion game); with kappa_phi = 0 the price prox pins P to zero
    instead, which is the same optimum through a different operator.
    """
    opts = opts or SolverOptions()
    g = spec.grid
    check_psd(spec.A, g.d)

    L = estimate_operator_norm(spec, include_price=include_price)
    if opts.tau is None or opts.sigma_step is None:
        tau = 0.99 * opts.step_ratio / L
        sigma = 0.99 / (opts.step_ratio * L)
    else:
        tau, sigma = opts.tau, opts.sigma_step
        if tau * sigma * L * L > 1.0 + 1e-9:
            raise StepSizeViolation(f"tau*sigma*L^2 = {tau * sigma * L * L:.3f} > 1 (L = {L:.3f})")

    if init is None:
        m, w, u, p = default_init(spec)
    else:
        m = init.m[1:].copy()
        w = init.w[1:].copy()
        u = -init.u[: g.nt].copy()
        p = init.P[: g.nt].copy()

    mb, wb = m.copy(), w.copy()
    uT_shift = tau * spec.uT / g.ht
    log = ConvergenceLog(operator_norm=L)
    log.m_min = float(np.min(m))
    vol = g.cell_volume

    for it in range(1, opts.max_iter + 1):
        # dual ascent at the extrapolated primal point
        u += sigma * _constraint(spec, mb, wb)
        if include_price:
            p = prox_Phi_star(p + sigma * aggregate_flux(wb, spec), sigma, spec.kappa_phi, spec.s)
        else:
            p.fill(0.0)

        # primal descent with the joint kinetic + congestion prox
        gm = m - tau * _adjoint_m(spec, u)
        gw = w - tau * (_adjoint_w(spec, u) + (spec.phi_transpose_price(p) if include_price else 0.0))
        gm[-1] -= uT_shift
        m_new, w_new = prox_kinetic_congestion(
            gm, np.moveaxis(gw, 1, 0), tau, spec.c, spec.r, spec.theta, spec.q
        )
        w_new = np.moveaxis(w_new, 0, 1)
        mb = m_new + (m_new - m)
        wb = w_new + (w_new - w)
        m, w = m_new, w_new

        # certificates
        log.m_min = min(log.m_min, float(np.min(m)))
        m_full, w_full = _full_fields(spec, m, w)
        Bv = eval_B(m_full, w_full, spec)
        gam = dual_gamma(spec, -u, p)
        Dv = float(np.sum(u[0] * spec.m0) * vol)  # = -<u_paper(0), m0>
        Dv += float(np.sum(spec.Phi_star(p)) * g.ht) if include_price else 0.0
        Dv += float(np.sum(spec.F_star(gam)) * g.ht * vol)
        gap = Bv + Dv
        R = _constraint(spec, m, w)
        fp_res = float(np.sum(np.abs(R)) * g.ht * vol)
        if include_price:
            Z = aggregate_flux(w, spec)
            price_res = float(np.sum(np.linalg.norm(p - spec.Psi(Z), axis=-1)) * g.ht)
        else:
            price_res = 0.0
        log.append(it, Bv, Dv, gap, fp_res, price_res)
        if np.isfinite(Bv) and abs(gap) <= opts.tol_gap * (1.0 + abs(Bv)) and fp_res <= opts.tol_gap:
            log.converged = True
            break

    log.iterations = log.iters[-1] if log.iters else 0
    return _finalize(spec, m, w, u, p), log
