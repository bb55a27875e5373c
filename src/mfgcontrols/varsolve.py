"""Primal functional, dual functional, and the first-order saddle-point solver.

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

an exact finite-dimensional identity, so the duality gap of the iterates is
a genuine optimality certificate.

The iteration is the standard primal-dual hybrid gradient loop: a plain
shift step on the transport multiplier u (held with the paper's sign, so the
step is u -= sigma R), the radial conjugate-potential prox on the price P,
and the exact pointwise prox of kinetic + congestion on (m, w).  The
transport residual R and the aggregated flux Z are affine in (m, w) and the
extrapolation m + (m - m_prev) has weights summing to one, so the dual step
extrapolates the certificate's own R and Z instead of re-evaluating them.
Step sizes obey tau * sigma * L^2 <= 1 with L bounded in closed form.
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
    """Primal cost of interval fields; +inf on m < 0 or convention breach."""
    g = spec.grid
    if np.min(m) < 0.0:
        return np.inf
    kin = kinetic_energy_values(spec, m, w)
    if np.any(np.isinf(kin)):
        return np.inf
    body = kin + spec.F(m)
    total = float(np.sum(body) * g.ht * g.cell_volume)
    if not spec.price_free:
        total += float(np.sum(spec.Phi(spec.aggregate_kernel(w))) * g.ht)
    total += float(np.sum(spec.uT * m[-1]) * g.cell_volume)
    return total


def eval_D(u: np.ndarray, P: np.ndarray, gamma: np.ndarray, spec: ProblemSpec) -> float:
    """Dual cost of interval fields (u, P at left nodes, gamma at right nodes)."""
    g = spec.grid
    total = -float(np.sum(u[0] * spec.m0) * g.cell_volume)
    total += float(np.sum(spec.Phi_star(P)) * g.ht)
    total += float(np.sum(spec.F_star(gamma)) * g.ht * g.cell_volume)
    return total


def residuals(spec: ProblemSpec, m: np.ndarray, w: np.ndarray, P: np.ndarray, m_start=None):
    """Transport residual R and aggregated flux Z of interval fields with their L1 norms.

    Returns (R, Z, fp_res, price_res): fp_res = sum ht hx^d |R| and
    price_res = sum ht |P - Psi(Z)|.  The saddle-point loop and the
    verifier certify with these same numbers.
    """
    g = spec.grid
    R = _constraint(spec, m, w, m_start)
    Z = spec.aggregate_kernel(w)
    fp_res = float(np.sum(np.abs(R)) * g.ht * g.cell_volume)
    price_res = float(np.sum(np.linalg.norm(P - spec.Psi(Z), axis=-1)) * g.ht)
    return R, Z, fp_res, price_res


# -- internal interval-variable operators --------------------------------------


def _constraint(spec, m, w, m_start=None):
    """R[i]: residual of interval i+1 from interval variables m, w (nt, ...).

    m_start is the density slice the first interval starts from, m0 by
    default; 0 gives the linear part, and the verifier passes the slot-0
    density of the solution it checks.  R is affine in (m, w), so R at an
    affine combination with weights summing to one is the same combination
    of the R values; the saddle-point loop extrapolates R this way.
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


def _finalize(spec, m, w, u, p) -> Solution:
    """(nt+1)-slot artifact layout: slot 0 holds m0 and zero momentum, slot nt
    of u the terminal cost and slot nt of P the price Psi(Z_nt)."""
    g = spec.grid
    m_full = np.concatenate([spec.m0[None], m], axis=0)
    w_full = np.concatenate([np.zeros((1, g.d, *g.space_shape)), w], axis=0)
    u_full = np.concatenate([u, spec.uT[None]], axis=0)
    P_full = np.concatenate([p, spec.Psi(spec.aggregate_kernel(w[-1]))[None]], axis=0)
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
        m, w = init.m[1:].copy(), init.w[1:].copy()
        u, p = init.u[: g.nt].copy(), init.P[: g.nt].copy()

    uT_shift = tau * spec.uT / g.ht
    log = ConvergenceLog(operator_norm=L)
    log.m_min = float(np.min(m))
    R, Z = _constraint(spec, m, w), spec.aggregate_kernel(w)
    R_prev, Z_prev = R, Z

    for it in range(1, opts.max_iter + 1):
        # dual step at the extrapolated primal point, through the affine R and Z
        u -= sigma * (R + (R - R_prev))
        if include_price:
            p = prox_Phi_star(p + sigma * (Z + (Z - Z_prev)), sigma, spec.kappa_phi, spec.s)
        else:
            p.fill(0.0)

        # primal descent with the joint kinetic + congestion prox
        gm = m + tau * _adjoint_m(spec, u)
        gw = w + tau * (_adjoint_w(spec, u) - (spec.phi_transpose_price(p) if include_price else 0.0))
        gm[-1] -= uT_shift
        m, w = prox_kinetic_congestion(gm, np.moveaxis(gw, 1, 0), tau, spec.c, spec.r, spec.theta, spec.q)
        w = np.moveaxis(w, 0, 1)

        # certificates
        log.m_min = min(log.m_min, float(np.min(m)))
        R_prev, Z_prev = R, Z
        R, Z, fp_res, price_res = residuals(spec, m, w, p)
        Bv = eval_B(m, w, spec)
        Dv = eval_D(u, p, dual_gamma(spec, u, p), spec)
        gap = Bv + Dv
        log.append(it, Bv, Dv, gap, fp_res, price_res if include_price else 0.0)
        if np.isfinite(Bv) and abs(gap) <= opts.tol_gap * (1.0 + abs(Bv)) and fp_res <= opts.tol_gap:
            log.converged = True
            break

    log.iterations = log.iters[-1] if log.iters else 0
    return _finalize(spec, m, w, u, p), log
