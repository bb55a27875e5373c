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

The iteration is primal-dual hybrid gradient with Pock-Chambolle
preconditioning: the exact pointwise prox of kinetic + congestion on (m, w)
with a scalar step tau, the radial conjugate-potential prox on the price P
with sigma_P = (0.99 - omega)/(tau lambda_max(G)), G the Gram matrix of the
aggregation kernel, and on the transport multiplier u (the paper's sign; its
conjugate term is linear, so any SPD metric will do) the step
u -= (omega/tau) (K K^T)^-1 Rbar, K the linear part of the constraint.  The
preconditioned operator has squared norm at most omega + tau sigma_P |G|^2
<= 0.99 on every mesh by construction, so iteration counts do not grow
under refinement.  The bound holds for every tau, so the loop adapts tau by
residual balancing with tau sigma_P fixed.  The price-free game
(kappa_phi = 0) runs through the same loop: its price prox pins P to zero.

Each iteration is over-relaxed PDHG in the primal-first order (Condat, JOTA
2013; Chambolle-Pock, Math. Prog. 2016), with x = (m, w) and y = (u, P):
the prox point x~ = prox(x - tau K^T y); the dual step y~ at 2 x~ - x; the
certificate of (x~, y~); then (x, y) += RELAX ((x~, y~) - (x, y)).  The
certificate, the returned Solution and the stop test (the verifier's verdict
on that Solution) use the prox outputs (x~, y~), which keep m >= 0 (a
relaxed density need not).  The transport residual R, the aggregated flux Z
and the control argument xi = Du + phi^T P are affine in the point, so the
dual step at 2 x~ - x uses 2 R~ - R and 2 Z~ - Z, and the relaxation moves
R, Z and xi along with the point instead of recomputing them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import Diverged, InvalidOption
from .grid import Grid, div_values, diffusion_values, grad_values
from .model import ProblemSpec
from .prox import prox_kinetic_congestion, prox_Phi_star

# OMEGA: the transport multiplier's share of the step bound (not the
# congestion theta); the price block keeps STEP_BOUND - OMEGA.  Any split
# meets Pock-Chambolle's condition.  On the bump the stop test waits on the
# transport residual while the price residual sits near 1e-8, so the
# transport block gets most of the bound.  0.9 is the largest value scanned
# (0.5 to 0.98) that is no worse than 0.5 on every instance: 0.95 loses on
# the 32 x 32 vacuum bump at gap 1e-6, and 0.98 there and on a 2-D k = 2
# instance with A != 0 (the scan is in CHANGES.md, "Step split").
# TAU0 is the first primal step; after each iteration
# the loop balances the primal residual |x_k - x_k+1|_1/tau against the
# transport residual fp_res (Goldstein-Li-Yuan-Esser-Baraniuk
# adaptive PDHG): tau grows by 1/(1 - alpha) while the ratio is above
# BALANCE[1] and shrinks by 1 - alpha while it is below BALANCE[0], with
# alpha = ADAPT0 * ADAPT_DECAY^j after j changes, so tau settles.
# RELAX: the over-relaxation weight rho of the PD loop (see the module
# docstring); any rho in (0, 2) converges under the step bound.  On the bump
# the gap is within tolerance well before the transport residual is, and
# rho > 1 shortens that tail.  1.5 is the largest value scanned (1.1 to 1.9)
# that needs no more iterations than the unrelaxed, dual-first loop on any
# of the 32 instances of the OMEGA scan: 1.6 loses on the flat 16 x 16
# instance at gap 1e-10, 1.7 and 1.8 there and on the 32 x 32 vacuum bump at
# 1e-6, and 1.1 to 1.3 on the 128 x 128 vacuum bump at 1e-3 (the scan is in
# CHANGES.md, "Over-relaxed PD steps").
OMEGA = 0.9
RELAX = 1.5
STEP_BOUND = 0.99
TAU0 = 0.03
BALANCE = (1.0, 9.0)
ADAPT0, ADAPT_DECAY = 0.5, 0.95


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
class SolverOptions:
    """Termination of the saddle-point loop: an iteration budget and the verdict tolerance tol_gap.

    The steps are not options: the primal step starts at TAU0 and adapts
    by residual balancing (see BALANCE), the price step keeps
    OMEGA + tau sigma_P |G|^2 = STEP_BOUND (OMEGA when phi = 0), the
    transport multiplier's step is (OMEGA/tau)(K K^T)^-1 and every
    iteration is over-relaxed by RELAX.
    """

    max_iter: int = 20000
    tol_gap: float = 1e-6

    def __post_init__(self):
        if not self.tol_gap >= 0.0:
            raise InvalidOption("tol_gap must be >= 0")
        if self.max_iter < 1:
            raise InvalidOption("max_iter must be >= 1")


@dataclass
class ConvergenceLog:
    """Per-iteration saddle-point history; converged: a true verifier verdict at tol_gap.

    gap is B + D at the dual-feasible gamma; steps holds the last tau, omega and sigma_price.
    """

    iters: list = field(default_factory=list)
    B: list = field(default_factory=list)
    D: list = field(default_factory=list)
    gap: list = field(default_factory=list)
    fp_res: list = field(default_factory=list)
    price_res: list = field(default_factory=list)
    converged: bool = False
    iterations: int = 0
    m_min: float = np.inf
    steps: dict = field(default_factory=dict)

    def append(self, it, B, D, gap, fp_res, price_res):
        for column, value in zip(self.columns(), (it, B, D, gap, fp_res, price_res)):
            column.append(value)

    def columns(self):
        """The lists iters, B, D, gap, fp_res, price_res (the log.csv columns)."""
        return self.iters, self.B, self.D, self.gap, self.fp_res, self.price_res


# -- functionals ---------------------------------------------------------------


def kinetic_energy_values(spec: ProblemSpec, m: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Pointwise perspective cost m H*(x, -w/m); +inf where m = 0 and w != 0."""
    pos = m > 0.0
    if pos.all():  # no vacuum node, so no +inf to place: a third of this function's time in the PD loop
        return spec.ham_conjugate(w) / m ** (spec.r_prime - 1.0)
    kin = spec.ham_conjugate(w) / np.where(pos, m, 1.0) ** (spec.r_prime - 1.0)
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


def residuals(spec: ProblemSpec, m: np.ndarray, w: np.ndarray, P: np.ndarray, m_start=None):
    """Transport residual R and aggregated flux Z of interval fields with their L1 norms.

    Returns (R, Z, fp_res, price_res): fp_res = sum ht hx^d |R| and
    price_res = sum ht |P - Psi(Z)|.  The saddle-point loop and the
    verifier certify with these same numbers.
    """
    R = _constraint(spec, m, w, m_start)
    Z = spec.aggregate_kernel(w)
    return (R, Z, *_residual_norms(spec, R, Z, P))


def _residual_norms(spec, R, Z, P):
    """(fp_res, price_res) of ``residuals`` from R and Z already formed."""
    g = spec.grid
    fp_res = float(np.abs(R).sum()) * g.ht * g.cell_volume
    return fp_res, float(np.linalg.norm(P - spec.Psi(Z), axis=-1).sum()) * g.ht


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
    R = div_values(g, w)
    R[0] += (m[0] - (spec.m0 if m_start is None else m_start)) / g.ht
    R[1:] += (m[1:] - m[:-1]) / g.ht
    if spec.A.any():
        R -= diffusion_values(g, spec.A, m)
    return R


def _adjoint_m(spec, u):
    g = spec.grid
    gm = u / g.ht
    gm[:-1] -= u[1:] / g.ht
    if spec.A.any():
        gm -= diffusion_values(g, spec.A, u)
    return gm


def _transport_step(spec: ProblemSpec, scale: float):
    """The map R -> scale (K K^T)^-1 R, K the linear part of ``_constraint``.

    The spatial DFT splits K K^T into one nt x nt block per mode,
    (D + lam)(D + lam)^T + beta with D = (I - subdiagonal)/ht and the
    diffusion and divergence symbols lam >= 0 (PSD A) and beta.  As
    D + D^T = ht D D^T + e0 e0^T/ht, the block is
    (1 + lam ht) D D^T + lam^2 + beta + (lam/ht) e0 e0^T: one eigenbasis of
    D D^T diagonalizes every mode and Sherman-Morrison removes the rank-one
    term (zero at A = 0), so the inverse is exact for every PSD A and a
    solve is an rfft over space, two nt x nt products and an inverse rfft.
    """
    g = spec.grid
    nt = g.nt
    # rfftn layout: full frequency axes first, the halved one last
    sizes = [g.nx] * (g.d - 1) + [g.nx // 2 + 1]
    theta = np.meshgrid(*[2.0 * np.pi * np.arange(n) / g.nx for n in sizes], indexing="ij")
    a2 = [(2.0 * np.sin(th / 2.0) / g.hx) ** 2 for th in theta]
    beta = sum(a2).ravel()
    lam = sum(spec.A[i, j] * (a2[i] if i == j else np.sin(theta[i]) * np.sin(theta[j]) / g.hx**2)
              for i in range(g.d) for j in range(g.d)).ravel()

    Dm = (np.eye(nt) - np.eye(nt, k=-1)) / g.ht
    mu, V = np.linalg.eigh(Dm @ Dm.T)
    denom = (1.0 + lam * g.ht) * mu[:, None] + (lam * lam + beta)  # (nt, modes)
    # complex coefficients are viewed as (real, imag) pairs of float columns
    inv_denom = np.repeat(scale / denom, 2, axis=1)
    corr = None
    if spec.A.any():
        z = V @ (V[0][:, None] / denom)  # N^-1 e0 per mode, N without the rank-one term
        c = lam / g.ht
        corr = np.repeat(c * z / (1.0 + c * z[0]), 2, axis=1)

    def step(R):
        Rh = np.fft.rfft(R)
        for ax in range(1, g.d):
            Rh = np.fft.fft(Rh, axis=ax)
        Y = V @ ((V.T @ Rh.reshape(nt, -1).view(np.float64)) * inv_denom)
        if corr is not None:
            Y -= corr * Y[0]
        Yh = Y.view(np.complex128).reshape(Rh.shape)
        for ax in range(1, g.d):
            Yh = np.fft.ifft(Yh, axis=ax)
        return np.fft.irfft(Yh, n=g.nx)

    return step


def dual_gamma(spec: ProblemSpec, u_int: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """Dual-feasible congestion multiplier from interval u and xi = Du + phi^T P.

    gamma_i = -(u_{i+1} - u_i)/ht - A_ij d_ij u_i + H(x, xi_i) with the
    terminal ghost u_nt = u_T.  Evaluating D here yields a valid lower bound
    on -B at every iterate.
    """
    g = spec.grid
    gam = spec.hamiltonian(xi)
    if spec.A.any():
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


def solve_primal_dual(spec: ProblemSpec, opts: SolverOptions | None = None, init: Solution | None = None):
    """Run the saddle-point iteration; returns (Solution, ConvergenceLog).

    Stops when ``weak_solution_report`` gives the prox point's Solution a
    true verdict at tol_gap, and returns that Solution; or at max_iter with
    converged = False in the log.  The price-free game (kappa_phi = 0) is
    solved by the same iteration: its price prox returns P = 0.
    """
    from .verify import weak_solution_report  # verify imports this module
    opts = opts or SolverOptions()
    g = spec.grid
    tol = opts.tol_gap
    spec.A_psd  # raises NotPSD

    tau = TAU0
    phi = spec.phi.reshape(spec.k, -1)
    g2 = float(np.linalg.eigvalsh(phi @ phi.T * g.cell_volume)[-1])  # |G|^2
    sigma = (STEP_BOUND - OMEGA) / (tau * g2) if g2 > 0.0 else 1.0 / tau
    sigma_tau = sigma * tau  # kept while tau adapts, so the step bound holds throughout
    u_step = _transport_step(spec, OMEGA)
    alpha = ADAPT0

    if init is None:  # stationary density, zero momentum and duals
        m = np.broadcast_to(spec.m0, (g.nt, *g.space_shape)).copy()
        w = np.zeros((g.nt, g.d, *g.space_shape))
        u, p = np.zeros((g.nt, *g.space_shape)), np.zeros((g.nt, spec.k))
    else:
        m, w = init.m[1:].copy(), init.w[1:].copy()
        u, p = init.u[: g.nt].copy(), init.P[: g.nt].copy()

    vol = g.ht * g.cell_volume
    log = ConvergenceLog()
    log.m_min = float(np.min(m))
    # the affine images of the current point: R, Z of (m, w) and xi of (u, P)
    R, Z = _constraint(spec, m, w), spec.aggregate_kernel(w)
    xi = grad_values(g, u) + spec.phi_transpose_price(p)

    for it in range(1, opts.max_iter + 1):
        # prox point: joint kinetic + congestion prox at x - tau K^T y, whose w-part is w - tau xi
        gm = m + tau * _adjoint_m(spec, u)
        gm[-1] -= tau * spec.uT / g.ht
        mt, wt = prox_kinetic_congestion(gm, (w - tau * xi).swapaxes(0, 1), tau, spec.c, spec.r, spec.theta, spec.q)
        wt = wt.swapaxes(0, 1)
        Rt, Zt = _constraint(spec, mt, wt), spec.aggregate_kernel(wt)

        # dual step at the extrapolated point 2 x~ - x, through the affine R and Z
        dR = Rt - R
        du = u_step(Rt + dR) / tau
        ut = u - du
        sigma = sigma_tau / tau
        pt = prox_Phi_star(p + sigma * (Zt + (Zt - Z)), sigma, spec.kappa_phi, spec.s)
        xit = grad_values(g, ut) + spec.phi_transpose_price(pt)

        # certificate of the prox point (x~, y~)
        log.m_min = min(log.m_min, float(mt.min()))
        fp_res, price_res = _residual_norms(spec, Rt, Zt, pt)
        Bv = eval_B(mt, wt, Zt, spec)
        Dv = eval_D(ut, pt, dual_gamma(spec, ut, xit), spec)
        gap = Bv + Dv
        log.append(it, Bv, Dv, gap, fp_res, price_res)
        if not math.isfinite(gap + fp_res):  # also catches B = +inf with D = -inf
            raise Diverged(f"non-finite certificate at iteration {it}: B = {Bv}, D = {Dv}, fp_res = {fp_res}")
        # stop on the verifier's verdict; its transport, price and gap (at gamma = f(m)) entries are
        # these numbers with the same bound, so the report runs only once they hold
        if fp_res <= tol and price_res <= tol and abs(Bv + eval_D(ut, pt, spec.coupling_f(mt), spec)) <= tol:
            sol = _finalize(spec, mt, wt, ut, pt)
            if weak_solution_report(sol, spec, tol)[1]:
                log.converged = True
                break

        # relaxation: the point and its affine images move by RELAX times their step
        dm, dw = mt - m, wt - w
        primal_res = float(np.abs(dm).sum() + np.abs(dw).sum()) * vol / tau
        m += RELAX * dm
        w += RELAX * dw
        u -= RELAX * du
        R += RELAX * dR
        for x, xt in ((p, pt), (Z, Zt), (xi, xit)):
            x += RELAX * (xt - x)

        # residual balancing: a lagging primal gets a longer step, a lagging transport residual a shorter one
        if primal_res > BALANCE[1] * fp_res:
            tau, alpha = tau / (1.0 - alpha), alpha * ADAPT_DECAY
        elif primal_res < BALANCE[0] * fp_res:
            tau, alpha = tau * (1.0 - alpha), alpha * ADAPT_DECAY

    log.steps = {"tau": tau, "omega": OMEGA, "sigma_price": sigma_tau / tau}
    log.iterations = log.iters[-1] if log.iters else 0
    return (sol if log.converged else _finalize(spec, mt, wt, ut, pt)), log
