"""The saddle-point (PD) solver of the problem ``verify`` states, and the multi-start probe that runs it.

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

Where an iteration's time goes (the q = r = s = 2 bump on one core):
an 8 x 8 iteration, with 64 times fewer cells, costs a quarter to a third
of a 64 x 64 one (160-170 us against 490-740 us across the host's speed
phases), so that share of the larger one is per-call work, about 150
numpy calls, that does not grow with the grid.  At 64 x 64 the joint prox
takes a third of the iteration, the transport step a sixth, the
certificate (B, gamma, D and the residual norms) a quarter, and the affine
images and the relaxation the rest.  So nothing that stays fixed between
iterations is formed in the loop: the prox's c and theta fields
(contiguous, of the density's shape), the transport step's spectral
denominators and closed-form time eigenbasis and the product tau sigma_P
are formed once per solve, and the grid's mesh constants and shapes and
the spec's diffusion stencil once per object.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import Diverged, InvalidOption
from .grid import diffusion_stencil, diffusion_symbol, grad_values
from .model import ProblemSpec
from .prox import prox_kinetic_congestion, prox_Phi_star
from .verify import (Solution, dual_gamma, eval_B, eval_D, residual_norms, transport_adjoint_m, transport_residual,
                     weak_solution_report)

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
# dual residual max(fp_res, price_res) of both dual blocks
# (Goldstein-Li-Yuan-Esser-Baraniuk adaptive PDHG): tau grows by
# 1/(1 - alpha) while the ratio is above BALANCE[1] and shrinks by 1 - alpha
# while it is below BALANCE[0], with alpha = ADAPT0 * ADAPT_DECAY^j after j
# changes, so tau settles.  The price block counts because its step is
# sigma_P = (STEP_BOUND - OMEGA)/(tau |G|^2): balanced on fp_res alone, a
# start whose transport residual falls first lets tau grow while the price
# residual lags, and the shrinking sigma_P then stalls it (three random
# starts on the 8 x 8 uniform instance at 1e-8 took 4,297-5,003 iterations
# that way, and take 43-44 balanced on the maximum).
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


def _time_eigenbasis(nt: int, ht: float):
    """Eigenvalues (ascending) and orthonormal eigenvectors (columns) of D D^T, D = (I - subdiagonal)/ht.

    ht^2 D D^T is tridiag(-1, (1, 2, ..., 2), -1), the second difference
    with a half-sample even end before j = 0 and an odd end at j = nt, so
    its eigenvectors are the DCT-VIII cosines v_k(j) = sqrt(4/(2nt+1))
    cos((j + 1/2) theta_k), theta_k = (2k+1) pi/(2nt+1), with eigenvalues
    (2 sin(theta_k/2)/ht)^2 (Strang, "The Discrete Cosine Transform", SIAM
    Review 1999): a closed form in place of an O(nt^3) eigendecomposition.
    """
    theta = (2.0 * np.arange(nt) + 1.0) * np.pi / (2 * nt + 1)
    mu = (2.0 * np.sin(0.5 * theta) / ht) ** 2
    V = math.sqrt(4.0 / (2 * nt + 1)) * np.cos(np.outer(np.arange(nt) + 0.5, theta))
    return mu, V


def _transport_step(spec: ProblemSpec, scale: float):
    """The map R -> scale (K K^T)^-1 R, K the linear part of ``transport_residual``.

    The spatial DFT splits K K^T into one nt x nt block per mode,
    (D + lam)(D + lam)^T + beta with D = (I - subdiagonal)/ht, lam >= 0
    the ``diffusion_symbol`` of A's stencil (PSD A) and beta that of the
    identity's (the divergence symbol).  As
    D + D^T = ht D D^T + e0 e0^T/ht, the block is
    (1 + lam ht) D D^T + lam^2 + beta + (lam/ht) e0 e0^T: the eigenbasis of
    D D^T (``_time_eigenbasis``) diagonalizes every mode and Sherman-Morrison
    removes the rank-one term (zero at A = 0), so the inverse is exact for
    every PSD A and a solve is an rfft over space, two nt x nt products and
    an inverse rfft.
    """
    g = spec.grid
    nt = g.nt
    axes = tuple(range(1, g.d + 1))
    # rfftn layout: full frequency axes first, the halved one last
    sizes = [g.nx] * (g.d - 1) + [g.nx // 2 + 1]
    theta = np.meshgrid(*[2.0 * np.pi * np.arange(n) / g.nx for n in sizes], indexing="ij")
    lam, beta = (np.ravel(diffusion_symbol(g, s, theta)) for s in (spec.stencil, diffusion_stencil(np.eye(g.d))))

    mu, V = _time_eigenbasis(nt, g.ht)
    denom = (1.0 + lam * g.ht) * mu[:, None] + (lam * lam + beta)  # (nt, modes)
    # complex coefficients are viewed as (real, imag) pairs of float columns
    inv_denom = np.repeat(scale / denom, 2, axis=1)
    corr = None
    if spec.stencil:
        z = V @ (V[0][:, None] / denom)  # N^-1 e0 per mode, N without the rank-one term
        c = lam / g.ht
        corr = np.repeat(c * z / (1.0 + c * z[0]), 2, axis=1)

    def step(R):
        Rh = np.fft.rfftn(R, axes=axes)
        Y = V @ ((V.T @ Rh.reshape(nt, -1).view(np.float64)) * inv_denom)
        if corr is not None:
            Y -= corr * Y[0]
        return np.fft.irfftn(Y.view(np.complex128).reshape(Rh.shape), g.space_shape, axes=axes)

    return step


def _finalize(spec, m, w, u, p) -> Solution:
    """(nt+1)-slot artifact layout: slot 0 holds m0 and zero momentum, slot nt
    of u the terminal cost and slot nt of P the price Psi(Z_nt)."""
    g = spec.grid
    m_full = np.concatenate([spec.m0[None], m], axis=0)
    w_full = np.concatenate([np.zeros((1, g.d, *g.space_shape)), w], axis=0)
    u_full = np.concatenate([u, spec.uT[None]], axis=0)
    P_full = np.concatenate([p, spec.Psi(spec.aggregate_kernel(w[-1]))[None]], axis=0)
    gamma = spec.coupling_f(m_full)
    return Solution(grid=g, u=u_full, m=m_full, w=w_full, P=P_full, gamma=gamma)


def solve_primal_dual(spec: ProblemSpec, opts: SolverOptions | None = None, init: Solution | None = None):
    """Run the saddle-point iteration; returns (Solution, ConvergenceLog).

    Stops when ``weak_solution_report`` gives the prox point's Solution a
    true verdict at tol_gap, and returns that Solution; or at max_iter with
    converged = False in the log.  The price-free game (kappa_phi = 0) is
    solved by the same iteration: its price prox returns P = 0.
    """
    opts = opts or SolverOptions()
    g = spec.grid
    tol = opts.tol_gap
    spec.stencil  # raises NotPSD

    tau = TAU0
    phi = spec.phi.reshape(spec.k, -1)
    g2 = float(np.linalg.eigvalsh(phi @ phi.T * g.cell_volume)[-1])  # |G|^2
    sigma = (STEP_BOUND - OMEGA) / (tau * g2) if g2 > 0.0 else 1.0 / tau
    sigma_tau = sigma * tau  # kept while tau adapts, so the step bound holds throughout
    u_step = _transport_step(spec, OMEGA)
    alpha = ADAPT0
    # the prox's coefficient fields, contiguous and of the density's shape, formed once
    c_t = np.broadcast_to(spec.c, (g.nt, *g.space_shape)).copy()
    theta_t = np.broadcast_to(spec.theta, c_t.shape).copy()

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
    R, Z = transport_residual(spec, m, w), spec.aggregate_kernel(w)
    xi = grad_values(g, u) + spec.phi_transpose_price(p)

    for it in range(1, opts.max_iter + 1):
        # prox point: joint kinetic + congestion prox at x - tau K^T y, whose w-part is w - tau xi
        gm = m + tau * transport_adjoint_m(spec, u)
        gm[-1] -= tau * spec.uT / g.ht
        mt, wt = prox_kinetic_congestion(gm, (w - tau * xi).swapaxes(0, 1), tau, c_t, spec.r, theta_t, spec.q)
        wt = wt.swapaxes(0, 1)
        Rt, Zt = transport_residual(spec, mt, wt), spec.aggregate_kernel(wt)

        # dual step at the extrapolated point 2 x~ - x, through the affine R and Z
        dR = Rt - R
        du = u_step(Rt + dR) / tau
        ut = u - du
        sigma = sigma_tau / tau
        pt = prox_Phi_star(p + sigma * (Zt + (Zt - Z)), sigma, spec.kappa_phi, spec.s)
        xit = grad_values(g, ut) + spec.phi_transpose_price(pt)

        # certificate of the prox point (x~, y~)
        log.m_min = min(log.m_min, float(mt.min()))
        fp_res, price_res = residual_norms(spec, Rt, Zt, pt)
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

        # residual balancing: a lagging primal gets a longer step, a lagging dual residual a shorter one
        dual_res = max(fp_res, price_res)
        if primal_res > BALANCE[1] * dual_res:
            tau, alpha = tau / (1.0 - alpha), alpha * ADAPT_DECAY
        elif primal_res < BALANCE[0] * dual_res:
            tau, alpha = tau * (1.0 - alpha), alpha * ADAPT_DECAY

    log.steps = {"tau": tau, "omega": OMEGA, "sigma_price": sigma_tau / tau}
    log.iterations = log.iters[-1] if log.iters else 0
    return (sol if log.converged else _finalize(spec, mt, wt, ut, pt)), log


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
