"""Damped fixed-point solver for the coupled system, used as a cross-check.

One outer sweep maps (m, P) to (m+, P+) through four stages: a backward
explicit pass for the value function with a monotone (Osher-Sethian type)
upwind Hamiltonian, pointwise feedback evaluation, a forward conservative
upwind pass for the density, and the price update.  Each explicit pass
subcycles its grid intervals with enough internal substeps to satisfy the
CFL bound computed from the current wave speeds; forcing ``substeps=1`` on
a violating configuration raises CFLViolation with the admissible step.

Only the two explicit passes step through time.  The feedback and price
stages act on all nt+1 time slices in one vectorised call each, and the
price shift phi^T P and the transport face velocities are likewise formed
for the whole path before the passes start.  The diffusion matrix A is
validated once per sweep entry, and the diffusion stencil runs only when
A != 0; at A = 0 no diffusion term is formed at all.

Nothing here shares machinery with the saddle-point path beyond the grid
stencils, so agreement of the two solvers is a meaningful uniqueness check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CFLViolation, InvalidOption
from .grid import check_psd, diffusion_values, shift
from .model import ProblemSpec
from .varsolve import Solution


@dataclass
class PicardOptions:
    damping: float = 0.5
    max_outer: int = 200
    tol_fixed_point: float = 1e-9
    cfl_safety: float = 0.5
    max_substeps: int = 4096

    def __post_init__(self):
        if not 0.0 < self.damping <= 1.0:
            raise InvalidOption("damping must lie in (0, 1]")
        if not 0.0 < self.cfl_safety <= 1.0:
            raise InvalidOption("cfl_safety must lie in (0, 1]")
        if self.max_outer < 1:
            raise InvalidOption("max_outer must be >= 1")
        if self.max_substeps < 1:
            raise InvalidOption("max_substeps must be >= 1")


@dataclass
class PicardResult:
    solution: Solution
    iterations: int
    converged: bool
    residuals: list


def _upwind_ham_parts(spec: ProblemSpec, u: np.ndarray, g_shift: np.ndarray):
    """One-sided slope selection for the shifted Hamiltonian argument.

    u is (..., *space) and g_shift (..., d, *space), so one call serves a
    single slice or the whole time path.  Returns (xi_sq, xi) where xi_sq
    is the Osher-Sethian squared magnitude
    sum_i max(D^-_i u + g_i, 0)^2 + min(D^+_i u + g_i, 0)^2 and xi the
    signed selected vector used by the feedback.
    """
    g = spec.grid
    hx = g.hx
    lead = u.ndim - g.d
    comp = (slice(None),) * lead
    xi_sq = 0.0
    xi = np.empty(g_shift.shape)
    for i in range(g.d):
        ax = lead + i
        dp = (shift(u, -1, ax) - u) / hx
        dm = shift(dp, 1, ax)  # D^-_i u at a node is D^+_i u at its left neighbour
        gi = g_shift[comp + (i,)]
        a = np.maximum(dm + gi, 0.0)
        b = np.minimum(dp + gi, 0.0)
        xi_sq = xi_sq + (a * a + b * b)
        xi[comp + (i,)] = a + b
    return xi_sq, xi


def _diffusion_cfl(spec: ProblemSpec) -> float:
    """Stability contribution of the explicit centered diffusion stencil."""
    g = spec.grid
    A = spec.A
    s = 2.0 * float(np.trace(A)) / g.hx**2
    off = float(np.sum(np.abs(A)) - np.trace(np.abs(A)))
    return s + 2.0 * off / g.hx**2


def solve_hjb(m: np.ndarray, P: np.ndarray, spec: ProblemSpec, opts: PicardOptions | None = None,
              substeps: int | None = None) -> np.ndarray:
    """Backward explicit sweep for the value function given (m, P).

    m is the full (nt+1)-slotted density, P the full price path; the output
    u is slotted at the left interval endpoints with u[nt] = u_T.  Substeps
    per interval are chosen from the CFL bound unless forced.
    """
    opts = opts or PicardOptions()
    g = spec.grid
    check_psd(spec.A, g.d)
    diffusive = np.any(spec.A)
    if np.min(m) < -1e-12:
        raise ValueError("solve_hjb requires m >= 0")
    u = np.empty(g.scalar_shape)
    u[g.nt] = spec.uT
    fm = spec.coupling_f(np.maximum(m, 0.0))
    g_shift = spec.phi_transpose_price(P)
    diff_rate = _diffusion_cfl(spec)
    for j in range(g.nt - 1, -1, -1):
        rhs = fm[j + 1]
        n_sub = 1 if substeps is None else substeps
        while True:
            dt = g.ht / n_sub
            cur = u[j + 1]
            ok = True
            for _ in range(n_sub):
                xi_sq, _ = _upwind_ham_parts(spec, cur, g_shift[j])
                norm = np.sqrt(xi_sq)
                speed = float(np.max(spec.c * np.where(norm > 0.0, norm ** (spec.r - 1.0), 0.0)))
                rate = g.d * speed / g.hx + diff_rate
                if dt * rate > opts.cfl_safety * (1.0 + 1e-12):
                    ok = False
                    break
                ham = spec.c * xi_sq ** (spec.r / 2.0) / spec.r
                if diffusive:
                    ham -= diffusion_values(g, spec.A, cur)  # now H - A_ij d_ij u
                cur = cur + dt * (rhs - ham)
            if ok:
                break
            if substeps is not None or n_sub >= opts.max_substeps:
                admissible = opts.cfl_safety / max(rate, 1e-300)
                raise CFLViolation(
                    f"explicit value sweep needs ht <= {admissible:.3e} (interval {j + 1})",
                    admissible_ht=admissible,
                )
            n_sub = min(2 * n_sub, opts.max_substeps)
        u[j] = cur
    return u


def feedback(u: np.ndarray, P: np.ndarray, spec: ProblemSpec) -> np.ndarray:
    """Optimal drift v = -dH(x, Du + phi^T P) with the same one-sided slopes, all slices at once."""
    _, xi = _upwind_ham_parts(spec, u, spec.phi_transpose_price(P))
    return -spec.dH(xi)


def solve_fp(v: np.ndarray, spec: ProblemSpec, opts: PicardOptions | None = None,
             substeps: int | None = None) -> np.ndarray:
    """Forward conservative upwind sweep for the density from m0.

    Interval n is driven by the drift slice v[n-1]; mass is conserved
    exactly by the flux form and nonnegativity holds under the CFL bound
    (for diagonally dominant A).
    """
    opts = opts or PicardOptions()
    g = spec.grid
    check_psd(spec.A, g.d)
    diffusive = np.any(spec.A)
    m = np.empty(g.scalar_shape)
    m[0] = spec.m0
    diff_rate = _diffusion_cfl(spec)
    drift = v[:-1]  # interval n is driven by the slice v[n-1]
    speeds = np.max(np.abs(drift).reshape(g.nt, -1), axis=1)
    faces = np.stack([0.5 * (drift[:, i] + shift(drift[:, i], -1, 1 + i)) for i in range(g.d)], axis=1)
    v_plus, v_minus = np.maximum(faces, 0.0), np.minimum(faces, 0.0)
    for n in range(1, g.nt + 1):
        rate = g.d * float(speeds[n - 1]) / g.hx + diff_rate
        needed = max(1, int(np.ceil(rate * g.ht / max(opts.cfl_safety, 1e-300) - 1e-12)))
        n_sub = needed if substeps is None else substeps
        if n_sub < needed or n_sub > opts.max_substeps:
            admissible = opts.cfl_safety / max(rate, 1e-300)
            raise CFLViolation(
                f"explicit transport sweep needs ht <= {admissible:.3e} (interval {n})",
                admissible_ht=admissible,
            )
        dt = g.ht / n_sub
        vp, vm = v_plus[n - 1], v_minus[n - 1]
        cur = m[n - 1]
        for _ in range(n_sub):
            flux_div = 0.0
            for i in range(g.d):
                flux = vp[i] * cur + vm[i] * shift(cur, -1, i)
                flux_div = flux_div + (flux - shift(flux, 1, i)) / g.hx
            new = cur - dt * flux_div
            if diffusive:
                new += dt * diffusion_values(g, spec.A, cur)
            cur = new
        m[n] = cur
    return m


def update_price(m: np.ndarray, v: np.ndarray, spec: ProblemSpec) -> np.ndarray:
    """Price path P_j = Psi(int phi v_j m_j dx), all time nodes at once."""
    return spec.Psi(spec.aggregate_kernel(v * m[:, None]))


def picard_iterate(spec: ProblemSpec, opts: PicardOptions | None = None) -> PicardResult:
    """Damped fixed-point loop on (m, P); packages w = m v and gamma = f(m)."""
    opts = opts or PicardOptions()
    g = spec.grid
    m = np.broadcast_to(spec.m0, g.scalar_shape).copy()
    P = np.zeros((g.nt + 1, spec.k))
    lam = opts.damping
    residuals = []
    converged = False
    u = solve_hjb(m, P, spec, opts)
    v = feedback(u, P, spec)
    n_outer = 0
    for n_outer in range(1, opts.max_outer + 1):
        m_new = solve_fp(v, spec, opts)
        P_new = update_price(m_new, v, spec)
        res = float(np.max(np.abs(m_new - m))) + float(np.max(np.abs(P_new - P)))
        residuals.append(res)
        m = (1.0 - lam) * m + lam * m_new
        P = (1.0 - lam) * P + lam * P_new
        u = solve_hjb(m, P, spec, opts)
        v = feedback(u, P, spec)
        if res <= opts.tol_fixed_point:
            converged = True
            break

    w = np.zeros(g.vector_shape)
    w[1:] = m[1:, None] * v[:-1]
    gamma = spec.coupling_f(np.maximum(m, 0.0))
    sol = Solution(grid=g, u=u, m=m, w=w, P=P, gamma=gamma)
    return PicardResult(solution=sol, iterations=n_outer, converged=converged, residuals=residuals)
