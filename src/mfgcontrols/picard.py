"""Anderson-accelerated fixed-point solver for the coupled system, used as a cross-check.

One outer sweep maps x = (m, P) to G(x) = (m+, P+) through four stages: a
backward explicit pass for the value function with a monotone
(Osher-Sethian type) upwind Hamiltonian, pointwise feedback evaluation, a
forward conservative upwind pass for the density, and the price update.
Each explicit pass subcycles its grid intervals with enough internal
substeps to satisfy the CFL bound (``CFL_SAFETY``) computed from the
current wave speeds; an interval that needs more than ``MAX_SUBSTEPS``
raises CFLViolation with the admissible interval.

The damped map x + beta (G(x) - x) contracts only for small beta (about
0.05 on the 64 x 64 bump, ~415 sweeps), so the loop mixes up to sixty
past sweeps by Anderson acceleration (~75 sweeps there); see
``picard_iterate`` and ``ANDERSON_DEPTH``.  Mixing conserves mass, since
every difference it combines has zero mass.

Only the two explicit passes step through time.  The feedback and price
stages act on all nt+1 time slices in one vectorised call each, and the
price shift phi^T P and the transport face velocities are likewise formed
for the whole path before the passes start.  Each pass keeps its field in
one ghost-padded buffer of shape (nx+2)^d, built once per call: a substep
copies the periodic ghosts in place, reads its one-sided differences or
flux faces through views made once per call, and writes every temporary
into a preallocated buffer.  Feedback takes the forward differences of the
whole path from ``grad_values`` and the backward ones as their shift by
one node.  The diffusion matrix A is validated once per spec
(``ProblemSpec.A_psd``), and the diffusion stencil and its CFL term are
formed only when A != 0.

Nothing here shares machinery with the saddle-point path beyond the grid
stencils, so agreement of the two solvers is a meaningful uniqueness check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CFLViolation, InvalidOption, NegativeDensity
from .grid import diffusion_values, grad_values, shift
from .model import ProblemSpec
from .varsolve import Solution

# Residual differences kept by the Anderson mixing.  Full-memory Anderson
# acts like GMRES (Walker and Ni, SIAM J. Numer. Anal. 2011), and depth m
# like GMRES restarted every m residuals.  On the 64 x 64 bump (damping
# 0.05, tol 1e-10, the eleven seeded benchmark instances) depth 30 takes
# 88-93 sweeps, 50 takes 75-79, and 60 and 80 both take 74-75: 60 is the
# full-memory limit there.  The two float64 history buffers hold
# 2 x depth x (m and P entries) x 8 B, 3.9 MiB at depth 60 on that grid.
ANDERSON_DEPTH = 60
GRAM_SHIFT = 1e-14  # added to the unit diagonal of the Anderson Gram matrix
CFL_SAFETY = 0.5  # each explicit substep keeps dt times the CFL rate at most this
MAX_SUBSTEPS = 4096  # substeps per grid interval before a sweep refuses it


@dataclass
class PicardOptions:
    """``damping`` is the Anderson mixing weight beta.  The loop stops once the
    residual is strictly below ``tol_fixed_point``, so 0 runs ``max_outer`` sweeps.
    """

    damping: float = 0.05
    max_outer: int = 200
    tol_fixed_point: float = 1e-9

    def __post_init__(self):
        if not self.tol_fixed_point >= 0.0:
            raise InvalidOption("tol_fixed_point must be >= 0")
        if not 0.0 < self.damping <= 1.0:
            raise InvalidOption("damping must lie in (0, 1]")
        if self.max_outer < 1:
            raise InvalidOption("max_outer must be >= 1")


@dataclass
class PicardResult:
    solution: Solution
    iterations: int
    converged: bool
    residuals: list


def _ends(ax: int) -> tuple:
    """Index tuples dropping the last and the first entry of axis ax."""
    lead = (slice(None),) * ax
    return lead + (slice(None, -1),), lead + (slice(1, None),)


def _axis_window(pad: np.ndarray, ax: int, start: int, stop: int) -> np.ndarray:
    """View of a ghost-padded field: entries start:stop on axis ax, the interior on the others."""
    inner = slice(1, pad.shape[0] - 1)
    return pad[(inner,) * ax + (slice(start, stop),) + (inner,) * (pad.ndim - 1 - ax)]


def _ghost_padded(n: int, d: int):
    """A field buffer of shape (n+2)^d with one periodic ghost layer on each axis.

    Returns the buffer, its interior view, and the (ghost, source) view
    pairs whose in-place copies refresh the periodic wrap of the interior.
    """
    pad = np.empty((n + 2,) * d)
    ghosts = []
    for i in range(d):
        ghosts.append((_axis_window(pad, i, 0, 1), _axis_window(pad, i, n, n + 1)))
        ghosts.append((_axis_window(pad, i, n + 1, n + 2), _axis_window(pad, i, 1, 2)))
    return pad, _axis_window(pad, 0, 1, n + 1), ghosts


def _power(x: np.ndarray, expo: float, out: np.ndarray) -> np.ndarray:
    """x^expo, written to out unless expo = 1 (x itself); expo = 1/2 is the exact square root."""
    if expo == 1.0:
        return x
    if expo == 0.5:
        return np.sqrt(x, out=out)
    return np.power(x, expo, out=out)


def _diffusion_cfl(spec: ProblemSpec) -> float:
    """Stability contribution of the explicit centered diffusion stencil."""
    g = spec.grid
    A = spec.A
    s = 2.0 * float(np.trace(A)) / g.hx**2
    off = float(np.sum(np.abs(A)) - np.trace(np.abs(A)))
    return s + 2.0 * off / g.hx**2


def _refuse(sweep: str, rate: float, interval: int) -> CFLViolation:
    """Refusal of an interval needing over MAX_SUBSTEPS substeps at this CFL rate."""
    admissible = MAX_SUBSTEPS * CFL_SAFETY / max(rate, 1e-300)  # the largest ht those substeps cover
    return CFLViolation(f"explicit {sweep} sweep needs ht <= {admissible:.3e} (interval {interval})",
                        admissible_ht=admissible)


def solve_hjb(m: np.ndarray, P: np.ndarray, spec: ProblemSpec) -> np.ndarray:
    """Backward explicit sweep for the value function given (m, P).

    m is the full (nt+1)-slotted density, P the full price path; the output
    u is slotted at the left interval endpoints with u[nt] = u_T.  Substeps
    per interval double from one until the CFL bound holds.  Each substep
    forms the Osher-Sethian sum
    xi_sq = sum_i max(D^-_i u + g_i, 0)^2 + min(D^+_i u + g_i, 0)^2
    (g = phi^T P) and steps u by ht (f(m) - c xi_sq^(r/2) / r + A_ij d_ij u).
    The slopes stay unscaled, hx (D^-_i u + g_i) and -hx (D^+_i u + g_i), so
    one maximum clips both and their squares sum to S = hx^2 xi_sq; the
    factors c / (r hx^r) of H and d c / hx^r of the CFL rate are formed
    once per call.
    """
    g = spec.grid
    A = spec.A_psd
    diffusive = np.any(A)
    if np.min(m) < -1e-12:
        raise NegativeDensity("solve_hjb requires m >= 0")
    n, d, hx, ht = g.nx, g.d, g.hx, g.ht
    r = spec.r
    speed_expo, ham_expo = 0.5 * (r - 1.0), r / 2.0  # |xi|^(r-1) and |xi|^r from S
    rate_coef = d * spec.c / hx**r  # the CFL rate is max(rate_coef S^speed_expo)
    ham_coef = spec.c / (r * hx**r)  # H = ham_coef S^ham_expo
    limit = CFL_SAFETY * (1.0 + 1e-12)
    pad, cur, ghosts = _ghost_padded(n, d)
    slopes = np.empty((d, 2, *g.space_shape))
    lower, upper = slopes[:, 0], slopes[:, 1]
    # per axis, the neighbours at nodes k - 1 and k + 1 of node k, and where each difference goes
    stencil = [(_axis_window(pad, i, 0, n), _axis_window(pad, i, 2, n + 2), lower[i], upper[i])
               for i in range(d)]
    pairs = np.empty((d, *g.space_shape))
    xi_sq = pairs[0]  # S accumulates in the first axis's sum of squares
    tmp, ham = np.empty(g.space_shape), np.empty(g.space_shape)
    u = np.empty(g.scalar_shape)
    u[g.nt] = cur[...] = spec.uT
    fm = spec.coupling_f(np.maximum(m, 0.0))
    g_shift = spec.phi_transpose_price(P)
    g_shift *= hx
    g_signed = np.stack((g_shift, -g_shift), axis=2)  # (nt+1, d, 2, *space), the signs of the slopes
    diff_rate = _diffusion_cfl(spec) if diffusive else 0.0
    for j in range(g.nt - 1, -1, -1):
        rhs, gj = fm[j + 1], g_signed[j]
        n_sub = 1
        while True:
            dt = ht / n_sub
            ok = True
            for _ in range(n_sub):
                for dst, src in ghosts:
                    dst[...] = src
                for left, right, dm, dp in stencil:
                    np.subtract(cur, left, out=dm)
                    np.subtract(cur, right, out=dp)
                slopes += gj
                np.maximum(slopes, 0.0, out=slopes)
                np.square(slopes, out=slopes)
                np.add(lower, upper, out=pairs)
                for extra in pairs[1:]:
                    xi_sq += extra
                speed = np.multiply(_power(xi_sq, speed_expo, tmp), rate_coef, out=tmp)
                rate = float(speed.max()) + diff_rate
                if dt * rate > limit:
                    ok = False
                    break
                np.multiply(_power(xi_sq, ham_expo, ham), ham_coef, out=ham)
                if diffusive:
                    ham -= diffusion_values(g, A, cur)  # now H - A_ij d_ij u
                np.subtract(rhs, ham, out=ham)  # f(m) - H + A_ij d_ij u
                ham *= dt
                cur += ham
            if ok:
                break
            if n_sub >= MAX_SUBSTEPS:
                raise _refuse("value", rate, j + 1)
            n_sub = min(2 * n_sub, MAX_SUBSTEPS)
            cur[...] = u[j + 1]
        u[j] = cur
    return u


def feedback(u: np.ndarray, P: np.ndarray, spec: ProblemSpec) -> np.ndarray:
    """Optimal drift v = -dH(x, xi), all slices at once.

    xi_i = max(D^-_i u + g_i, 0) + min(D^+_i u + g_i, 0) with g = phi^T P:
    the signed vector of the one-sided slopes the value sweep selects.
    """
    g = spec.grid
    lead = u.ndim - g.d
    forward = grad_values(g, u)  # D^+_i u on component i; D^-_i u at node k is D^+_i u at node k - 1
    xi = spec.phi_transpose_price(P)
    for i in range(g.d):
        comp = (slice(None),) * lead + (i,)
        dp, gi = forward[comp], xi[comp]
        xi[comp] = np.maximum(shift(dp, 1, lead + i) + gi, 0.0) + np.minimum(dp + gi, 0.0)
    return -spec.dH(xi)


def solve_fp(v: np.ndarray, spec: ProblemSpec) -> np.ndarray:
    """Forward conservative upwind sweep for the density from m0.

    Interval n is driven by the drift slice v[n-1]; mass is conserved
    exactly by the flux form and nonnegativity holds under the CFL bound
    for diagonal A (the centred cross difference of A_12 != 0 has negative
    corner weights, so a density with zeros can turn negative there).
    Fluxes live on the wrapped face list: along each axis, entry k is the
    face between nodes k - 1 and k, so both ends carry the same periodic
    face.  The face velocities of each interval are scaled by its substep
    over hx before the sweep starts.
    """
    g = spec.grid
    A = spec.A_psd
    diffusive = np.any(A)
    n, d, hx, ht = g.nx, g.d, g.hx, g.ht
    drift = v[:-1]  # interval n is driven by the slice v[n-1]
    speeds = np.max(np.abs(drift).reshape(g.nt, -1), axis=1)
    rates = d * speeds / hx + (_diffusion_cfl(spec) if diffusive else 0.0)
    needed = np.ceil(rates * ht / CFL_SAFETY - 1e-12)
    # capped before the cast, so an infinite or NaN rate refuses the interval below
    n_subs = np.maximum(1, np.fmin(needed, MAX_SUBSTEPS + 1)).astype(int)
    refused = np.flatnonzero(n_subs > MAX_SUBSTEPS)
    if refused.size:
        raise _refuse("transport", float(rates[refused[0]]), refused[0] + 1)
    steps = ht / n_subs
    idx = np.arange(-1, n + 1) % n  # [n-1, 0, 1, ..., n-1, 0]: one periodic ghost node at each end
    v_plus, v_minus = [], []
    for i in range(d):
        lo, hi = _ends(1 + i)
        wrapped = drift[:, i].take(idx, axis=1 + i)
        faces = 0.5 * (wrapped[lo] + wrapped[hi])
        faces *= (steps / hx).reshape(-1, *(1,) * d)  # dt / hx of each interval
        v_plus.append(np.maximum(faces, 0.0))
        v_minus.append(np.minimum(faces, 0.0))
    pad, cur, ghosts = _ghost_padded(n, d)
    divs = np.empty((d, *g.space_shape))
    flux_div = divs[0]  # the first axis's flux difference accumulates the others
    # per axis, the nodes k - 1 and k beside face k, two face buffers, and the face ends
    sides = []
    for i in range(d):
        lo, hi = _axis_window(pad, i, 0, n + 1), _axis_window(pad, i, 1, n + 2)
        flux = np.empty(lo.shape)
        first, last = _ends(i)
        sides.append((lo, hi, flux, np.empty(lo.shape), flux[last], flux[first], divs[i]))
    m = np.empty(g.scalar_shape)
    m[0] = cur[...] = spec.m0
    # per interval, the tuples of its face velocities along each axis
    for n_step, dt, vp, vm, m_next in zip(n_subs, steps, zip(*v_plus), zip(*v_minus), m[1:]):
        for _ in range(n_step):
            for dst, src in ghosts:
                dst[...] = src
            for i, (lo, hi, flux, tmp, f_hi, f_lo, div) in enumerate(sides):
                np.multiply(vp[i], lo, out=flux)
                np.multiply(vm[i], hi, out=tmp)
                flux += tmp
                np.subtract(f_hi, f_lo, out=div)
            for extra in divs[1:]:
                flux_div += extra
            if diffusive:
                lap = diffusion_values(g, A, cur)
                lap *= dt
            cur -= flux_div
            if diffusive:
                cur += lap
        m_next[...] = cur
    return m


def update_price(m: np.ndarray, v: np.ndarray, spec: ProblemSpec) -> np.ndarray:
    """Price path P_j = Psi(int phi v_j m_j dx), all time nodes at once."""
    return spec.Psi(spec.aggregate_kernel(v * m[:, None]))


def picard_iterate(spec: ProblemSpec, opts: PicardOptions | None = None) -> PicardResult:
    """Anderson-mixed fixed-point loop on x = (m, P); packages w = m v and gamma = f(m).

    Each sweep evaluates the residual f = G(x) - x, stops once
    max|f_m| + max|f_P| < tol_fixed_point and returns that tested x, and
    otherwise takes the type-II Anderson step (Walker and Ni, SIAM J.
    Numer. Anal. 2011) with beta = damping

        x+ = y - dY alpha,  y = x + beta f,  alpha = argmin |f - dF alpha|,

    over the last ANDERSON_DEPTH differences dF of residuals and
    dY = dX + beta dF of damped steps y, kept in preallocated ring buffers
    with the Gram matrix dF dF^T.  Each pair of rows is divided by |dF_j|,
    so the Gram matrix has a unit diagonal, and alpha solves the normal
    equations with GRAM_SHIFT added to that diagonal: a singular history
    (repeated or zero differences) still gives a finite alpha, and a zero
    history gives alpha = 0, the damped step y.  The damped step also
    replaces a candidate with a negative density (keeping m >= 0) and
    clears the history.
    """
    opts = opts or PicardOptions()
    g = spec.grid
    beta = opts.damping
    n_m = int(np.prod(g.scalar_shape))
    x = np.zeros(n_m + (g.nt + 1) * spec.k)
    x[:n_m] = np.broadcast_to(spec.m0, g.scalar_shape).ravel()
    # one difference per row; the Gram matrix gains one row and column per sweep
    dY = np.empty((ANDERSON_DEPTH, x.size))
    dF = np.empty((ANDERSON_DEPTH, x.size))
    gram = np.empty((ANDERSON_DEPTH, ANDERSON_DEPTH))
    n_pairs = 0
    y_prev = f_prev = None
    residuals = []
    converged = False
    m, P = x[:n_m].reshape(g.scalar_shape), x[n_m:].reshape(g.nt + 1, spec.k)
    u = solve_hjb(m, P, spec)
    v = feedback(u, P, spec)
    n_outer = 0
    for n_outer in range(1, opts.max_outer + 1):
        m_new = solve_fp(v, spec)
        f = np.concatenate((m_new.ravel(), update_price(m_new, v, spec).ravel()))
        f -= x
        res = float(np.abs(f[:n_m]).max()) + float(np.abs(f[n_m:]).max())
        residuals.append(res)
        if res < opts.tol_fixed_point:  # return this x, with the u and v it was tested with
            converged = True
            break
        x_next = y = x + beta * f
        if f_prev is not None:
            slot = n_pairs % ANDERSON_DEPTH
            df, dy = dF[slot], dY[slot]
            np.subtract(f, f_prev, out=df)
            np.subtract(y, y_prev, out=dy)
            norm = np.sqrt(df @ df)
            if norm > 0.0:  # unit rows: a Jacobi-scaled Gram matrix; alpha dY is unchanged
                df /= norm
                dy /= norm
            n_pairs += 1
            k = min(n_pairs, ANDERSON_DEPTH)
            col, rhs = np.stack((df, f)) @ dF[:k].T  # one pass over dF
            gram[slot, :k] = col
            gram[:k, slot] = col
            gram[slot, slot] += GRAM_SHIFT
            alpha = np.linalg.solve(gram[:k, :k], rhs)
            candidate = y - alpha @ dY[:k]
            if candidate[:n_m].min() < 0.0:
                n_pairs = 0
            else:
                x_next = candidate
        y_prev, f_prev, x = y, f, x_next
        m, P = x[:n_m].reshape(g.scalar_shape), x[n_m:].reshape(g.nt + 1, spec.k)
        u = solve_hjb(m, P, spec)
        v = feedback(u, P, spec)

    w = np.zeros(g.vector_shape)
    w[1:] = m[1:, None] * v[:-1]
    gamma = spec.coupling_f(np.maximum(m, 0.0))
    sol = Solution(grid=g, u=u, m=m, w=w, P=P, gamma=gamma)
    return PicardResult(solution=sol, iterations=n_outer, converged=converged, residuals=residuals)
