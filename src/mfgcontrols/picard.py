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
price shift phi^T P (signed, for both one-sided slopes) and the upwind
pairs (v+, v-) of the transport face velocities are likewise formed for
the whole path before the passes start.  Each pass keeps its field in one
ghost-padded buffer of shape (nx+2)^d, built once per call, so a substep
is a fixed short list of numpy calls on views and buffers made once per
call, at about 0.4 us each on the 64 x 64 bump: one strided copy per axis
refreshes the periodic ghosts 0 and nx+1 from nodes nx and 1.  For d = 1
the value substep is eleven calls: two subtractions of the neighbours
k - 1 and k + 1 from u into one slope buffer, then on both slopes at once
the price shift, the clip at a 0-d zero and the square, their sum S, the
argmax of S (cheaper than its max; the entry is read by ``item``), the
product dt c S / (r hx^r), dt f(m) minus it, and the update.  Every factor
of dt is folded in once per call at dt = ht and halved, exactly, when the
substeps double.  The density substep is six: v+ times the nodes k - 1 and
v- times the nodes k beside each face k, their sum, the flux difference
and the update.  One product over a read-only (2, ...) view of both
neighbours instead of two contiguous ones measured slower in both passes.
Feedback takes the forward differences of the whole path from
``grad_values`` and the backward ones as their shift by one node; at
r = 2 (and s = 2 in the price update) ``power_gradient`` is the linear map.
A is validated and split once per spec (``ProblemSpec.stencil``); the
stencil is applied only when A != 0, and its CFL term is ``grid.diffusion_rate``.

The value pass's CFL rate max_x(rate_coef S^e), e = (r - 1)/2, is taken
as max(rate_coef) max_x(kappa S)^e with kappa = (rate_coef / max
rate_coef)^(1/e): one scaled maximum of S and one scalar power instead of
an elementwise power, product and maximum.  The two agree up to rounding:
rate_coef S^e = max(rate_coef) (kappa S)^e at every node, and an
increasing power commutes with the maximum over nodes.  kappa <= 1, so
kappa S cannot overflow where S does not, even when e is small and 1/e
large.  A constant c has kappa = 1 exactly, so its product is skipped.
A rate that is not finite (an overflowing d c / hx^r) refuses the interval.

Nothing here shares machinery with the saddle-point path beyond the grid
stencils and ``verify.Solution`` (nothing comes from ``varsolve``), so
agreement of the two solvers is a meaningful uniqueness check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CFLViolation, InvalidOption, NegativeDensity
from .grid import diffusion_rate, diffusion_values, grad_values, shift
from .model import ProblemSpec
from .verify import Solution

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


def _axis_window(pad: np.ndarray, ax: int, start: int, stop: int, step: int = 1) -> np.ndarray:
    """View of a ghost-padded field: entries start:stop:step on axis ax, the interior on the others."""
    inner = slice(1, pad.shape[0] - 1)
    return pad[(inner,) * ax + (slice(start, stop, step),) + (inner,) * (pad.ndim - 1 - ax)]


def _ghost_padded(n: int, d: int):
    """A field buffer of shape (n+2)^d with one periodic ghost layer on each axis.

    Returns the buffer, its interior view, and per axis one (ghosts, sources)
    pair of strided views: ghosts 0 and n+1, and nodes n and 1, so one
    in-place copy per axis refreshes the wrap.
    """
    pad = np.empty((n + 2,) * d)
    ghosts = [(_axis_window(pad, i, 0, n + 2, n + 1), _axis_window(pad, i, n, 0, 1 - n))
              for i in range(d)]
    return pad, _axis_window(pad, 0, 1, n + 1), ghosts


def _wrapped(a: np.ndarray, ax: int) -> np.ndarray:
    """a with one periodic ghost entry at each end of axis ax: entries n-1, 0, 1, ..., n-1, 0."""
    lead = (slice(None),) * ax
    return np.concatenate((a[lead + (slice(-1, None),)], a, a[lead + (slice(None, 1),)]), axis=ax)


def _refuse(sweep: str, rate: float, interval: int) -> CFLViolation:
    """Refusal of an interval needing over MAX_SUBSTEPS substeps at this CFL rate (a NaN rate admits ht = 0)."""
    admissible = MAX_SUBSTEPS * CFL_SAFETY / max(rate, 1e-300) if rate <= np.inf else 0.0  # the largest ht covered
    return CFLViolation(f"explicit {sweep} sweep needs ht <= {admissible:.3e} (interval {interval})",
                        admissible_ht=admissible)


def solve_hjb(m: np.ndarray, P: np.ndarray, spec: ProblemSpec) -> np.ndarray:
    """Backward explicit sweep for the value function given (m, P).

    m is the full (nt+1)-slotted density, P the full price path; the output
    u is slotted at the left interval endpoints with u[nt] = u_T.  Substeps
    per interval double from one until the CFL bound holds; a non-finite
    CFL rate refuses the interval.  Each substep forms the Osher-Sethian sum
    xi_sq = sum_i max(D^-_i u + g_i, 0)^2 + min(D^+_i u + g_i, 0)^2
    (g = phi^T P) and steps u by dt (f(m) - c xi_sq^(r/2) / r + A_ij d_ij u).
    The slopes stay unscaled, hx (D^-_i u + g_i) and -hx (D^+_i u + g_i), so
    one maximum clips both and their squares sum to S = hx^2 xi_sq; the
    factors dt f(m), dt c / (r hx^r) and dt rho_e of the step are formed at
    dt = ht and halved when the substeps double, and d c / hx^r of the CFL
    rate once per call.  The rate max(rate_coef S^e), e = (r - 1)/2, is read
    as max(rate_coef) max(kappa S)^e; see the module docstring, which also
    lists a substep's numpy calls.
    """
    g = spec.grid
    diffusion = spec.stencil
    if m.min() < -1e-12:
        raise NegativeDensity("solve_hjb requires m >= 0")
    n, d, hx, ht = g.nx, g.d, g.hx, g.ht
    r = spec.r
    speed_expo, ham_expo = 0.5 * (r - 1.0), r / 2.0  # |xi|^(r-1) and |xi|^r from S
    rate_coef = d * spec.c / hx**r  # the CFL rate is max(rate_coef S^speed_expo)
    rate_max = float(rate_coef.max())
    kappa = None if rate_coef.min() == rate_max else (rate_coef / rate_max) ** (1.0 / speed_expo)
    ham_ht = ht * spec.c / (r * hx**r)  # dt H = ham_ht S^ham_expo at dt = ht
    diffusion_ht = tuple((e, ht * rho) for e, rho in diffusion)
    limit = CFL_SAFETY * (1.0 + 1e-12)
    pad, cur, ghosts = _ghost_padded(n, d)
    slopes = np.empty((d, 2, *g.space_shape))
    lower, upper = slopes[:, 0], slopes[:, 1]
    # per axis, the neighbours at nodes k - 1 and k + 1 of node k, and where each difference goes
    stencil = [(_axis_window(pad, i, 0, n), _axis_window(pad, i, 2, n + 2), lower[i], upper[i])
               for i in range(d)]
    pairs = np.empty((d, *g.space_shape))
    xi_sq, extras = pairs[0], list(pairs[1:])  # S accumulates in the first axis's sum of squares
    scaled, ham, zero = np.empty(g.space_shape), np.empty(g.space_shape), np.zeros(())  # 0-d: no float to convert
    u = np.empty(g.scalar_shape)
    u[g.nt] = cur[...] = spec.uT
    fm_ht = ht * spec.coupling_f(m)
    price_shift = spec.phi_transpose_price(P) * hx  # hx g, then with each slope's sign: (nt+1, d, 2, *space)
    g_signed = np.concatenate((price_shift[:, :, None], -price_shift[:, :, None]), axis=2)
    diff_rate = diffusion_rate(g, diffusion)
    for j in range(g.nt - 1, -1, -1):
        gj, rhs, ham_coef, diffusion_dt, n_sub = g_signed[j], fm_ht[j + 1], ham_ht, diffusion_ht, 1
        while True:
            dt = ht / n_sub
            for _ in range(n_sub):
                for dst, src in ghosts:
                    dst[...] = src
                for left, right, dm, dp in stencil:
                    np.subtract(cur, left, out=dm)
                    np.subtract(cur, right, out=dp)
                slopes += gj
                np.maximum(slopes, zero, out=slopes)
                np.square(slopes, out=slopes)
                np.add(lower, upper, out=pairs)
                for extra in extras:
                    xi_sq += extra
                peak = xi_sq if kappa is None else np.multiply(xi_sq, kappa, out=scaled)
                rate = rate_max * peak.item(peak.argmax()) ** speed_expo + diff_rate
                if not dt * rate <= limit:  # a NaN rate fails too
                    break
                np.multiply(xi_sq if ham_expo == 1.0 else np.power(xi_sq, ham_expo, out=ham), ham_coef, out=ham)
                if diffusion:
                    ham -= diffusion_values(g, diffusion_dt, cur)  # now dt (H - A_ij d_ij u)
                np.subtract(rhs, ham, out=ham)  # dt (f(m) - H + A_ij d_ij u)
                cur += ham
            else:
                break
            if n_sub >= MAX_SUBSTEPS or not np.isfinite(rate):
                raise _refuse("value", rate, j + 1)
            n_sub *= 2
            rhs, ham_coef = 0.5 * rhs, 0.5 * ham_coef
            diffusion_dt = tuple((e, 0.5 * rho) for e, rho in diffusion_dt)
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
        upper, gi = forward[comp], xi[comp]
        lower = shift(upper, 1, lead + i)
        lower += gi
        upper += gi
        np.add(np.maximum(lower, 0.0, out=lower), np.minimum(upper, 0.0, out=upper), out=gi)
    return -spec.dH(xi)


def solve_fp(v: np.ndarray, spec: ProblemSpec) -> np.ndarray:
    """Forward conservative upwind sweep for the density from m0.

    Interval n is driven by the drift slice v[n-1]; mass is conserved
    exactly by the flux form and nonnegativity holds under the CFL bound
    for diagonally dominant A, whose stencil weights are all >= 0 (the
    centred cross difference of any other A has negative corner weights).
    Fluxes live on the wrapped face list: along each axis, entry k is the
    face between nodes k - 1 and k, so both ends carry the same periodic
    face.  The face velocities of each interval are scaled by its substep
    over hx and split into the pair (v+, v-) before the sweep starts, so a
    substep forms each axis's flux as v+ times the nodes k - 1 plus v- times
    the nodes k beside the faces.
    """
    g = spec.grid
    diffusion = spec.stencil
    n, d, hx, ht = g.nx, g.d, g.hx, g.ht
    drift = v[:-1]  # interval n is driven by the slice v[n-1]
    speeds = np.abs(drift).reshape(g.nt, -1).max(axis=1)
    rates = d * speeds / hx + diffusion_rate(g, diffusion)
    needed = np.ceil(rates * ht / CFL_SAFETY - 1e-12)
    # capped before the cast, so an infinite or NaN rate refuses the interval below
    n_subs = np.maximum(1, np.fmin(needed, MAX_SUBSTEPS + 1)).astype(int)
    refused = np.flatnonzero(n_subs > MAX_SUBSTEPS)
    if refused.size:
        raise _refuse("transport", float(rates[refused[0]]), refused[0] + 1)
    steps = ht / n_subs
    pad, cur, ghosts = _ghost_padded(n, d)
    divs = np.empty((d, *g.space_shape))
    flux_div, extras = divs[0], list(divs[1:])  # the first axis's flux difference accumulates the others
    # per axis, the upwind pairs (v+, v-) of each interval's face velocities times dt / hx; the nodes
    # k - 1 and k beside each face k, the two flux terms, the flux and its face ends
    v_pm, sides = [], []
    for i in range(d):
        lo, hi = _ends(1 + i)
        wrapped = _wrapped(drift[:, i], 1 + i)
        faces = wrapped[lo] + wrapped[hi]
        faces *= (0.5 * (steps / hx)).reshape(-1, *(1,) * d)  # the face mean's 1/2 times each interval's dt / hx
        v_pm.append(zip(np.maximum(faces, 0.0), np.minimum(faces, 0.0)))
        flux = np.empty(faces.shape[1:])
        first, last = _ends(i)
        sides.append((_axis_window(pad, i, 0, n + 1), _axis_window(pad, i, 1, n + 2), np.empty(flux.shape),
                      np.empty(flux.shape), flux, flux[last], flux[first], divs[i]))
    m = np.empty(g.scalar_shape)
    m[0] = cur[...] = spec.m0
    # per interval, the tuple of its (v+, v-) pairs along each axis
    for n_step, dt, pms, m_next in zip(n_subs, steps, zip(*v_pm), m[1:]):
        for _ in range(n_step):
            for dst, src in ghosts:
                dst[...] = src
            for (vp, vm), (behind, ahead, t_lo, t_hi, flux, f_hi, f_lo, div) in zip(pms, sides):
                np.multiply(vp, behind, out=t_lo)  # v+ m_(k-1)
                np.multiply(vm, ahead, out=t_hi)  # v- m_k
                np.add(t_lo, t_hi, out=flux)
                np.subtract(f_hi, f_lo, out=div)
            for extra in extras:
                flux_div += extra
            if diffusion:
                lap = diffusion_values(g, diffusion, cur)
                lap *= dt
            cur -= flux_div
            if diffusion:
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
    gamma = spec.coupling_f(m)
    sol = Solution(grid=g, u=u, m=m, w=w, P=P, gamma=gamma)
    return PicardResult(solution=sol, iterations=n_outer, converged=converged, residuals=residuals)
