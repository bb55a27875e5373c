"""Anderson-accelerated fixed-point solver for the coupled system, used as a cross-check.

One outer sweep maps x = (m, P) to G(x) = (m+, P+) through four stages: a
backward explicit pass for the value function with a monotone
(Osher-Sethian type) upwind Hamiltonian, pointwise feedback evaluation, a
forward conservative upwind pass for the density, and the price update.
Each explicit pass subcycles its grid intervals with enough internal
substeps to satisfy the CFL bound computed from the current wave speeds;
forcing ``substeps=1`` on a violating configuration raises CFLViolation
with the admissible step.

The damped map x + beta (G(x) - x) contracts only for small beta (about
0.05 on the 64 x 64 bump, ~415 sweeps), so the loop mixes the last thirty
sweeps by Anderson acceleration (~90 sweeps there); see ``picard_iterate``.
Mixing conserves mass, since every difference it combines has zero mass.

Only the two explicit passes step through time.  The feedback and price
stages act on all nt+1 time slices in one vectorised call each, and the
price shift phi^T P and the transport face velocities are likewise formed
for the whole path before the passes start.  One-sided differences come
from one periodic wrap of the field (``take`` with the index
[n-1, 0, ..., n-1, 0]) sliced both ways, and the transport fluxes live on
the matching wrapped face list.  The per-axis slice tuples are built once
per pass, and each substep updates its temporaries in place.  The
diffusion matrix A is validated once per spec (``ProblemSpec.A_psd``), and
the diffusion stencil and its CFL term are formed only when A != 0.

Nothing here shares machinery with the saddle-point path beyond the grid
stencils, so agreement of the two solvers is a meaningful uniqueness check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CFLViolation, InvalidOption, NegativeDensity
from .grid import diffusion_values
from .model import ProblemSpec
from .varsolve import Solution

# Residual differences kept by the Anderson mixing.  Depth m acts like GMRES
# restarted every m residuals; on seven test instances 30 needs at most as
# many sweeps as 5, and about 0.6x as many on the 64 x 64 bump.
ANDERSON_DEPTH = 30
GRAM_SHIFT = 1e-14  # added to the unit diagonal of the Anderson Gram matrix


@dataclass
class PicardOptions:
    """``damping`` is the Anderson mixing weight beta.  The loop stops once the
    residual is strictly below ``tol_fixed_point``, so 0 runs ``max_outer`` sweeps.
    """

    damping: float = 0.5
    max_outer: int = 200
    tol_fixed_point: float = 1e-9
    cfl_safety: float = 0.5
    max_substeps: int = 4096

    def __post_init__(self):
        if not self.tol_fixed_point >= 0.0:
            raise InvalidOption("tol_fixed_point must be >= 0")
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


def _wrap_index(n: int) -> np.ndarray:
    """Take-index [n-1, 0, 1, ..., n-1, 0]: an axis with one periodic ghost node at each end."""
    return np.arange(-1, n + 1) % n


def _ends(ax: int) -> tuple:
    """Index tuples dropping the last and the first entry of axis ax."""
    lead = (slice(None),) * ax
    return lead + (slice(None, -1),), lead + (slice(1, None),)


def _slopes(u: np.ndarray, ax: int, idx: np.ndarray, hx: float):
    """(D^- u, D^+ u) along axis ax, both sliced from one periodic wrap of u."""
    lo, hi = _ends(ax)
    ext = u.take(idx, axis=ax)
    diff = (ext[hi] - ext[lo]) / hx  # entry k is D^- u at node k, i.e. D^+ u at node k - 1
    return diff[lo], diff[hi]


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
    per interval are chosen from the CFL bound unless forced.  Each substep
    forms the Osher-Sethian sum
    xi_sq = sum_i max(D^-_i u + g_i, 0)^2 + min(D^+_i u + g_i, 0)^2
    (g = phi^T P) and steps u by ht (f(m) - c xi_sq^(r/2) / r + A_ij d_ij u).
    """
    opts = opts or PicardOptions()
    g = spec.grid
    A = spec.A_psd
    diffusive = np.any(A)
    if np.min(m) < -1e-12:
        raise NegativeDensity("solve_hjb requires m >= 0")
    d, hx, ht = g.d, g.hx, g.ht
    c, r = spec.c, spec.r
    speed_expo, ham_expo = 0.5 * (r - 1.0), r / 2.0  # |xi|^(r-1) and |xi|^r from xi_sq
    limit = opts.cfl_safety * (1.0 + 1e-12)
    idx = _wrap_index(g.nx)
    axes = [(i, *_ends(i)) for i in range(d)]
    u = np.empty(g.scalar_shape)
    u[g.nt] = spec.uT
    fm = spec.coupling_f(np.maximum(m, 0.0))
    g_shift = spec.phi_transpose_price(P)
    diff_rate = _diffusion_cfl(spec) if diffusive else 0.0
    for j in range(g.nt - 1, -1, -1):
        rhs, gj, cur = fm[j + 1], g_shift[j], u[j]
        n_sub = 1 if substeps is None else substeps
        while True:
            dt = ht / n_sub
            cur[...] = u[j + 1]
            ok = True
            for _ in range(n_sub):
                for i, lo, hi in axes:
                    ext = cur.take(idx, axis=i)
                    diff = ext[hi] - ext[lo]
                    diff /= hx  # entry k is D^- u at node k, i.e. D^+ u at node k - 1
                    a = diff[lo] + gj[i]
                    b = diff[hi] + gj[i]
                    np.maximum(a, 0.0, out=a)
                    np.minimum(b, 0.0, out=b)
                    a *= a
                    b *= b
                    a += b
                    if i:
                        xi_sq += a
                    else:
                        xi_sq = a
                speed = xi_sq**speed_expo
                speed *= c
                rate = d * float(speed.max()) / hx + diff_rate
                if dt * rate > limit:
                    ok = False
                    break
                ham = xi_sq**ham_expo
                ham *= c
                ham /= r
                if diffusive:
                    ham -= diffusion_values(g, A, cur)  # now H - A_ij d_ij u
                np.subtract(rhs, ham, out=ham)  # f(m) - H + A_ij d_ij u
                ham *= dt
                cur += ham
            if ok:
                break
            if substeps is not None or n_sub >= opts.max_substeps:
                admissible = opts.cfl_safety / max(rate, 1e-300)
                raise CFLViolation(
                    f"explicit value sweep needs ht <= {admissible:.3e} (interval {j + 1})",
                    admissible_ht=admissible,
                )
            n_sub = min(2 * n_sub, opts.max_substeps)
    return u


def feedback(u: np.ndarray, P: np.ndarray, spec: ProblemSpec) -> np.ndarray:
    """Optimal drift v = -dH(x, xi), all slices at once.

    xi_i = max(D^-_i u + g_i, 0) + min(D^+_i u + g_i, 0) with g = phi^T P:
    the signed vector of the one-sided slopes the value sweep selects.
    """
    g = spec.grid
    g_shift = spec.phi_transpose_price(P)
    lead = u.ndim - g.d
    comp = (slice(None),) * lead
    idx = _wrap_index(g.nx)
    xi = np.empty(g_shift.shape)
    for i in range(g.d):
        dm, dp = _slopes(u, lead + i, idx, g.hx)
        gi = g_shift[comp + (i,)]
        xi[comp + (i,)] = np.maximum(dm + gi, 0.0) + np.minimum(dp + gi, 0.0)
    return -spec.dH(xi)


def solve_fp(v: np.ndarray, spec: ProblemSpec, opts: PicardOptions | None = None,
             substeps: int | None = None) -> np.ndarray:
    """Forward conservative upwind sweep for the density from m0.

    Interval n is driven by the drift slice v[n-1]; mass is conserved
    exactly by the flux form and nonnegativity holds under the CFL bound
    (for diagonally dominant A).  Fluxes live on the wrapped face list:
    along each axis, entry k is the face between nodes k - 1 and k, so
    both ends carry the same periodic face.
    """
    opts = opts or PicardOptions()
    g = spec.grid
    A = spec.A_psd
    diffusive = np.any(A)
    d, hx, ht = g.d, g.hx, g.ht
    idx = _wrap_index(g.nx)
    axes = [(i, *_ends(i)) for i in range(d)]
    m = np.empty(g.scalar_shape)
    m[0] = spec.m0
    drift = v[:-1]  # interval n is driven by the slice v[n-1]
    speeds = np.max(np.abs(drift).reshape(g.nt, -1), axis=1)
    rates = d * speeds / hx + (_diffusion_cfl(spec) if diffusive else 0.0)
    needed = np.ceil(rates * ht / max(opts.cfl_safety, 1e-300) - 1e-12)
    # capped before the cast, so an infinite or NaN rate refuses the interval below
    needed = np.maximum(1, np.fmin(needed, opts.max_substeps + 1)).astype(int)
    v_plus, v_minus = [], []
    for i in range(d):
        lo, hi = _ends(1 + i)
        wrapped = drift[:, i].take(idx, axis=1 + i)
        faces = 0.5 * (wrapped[lo] + wrapped[hi])
        v_plus.append(np.maximum(faces, 0.0))
        v_minus.append(np.minimum(faces, 0.0))
    # per interval, the tuples of its face velocities along each axis
    for n, vp, vm in zip(range(1, g.nt + 1), zip(*v_plus), zip(*v_minus)):
        n_sub = int(needed[n - 1]) if substeps is None else substeps
        if n_sub < needed[n - 1] or n_sub > opts.max_substeps:
            admissible = opts.cfl_safety / max(float(rates[n - 1]), 1e-300)
            raise CFLViolation(
                f"explicit transport sweep needs ht <= {admissible:.3e} (interval {n})",
                admissible_ht=admissible,
            )
        dt = ht / n_sub
        cur = m[n - 1]
        for _ in range(n_sub):
            for i, lo, hi in axes:
                ext = cur.take(idx, axis=i)
                flux = vp[i] * ext[lo]
                flux += vm[i] * ext[hi]
                div = flux[hi] - flux[lo]
                div /= hx
                if i:
                    flux_div += div
                else:
                    flux_div = div
            flux_div *= dt
            new = cur - flux_div
            if diffusive:
                new += dt * diffusion_values(g, A, cur)
            cur = new
        m[n] = cur
    return m


def update_price(m: np.ndarray, v: np.ndarray, spec: ProblemSpec) -> np.ndarray:
    """Price path P_j = Psi(int phi v_j m_j dx), all time nodes at once."""
    return spec.Psi(spec.aggregate_kernel(v * m[:, None]))


def picard_iterate(spec: ProblemSpec, opts: PicardOptions | None = None) -> PicardResult:
    """Anderson-mixed fixed-point loop on x = (m, P); packages w = m v and gamma = f(m).

    Each sweep evaluates the residual f = G(x) - x, stops once
    max|f_m| + max|f_P| < tol_fixed_point, and otherwise takes the type-II
    Anderson step (Walker and Ni, SIAM J. Numer. Anal. 2011) with beta = damping

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
    u = solve_hjb(m, P, spec, opts)
    v = feedback(u, P, spec)
    n_outer = 0
    for n_outer in range(1, opts.max_outer + 1):
        m_new = solve_fp(v, spec, opts)
        f = np.concatenate((m_new.ravel(), update_price(m_new, v, spec).ravel()))
        f -= x
        res = float(np.abs(f[:n_m]).max()) + float(np.abs(f[n_m:]).max())
        residuals.append(res)
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
        u = solve_hjb(m, P, spec, opts)
        v = feedback(u, P, spec)
        if res < opts.tol_fixed_point:
            converged = True
            break

    w = np.zeros(g.vector_shape)
    w[1:] = m[1:, None] * v[:-1]
    gamma = spec.coupling_f(np.maximum(m, 0.0))
    sol = Solution(grid=g, u=u, m=m, w=w, P=P, gamma=gamma)
    return PicardResult(solution=sol, iterations=n_outer, converged=converged, residuals=residuals)
