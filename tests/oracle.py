"""Independent oracles used to validate solver output.

Brute-force grid minimizers for the three proximal kernels (staged mesh
refinement down to step 1e-4 and below), and a small-grid equilibrium
oracle: projected gradient descent (Armijo, FISTA-type acceleration) on the
discretized primal cost with a quadratic penalty on the transport
constraint, refined by multiplier updates between penalty subproblems.
None of these share solver machinery with the primal-dual path: the
equilibrium oracle assembles its own dense transport matrix.
"""

import numpy as np


def refine_minimize_1d(f, lo, hi, stages=5, pts=500):
    """Staged grid refinement for a scalar unimodal-enough function."""
    for _ in range(stages):
        xs = np.linspace(lo, hi, pts)
        vals = f(xs)
        i = int(np.argmin(vals))
        step = (hi - lo) / (pts - 1)
        lo, hi = max(lo, xs[i] - 2 * step), min(hi, xs[i] + 2 * step)
    return 0.5 * (lo + hi)


def refine_minimize_2d(f, box, stages=5, pts=160):
    (alo, ahi), (blo, bhi) = box
    for _ in range(stages):
        a = np.linspace(alo, ahi, pts)
        b = np.linspace(blo, bhi, pts)
        A, B = np.meshgrid(a, b, indexing="ij")
        vals = f(A, B)
        i, j = np.unravel_index(np.argmin(vals), vals.shape)
        da = (ahi - alo) / (pts - 1)
        db = (bhi - blo) / (pts - 1)
        alo, ahi = max(alo, A[i, j] - 2 * da), min(ahi, A[i, j] + 2 * da)
        blo, bhi = max(blo, B[i, j] - 2 * db), min(bhi, B[i, j] + 2 * db)
    return 0.5 * (alo + ahi), 0.5 * (blo + bhi)


def brute_prox_F(mbar, tau, theta, q):
    def obj(m):
        return theta * m**q / q + (m - mbar) ** 2 / (2 * tau)

    hi = max(mbar, 0.0) + 1.0
    return refine_minimize_1d(obj, 0.0, hi)


def brute_prox_phi_star(pbar, sigma, kappa, s):
    sp = s / (s - 1.0)
    coeff = kappa ** (1.0 - sp)

    def obj(p):
        return coeff * np.abs(p) ** sp / sp + (p - pbar) ** 2 / (2 * sigma)

    lo, hi = min(pbar, 0.0) - 0.5, max(pbar, 0.0) + 0.5
    return refine_minimize_1d(obj, lo, hi)


def brute_prox_kinetic(mbar, wbar, tau, c, r, theta=0.0, q=2.0):
    """2-D brute force for the (joint) perspective prox, scalar momentum."""
    rp = r / (r - 1.0)
    cp = c ** (1.0 - rp)

    def obj(m, w):
        m_pos = np.where(m > 1e-12, m, 1e-12)
        kin = cp * np.abs(w) ** rp * m_pos ** (1.0 - rp) / rp
        kin = np.where(m > 1e-12, kin, np.where(np.abs(w) > 0, 1e30, 0.0))
        return tau * (kin + theta * m**q / q) + (m - mbar) ** 2 / 2 + (w - wbar) ** 2 / 2

    hi_m = max(mbar, 0.0) + abs(wbar) + 1.0
    box = ((0.0, hi_m), (min(wbar, 0.0) - 0.25, max(wbar, 0.0) + 0.25))
    return refine_minimize_2d(obj, box)


# -- small-grid equilibrium oracle -------------------------------------------


def transport_matrix(spec):
    """Dense (C, b) with C [m; w] - b the transport residual (1-D, A = 0).

    m and w are flattened from the interval layout (nt, nx); row t*nx + x is
    (m_t(x) - m_{t-1}(x))/ht + (w_t(x) - w_t(x-1))/hx with m_{-1} = m0.
    """
    g = spec.grid
    assert g.d == 1 and not np.any(spec.A), "the oracle covers 1-D instances with A = 0"
    eye_x = np.eye(g.nx)
    dt = (np.eye(g.nt) - np.eye(g.nt, k=-1)) / g.ht
    div = (eye_x - np.roll(eye_x, 1, axis=0)) / g.hx
    C = np.hstack([np.kron(dt, eye_x), np.kron(np.eye(g.nt), div)])
    b = np.zeros(g.nt * g.nx)
    b[: g.nx] = spec.m0 / g.ht
    return C, b


def _primal_value_grad(spec, m, w):
    """Value and gradient of the primal cost for q = r = 2 instances, m > 0."""
    g = spec.grid
    ht, vol = g.ht, g.cell_volume
    cp = spec.c ** (1.0 - spec.r_prime)
    m_pos = np.maximum(m, 1e-12)
    wn2 = np.sum(w * w, axis=1)
    kin = 0.5 * cp * wn2 / m_pos
    F = spec.theta * m**2 / 2
    val = float(np.sum(kin + F) * ht * vol)
    z = np.einsum("kds,tds->tk", spec.phi.reshape(spec.k, g.d, -1), w.reshape(g.nt, g.d, -1)) * vol
    val += float(np.sum(spec.Phi(z)) * ht)
    val += float(np.sum(spec.uT * m[-1]) * vol)
    gm = -0.5 * cp * wn2 / m_pos**2 + spec.theta * m
    gw = cp * w / m_pos[:, None]
    gw += np.einsum("kd...,tk->td...", spec.phi, spec.Psi(z))
    gm[-1] += spec.uT / ht
    return val, gm, gw


def equilibrium_oracle(spec, outer=20, inner=2000, rho=50.0):
    """Penalty-with-multiplier minimization of the primal cost on a small grid.

    Requires q = r = 2.  Returns (m, w, multiplier) on the interval layout
    (nt slices, no initial slot).
    """
    assert spec.q == 2.0 and spec.r == 2.0, "oracle hardcodes the quadratic family"
    g = spec.grid
    ht, vol = g.ht, g.cell_volume
    C, b = transport_matrix(spec)
    n_m = g.nt * g.nx

    def residual(m, w):
        return (C @ np.concatenate([m.ravel(), w.ravel()]) - b).reshape(m.shape)

    def al(m, w, u):
        R = residual(m, w)
        val, gm, gw = _primal_value_grad(spec, m, w)
        val += float(np.sum(u * R)) * ht * vol + 0.5 * rho * float(np.sum(R * R)) * ht * vol
        adj = C.T @ (u + rho * R).ravel()
        gm += adj[:n_m].reshape(m.shape)
        gw += adj[n_m:].reshape(w.shape)
        return val, gm, gw

    m = np.broadcast_to(spec.m0, (g.nt, *g.space_shape)).copy()
    w = np.zeros((g.nt, g.d, *g.space_shape))
    u = np.zeros((g.nt, *g.space_shape))
    alpha = 1e-2
    for _ in range(outer):
        ym, yw = m.copy(), w.copy()
        tk, f_prev = 1.0, np.inf
        for _ in range(inner):
            val, gm, gw = al(ym, yw, u)
            g2 = (float(np.sum(gm * gm)) + float(np.sum(gw * gw))) * ht * vol
            alpha *= 1.3
            while True:
                m_t = np.maximum(ym - alpha * gm, 0.0)
                w_t = yw - alpha * gw
                f_t, _, _ = al(m_t, w_t, u)
                if f_t <= val - 0.25 * alpha * g2 or alpha < 1e-15:
                    break
                alpha *= 0.5
            t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * tk * tk))
            beta = (tk - 1.0) / t_next
            ym = m_t + beta * (m_t - m)
            yw = w_t + beta * (w_t - w)
            if f_t > f_prev:
                ym, yw = m_t.copy(), w_t.copy()
                tk = 1.0
            else:
                tk = t_next
            f_prev = f_t
            m, w = m_t, w_t
        u = u + rho * residual(m, w)
    return m, w, u
